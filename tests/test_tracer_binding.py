"""The benchmark's layer tracer still finds and sees every engine layer.

perfbench/child.py wraps engine functions by attribute name (for example
``opvol.experiments.evolve_coupled``) and records one span per call.  A
renamed or no longer called function would otherwise break only traced
benchmark runs, so each case runs one tiny traced ``verify`` or ``converge``
(the jumps-burst-d16 workload's command, through convergence_study) in a
subprocess and checks its exit code and the span names it recorded.  The
verify cases start with a jump-free replication, so the replications with a
jump after it hand sup_norm_stack only the slots from their first jump on,
and the tracer's work counter must see those calls too; a later jump-free
replication takes everything from the first and records no layer span.
Generator mode sweeps HS sups alone, so its counter reads 0 in every
sup_norm_stack span.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

COMMON = {
    "cli.resolve", "cli.write", "engine", "experiments.rep", "processes.sample",
    "variance.grid", "variance.stepper", "variance.evolve", "variance.sup_norm",
}
JUMPS_ONLY = {
    "forward.simulate", "forward.sup_error", "operators.psd_sqrt", "processes.wiener",
    "pricing.payoff",
}


def traced_spans(tmp_path, command, scenario):
    """The spans [name, start, end, parent, replication, count] of one
    traced CLI run of command on the scenario document, which must exit
    0."""
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(scenario))
    record = tmp_path / "record.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), str(record), "1", "--",
         command, str(config), "--threads", "1", "--out-dir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(record.read_text())["spans"]


def assert_hs_sweeps_only(spans):
    """Every sup_norm_stack span counts 0 matrices: HS sups alone, no op
    sweep, as in generator mode and in convergence_study."""
    counts = [span[5] for span in spans if span[0] == "variance.sup_norm"]
    assert counts and not any(counts)


@pytest.mark.parametrize(
    "truncation, expected",
    [("jumps", COMMON | JUMPS_ONLY), ("generator", COMMON)],
)
def test_traced_verify_records_every_layer(tmp_path, truncation, expected):
    # at seed 13 replications 0 and 8 draw no jump and replications 1 to 7 do
    spans = traced_spans(tmp_path, "verify", {
        "truncation": truncation, "replications": 9, "m_points": 20, "master_seed": 13})
    names = {span[0] for span in spans}
    assert expected <= names, sorted(expected - names)
    # replication 8 builds, evolves, decomposes and sweeps nothing
    assert 8 in {span[4] for span in spans if span[0] == "experiments.rep"}
    layers = {"variance.grid", "variance.evolve", "variance.sup_norm", "operators.psd_sqrt"}
    assert not [span for span in spans if span[4] == 8 and span[0] in layers]
    # per replication, its grid size and the matrices counted per op sup
    grid = {span[4]: span[5] for span in spans if span[0] == "variance.grid"}
    assert sorted(grid) == [0, 1, 2, 3, 4, 5, 6, 7]
    if truncation == "generator":
        assert_hs_sweeps_only(spans)
        return
    op = {}
    for name, _, _, _, rep, count in spans:
        if name == "variance.sup_norm" and count:
            op.setdefault(rep, set()).add(count)
    assert op[0] == {grid[0]} == {21}
    for rep in range(1, 8):
        (slots,) = op[rep]
        assert 0 < slots < grid[rep]


def test_traced_converge_records_every_layer(tmp_path):
    # the burst's shape in small: skew forward semigroup, V0 truncated too
    spans = traced_spans(tmp_path, "converge", {
        "forward_kind": "skew", "forward_spectrum": [1.0] * 8, "truncate_v0": True,
        "levels": [2, 4, 6], "rate": 3.0, "replications": 4, "m_points": 20,
    })
    names = {span[0] for span in spans}
    expected = COMMON | JUMPS_ONLY
    assert expected <= names, sorted(expected - names)
    assert_hs_sweeps_only(spans)
