"""The benchmark's layer tracer still finds and sees every engine layer.

perfbench/child.py wraps engine functions by attribute name (for example
``opvol.experiments.evolve_coupled``) and records one span per call.  A
renamed or no longer called function would otherwise break only traced
benchmark runs, so each case runs one tiny traced ``verify`` in a subprocess
and checks its exit code and the span names it recorded.
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


@pytest.mark.parametrize(
    "truncation, expected",
    [("jumps", COMMON | JUMPS_ONLY), ("generator", COMMON)],
)
def test_traced_verify_records_every_layer(tmp_path, truncation, expected):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({"truncation": truncation, "replications": 4, "m_points": 20}))
    record = tmp_path / "record.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), str(record), "1", "--",
         "verify", str(config), "--threads", "1", "--out-dir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    names = {span[0] for span in json.loads(record.read_text())["spans"]}
    assert expected <= names, sorted(expected - names)
