"""Bit pins of every per-replication statistic: sha256 digests of each
_rep_stats key of the three benchmark scenarios at seed 7, against
tests/golden/rep_digests.json.

A case runs the scenario's first replications on one scenario object
("warm": from the second replication on, the object's jump-free entry
serves them) or on a new object per replication ("cold"), and in jumps mode
with op_sups True (run_experiment) and False (convergence_study).  A key's
digest covers its dtype, shape and bytes in every replication, in order, so
a change of any bit of any statistic, or of the key order, fails here and
names the case and the key.

The rounding rule (README, "Determinism"): these digests are re-recorded
only in a change that re-records tests/golden/, from its own code, with

    PYTHONPATH=src python tests/test_rep_digest.py
"""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from opvol import experiments
from opvol.cli import resolve_scenario
from test_golden import _burst_d16, _shipped

DIGESTS = Path(__file__).resolve().parent / "golden" / "rep_digests.json"
SEED = 7

# name -> (scenario document, replications, op_sups settings); the
# replication counts keep the whole module at a few seconds
SCENARIOS = {
    "jumps-ref": (_shipped("default.json"), 24, (True, False)),
    "generator-ref": (_shipped("generator.json"), 60, (True,)),
    "jumps-burst-d16": (_burst_d16(), 6, (True, False)),
}

CASES = [f"{name}/{temp}/op_sups={op}" for name, (_, _, ops) in SCENARIOS.items()
         for temp in ("warm", "cold") for op in ops]


def scenario(name: str) -> experiments.CoupledScenario:
    """The scenario the CLI resolves from the document at seed 7."""
    doc, reps, _ = SCENARIOS[name]
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "scenario.json"
        config.write_text(json.dumps(dict(doc, replications=max(reps, 2))))
        return resolve_scenario(str(config), SEED)


def digests(case: str) -> dict[str, str]:
    """The case's key -> sha256 hex digest, in _rep_stats's key order."""
    name, temp, op = case.split("/")
    op_sups = op == "op_sups=True"
    sc = scenario(name)
    hashes = {}
    for rep in range(sc.replications):
        out = experiments._rep_stats(sc if temp == "warm" else sc.with_(), rep, op_sups)
        assert not hashes or list(out) == list(hashes), "key set differs between replications"
        for key, value in out.items():
            a = np.asarray(value)
            h = hashes.setdefault(key, hashlib.sha256())
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(a.tobytes())
    return {key: h.hexdigest() for key, h in hashes.items()}


@pytest.mark.parametrize("case", CASES)
def test_rep_stats_match_recorded_digests(case):
    want = json.loads(DIGESTS.read_text())[case]
    got = digests(case)
    assert list(got) == list(want)
    assert [key for key in want if got[key] != want[key]] == []


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps({case: digests(case) for case in CASES}, indent=1) + "\n")
