"""Bit pins of every reduced row: float.hex of each field of every
BoundReport, PricingReport and ConvergenceRow, against
tests/golden/reduction_digests.json.

The golden CSVs leave out rhs_stderr and three pricing stderrs, and their
four runs reach only part of the reduction.  The cases here add a jumps-mode
verify with truncate_v0 (no sqrt_jumps_k1 row), a positive forward spectrum
(bound_forward's e^{2kT} branch), a constant payoff (a cap of 0 with a
stderr of 0), a sandwich generator and a generator-mode converge, all at
seed 7 with few replications.  A verify case pins run_experiment's reports
and pricing rows, a converge case convergence_study's rows and its monotone
flags.

The rounding rule (README, "Determinism"): these values are re-recorded
only in a change that re-records tests/golden/, from its own code, with

    PYTHONPATH=src python tests/test_reduction_digest.py
"""

import dataclasses
import json
import tempfile
from pathlib import Path

import pytest

from opvol import experiments
from opvol.cli import resolve_scenario
from test_golden import _burst_d16, _shipped

DIGESTS = Path(__file__).resolve().parent / "golden" / "reduction_digests.json"
SEED = 7

GROWTH = [0.5**k for k in range(1, 9)]  # a positive forward spectrum: k = 0.5

# name -> (scenario document, commands); the replication counts keep the
# whole module at a few seconds
SCENARIOS = {
    "jumps-ref": (_shipped("default.json", replications=24), ("verify", "converge")),
    "generator-ref": (_shipped("generator.json", replications=60), ("verify", "converge")),
    "jumps-burst-d16": (_burst_d16(replications=6), ("verify", "converge")),
    "truncate-v0-put-growth": (
        _shipped("default.json", replications=24, truncate_v0=True, payoff_kind="put",
                 payoff_strike=0.5, forward_spectrum=GROWTH),
        ("verify", "converge"),
    ),
    "constant-payoff": (
        _shipped("default.json", replications=24, payoff_kind="constant", payoff_strike=5.0),
        ("verify", "converge"),
    ),
    "sandwich-jumps": (
        _shipped("default.json", replications=24, generator_kind="sandwich"),
        ("verify", "converge"),
    ),
    "sandwich-generator": (
        _shipped("generator.json", replications=60, generator_kind="sandwich"),
        ("verify", "converge"),
    ),
}

CASES = [f"{name}/{command}" for name, (_, commands) in SCENARIOS.items() for command in commands]


def scenario(name: str) -> experiments.CoupledScenario:
    """The scenario the CLI resolves from the document at seed 7."""
    doc, _ = SCENARIOS[name]
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "scenario.json"
        config.write_text(json.dumps(doc))
        return resolve_scenario(str(config), SEED)


def pinned(row) -> list:
    """The row's fields in declaration order, each float as float.hex."""
    return [float.hex(v) if isinstance(v, float) else v for v in dataclasses.astuple(row)]


def digests(case: str) -> dict:
    """The case's reduced rows, each as pinned gives it."""
    name, command = case.split("/")
    if command == "verify":
        result = experiments.run_experiment(scenario(name))
        return {"reports": [pinned(r) for r in result.reports],
                "pricing": [pinned(p) for p in result.pricing]}
    study = experiments.convergence_study(scenario(name))
    return {"rows": [pinned(r) for r in study.rows], "monotone": dict(sorted(study.monotone.items()))}


@pytest.mark.parametrize("case", CASES)
def test_reduced_rows_match_recorded_values(case):
    want = json.loads(DIGESTS.read_text())[case]
    got = json.loads(json.dumps(digests(case)))
    assert got == want


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps({case: digests(case) for case in CASES}, indent=1) + "\n")
