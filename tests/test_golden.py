"""Golden outputs: the CLI's CSV bytes for fixed small runs.

Each case below runs one CLI command in-process and compares its CSV with a
file recorded under tests/golden/, so any change of any result shows here.
The rounding rule (README, "Determinism"): a refactor keeps these bytes.  A
change that alters floating-point rounding on purpose re-records them from
its own code, in the same change, with

    PYTHONPATH=src python tests/test_golden.py

It must keep tests/test_golden_values.py passing unchanged (every value
within 1e-9 relative of the frozen tests/golden_values/ copy, which is
never re-recorded), and it lists in CHANGES.md the kernels it changed and
the largest relative difference per CSV.  Byte identity across worker
counts and across repeats stays exact.
"""

import json
import sys
from pathlib import Path

import pytest

from opvol.cli import EXIT_PASS, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


def _shipped(name: str, **overrides) -> dict:
    doc = json.loads((ROOT / "configs" / name).read_text())
    doc.update(overrides)
    return doc


def _burst_d16(**overrides) -> dict:
    """d=16 jump truncation with a skew forward semigroup and many jumps."""
    d = 16
    geo = [0.5**k for k in range(1, d + 1)]
    kl = [-((2.0 / ((2 * j - 1) * 3.141592653589793)) ** 2) for j in range(1, d + 1)]
    return _shipped(
        "default.json", d=d, levels=[2, 4, 8, 12], rate=20.0, m_points=50,
        jump_gammas=geo, q_spectrum=geo, v0_diag=geo, generator_spectrum=kl,
        forward_kind="skew", forward_spectrum=[1.0] * d, truncate_v0=True,
        **overrides,
    )


# name -> (subcommand, scenario document, CSV the subcommand writes)
CASES = {
    "default-verify": ("verify", _shipped("default.json", replications=24), "bounds.csv"),
    "default-price": ("price", _shipped("default.json", replications=24), "pricing.csv"),
    "generator-verify": ("verify", _shipped("generator.json", replications=60), "bounds.csv"),
    "burst-d16-converge": ("converge", _burst_d16(replications=6), "convergence.csv"),
}


def run_case(name: str, work: Path) -> bytes:
    command, doc, csv = CASES[name]
    work.mkdir(parents=True, exist_ok=True)
    config = work / f"{name}.json"
    config.write_text(json.dumps(doc))
    out = work / name
    code = main([command, str(config), "--threads", "1", "--out-dir", str(out)])
    assert code == EXIT_PASS
    return (out / csv).read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_bytes_match_golden(name, tmp_path):
    assert run_case(name, tmp_path) == (GOLDEN / f"{name}.csv").read_bytes()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            (GOLDEN / f"{case}.csv").write_bytes(run_case(case, Path(tmp)))
            print(f"recorded {case}", file=sys.stderr)
