"""Golden values: the golden cases' numbers, within a rounding tolerance.

tests/golden_values/ is a frozen copy of the tests/golden/ CSVs as first
recorded.  A change that alters floating-point rounding on purpose
re-records tests/golden/ from its own code (see tests/test_golden.py) but
never this copy, so its results must stay within 1e-9 relative (1e-12
absolute near zero) of these values, with bound_id, level and pass unchanged.
"""

from pathlib import Path

import pytest

from test_golden import CASES, run_case

FROZEN = Path(__file__).resolve().parent / "golden_values"
RTOL = 1e-9
ATOL = 1e-12
EXACT_COLUMNS = {"bound_id", "level", "pass"}


def _table(text: str) -> tuple[list[str], list[list[str]]]:
    header, *rows = text.splitlines()
    return header.split(","), [row.split(",") for row in rows]


def _close(a: str, b: str) -> bool:
    x, y = float(a), float(b)
    return x == y or abs(x - y) <= max(RTOL * max(abs(x), abs(y)), ATOL)


@pytest.mark.parametrize("name", sorted(CASES))
def test_values_match_frozen_copy(name, tmp_path):
    header, rows = _table(run_case(name, tmp_path).decode())
    frozen_header, frozen = _table((FROZEN / f"{name}.csv").read_text())
    assert header == frozen_header
    assert len(rows) == len(frozen)
    for i, (row, ref) in enumerate(zip(rows, frozen), start=1):
        for column, got, want in zip(header, row, ref):
            same = got == want if column in EXACT_COLUMNS else _close(got, want)
            assert same, f"{name} row {i} column {column}: {got} vs frozen {want}"
