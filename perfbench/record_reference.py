"""Record the reference CSVs that every benchmark invocation checks against.

Usage (from the root of an opvol checkout): python3 perfbench/record_reference.py

Runs each workload's reference problem once, serially, at the default seed and
writes its CSV to perfbench/reference/.  Re-record only for a change that is
meant to alter results, and say so where the change is described.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from run import DEFAULT_SEED, HERE, WORKLOADS, Bench


def main() -> int:
    root = Path.cwd()
    (HERE / "reference").mkdir(exist_ok=True)
    (HERE / ".work").mkdir(exist_ok=True)
    done = set()
    with tempfile.TemporaryDirectory(dir=HERE / ".work") as work:
        bench = Bench(root, Path(work))
        for w in WORKLOADS.values():
            if w.reference in done:
                continue
            run = bench.run(w, DEFAULT_SEED, w.ref_reps, 1)
            if run.problem is not None:
                return 1
            (HERE / "reference" / w.reference).write_bytes(run.csv)
            done.add(w.reference)
            print(f"wrote reference/{w.reference}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
