"""Smoke self-check of the benchmark at a tiny replication count.

Usage (from the root of an opvol checkout): python3 perfbench/selfcheck.py

For every workload it makes one end-to-end and two traced invocations with a
few replications, and asserts that
  * every CLI run passed its output checks;
  * every metric BENCHMARK.json declares is reported with the declared unit;
  * the traced run's per-layer self times plus experiments.rep_self_us and
    experiments.reduce_ms account for the traced engine time within 1 %;
  * the exact work counts repeat across the two traced invocations.
Takes about a minute on two cores; prints one line per workload.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

from run import HERE, WORKLOADS, run_workload

TINY_REPS = {"jumps-ref-1w": 6, "generator-ref-1w": 10, "jumps-burst-d16": 3}
SEED = 5
PARTITION_TOL = 0.01


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def invoke(name: str, trace: bool) -> tuple[dict, float]:
    log = io.StringIO()
    with contextlib.redirect_stdout(log):
        result, residual = run_workload(name, SEED, 1.0, trace, Path.cwd(), TINY_REPS[name])
    if not result["correct"]:
        raise AssertionError(f"{name}: a CLI run failed\n{log.getvalue()}")
    return result, residual


def check_units(name: str, metrics: dict, want: dict[str, str]) -> None:
    got = {k: v["unit"] for k, v in metrics.items()}
    if got != want:
        raise AssertionError(f"{name}: reported {sorted(got.items())}, declared {sorted(want.items())}")


def main() -> int:
    end_to_end, per_layer = declared("end_to_end"), declared("per_layer")
    if sorted(TINY_REPS) != sorted(WORKLOADS):
        raise AssertionError("TINY_REPS must name every workload")
    for name in WORKLOADS:
        result, _ = invoke(name, trace=False)
        check_units(name, result["metrics"], end_to_end)
        first, residual = invoke(name, trace=True)
        second, _ = invoke(name, trace=True)
        check_units(name, first["metrics"], per_layer)
        if residual > PARTITION_TOL:
            raise AssertionError(f"{name}: layer times leave {100 * residual:.2f} % of the engine unexplained")
        for metric, unit in per_layer.items():
            if unit == "count" and first["metrics"][metric] != second["metrics"][metric]:
                raise AssertionError(f"{name}: {metric} did not repeat")
        print(f"{name}: ok ({result['attempted'] + first['attempted'] + second['attempted']} CLI runs, "
              f"partition residual {100 * residual:.3f} %)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
