"""opvol benchmark: time `opvol verify` / `opvol converge` runs end to end.

Usage (from the root of an opvol source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every CLI run is a fresh `python3 perfbench/child.py` process that imports
``opvol`` from ``src/`` of the checkout and calls ``opvol.cli.main`` on a
JSON config this script generates; the seed becomes ``master_seed``.  Child
processes run with OPENBLAS/OMP/MKL_NUM_THREADS=1 and at most as many
workers as there are cores.  All runs are closed loop: one CLI run at a time.

Times are CPU seconds (user + system) of the CLI process and the workers it
reaped, not wall seconds: the two cores of a shared host are time-sliced
with other tenants' processes, which stretches wall time by up to 3x in
bursts of a few ms, and CPU time leaves those slices out.  For a serial,
CPU-bound run on a core of its own the two are equal.  CPU time still runs
up to 1.6x slower while a tenant loads the hardware the core shares, so each
CLI process times a fixed probe kernel (child.SpeedProbe), in CPU time,
before the engine and again after the CLI returns, outside every reported
time.  Every time the benchmark reports is raw CPU time x P_REF_S / (mean of
all probe times of the invocation's CLI runs): seconds on a core that runs
the probe in P_REF_S.  One factor per invocation, not per run: a probe is
short and catches one state, while a run averages over many.  The probe
runs in the CLI process, not here, because its speed also depends on the
process it runs in; timed in this process it followed this process, not the
runs.  Before a serial run this process still times the probe on every core
and pins the run to the core that is fastest at that moment.  Raw wall (which
includes the probes) and CPU medians are printed next to the figures.

Each invocation first makes one reference run at the default seed 1729 with a
small replication count and compares its CSV with ``reference/`` (key columns
exactly, floats within 1e-9 relative).  That run also warms the page and
bytecode caches and is not timed.

--trace 0  repeats the workload's CLI run for S seconds (at least three runs)
           and reports medians of cpu_s, setup_s, reps_per_s, peak_rss_mb.
--trace 1  repeats (untraced serial run, untraced run with two workers,
           traced serial run) for S seconds and reports medians of per-layer
           self times and exact work counts from the traced runs' spans.

Every CLI run is checked: exit code 0, CSV parses with the reference's
rows, and all runs of one invocation write byte-identical CSVs, whatever the
worker count and whether traced.  A failed run is counted in ``failed``.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from child import SpeedProbe

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1729
MIN_RUNS = 3
RUN_TIMEOUT_S = 120.0
# stop starting runs after this long, whatever --seconds says, so a much
# slower program still ends within the three-minute limit per invocation
HARD_STOP_S = 100.0
PARALLEL_WORKERS = 2
FLOAT_RTOL = 1e-9
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# probe kernel thread CPU time on one uncontended core of a 2-vCPU x86-64 VM
# (Python 3.11, numpy 2.4, OpenBLAS 0.3.31); fixes the unit of calibrated seconds
P_REF_S = 2.6e-3


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# --- workloads ---------------------------------------------------------------


def geometric(d: int) -> list[float]:
    return [0.5**k for k in range(1, d + 1)]


def kl_generator_spectrum(d: int) -> list[float]:
    """-(2 / ((2j - 1) pi))^2, bit-identical to the package's reference spectrum."""
    out = []
    for j in range(1, d + 1):
        x = 2.0 / ((2 * j - 1) * 3.141592653589793)
        out.append(-(x * x))
    return out


def reference_scenario(truncation: str) -> dict:
    """The shipped configs/default.json (jumps) and configs/generator.json scenarios."""
    d = 8
    return {
        "d": d, "levels": [2, 4, 6], "horizon": 1.0, "m_points": 200, "rate": 1.0,
        "jump_gammas": geometric(d), "q_spectrum": geometric(d),
        "generator_kind": "sylvester", "generator_spectrum": kl_generator_spectrum(d),
        "forward_kind": "diagonal", "forward_spectrum": [0.0] * d,
        "v0_diag": geometric(d), "truncation": truncation,
        "payoff_kind": "call", "payoff_strike": 0.0, "functional_coordinate": 0,
        "exercise_time": 1.0, "truncate_v0": False,
    }


def burst_scenario() -> dict:
    """d=16, about 20 jumps per replication, skew forward semigroup."""
    d = 16
    return dict(
        reference_scenario("jumps"),
        d=d, levels=[2, 4, 8, 12], rate=20.0,
        jump_gammas=geometric(d), q_spectrum=geometric(d), v0_diag=geometric(d),
        generator_spectrum=kl_generator_spectrum(d),
        forward_kind="skew", forward_spectrum=[1.0] * d, truncate_v0=True,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # opvol subcommand
    scenario: dict
    threads: int
    reps: int  # replications per measured CLI run
    ref_reps: int  # replications of the default-seed reference run
    reference: str  # CSV file under reference/


WORKLOADS = {w.name: w for w in (
    Workload("jumps-ref-1w", "verify", reference_scenario("jumps"), 1, 160, 24, "jumps-ref.csv"),
    Workload("generator-ref-1w", "verify", reference_scenario("generator"), 1, 400, 60,
             "generator-ref.csv"),
    Workload("jumps-burst-d16", "converge", burst_scenario(), 1, 16, 4, "jumps-burst-d16.csv"),
)}


# --- machine speed calibration ---------------------------------------------


def probe_on(probe: SpeedProbe, cpu: int) -> float:
    """Probe time with this process pinned to cpu."""
    home = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        return probe.time()
    finally:
        os.sched_setaffinity(0, home)


# --- output checks -----------------------------------------------------------

CSV_FILE = {"verify": "bounds.csv", "converge": "convergence.csv"}
HEADER = {
    "verify": ["bound_id", "level", "lhs", "lhs_stderr", "rhs", "margin", "pass"],
    "converge": ["level", "bound_id", "estimate", "stderr"],
}
KEY_COLUMNS = {"bound_id", "level", "pass"}


def parse_csv(text: str, command: str) -> list[list[str]]:
    """Rows of a report CSV; raises ValueError on any schema violation."""
    lines = text.split("\n")
    if lines[-1] != "" or lines[0] != ",".join(HEADER[command]):
        raise ValueError("bad header or missing final newline")
    rows = [line.split(",") for line in lines[1:-1]]
    if not rows:
        raise ValueError("no rows")
    for row in rows:
        if len(row) != len(HEADER[command]):
            raise ValueError(f"row has {len(row)} fields: {row}")
        for name, cell in zip(HEADER[command], row):
            if name == "level":
                int(cell)
            elif name == "pass":
                if cell not in ("true", "false"):
                    raise ValueError(f"pass column reads {cell!r}")
            elif name != "bound_id":
                float(cell)
    return rows


def close(a: str, b: str) -> bool:
    x, y = float(a), float(b)
    if x == y:  # covers equal infinities
        return True
    return abs(x - y) <= FLOAT_RTOL * max(abs(x), abs(y))


def compare_rows(rows, ref_rows, command: str, floats: bool) -> str | None:
    """Problem description, or None when rows match the reference."""
    if len(rows) != len(ref_rows):
        return f"{len(rows)} rows, reference has {len(ref_rows)}"
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for name, a, b in zip(HEADER[command], row, ref):
            same = a == b if name in KEY_COLUMNS else (not floats or close(a, b))
            if not same:
                return f"row {i + 1} column {name}: {a} vs reference {b}"
    return None


# --- one CLI run -------------------------------------------------------------


@dataclass
class CliRun:
    problem: str | None = None  # None when every check passed
    wall_s: float = float("nan")
    setup_s: float = float("nan")
    engine_s: float = float("nan")
    cpu_s: float = float("nan")  # CPU seconds of the run, self and reaped workers
    setup_cpu_s: float = float("nan")
    engine_cpu_s: float = float("nan")
    peak_rss_mb: float = float("nan")
    probes: list[float] = field(default_factory=list)  # the CLI process's probe times
    csv: bytes = b""
    spans: list = field(default_factory=list)


class Bench:
    """State of one benchmark invocation: checkout, scratch directory, tally."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.cpus = sorted(os.sched_getaffinity(0))
        self.cores = len(self.cpus)
        self.probe = SpeedProbe()
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), **PINNED_ENV)
        # the seed comes from the config alone, and opvol's bytecode is cached
        # by the untimed reference run, as it would be for an installed package
        self.env.pop("OPVOL_SEED", None)
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.attempted = 0
        self.failed = 0
        self._count = 0

    def workers(self, wanted: int) -> int:
        return max(1, min(wanted, self.cores))

    def run(self, w: Workload, seed: int, reps: int, threads: int, trace: bool = False,
            expect: list[list[str]] | None = None, floats: bool = False) -> CliRun:
        """Run the CLI once and check its CSV against expect's key columns."""
        self._count += 1
        tag = self.work / f"run{self._count}"
        tag.mkdir()
        config = dict(w.scenario, replications=reps, master_seed=seed)
        (tag / "config.json").write_text(json.dumps(config), encoding="utf-8")
        argv = [sys.executable, str(HERE / "child.py"), str(tag / "record.json"),
                "1" if trace else "0", "--", w.command, str(tag / "config.json"),
                "--threads", str(self.workers(threads)), "--out-dir", str(tag / "out")]
        out = CliRun()
        before = {cpu: probe_on(self.probe, cpu) for cpu in self.cpus}
        used = self.cpus if self.workers(threads) > 1 else [min(before, key=before.get)]
        home = os.sched_getaffinity(0)
        with open(tag / "log.txt", "wb") as log:
            os.sched_setaffinity(0, used)  # inherited by the child
            try:
                start = now()
                proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                        stdin=subprocess.DEVNULL, stdout=log, stderr=log)
            finally:
                os.sched_setaffinity(0, home)
            # Popen.wait(timeout) polls with sleeps of up to 50 ms, which would
            # quantize wall_s; a blocking wait plus a kill timer does not.
            timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
            timer.start()
            proc.wait()
            out.wall_s = now() - start
            timer.cancel()
            timer.join()
        if out.wall_s >= RUN_TIMEOUT_S:
            out.problem = f"killed after {RUN_TIMEOUT_S:.0f} s"
        if out.problem is None:
            out.problem = self._check(proc.returncode, tag, w.command, start, out, expect, floats)
        self.attempted += 1
        if out.problem is not None:
            self.failed += 1
            log_tail = (tag / "log.txt").read_text(errors="replace").strip().splitlines()[-5:]
            print(f"perfbench: {w.name} run {self._count} failed: {out.problem}", file=sys.stderr)
            for line in log_tail:
                print(f"  | {line}", file=sys.stderr)
        return out

    def _check(self, rc, tag, command, start, out, expect, floats) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        record = json.loads((tag / "record.json").read_text(encoding="utf-8"))
        src = str(self.root / "src") + os.sep
        if not record["opvol_file"].startswith(src):
            return f"imported opvol from {record['opvol_file']}, not from {src}"
        out.setup_s = record["engine_start"] - start
        out.setup_s -= record["probe_wall_s"]
        out.engine_s = record["engine_end"] - record["engine_start"]
        out.cpu_s = record["run_cpu_s"]
        out.setup_cpu_s = record["setup_cpu_s"]
        out.engine_cpu_s = record["engine_cpu_s"]
        out.probes = record["probes"]
        out.peak_rss_mb = record["peak_rss_kb"] / 1024.0
        out.spans = record["spans"]
        try:
            out.csv = (tag / "out" / CSV_FILE[command]).read_bytes()
            rows = parse_csv(out.csv.decode("utf-8"), command)
        except (OSError, UnicodeDecodeError, ValueError) as exc:
            return f"unreadable CSV: {exc}"
        return compare_rows(rows, expect, command, floats) if expect is not None else None

    def reference_run(self, w: Workload) -> list[list[str]]:
        """Default-seed run checked against the recorded CSV; returns its rows."""
        ref_rows = parse_csv((HERE / "reference" / w.reference).read_text(encoding="utf-8"),
                             w.command)
        self.run(w, DEFAULT_SEED, w.ref_reps, w.threads, expect=ref_rows, floats=True)
        return ref_rows


def same_csv(runs: list[CliRun], bench: Bench, what: str) -> None:
    """Every passing run must write the bytes of the first passing run."""
    good = [r for r in runs if r.problem is None]
    for r in good[1:]:
        if r.csv != good[0].csv:
            r.problem = f"CSV differs from the first run ({what})"
            bench.failed += 1
            print(f"perfbench: {r.problem}", file=sys.stderr)


# --- statistics --------------------------------------------------------------


def calibration(runs: list[CliRun]) -> float:
    """Calibrated seconds per raw second over an invocation's runs."""
    return P_REF_S / statistics.fmean(p for r in runs for p in r.probes)


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def summary_line(name: str, unit: str, values: list[float]) -> str:
    t = tail(values)
    tail_text = f"p{t[0]:.0f}={t[1]:.6g}" if t else "tail n/a (needs 11 samples)"
    return f"{name:<14} {statistics.median(values):>12.6g} {unit:<5} median, {tail_text}, n={len(values)}"


# --- end-to-end runs ---------------------------------------------------------


def end_to_end(bench: Bench, w: Workload, seed: int, seconds: float, reps: int) -> dict:
    expect = bench.reference_run(w)
    runs: list[CliRun] = []
    start = now()
    while True:
        runs.append(bench.run(w, seed, reps, w.threads, expect=expect))
        elapsed = now() - start
        if elapsed > HARD_STOP_S or (len(runs) >= MIN_RUNS and elapsed + runs[-1].wall_s > seconds):
            break
    same_csv(runs, bench, "repeat at one seed")
    good = [r for r in runs if r.problem is None] or runs
    scale = calibration(good)
    raw = {
        "wall_s": ("s", [r.wall_s for r in good]),
        "wall_setup_s": ("s", [r.setup_s for r in good]),
        "wall_reps_per_s": ("1/s", [reps / r.engine_s for r in good]),
        "cpu_s": ("s", [r.cpu_s for r in good]),
        "reps_per_cpu_s": ("1/s", [reps / r.engine_cpu_s for r in good]),
    }
    series = {
        "cpu_s": ("s", [r.cpu_s * scale for r in good]),
        "setup_s": ("s", [r.setup_cpu_s * scale for r in good]),
        "reps_per_s": ("1/s", [reps / (r.engine_cpu_s * scale) for r in good]),
        "peak_rss_mb": ("MB", [r.peak_rss_mb for r in good]),
    }
    for name, (unit, values) in series.items():
        print(summary_line(name, unit, values))
    print("raw medians: " + ", ".join(
        f"{name}={statistics.median(values):.6g} {unit}" for name, (unit, values) in raw.items())
        + f"; calibrated seconds per raw second {scale:.6g}")
    return {name: {"value": statistics.median(values), "unit": unit}
            for name, (unit, values) in series.items()}


# --- traced runs -------------------------------------------------------------

LAYER_SPANS = {  # span name -> self-time metric
    "operators.psd_sqrt": "operators.psd_sqrt_us",
    "variance.sup_norm": "variance.sup_norm_us",
    "variance.evolve": "variance.evolve_us",
    "variance.stepper": "variance.stepper_us",
    "variance.grid": "variance.grid_us",
    "forward.simulate": "forward.simulate_self_us",
    "forward.sup_error": "forward.sup_error_us",
    "processes.sample": "processes.sample_us",
    "processes.wiener": "processes.wiener_us",
    "pricing.payoff": "pricing.payoff_us",
    "experiments.rep": "experiments.rep_self_us",
}
COUNT_SPANS = {  # span name -> exact work count per replication
    "operators.psd_sqrt": "operators.psd_sqrt_matrices_per_rep",
    "variance.sup_norm": "variance.sup_norm_eig_matrices_per_rep",
    "variance.grid": "variance.grid_slots_per_rep",
    "forward.simulate": "forward.steps_per_rep",
    "processes.sample": "processes.jumps_per_rep",
}
# Golub & Van Loan, Matrix Computations, sec. 8.3: symmetric QR costs about
# 9 n^3 flops with eigenvectors and 4 n^3 / 3 for eigenvalues alone.
EIGH_FLOPS = 9.0
EIGVALSH_FLOPS = 4.0 / 3.0


def layer_metrics(spans: list, reps: int, d: int, scale: float) -> tuple[dict, float]:
    """Per-layer metrics (name -> (value, unit)) and the partition residual.

    Spans are in thread CPU seconds.  Self time is a span's duration minus
    its children's; spans nest in one thread, so children never overlap.  Layer metrics sum the spans inside
    replications; times are multiplied by scale, calibrated seconds per raw
    second.  The residual is the share of the engine span that replication
    self and layer times plus reduce_ms leave unexplained.
    """
    child = [0.0] * len(spans)
    in_rep = [False] * len(spans)
    for i, (name, t0, t1, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += t1 - t0
            in_rep[i] = in_rep[parent] or spans[parent][0] == "experiments.rep"
    self_s = {name: 0.0 for name in LAYER_SPANS}
    counts = {name: 0 for name in COUNT_SPANS}
    by_name: dict[str, list] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(span)
        if in_rep[i] or span[0] == "experiments.rep":
            self_s[span[0]] += span[2] - span[1] - child[i]
            if span[0] in counts:
                counts[span[0]] += span[5]

    (engine,) = by_name["engine"]
    rep_us = [(s[2] - s[1]) * scale * 1e6 for s in by_name["experiments.rep"]]
    last_rep_end = max(s[2] for s in by_name["experiments.rep"])
    out = {metric: (self_s[name] * scale / reps * 1e6, "us") for name, metric in LAYER_SPANS.items()}
    out.update({metric: (counts[name] / reps, "count") for name, metric in COUNT_SPANS.items()})
    out["experiments.rep_us_p50"] = (statistics.median(rep_us), "us")
    out["experiments.rep_us_tail"] = (sorted(rep_us)[math.ceil(0.9 * len(rep_us)) - 1], "us")
    out["experiments.reduce_ms"] = ((engine[2] - last_rep_end) * scale * 1e3, "ms")
    out["operators.psd_sqrt_mflop_computed"] = (
        out["operators.psd_sqrt_matrices_per_rep"][0] * EIGH_FLOPS * d**3 / 1e6, "Mflop")
    out["variance.sup_norm_mflop_computed"] = (
        out["variance.sup_norm_eig_matrices_per_rep"][0] * EIGVALSH_FLOPS * d**3 / 1e6, "Mflop")
    out["cli.resolve_ms"] = (sum(s[2] - s[1] for s in by_name["cli.resolve"]) * scale * 1e3, "ms")
    out["cli.write_ms"] = (sum(s[2] - s[1] for s in by_name["cli.write"]) * scale * 1e3, "ms")

    engine_s = engine[2] - engine[1]
    explained = sum(v for name, (v, _) in out.items() if name in LAYER_SPANS.values())
    explained = (explained * reps / 1e6 + out["experiments.reduce_ms"][0] / 1e3) / scale
    return out, abs(engine_s - explained) / engine_s


def traced(bench: Bench, w: Workload, seed: int, seconds: float, reps: int) -> tuple[dict, float]:
    """Repeat (serial, parallel, traced serial) runs for about `seconds`.

    Reports the median of each per-layer metric over the traced runs,
    parallel efficiency from median wall engine times, tracing overhead from
    median CPU engine times, and
    the largest partition residual.
    """
    expect = bench.reference_run(w)
    workers = bench.workers(PARALLEL_WORKERS)
    trios: list[tuple[CliRun, CliRun, CliRun]] = []
    start = now()
    while True:
        trios.append((
            bench.run(w, seed, reps, 1, expect=expect),
            bench.run(w, seed, reps, workers, expect=expect),
            bench.run(w, seed, reps, 1, trace=True, expect=expect),
        ))
        elapsed = now() - start
        if elapsed > HARD_STOP_S or elapsed * (len(trios) + 1) / len(trios) > seconds:
            break
    same_csv([r for trio in trios for r in trio], bench, "serial, parallel and traced runs")
    trios = [trio for trio in trios if all(r.problem is None for r in trio)]
    if not trios:
        return {}, float("nan")
    scale = calibration([r for trio in trios for r in trio])
    samples = [layer_metrics(t.spans, reps, w.scenario["d"], scale) for _, _, t in trios]
    serial_s, parallel_s = (statistics.median(trio[i].engine_s for trio in trios) for i in (0, 1))
    serial_cpu_s, traced_cpu_s = (
        statistics.median(trio[i].engine_cpu_s for trio in trios) for i in (0, 2))
    layers = {name: (statistics.median(s[0][name][0] for s in samples), unit)
              for name, (_, unit) in samples[0][0].items()}
    layers["experiments.parallel_eff"] = (serial_s / (workers * parallel_s), "ratio")
    layers["trace.overhead_pct"] = (100.0 * (traced_cpu_s / serial_cpu_s - 1.0), "%")
    metrics = {}
    for name, (value, unit) in layers.items():
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:<40} {value:>14.6g} {unit:<5} median, n={len(trios)}")
    residual = max(r for _, r in samples)
    print(f"eigensolver Mflop are computed for {w.scenario['d']}x{w.scenario['d']} matrices, "
          f"not measured; {workers} workers in the parallel runs; "
          f"largest trace partition residual {100.0 * residual:.3f} %")
    return metrics, residual


# --- entry point -------------------------------------------------------------


def environment(root: Path, cores: int) -> str:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"
    if (root / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                               text=True, env=dict(os.environ, GIT_DIR=str(root / ".git")))
        commit = probe.stdout.strip() or commit
    return (f"cores={cores} python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} blas={blas.get('name')}-{blas.get('version')} "
            f"commit={commit}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path,
                 reps: int | None = None) -> tuple[dict, float]:
    """Run one invocation; prints the report, returns (result JSON, residual)."""
    w = WORKLOADS[name]
    reps = reps or w.reps
    os.environ.update(PINNED_ENV)  # before numpy loads, for the speed probe
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    work = work_root / f"{name}-{os.getpid()}"
    work.mkdir()
    try:
        bench = Bench(root, work)
        print(f"workload={name} seed={seed} seconds={seconds:g} trace={int(trace)} "
              f"reps={reps} workers={bench.workers(w.threads)} {environment(root, bench.cores)}")
        residual = float("nan")
        if trace:
            metrics, residual = traced(bench, w, seed, seconds, reps)
        else:
            metrics = end_to_end(bench, w, seed, seconds, reps)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"fail_frac {bench.failed / bench.attempted:.6g} ({bench.failed}/{bench.attempted} runs)")
    result = {"correct": bench.failed == 0, "attempted": bench.attempted,
              "failed": bench.failed, "metrics": metrics}
    return result, residual


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "opvol" / "cli.py").is_file():
        print(f"perfbench: {root} holds no src/opvol/cli.py; run from the root of an "
              "opvol checkout", file=sys.stderr)
        return 2
    result, _ = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
