"""Run one `opvol` CLI invocation under the benchmark's clock.

Usage: python3 child.py RECORD_JSON TRACE -- OPVOL_ARGS...

The process calls ``opvol.cli.main(OPVOL_ARGS)`` and, when it returns, writes
RECORD_JSON with the exit code, the CLOCK_MONOTONIC times at which the engine
(``run_experiment`` or ``convergence_study``) was entered and returned, the
CPU seconds (user + system, this process and the worker processes it reaped)
spent before the engine, in it and in the whole run, and the peak resident
set of this process and of its reaped workers.  CLOCK_MONOTONIC is
system-wide, so the parent can subtract its own launch time from these stamps.
CPU time leaves out the time slices other processes of a shared host take
from this one, which wall time counts.  RECORD_JSON also holds the two times
of the speed probe this process runs before the engine and after the CLI
returns; the probe's CPU time is left out of the CPU seconds above.

With TRACE=1 the public functions the engine calls are wrapped, as bound in
the ``opvol.cli``, ``opvol.experiments`` and ``opvol.forward`` namespaces,
plus the replication worker ``experiments._rep_stats``.  Each wrapper records
one span [name, start, end, parent index, replication, count] in memory, in
CPU seconds of the thread (CLOCK_THREAD_CPUTIME_ID); the spans go into
RECORD_JSON at exit.  Tracing is only meaningful for serial runs: worker
processes do not report spans.
"""

from __future__ import annotations

import functools
import json
import math
import resource
import sys
import time


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cpu_s() -> float:
    """CPU seconds of this process and of the children it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


class Tracer:
    """Span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.rep = -1

    def wrap(self, name, fn, count=None, rep_arg=None):
        """Wrap fn so every call records a span called name.

        count(args, result) gives the span's work count; rep_arg is the
        position of the replication argument that tags this span and all of
        its descendants.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_rep = self.rep
            if rep_arg is not None:
                self.rep = int(args[rep_arg])
            span = [name, time.thread_time(), 0.0, self._stack[-1] if self._stack else -1,
                    self.rep, 0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.thread_time()
                self._stack.pop()
                self.rep = outer_rep
            if count is not None:
                span[5] = int(count(args, out))
            return out

        return traced


class SpeedProbe:
    """Times a fixed kernel in thread CPU seconds: a batched 8x8 eigh, as the
    engine does, and a pure-Python loop, for interpreter speed."""

    def __init__(self) -> None:
        import numpy as np

        a = np.random.default_rng(0).standard_normal((200, 8, 8))
        self._spd = a @ a.transpose(0, 2, 1)
        self._eigh = np.linalg.eigh

    def _kernel(self) -> float:
        start = time.thread_time()
        self._eigh(self._spd)
        acc = 0.0
        for i in range(10_000):
            acc += (i * 0.5) % 7.0
        return time.thread_time() - start

    def time(self) -> float:
        """Mean of twelve kernel runs on the current core.

        The mean, unlike the minimum or the median, follows the share of
        time a core spends slow, which is what slows the CLI run.
        """
        return sum(self._kernel() for _ in range(12)) / 12


def _matrices(shape) -> int:
    return math.prod(shape[:-2])


def install_tracer(tracer: Tracer) -> None:
    import numpy as np

    from opvol import cli, experiments, forward, pricing

    def patch(owner, attr, name, count=None, rep_arg=None):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), count, rep_arg))

    patch(cli, "resolve_scenario", "cli.resolve")
    patch(cli, "write_bounds_csv", "cli.write")
    patch(cli, "write_convergence_csv", "cli.write")

    patch(experiments, "_rep_stats", "experiments.rep", rep_arg=1)
    for attr in ("stream", "sample_clock"):
        patch(experiments, attr, "processes.sample")
    patch(experiments, "sample_jump_stream", "processes.sample",
          count=lambda a, out: out.ys.shape[0])
    patch(experiments, "build_grid", "variance.grid", count=lambda a, out: out.size)
    patch(experiments, "make_stepper", "variance.stepper")
    patch(experiments.CoupledScenario, "truncated_generator_spec", "variance.stepper")
    patch(experiments, "evolve_coupled", "variance.evolve")
    # the "hs" mode is a plain sum of squares; every other mode decomposes
    # each matrix of the stack
    patch(experiments, "sup_norm_stack", "variance.sup_norm",
          count=lambda a, out: 0 if a[1] == "hs" else _matrices(np.shape(a[0])))
    patch(experiments, "simulate_forward_coupled", "forward.simulate",
          count=lambda a, out: np.count_nonzero(np.diff(a[0].grid.times) > 0.0))
    patch(experiments, "forward_sup_error", "forward.sup_error")
    for owner in (experiments, forward):
        patch(owner, "psd_sqrt_batch", "operators.psd_sqrt",
              count=lambda a, out: _matrices(np.shape(a[0])))
    patch(forward, "sample_wiener_increments", "processes.wiener")
    patch(pricing.PayoffSpec, "evaluate", "pricing.payoff")
    patch(pricing.FunctionalSpec, "apply", "pricing.payoff")


def main(argv: list[str]) -> int:
    record_path, trace = argv[0], argv[1] == "1"
    if argv[2] != "--":
        raise SystemExit("usage: child.py RECORD_JSON TRACE -- OPVOL_ARGS...")
    cli_args = argv[3:]

    import opvol
    from opvol import cli

    # the probe runs in this process, before the engine and after the CLI
    # returns, so it shares the process's memory layout and core with the run;
    # its time is taken out of setup and of the run's totals
    probe_start, probe_cpu_start = now(), cpu_s()
    probe = SpeedProbe()
    probes = [probe.time()]
    probe_wall, probe_cpu = now() - probe_start, cpu_s() - probe_cpu_start

    stamps: dict[str, float] = {}
    tracer = Tracer()
    if trace:
        install_tracer(tracer)

    def engine(fn):
        inner = tracer.wrap("engine", fn) if trace else fn

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stamps["engine_start"] = now()
            stamps["setup_cpu_s"] = cpu_s() - probe_cpu
            try:
                return inner(*args, **kwargs)
            finally:
                stamps["engine_cpu_s"] = cpu_s() - probe_cpu - stamps["setup_cpu_s"]
                stamps["engine_end"] = now()

        return timed

    cli.run_experiment = engine(cli.run_experiment)
    cli.convergence_study = engine(cli.convergence_study)

    rc = cli.main(cli_args)
    stamps["run_cpu_s"] = cpu_s() - probe_cpu
    probes.append(probe.time())
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    record = {
        "rc": rc,
        "opvol_file": opvol.__file__,
        "peak_rss_kb": peak_kb,
        "probes": probes,
        "probe_wall_s": probe_wall,
        **stamps,
        "spans": tracer.spans,
    }
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
