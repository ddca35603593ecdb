"""Coupled truncation experiments: simulate, estimate, and check every bound.

A CoupledScenario pins one stochastic model (jump law, clock, generator,
forward semigroup, noise spectrum, initial state) together with a ladder of
truncation levels.  run_experiment simulates R coupled replications, where the
exact object and all of its truncations share every random draw, and emits one
BoundReport per (inequality, level): Monte Carlo left side, analytic right
side with plug-in moment factors estimated on the same replications, and a
margin in combined standard errors.  A bound passes when margin >= -3.

Two truncation modes exist:

  "jumps":      the jump vectors and the initial state are truncated to the
                first n coordinates while the generator stays exact.  The
                truncated path is a bona fide variance process (compression
                by a coordinate projection preserves positivity), so square
                root and forward-transport comparisons are included.

  "generator":  the generator is compressed to the index set {j + k <= n}
                while jumps and the initial state stay exact.  The compressed
                flow can leave the positive cone, so only variance-distance
                bounds are checked in this mode; no square roots are taken.

Statistics are always reduced in replication order in the parent process, so
results are bit-identical for any worker count.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property, partial

import numpy as np

from opvol.bounds import (
    PASS_MARGIN,
    BoundInputs,
    bound_forward,
    bound_pathwise,
    bound_sqrt,
    bound_tensor_jump,
    bound_tensor_jump_trace,
    bound_cpp_diff,
    bound_variance_generator,
    bound_variance_generator_tail,
    bound_variance_jumps,
    combined_margin,
)
from opvol.forward import ForwardSemigroupSpec, forward_sup_error, simulate_forward_coupled
from opvol.operators import NotPositiveSemidefinite, closed_form_diagonal, psd_sqrt_batch, psd_sqrt_diagonal
from opvol.pricing import FunctionalSpec, PayoffSpec, PricingReport, mean_se, pricing_report
from opvol.processes import (
    PURPOSE_CLOCK,
    PURPOSE_JUMPS,
    PURPOSE_WIENER,
    JumpLaw,
    PoissonClock,
    cp_second_moment,
    cp_second_moment_bound,
    sample_clock,
    sample_jump_stream,
    stream,
)
from opvol.variance import (
    GeneratorSpec,
    Stepper,
    TimeGrid,
    VariancePath,
    build_grid,
    eigen_tail_sup_sq,
    evolve_coupled,
    generator_gap_op_norm,
    karhunen_loeve_spectrum,
    make_stepper,
    sup_norm_stack,
    truncate_generator,
)

TRUNCATION_MODES = ("jumps", "generator")

# rate * horizon, the expected number of jumps per replication, above which a
# scenario is rejected: every jump adds two grid slots to every coupled path
MAX_EXPECTED_JUMPS = 1e4

# m_points above which a scenario is rejected: every step is a grid slot that
# every coupled path stores as a d x d matrix
MAX_GRID_STEPS = 10**6


# --- scenario ----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CoupledScenario:
    """Full parameterization of one coupled truncation experiment."""

    d: int
    levels: tuple[int, ...]
    horizon: float
    m_points: int
    rate: float
    jump_gammas: np.ndarray
    q_spectrum: np.ndarray
    generator_kind: str
    generator_spectrum: np.ndarray
    forward_kind: str
    forward_spectrum: np.ndarray
    v0_diag: np.ndarray
    truncation: str
    payoff_kind: str
    payoff_strike: float
    functional_coordinate: int
    exercise_time: float
    replications: int
    master_seed: int
    truncate_v0: bool = False

    def __post_init__(self):
        for name in ("horizon", "rate", "payoff_strike", "exercise_time"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.d < 1:
            raise ValueError("d must be positive")
        if not 0 <= self.functional_coordinate < self.d:
            raise ValueError(
                f"functional_coordinate must lie in 0..{self.d - 1}, got {self.functional_coordinate}"
            )
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be nonnegative, got {self.master_seed}")
        object.__setattr__(self, "levels", tuple(int(n) for n in self.levels))
        if not self.levels or any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError("levels must be a nonempty strictly increasing tuple")
        if self.truncation not in TRUNCATION_MODES:
            raise ValueError(f"unknown truncation mode {self.truncation!r}")
        cap = self.d if self.truncation == "jumps" else 2 * self.d
        if self.levels[0] < 1 or self.levels[-1] > cap:
            raise ValueError(f"levels must lie in 1..{cap} for {self.truncation} truncation")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.m_points < 1:
            raise ValueError("need at least one time step")
        if self.m_points > MAX_GRID_STEPS:
            raise ValueError(
                f"m_points = {self.m_points} exceeds {MAX_GRID_STEPS}; lower m_points"
            )
        if self.rate < 0:
            raise ValueError("jump rate must be nonnegative")
        if self.rate * self.horizon > MAX_EXPECTED_JUMPS:
            raise ValueError(
                f"rate * horizon = {self.rate * self.horizon:.6g} expected jumps per "
                f"replication exceeds {MAX_EXPECTED_JUMPS:.0f}; lower rate or horizon"
            )
        for name in ("jump_gammas", "q_spectrum", "generator_spectrum", "forward_spectrum", "v0_diag"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (self.d,):
                raise ValueError(f"{name} must have shape ({self.d},)")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            if name not in ("generator_spectrum", "forward_spectrum") and np.any(arr < 0):
                raise ValueError(f"{name} must be nonnegative")
            object.__setattr__(self, name, arr)
        if self.replications < 2:
            raise ValueError("need at least two replications for standard errors")
        dt = self.horizon / self.m_points
        steps = self.exercise_time / dt
        # the payoff is read at the uniform grid point round(steps), not at 0
        if not (0 < self.exercise_time <= self.horizon and 1 <= round(steps)
                and abs(steps - round(steps)) <= 1e-9):
            raise ValueError("exercise_time must sit on the uniform grid in (0, horizon]")
        # constructor smoke checks: fail fast on bad kinds
        self.generator_spec()
        self.forward_spec()
        self.payoff()

    # model factories ---------------------------------------------------------

    def generator_spec(self) -> GeneratorSpec:
        return GeneratorSpec(self.generator_kind, self.generator_spectrum)

    def truncated_generator_spec(self, n: int) -> GeneratorSpec:
        return truncate_generator(self.generator_spec(), n)

    def forward_spec(self) -> ForwardSemigroupSpec:
        return ForwardSemigroupSpec(self.forward_kind, self.forward_spectrum)

    def jump_law(self) -> JumpLaw:
        return JumpLaw(gammas=self.jump_gammas)

    def v0(self) -> np.ndarray:
        return np.diag(self.v0_diag)

    def v0_at_level(self, n: int) -> np.ndarray:
        """Initial state of the level-n approximant.

        Jump truncation optionally truncates V0 to the same coordinate block
        (truncate_v0); generator compression always keeps V0 exact.
        """
        if self.truncation == "generator" or not self.truncate_v0:
            return self.v0()
        diag = self.v0_diag.copy()
        diag[n:] = 0.0
        return np.diag(diag)

    def payoff(self) -> PayoffSpec:
        if self.payoff_kind == "call":
            return PayoffSpec.call(self.payoff_strike)
        if self.payoff_kind == "put":
            return PayoffSpec.put(self.payoff_strike)
        if self.payoff_kind == "identity":
            return PayoffSpec.identity()
        if self.payoff_kind == "constant":
            # payoff_strike doubles as the constant value here
            return PayoffSpec.constant(self.payoff_strike)
        raise ValueError(f"unknown payoff kind {self.payoff_kind!r}")

    def functional(self) -> FunctionalSpec:
        return FunctionalSpec.coordinate(self.functional_coordinate, self.d)

    def with_(self, **changes) -> "CoupledScenario":
        return replace(self, **changes)

    def __getstate__(self) -> dict:
        # a pickled scenario leaves its run constants behind; the copy rebuilds them
        state = dict(self.__dict__)
        state.pop("_run", None)
        return state

    @cached_property
    def _run(self) -> "_RunConstants":
        """The models every replication uses, built once per scenario object
        on first use.  They are not pickled: a worker pool unpickles one copy
        of the scenario per chunk of replications, and each copy builds its
        own."""
        gen = self.generator_spec()
        if self.truncation == "jumps":
            # the truncated paths keep the exact generator: one shared stepper
            steppers = [make_stepper(gen)] * (len(self.levels) + 1)
        else:
            steppers = [make_stepper(gen)] + [
                make_stepper(self.truncated_generator_spec(n)) for n in self.levels
            ]
        v0s = np.stack([self.v0()] + [self.v0_at_level(n) for n in self.levels])
        v0s.setflags(write=False)
        # the uniform grid point nearest exercise_time, with the bits
        # build_grid gives it
        steps = round(self.exercise_time / (self.horizon / self.m_points))
        tau = np.linspace(0.0, self.horizon, self.m_points + 1)[steps]
        return _RunConstants(
            steppers=steppers, v0s=v0s, jump_law=self.jump_law(),
            forward=self.forward_spec(), payoff=self.payoff(),
            functional=self.functional(), tau=tau,
        )


@dataclass(frozen=True, eq=False)
class _RunConstants:
    """What a replication needs from its scenario beyond the random draws.

    steppers and v0s hold the exact path first, then one entry per level;
    tau is the exercise time as a point of every replication's grid.
    """

    steppers: list[Stepper]
    v0s: np.ndarray
    jump_law: JumpLaw
    forward: ForwardSemigroupSpec
    payoff: PayoffSpec
    functional: FunctionalSpec
    tau: float


# --- reports -----------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """One inequality at one truncation level.

    level 0 marks rows that do not depend on a truncation level (the compound
    Poisson moment identity rows).  A zero combined standard error yields an
    infinite margin whose sign is the sign of rhs - lhs, with ties passing.
    """

    bound_id: str
    level: int
    lhs: float
    lhs_se: float
    rhs: float
    rhs_se: float
    margin: float
    passed: bool

    def __post_init__(self):
        if self.passed != (self.margin >= PASS_MARGIN):
            raise ValueError("pass flag inconsistent with the margin")


def make_report(bound_id: str, level: int, lhs: float, lhs_se: float,
                rhs: float, rhs_se: float = 0.0) -> BoundReport:
    margin = combined_margin(lhs, lhs_se, rhs, rhs_se)
    return BoundReport(
        bound_id=bound_id, level=level,
        lhs=float(lhs), lhs_se=float(lhs_se),
        rhs=float(rhs), rhs_se=float(rhs_se),
        margin=margin, passed=margin >= PASS_MARGIN,
    )


@dataclass(frozen=True)
class ExperimentResult:
    scenario: CoupledScenario
    reports: tuple[BoundReport, ...]
    pricing: tuple[PricingReport, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports) and all(p.passed for p in self.pricing)


@dataclass(frozen=True)
class ConvergenceRow:
    level: int
    bound_id: str
    estimate: float
    stderr: float


@dataclass(frozen=True)
class ConvergenceStudy:
    """Per-level error estimates plus a weak-monotonicity verdict per series.

    A series is weakly decreasing when each estimate is at most the previous
    one plus three combined standard errors.
    """

    scenario: CoupledScenario
    rows: tuple[ConvergenceRow, ...]
    monotone: dict[str, bool] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return bool(self.monotone) and all(self.monotone.values())

    def series(self, bound_id: str) -> tuple[ConvergenceRow, ...]:
        return tuple(r for r in self.rows if r.bound_id == bound_id)


# --- per-replication worker --------------------------------------------------


@np.errstate(over="ignore", invalid="ignore")
def _rep_stats(scenario: CoupledScenario, rep: int) -> dict:
    """Simulate one coupled replication and return its sufficient statistics.

    The keys depend only on the truncation mode, never on the draws.  Each
    value is a float, an (L,) array over scenario.levels (L of them) or, for
    x_sum_tensor, the (d, d) sum of the jump operators kept for the
    jackknife on |E X1|^2:

      both modes   n_jumps, sum_y2, sum_y4, sum_y8, l2_total, x_sum_tensor;
                   (L,) sup_hs, sup_sq_hs, sup_op
      jumps mode   pay_exact; (L,) sum_dy2, sum_dy4, sum_dy8, sum_dx_sq,
                   sum_dx_sq_sq, sum_dx_hs, sum_dx_tr, sum_dx_tr_sq,
                   cpp_sup_sq, sqrt_sup_sq_op, sqrt_sup_sq_hs, fwd_sup_sq,
                   pay_trunc, dx_tau

    Per-jump quantities that feed pooled moments ship both their sum and
    their sum of squares.  The trace norms of the jump differences behind
    sum_dx_tr come from the rank-two closed form (_jump_trace_norm_sq) on
    the squared norms, with no SVD.

    Overflow and invalid-value warnings are silenced.  A non-finite value
    that makes a decomposition raise is reported by the one-line failure
    message, which names its slot; one that raises nothing (a finite path
    whose squared entries overflow in the HS sup, say) shows only as an
    infinite statistic.
    """
    T, seed = scenario.horizon, scenario.master_seed
    levels = scenario.levels
    run = scenario._run
    mode = scenario.truncation

    if scenario.rate > 0:
        clock = sample_clock(scenario.rate, T, stream(seed, PURPOSE_CLOCK, rep))
    else:
        clock = PoissonClock.empty(0.0, T)
    js = sample_jump_stream(clock, run.jump_law, stream(seed, PURPOSE_JUMPS, rep))
    grid = build_grid(T, scenario.m_points, clock.times)

    out: dict = {"n_jumps": float(clock.count)}

    # jump moments: X = Y (x) Y is rank one, so |X|_HS = |X|_tr = |Y|^2
    y2 = np.sum(js.ys**2, axis=1)
    out["sum_y2"] = float(np.sum(y2))
    out["sum_y4"] = float(np.sum(y2**2))
    out["sum_y8"] = float(np.sum(y2**4))
    out["x_sum_tensor"] = js.jumps.sum(axis=0)
    out["l2_total"] = float(np.sum(out["x_sum_tensor"] ** 2))
    if mode == "jumps":
        # one row per level, one column per jump; each row sum has the bits
        # of the same sum over that level alone
        y2n = np.sum(np.stack([js.ys_at_level(n) for n in levels]) ** 2, axis=2)
        dy2 = y2 - y2n  # |Y - Y^n|^2: the dropped coordinates are orthogonal
        out["sum_dy2"] = np.sum(dy2, axis=1)
        out["sum_dy4"] = np.sum(dy2**2, axis=1)
        out["sum_dy8"] = np.sum(dy2**4, axis=1)
        dx_sq = y2**2 - y2n**2  # |X - X^n|_HS^2 for nested tensor squares
        out["sum_dx_sq"] = np.sum(dx_sq, axis=1)
        out["sum_dx_sq_sq"] = np.sum(dx_sq**2, axis=1)
        out["sum_dx_hs"] = np.sum(np.sqrt(np.maximum(dx_sq, 0.0)), axis=1)
        tr_sq = _jump_trace_norm_sq(dy2, y2n)
        out["sum_dx_tr"] = np.sum(np.sqrt(tr_sq), axis=1)
        out["sum_dx_tr_sq"] = np.sum(tr_sq, axis=1)
        approx = np.stack([js.approx_jumps(n) for n in levels])
        # L - L^n is piecewise constant, so its sup sits at a jump time
        prefix = np.cumsum(js.jumps - approx, axis=1)
        out["cpp_sup_sq"] = np.max(np.sum(prefix**2, axis=(2, 3)), axis=1, initial=0.0)
        jump_stacks = [js.jumps, *approx]
    else:
        jump_stacks = [js.jumps] * (len(levels) + 1)

    # coupled variance paths: slot 0 exact, slot i the i-th level
    vals = evolve_coupled(run.v0s, run.steppers, jump_stacks, grid)
    try:
        out.update(_path_stats(scenario, rep, grid, vals))
    except (NotPositiveSemidefinite, np.linalg.LinAlgError) as exc:
        raise type(exc)(_failure_message(exc, rep, levels, grid, vals)) from exc
    return out


def _jump_trace_norm_sq(dy2: np.ndarray, y2n: np.ndarray) -> np.ndarray:
    """|Y (x) Y - Y^n (x) Y^n|_tr^2 from dy2 = |Y - Y^n|^2 and y2n = |Y^n|^2.

    With Z = Y - Y^n orthogonal to Y^n, the difference Y^n (x) Z + Z (x) Y^n
    + Z (x) Z has rank two: on the orthonormal pair Y^n / |Y^n|, Z / |Z| it
    is [[0, ab], [ab, b^2]] with a = |Y^n| and b = |Z|.  Its eigenvalues
    (b^2 +- sqrt(b^4 + 4 a^2 b^2)) / 2 have opposite signs, so the trace
    norm is their difference, sqrt(dy2 (dy2 + 4 y2n)).
    """
    return dy2 * (dy2 + 4.0 * y2n)


def _path_stats(scenario: CoupledScenario, rep: int, grid: TimeGrid,
                vals: np.ndarray) -> dict:
    """Statistics of the coupled paths vals (exact first), (L,) arrays but
    for pay_exact: sup errors, and in jumps mode square roots, the forward
    run and payoffs.

    The grid splits at g1 (_closed_form_prefix).  The prefix [:g1] is taken
    from its (P, g1, d) diagonals: psd_sqrt_diagonal for the roots and
    _split_sups for the sups.  The suffix [g1:] goes to the dense kernels,
    one psd_sqrt_batch call per path (the levels as block roots).  Every
    statistic has the bits of the dense kernels run on the whole grid.
    Squares of sups are taken on the Python floats: numpy's square of an
    array can round differently from the float's ** 2."""
    levels = scenario.levels
    run = scenario._run
    P, G, d = vals.shape[:3]
    g1 = _closed_form_prefix(grid, vals)
    head = np.diagonal(vals[:, :g1], axis1=-2, axis2=-1)
    sup_hs, sup_op = _split_sups(head, vals[:, g1:])
    out: dict = {
        "sup_hs": sup_hs,
        "sup_sq_hs": np.array([s**2 for s in sup_hs.tolist()]),
        "sup_op": sup_op,
    }
    if scenario.truncation != "jumps":
        return out

    # the exact path is full; with a diagonal generator the level-n path is
    # blockdiag(n x n block, diagonal tail), which psd_sqrt_batch checks
    sqrts = np.zeros_like(vals)
    roots = np.empty_like(head)
    for p, n in enumerate((None, *levels)):
        start = 0
        try:
            roots[p] = psd_sqrt_diagonal(head[p])
            start = g1
            if g1 < G:
                sqrts[p, g1:] = psd_sqrt_batch(vals[p, g1:], block=n)
        except NotPositiveSemidefinite as exc:
            # name the matrix by (path, slot), as in the whole (P, G) stack
            i = (p, start + exc.index[0])
            detail = str(exc).partition(" in batch: ")[2]
            raise NotPositiveSemidefinite(f"matrix {i} in batch: {detail}", index=i) from exc
    sqrts[:, :g1].reshape(P, g1, d * d)[..., :: d + 1] = roots
    sqrt_hs, sqrt_op = _split_sups(roots, sqrts[:, g1:])
    out["sqrt_sup_sq_op"] = np.array([s**2 for s in sqrt_op.tolist()])
    out["sqrt_sup_sq_hs"] = np.array([s**2 for s in sqrt_hs.tolist()])

    xs = simulate_forward_coupled(
        VariancePath(grid, vals), run.forward, scenario.q_spectrum,
        stream(scenario.master_seed, PURPOSE_WIENER, rep), sqrts,
    )
    payoff, functional = run.payoff, run.functional
    # X is continuous, so the last slot at the exercise time will do
    xt, *xtn = xs[:, np.searchsorted(grid.times, run.tau, side="right") - 1]
    out["pay_exact"] = payoff.evaluate(functional.apply(xt))
    out["fwd_sup_sq"] = forward_sup_error(xs)
    out["pay_trunc"] = np.array([payoff.evaluate(functional.apply(x)) for x in xtn])
    out["dx_tau"] = np.array([np.linalg.norm(xt - x) for x in xtn])
    return out


def _closed_form_prefix(grid: TimeGrid, vals: np.ndarray) -> int:
    """g1, the first grid slot at which some coupled path of vals is not
    closed_form_diagonal.  With a diagonal V0 and generator every path stays
    diagonal until the first jump, and the slots from the first post-jump
    slot on are left to the dense kernels, so only the slots before it are
    checked; g1 is at most that slot, or G without a jump."""
    post = np.flatnonzero(grid.jump_index[1:] >= 0)
    stop = int(post[0]) + 1 if post.size else grid.size
    bad = np.flatnonzero(~np.all(closed_form_diagonal(vals[:, :stop]), axis=0))
    return int(bad[0]) if bad.size else stop


def _split_sups(head: np.ndarray, tail: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(L,) HS and op sups over the grid of path 0 minus each other path, for
    paths given as the (P, g1, d) diagonals of their closed-form prefix and
    their (P, G - g1, d, d) suffix.

    On the prefix a difference is diagonal with largest entry 0 or inside
    LAPACK's range (closed_form_diagonal), so its op norm is that entry; its
    squares, placed in zero matrices, are summed as sup_norm_stack sums
    D * D.  The suffix goes to sup_norm_stack, and the two sups combine with
    np.maximum, which keeps a NaN.  sqrt and max commute, so each sup has the
    bits of sup_norm_stack on the whole grid."""
    diff = head[0] - head[1:]
    L, g1, d = diff.shape
    sq = np.zeros((L, g1, d * d))
    sq[..., :: d + 1] = diff * diff
    hs = np.sqrt(np.max(np.sum(sq, axis=-1), axis=1, initial=0.0))
    op = np.max(np.abs(diff), axis=(1, 2), initial=0.0)
    if tail.shape[1] == 0:
        return hs, op
    tail_hs, tail_op = np.empty(L), np.empty(L)
    for i, path in enumerate(tail[1:]):
        D = tail[0] - path
        tail_hs[i] = sup_norm_stack(D, "hs")
        tail_op[i] = sup_norm_stack(D, "op")
    return np.maximum(hs, tail_hs), np.maximum(op, tail_op)


def _failure_message(exc: Exception, rep: int, levels: tuple[int, ...],
                     grid: TimeGrid, vals: np.ndarray) -> str:
    """One line naming the replication, path and grid slot a numerical
    failure came from.

    A NotPositiveSemidefinite from the square roots carries its (path, slot)
    index; otherwise the slot is the earliest one holding a non-finite value,
    the usual cause of a LAPACK failure.
    """
    where = f"numerical failure in replication {rep}"
    index, cause = getattr(exc, "index", ()), ""
    if len(index) != 2:
        bad = ~np.all(np.isfinite(vals), axis=(-2, -1))  # (paths, slots)
        if not np.any(bad):
            return f"{where}, no single grid slot identified: {exc}"
        g = int(np.flatnonzero(np.any(bad, axis=0))[0])
        index, cause = (int(np.argmax(bad[:, g])), g), ", first non-finite value"
    p, g = index
    path = "exact path" if p == 0 else f"level {levels[p - 1]} path"
    side = ", left limit" if grid.is_left[g] else ""
    return f"{where}, {path}, grid slot {g} (t = {grid.times[g]:.6g}{side}){cause}: {exc}"


def _worker_count(threads: int, replications: int, cpus: int) -> int:
    """Worker processes worth starting: no more than replications or cores."""
    return max(1, min(threads, replications, cpus))


def _map_reps(scenario: CoupledScenario, workers: int) -> dict[str, np.ndarray]:
    """Run every replication and stack its statistics into columns.

    Each _rep_stats key becomes one array whose first axis is the
    replication, in replication order for any worker count: (R,) for a
    float, (R, L) for a per-level array, (R, d, d) for x_sum_tensor.  A
    reducer reads level i as s[key][:, i]; a column slice has the bits of
    the same values gathered into their own array, whereas a reduction of
    the whole (R, L) block along axis 0 may not.
    """
    reps = range(scenario.replications)
    workers = _worker_count(workers, scenario.replications, os.cpu_count() or 1)
    if workers == 1:
        rows = [_rep_stats(scenario, r) for r in reps]
    else:
        # imported here, so a serial run never loads the pool's modules
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, scenario.replications // (workers * 4))
            rows = list(pool.map(partial(_rep_stats, scenario), reps, chunksize=chunk))
    return {key: np.array([row[key] for row in rows]) for key in rows[0]}


def _require_finite(scenario: CoupledScenario, s: dict[str, np.ndarray]) -> None:
    """Raise a ValueError naming the first non-finite statistic of the table
    s: in the earliest replication that holds one, the first key in table
    order, and its level for an (R, L) column.  A finite config can still
    overflow (squared entries near 1e155 in an HS sup, say); the reducers
    then never see the inf or NaN, nor warn about it."""
    first = None
    for key, col in s.items():
        bad = np.argwhere(~np.isfinite(col.reshape(col.shape[0], -1)))
        if bad.size and (first is None or bad[0, 0] < first[0]):
            first = (int(bad[0, 0]), key, int(bad[0, 1]))
    if first is None:
        return
    r, key, j = first
    col = s[key]
    level = f" at level {scenario.levels[j]}" if col.ndim == 2 else ""
    value = float(col[r].reshape(-1)[j])
    raise ValueError(f"numerical failure in replication {r}: statistic {key}{level} is {value}")


def _require_finite_rows(rows) -> None:
    """Raise a ValueError naming the first non-finite value of the reduced
    rows, each (name, level, {field: value}).  A reduction of finite
    statistics can still overflow (a mean of payoffs near 1e308, say)."""
    for name, level, values in rows:
        for key, value in values.items():
            if not math.isfinite(value):
                raise ValueError(f"numerical failure: {name} at level {level}: {key} is {value}")


def _check_growth(scenario: CoupledScenario) -> None:
    """Raise the bounds' ValueError for a growth factor that overflows, as the
    reducers would, before the statistics are checked: an overflowing
    constant is the cause to name, and its paths often overflow too.
    e^{2 T |c|} (generator) and e^{2 k T} (forward transport, jumps mode) are
    the largest factors the reducers take."""
    T = scenario.horizon
    bound_variance_jumps(BoundInputs(horizon=T, rate=scenario.rate,
                                     gen_norm=scenario.generator_spec().op_norm))
    if scenario.truncation == "jumps":
        bound_forward(BoundInputs(k=scenario.forward_spec().k, horizon=T))


# --- reduction helpers -------------------------------------------------------


def _pooled_moment(sums: np.ndarray, sq_sums: np.ndarray, counts: np.ndarray) -> tuple[float, float]:
    """Mean and stderr of a per-jump moment pooled across replications.

    Jumps are i.i.d. across the whole experiment, so the pool is one sample of
    size N = sum(counts); sq_sums holds the per-replication sums of squares of
    the same per-jump quantity.
    """
    n = float(np.sum(counts))
    if n == 0:
        return 0.0, 0.0
    mean = float(np.sum(sums) / n)
    if n < 2:
        return mean, 0.0
    var = max(float(np.sum(sq_sums)) - n * mean * mean, 0.0) / (n - 1.0)
    return mean, math.sqrt(var / n)


def _jackknife_mean_norm_sq(tensors: np.ndarray, counts: np.ndarray) -> tuple[float, float]:
    """|mean jump|_HS^2 with a leave-one-replication-out jackknife stderr."""
    n = float(np.sum(counts))
    if n == 0:
        return 0.0, 0.0
    total = tensors.sum(axis=0)
    est = float(np.sum((total / n) ** 2))
    rest = n - counts
    if np.any(rest <= 0) or tensors.shape[0] < 2:
        return est, 0.0
    loo = (total[None] - tensors) / rest[:, None, None]
    theta = np.sum(loo**2, axis=(1, 2))
    r = theta.size
    se = math.sqrt((r - 1.0) / r * float(np.sum((theta - np.mean(theta)) ** 2)))
    return est, se


def _product_root_se(a: float, a_se: float, b: float, b_se: float, scale: float) -> float:
    """Delta-method stderr of scale * sqrt(a * b)."""
    if a <= 0.0 or b <= 0.0:
        return 0.0
    da = 0.5 * math.sqrt(b / a)
    db = 0.5 * math.sqrt(a / b)
    return scale * math.hypot(da * a_se, db * b_se)


# --- experiment reduction ----------------------------------------------------


def _moment_rows(scenario: CoupledScenario, s: dict[str, np.ndarray]):
    """Second moment of the compound Poisson sum, checked from both sides
    against the identity rate*t*m2 + (rate*t)^2*m1sq and from below against
    the coarse bound rate*t*(1 + rate*t)*m2.

    Returns the three rows and the pooled per-jump moments, each a (mean,
    stderr) pair: m4 of |Y|^4 = |X|_HS^2 and m2 of |Y|^2.
    """
    lam, T = scenario.rate, scenario.horizon
    counts = s["n_jumps"]
    m4 = _pooled_moment(s["sum_y4"], s["sum_y8"], counts)
    m2 = _pooled_moment(s["sum_y2"], s["sum_y4"], counts)
    lhs, lhs_se = mean_se(s["l2_total"])
    m1sq, m1sq_se = _jackknife_mean_norm_sq(s["x_sum_tensor"], counts)
    # |mean X|^2 <= mean |X|^2 holds for every sample; an excess is rounding
    ident = cp_second_moment(lam, T, m4[0], min(m1sq, m4[0]))
    ident_se = math.hypot(lam * T * m4[1], lam * lam * T * T * m1sq_se)
    coarse = cp_second_moment_bound(lam, T, m4[0])
    coarse_se = lam * T * (1.0 + lam * T) * m4[1]
    rows = [
        make_report("cpp_moment_upper", 0, lhs, lhs_se, ident, ident_se),
        make_report("cpp_moment_lower", 0, ident, ident_se, lhs, lhs_se),
        make_report("cpp_moment_bound", 0, lhs, lhs_se, coarse, coarse_se),
    ]
    return rows, m4, m2


@np.errstate(over="ignore", invalid="ignore")
def _reduce_jumps(scenario: CoupledScenario, s: dict[str, np.ndarray]) -> ExperimentResult:
    lam, T = scenario.rate, scenario.horizon
    gn = scenario.generator_spec().op_norm
    base = BoundInputs(horizon=T, rate=lam, gen_norm=gn)
    c0, c1 = bound_variance_jumps(base)
    _, c1_sharp = bound_variance_jumps(base, sharp=True)
    cpp_const = bound_cpp_diff(base)
    sqrt_hs_factor = bound_sqrt(base)
    fwd_const = bound_forward(BoundInputs(
        k=scenario.forward_spec().k, trace_q=float(scenario.q_spectrum.sum()), horizon=T,
    ))
    payoff = scenario.payoff()
    functional = scenario.functional()
    counts = s["n_jumps"]

    reports, m4, m2 = _moment_rows(scenario, s)
    pricing: list[PricingReport] = []

    for i, n in enumerate(scenario.levels):
        col = {key: v[:, i] for key, v in s.items() if v.ndim == 2}  # level n of each (R, L)
        dv0 = scenario.v0() - scenario.v0_at_level(n)
        dv0_hs = float(np.linalg.norm(dv0))
        dv0_sq = dv0_hs**2

        sup_sq, sup_sq_se = mean_se(col["sup_sq_hs"])
        sup_hs, sup_hs_se = mean_se(col["sup_hs"])
        dx_sq = _pooled_moment(col["sum_dx_sq"], col["sum_dx_sq_sq"], counts)
        dx_tr = _pooled_moment(col["sum_dx_tr"], col["sum_dx_tr_sq"], counts)
        dy2 = _pooled_moment(col["sum_dy2"], col["sum_dy4"], counts)
        dy4 = _pooled_moment(col["sum_dy4"], col["sum_dy8"], counts)

        reports.append(make_report(
            "variance_jumps", n, sup_sq, sup_sq_se,
            c0 * dv0_sq + c1 * dx_sq[0], c1 * dx_sq[1],
        ))
        reports.append(make_report(
            "variance_jumps_sharp", n, sup_sq, sup_sq_se,
            c0 * dv0_sq + c1_sharp * dx_sq[0], c1_sharp * dx_sq[1],
        ))
        cpp_sup, cpp_sup_se = mean_se(col["cpp_sup_sq"])
        reports.append(make_report(
            "cpp_diff", n, cpp_sup, cpp_sup_se,
            cpp_const * dx_sq[0], cpp_const * dx_sq[1],
        ))

        slack = col["sup_hs"] - np.array([
            bound_pathwise(gn, T, dv0_hs, x) for x in col["sum_dx_hs"].tolist()
        ])
        reports.append(make_report(
            "variance_pathwise", n, float(np.max(slack)), 0.0, 0.0, 0.0,
        ))

        tensor_rhs = bound_tensor_jump(m4[0], dy4[0])
        reports.append(make_report(
            "jump_tensor_sq", n, dx_sq[0], dx_sq[1],
            tensor_rhs, _product_root_se(m4[0], m4[1], dy4[0], dy4[1], 4.0),
        ))
        trace_rhs = bound_tensor_jump_trace(m2[0], dy2[0])
        reports.append(make_report(
            "jump_tensor_trace", n, dx_tr[0], dx_tr[1],
            trace_rhs, _product_root_se(m2[0], m2[1], dy2[0], dy2[1], 2.0),
        ))

        sqrt_op, sqrt_op_se = mean_se(col["sqrt_sup_sq_op"])
        sup_op, sup_op_se = mean_se(col["sup_op"])
        # the op-norm comparison is constant-free: its right side is the
        # variance error E[sup||V - V^n||_op] itself
        reports.append(make_report("sqrt_op", n, sqrt_op, sqrt_op_se, sup_op, sup_op_se))
        if dv0_sq == 0.0:
            # the trace-route square root certificate assumes the approximant
            # starts from the exact initial state
            sqrt_hs, sqrt_hs_se = mean_se(col["sqrt_sup_sq_hs"])
            reports.append(make_report(
                "sqrt_jumps_k1", n, sqrt_hs, sqrt_hs_se,
                sqrt_hs_factor * dx_tr[0], sqrt_hs_factor * dx_tr[1],
            ))

        fwd_sup, fwd_sup_se = mean_se(col["fwd_sup_sq"])
        reports.append(make_report(
            "forward_noise", n, fwd_sup, fwd_sup_se,
            fwd_const * sup_hs, fwd_const * sup_hs_se,
        ))

        cap_sq = fwd_const * sup_hs
        cap = payoff.lipschitz * functional.op_norm * math.sqrt(max(cap_sq, 0.0))
        if cap > 0.0:
            cap_se = payoff.lipschitz * functional.op_norm * fwd_const * sup_hs_se / (2.0 * math.sqrt(cap_sq))
        else:
            cap_se = 0.0
        pricing.append(pricing_report(
            n, s["pay_exact"], col["pay_trunc"], col["dx_tau"],
            payoff, functional, cap, cap_se,
        ))

    return ExperimentResult(scenario=scenario, reports=tuple(reports), pricing=tuple(pricing))


@np.errstate(over="ignore", invalid="ignore")
def _reduce_generator(scenario: CoupledScenario, s: dict[str, np.ndarray]) -> ExperimentResult:
    lam, T = scenario.rate, scenario.horizon
    gn = scenario.generator_spec().op_norm
    v0_sq = float(np.linalg.norm(scenario.v0())) ** 2

    reports, m4, m2 = _moment_rows(scenario, s)

    for i, n in enumerate(scenario.levels):
        trunc = scenario.truncated_generator_spec(n)
        gap = generator_gap_op_norm(trunc)
        tail_sq = eigen_tail_sup_sq(trunc)
        inputs = BoundInputs(
            horizon=T, rate=lam, gen_norm=gn, gen_norm_trunc=trunc.op_norm,
            v0_sq=v0_sq, jump_sq=m4[0], jump_mean_sq=m2[0] ** 2,
        )
        # the bounds are linear in each moment field, so bumping a field by
        # its stderr gives that field's exact contribution
        for bound_id, fn, factor in (
            ("variance_generator", bound_variance_generator, gap**2),
            ("variance_generator_tail", bound_variance_generator_tail, tail_sq),
        ):
            rhs = fn(inputs) * factor
            d_m4 = (fn(inputs.with_(jump_sq=m4[0] + m4[1])) - fn(inputs)) * factor
            m2sq_se = 2.0 * m2[0] * m2[1]
            d_m2 = (fn(inputs.with_(jump_mean_sq=m2[0] ** 2 + m2sq_se)) - fn(inputs)) * factor
            sup_sq, sup_sq_se = mean_se(s["sup_sq_hs"][:, i])
            reports.append(make_report(
                bound_id, n, sup_sq, sup_sq_se, rhs, math.hypot(d_m4, d_m2),
            ))
        reports.append(make_report(
            "generator_gap_tail", n, gap, 0.0, math.sqrt(2.0 * tail_sq), 0.0,
        ))

    return ExperimentResult(scenario=scenario, reports=tuple(reports), pricing=())


def run_experiment(scenario: CoupledScenario, workers: int = 1) -> ExperimentResult:
    """Simulate the scenario and check every applicable bound.

    Deterministic given scenario.master_seed; the worker count only changes
    wall time, never results.
    """
    s = _map_reps(scenario, workers)
    _check_growth(scenario)
    _require_finite(scenario, s)
    reduce = _reduce_jumps if scenario.truncation == "jumps" else _reduce_generator
    result = reduce(scenario, s)
    # margins may be +-inf; the values they come from may not
    _require_finite_rows(
        [(r.bound_id, r.level, {"lhs": r.lhs, "lhs_stderr": r.lhs_se, "rhs": r.rhs,
                                "rhs_stderr": r.rhs_se}) for r in result.reports]
        + [("pricing", p.level, {k: v for k, v in asdict(p).items() if k != "level"})
           for p in result.pricing]
    )
    return result


# --- convergence -------------------------------------------------------------


@np.errstate(over="ignore", invalid="ignore")
def convergence_study(scenario: CoupledScenario, workers: int = 1) -> ConvergenceStudy:
    """Per-level truncation error series with weak-monotonicity checks.

    Requires at least three levels.  Every series must be weakly decreasing:
    each estimate at most the previous one plus three combined stderrs.  The
    grid-sup error statistics are lower bounds for their continuous-time
    counterparts, which only strengthens the decrease check.
    """
    if len(scenario.levels) < 3:
        raise ValueError("a convergence study needs at least three levels")
    s = _map_reps(scenario, workers)
    _require_finite(scenario, s)

    rows: list[ConvergenceRow] = []
    for i, n in enumerate(scenario.levels):
        est, se = mean_se(s["sup_sq_hs"][:, i])
        rows.append(ConvergenceRow(n, "variance_sup_sq", est, se))
        if scenario.truncation == "jumps":
            est, se = mean_se(s["fwd_sup_sq"][:, i])
            rows.append(ConvergenceRow(n, "forward_sup_sq", est, se))
            est, se = mean_se(s["sqrt_sup_sq_hs"][:, i])
            rows.append(ConvergenceRow(n, "sqrt_sup_sq_hs", est, se))
            est, se = _pooled_moment(s["sum_dy2"][:, i], s["sum_dy4"][:, i], s["n_jumps"])
            rows.append(ConvergenceRow(n, "jump_y_diff_sq", est, se))
            rows.append(ConvergenceRow(
                n, "y_tail_expected", float(np.sum(scenario.jump_gammas[n:])), 0.0
            ))
            rows.append(ConvergenceRow(
                n, "diag_tail_sq",
                float(np.sum(scenario.v0_diag[n // 2:] ** 2)), 0.0,
            ))
        else:
            gap = generator_gap_op_norm(scenario.truncated_generator_spec(n))
            rows.append(ConvergenceRow(n, "generator_gap_sq", gap**2, 0.0))
    _require_finite_rows([(r.bound_id, r.level, {"estimate": r.estimate, "stderr": r.stderr})
                          for r in rows])

    monotone: dict[str, bool] = {}
    for bound_id in {r.bound_id for r in rows}:
        series = [r for r in rows if r.bound_id == bound_id]
        # b passes when (a - b) / se >= PASS_MARGIN, written without the division
        ok = all(
            b.estimate <= a.estimate - PASS_MARGIN * math.hypot(a.stderr, b.stderr)
            for a, b in zip(series, series[1:])
        )
        monotone[bound_id] = ok
    return ConvergenceStudy(scenario=scenario, rows=tuple(rows), monotone=monotone)


# --- presets -----------------------------------------------------------------


def default_scenario(replications: int = 2000, master_seed: int = 1729,
                     truncation: str = "jumps") -> CoupledScenario:
    """Reference eight-dimensional experiment: geometric jump and noise
    spectra, mean-reverting generator from the Brownian covariance spectrum,
    drift-free forward transport, an at-the-money call on the first forward
    coordinate."""
    d = 8
    geo = 0.5 ** np.arange(1, d + 1)
    return CoupledScenario(
        d=d,
        levels=(2, 4, 6),
        horizon=1.0,
        m_points=200,
        rate=1.0,
        jump_gammas=geo,
        q_spectrum=geo,
        generator_kind="sylvester",
        generator_spectrum=-karhunen_loeve_spectrum(d),
        forward_kind="diagonal",
        forward_spectrum=np.zeros(d),
        v0_diag=geo,
        truncation=truncation,
        payoff_kind="call",
        payoff_strike=0.0,
        functional_coordinate=0,
        exercise_time=1.0,
        replications=replications,
        master_seed=master_seed,
    )
