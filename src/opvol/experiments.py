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
results are bit-identical for any worker count.  Each mode has one reducer
(_reduce_jumps, _reduce_generator, both starting from _moment_rows's rows).
A reducer's rows are (bound_id, level, lhs, rhs) tuples whose sides are
estimates, (mean, stderr) pairs; run_experiment alone checks them for
finiteness and makes them BoundReports.  convergence_study's rows are
(bound_id, level, estimate) tuples, made into ConvergenceRows in one place.
"""

from __future__ import annotations

import math
import numbers
import os
from contextlib import contextmanager
from dataclasses import astuple, dataclass, field, fields, replace
from functools import cached_property, partial

import numpy as np

from opvol.bounds import (
    PASS_MARGIN,
    bound_cpp_diff,
    bound_forward,
    bound_pathwise,
    bound_sqrt,
    bound_tensor_jump,
    bound_tensor_jump_trace,
    bound_variance_generator,
    bound_variance_generator_tail,
    bound_variance_jumps,
    combined_margin,
    cp_second_moment,
    cp_second_moment_bound,
)
from opvol.forward import SEMIGROUP_KINDS, ForwardSemigroupSpec, forward_sup_error, simulate_forward_coupled
from opvol.operators import NotPositiveSemidefinite, psd_sqrt_batch
from opvol.pricing import PAYOFF_LIPSCHITZ, FunctionalSpec, PayoffSpec, PricingReport, mean_se, pricing_report
from opvol.processes import (
    PURPOSE_CLOCK,
    PURPOSE_JUMPS,
    PURPOSE_WIENER,
    sample_clock,
    sample_jump_stream,
    stream,
)
from opvol.variance import (
    _GENERATOR_KINDS,
    GeneratorSpec,
    Stepper,
    TimeGrid,
    VariancePath,
    _jump_free_diagonal,
    _slot_norms,
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

# bytes a replication's root stack may take: the roots of every path (exact
# and one per level) at each grid slot, m_points + 1 base points and two per
# expected jump, as d x d float64 matrices; the evolved path, its reference
# path and one difference stack take three paths' worth more, two under
# truncate_v0, whose reference path is a zero view with no stack
MAX_PATH_STACK_BYTES = 256 * 2**20

# bytes the statistics table may take: _map_reps holds every replication's
# row until it stacks the columns, each row the d x d jump sum x_sum_tensor,
# 17 values per level and 6 others (jumps mode, the larger), all float64
MAX_STATS_TABLE_BYTES = 256 * 2**20


# --- scenario ----------------------------------------------------------------


# each scalar annotation of CoupledScenario: the types it takes, those it
# refuses, its noun in a message and the type it is stored as
_SCALAR_KINDS = {
    "int": (numbers.Integral, bool, "an integer", int),
    "float": (numbers.Real, bool, "a number", float),
    "str": (str, (), "a string", str),
    "bool": ((bool, np.bool_), (), "a boolean", bool),
}


def _as_kind(name: str, kind: str, value):
    """value as a CoupledScenario field annotated kind stores it, or a
    ValueError naming the field.  levels takes a nonempty list, tuple or
    1-D array of integers, stored as a tuple; a spectrum a nonempty list or
    tuple of numbers or an integer or float array, stored as a read-only
    float64 copy, so that no array of the caller's can change a checked
    scenario.  An annotation it does not know raises KeyError."""
    if kind in _SCALAR_KINDS:
        types, refused, noun, stored = _SCALAR_KINDS[kind]
        if not isinstance(value, types) or isinstance(value, refused):
            raise ValueError(f"field '{name}' must be {noun}")
        try:
            return stored(value)
        except OverflowError:  # an integer beyond the float range
            raise ValueError(f"field '{name}' must be a finite number") from None
    item, stored = {"tuple[int, ...]": ("int", tuple), "np.ndarray": ("float", _frozen_array)}[kind]
    if isinstance(value, np.ndarray):
        if item == "float" and value.dtype.kind in "iuf":
            return _frozen_array(value)
        value = value.tolist() if value.ndim == 1 else None
    if not isinstance(value, (list, tuple)) or not value:
        noun = "integers" if item == "int" else "numbers"
        raise ValueError(f"field '{name}' must be a nonempty list of {noun}")
    return stored([_as_kind(f"{name}[{i}]", item, v) for i, v in enumerate(value)])


def _frozen_array(values) -> np.ndarray:
    """A read-only float64 copy of values."""
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class CoupledScenario:
    """Full parameterization of one coupled truncation experiment.

    The constructor alone decides what a scenario is, for the Python entry
    points and the CLI alike: first every field's kind, in field order
    (_as_kind), then the values.  Each failure is a one-line ValueError that
    names the field.
    """

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
        for f in fields(self):
            object.__setattr__(self, f.name, _as_kind(f.name, f.type, getattr(self, f.name)))
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
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError("levels must be a nonempty strictly increasing tuple")
        for name, kinds in (("truncation", TRUNCATION_MODES), ("generator_kind", _GENERATOR_KINDS),
                            ("forward_kind", SEMIGROUP_KINDS), ("payoff_kind", PAYOFF_LIPSCHITZ)):
            if getattr(self, name) not in kinds:
                raise ValueError(f"{name} must be one of {', '.join(kinds)}, got {getattr(self, name)!r}")
        cap = self.d if self.truncation == "jumps" else 2 * self.d
        if self.levels[0] < 1 or self.levels[-1] > cap:
            raise ValueError(f"levels must lie in 1..{cap} for {self.truncation} truncation")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.m_points < 1:
            raise ValueError(f"m_points must be at least 1, got {self.m_points}")
        if self.rate < 0:
            raise ValueError(f"rate must be nonnegative, got {self.rate}")
        if self.rate * self.horizon > MAX_EXPECTED_JUMPS:
            raise ValueError(
                f"rate * horizon = {self.rate * self.horizon:.6g} expected jumps per "
                f"replication exceeds {MAX_EXPECTED_JUMPS:.0f}; lower rate or horizon"
            )
        # integer arithmetic: m_points and d may be too large for a float
        slots = self.m_points + 1 + math.ceil(2 * self.rate * self.horizon)
        stack = (len(self.levels) + 1) * slots * self.d * self.d * 8
        if stack > MAX_PATH_STACK_BYTES:
            raise ValueError(
                f"the coupled paths of d = {self.d}, m_points = {self.m_points} and levels "
                f"{list(self.levels)} take {(stack - 1) // 2**20 + 1} MiB per replication, above "
                f"{MAX_PATH_STACK_BYTES // 2**20} MiB; lower d, m_points or the number of levels"
            )
        table = self.replications * (self.d * self.d + 17 * len(self.levels) + 6) * 8
        if table > MAX_STATS_TABLE_BYTES:
            raise ValueError(
                f"the statistics of replications = {self.replications} and d = {self.d} take "
                f"{(table - 1) // 2**20 + 1} MiB, above {MAX_STATS_TABLE_BYTES // 2**20} MiB; "
                "lower replications or d"
            )
        for name in ("jump_gammas", "q_spectrum", "generator_spectrum", "forward_spectrum", "v0_diag"):
            arr = getattr(self, name)
            if arr.shape != (self.d,):
                raise ValueError(f"{name} must have shape ({self.d},)")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            if name not in ("generator_spectrum", "forward_spectrum") and np.any(arr < 0):
                raise ValueError(f"{name} must be nonnegative")
        if self.replications < 2:
            raise ValueError(f"replications must be at least 2 for standard errors, "
                             f"got {self.replications}")
        dt = self.horizon / self.m_points
        steps = self.exercise_time / dt
        # the payoff is read at the uniform grid point round(steps), not at 0
        if not (0 < self.exercise_time <= self.horizon and 1 <= round(steps)
                and abs(steps - round(steps)) <= 1e-9):
            raise ValueError("exercise_time must sit on the uniform grid in (0, horizon]")

    def truncated_generator_spec(self, n: int) -> GeneratorSpec:
        return truncate_generator(self._run.generator, n)

    def with_(self, **changes) -> "CoupledScenario":
        return replace(self, **changes)

    def __getstate__(self) -> dict:
        # a pickled scenario leaves its run constants and its jump-free
        # paths (_rep_stats) behind; the copy rebuilds them
        state = dict(self.__dict__)
        state.pop("_run", None)
        state.pop("_jump_free", None)
        return state

    def __setstate__(self, state: dict) -> None:
        # unpickling rebuilds each spectrum as a writeable array; a copy's
        # spectra are read-only too
        for value in state.values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        self.__dict__.update(state)

    @cached_property
    def _run(self) -> "_RunConstants":
        """The models every replication and reduction use, built once per
        scenario object on first use.  They are not pickled: a worker pool
        unpickles one copy of the scenario per chunk of replications, and
        each copy builds its own."""
        gen = GeneratorSpec(self.generator_kind, self.generator_spectrum)
        # the entries (j, k) each level keeps: jump truncation keeps the
        # leading n x n block, generator compression the index set J_n
        if self.truncation == "jumps":
            block = np.arange(self.d) < np.array(self.levels)[:, None]
            keeps = block[:, :, None] & block[:, None, :]
        else:
            keeps = np.stack([truncate_generator(gen, n).mask for n in self.levels])
        keeps.setflags(write=False)
        # V0 of the exact path and of each level: jump truncation optionally
        # truncates it to the level's coordinate block (truncate_v0),
        # generator compression always keeps it exact
        truncated = self.truncation == "jumps" and self.truncate_v0
        kept = [self.d] + [n if truncated else self.d for n in self.levels]
        v0s = np.stack([np.diag(np.where(np.arange(self.d) < n, self.v0_diag, 0.0)) for n in kept])
        v0s.setflags(write=False)
        # the uniform grid point nearest exercise_time, with the bits
        # build_grid gives it
        steps = round(self.exercise_time / (self.horizon / self.m_points))
        tau = np.linspace(0.0, self.horizon, self.m_points + 1)[steps]
        return _RunConstants(
            generator=gen, stepper=make_stepper(gen), v0s=v0s, keeps=keeps,
            jump_sd=np.sqrt(self.jump_gammas),
            forward=ForwardSemigroupSpec(self.forward_kind, self.forward_spectrum),
            # payoff_strike doubles as the value of a constant payoff
            payoff=PayoffSpec(self.payoff_kind, self.payoff_strike),
            functional=FunctionalSpec(self.functional_coordinate), tau=tau,
        )


@dataclass(frozen=True, eq=False)
class _RunConstants:
    """What a replication and the reductions need from their scenario beyond
    the random draws.

    generator is the exact generator and stepper its semigroup; v0s holds
    the initial state of the exact path first, then one per level; keeps
    holds the (L, d, d) keep-mask of each level, the entries where its path
    is the exact path; jump_sd holds the coordinate standard deviations
    sqrt(jump_gammas) of a jump vector; tau is the exercise time as a point
    of every replication's grid.
    """

    generator: GeneratorSpec
    stepper: Stepper
    v0s: np.ndarray
    keeps: np.ndarray
    jump_sd: np.ndarray
    forward: ForwardSemigroupSpec
    payoff: PayoffSpec
    functional: FunctionalSpec
    tau: float


# --- reports -----------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """One inequality at one truncation level.

    level 0 marks rows that do not depend on a truncation level (the compound
    Poisson moment identity rows).  The margin is rhs - lhs in combined
    standard errors; a zero combined standard error yields an infinite
    margin whose sign is the sign of rhs - lhs, with ties passing.
    """

    bound_id: str
    level: int
    lhs: float
    lhs_se: float
    rhs: float
    rhs_se: float

    @property
    def margin(self) -> float:
        return combined_margin(self.lhs, self.lhs_se, self.rhs, self.rhs_se)

    @property
    def passed(self) -> bool:
        return self.margin >= PASS_MARGIN


@dataclass(frozen=True)
class ExperimentResult:
    reports: tuple[BoundReport, ...]
    pricing: tuple[PricingReport, ...]


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
    one plus three combined standard errors.  monotone holds one flag per
    series, in the order the series first appear in rows.
    """

    rows: tuple[ConvergenceRow, ...]
    monotone: dict[str, bool] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return bool(self.monotone) and all(self.monotone.values())

    def series(self, bound_id: str) -> tuple[ConvergenceRow, ...]:
        return tuple(r for r in self.rows if r.bound_id == bound_id)


# --- per-replication worker --------------------------------------------------


@np.errstate(over="ignore", invalid="ignore")
def _rep_stats(scenario: CoupledScenario, rep: int, op_sups: bool = True) -> dict:
    """Simulate one coupled replication and return its sufficient statistics.

    The keys depend only on the truncation mode and on op_sups, never on
    the draws.  Each value is a float, an (L,) array over scenario.levels
    (L of them) or, for x_sum_tensor, the (d, d) sum of the jump operators
    kept for the jackknife on |E X1|^2:

      both modes   n_jumps, sum_y2, sum_y4, sum_y8, l2_total, x_sum_tensor;
                   (L,) sup_hs, sup_sq_hs
      jumps mode   pay_exact; (L,) sum_dy2, sum_dy4, sum_dy8, sum_dx_sq,
                   sum_dx_sq_sq, sum_dx_hs, sum_dx_tr, sum_dx_tr_sq,
                   cpp_sup_sq, sqrt_sup_sq_hs, fwd_sup_sq, pay_trunc, dx_tau
      jumps mode,  (L,) sup_op (after sup_sq_hs) and sqrt_sup_sq_op (before
      op_sups      sqrt_sup_sq_hs): run_experiment (verify, price) only

    The op-norm sups feed only the sqrt_op row of run_experiment's
    jumps-mode reduction, which keeps the default op_sups=True.
    convergence_study (converge, both modes) passes op_sups=False, and
    generator mode, whose reduction reads no op norm, never takes them:
    every sweep is then sup_norm_stack's "hs" mode, a sum of squares with
    no eigensolve.

    Per-jump quantities that feed pooled moments ship both their sum and
    their sum of squares.  The trace norms of the jump differences behind
    sum_dx_tr come from the rank-two closed form (_jump_trace_norm_sq) on
    the squared norms, with no SVD.

    The generator acts entry by entry and a truncation keeps a set of
    entries, so each level's path is the exact path V on the entries its
    level keeps (run.keeps) and one reference path R off them
    (_reference_path).  Every replication draws its clock and jumps, builds
    its grid and evolves V and R (build_grid, evolve_coupled), takes the
    sups of the level differences and, in jumps mode, the square roots
    (_variance_stats) and runs _forward_stats (forward run and payoffs) on
    them with its own Wiener increments.  Until its first left-limit slot
    k, or on the whole grid (k = G) without a jump, its paths are the
    jump-free ones bit for bit (the same linspace times, per-dt factors and
    multiply order).  Once the first jump-free replication has kept its
    own, the roots and running maxima (_running_sups) of those k slots, and
    at k = G the grid and paths, come from that copy: only the slots from k
    on are decomposed and swept.  The copy's op maxima are taken
    (_free_maxima) only if the replication that builds it sweeps op sups; a
    call that sweeps them takes a copy without them as absent, and its first
    jump-free replication rebuilds the copy.

    Overflow and invalid-value warnings are silenced.  A non-finite value
    in a path (_differences checks V whole, every sweep its difference), or
    one that makes a decomposition raise, is reported by the one-line
    failure message, which names its slot; one that raises nothing (a finite
    path whose squared entries overflow in the HS sup, say) shows only as an
    infinite statistic.
    """
    T, seed = scenario.horizon, scenario.master_seed
    levels = scenario.levels
    run = scenario._run
    mode = scenario.truncation

    times = sample_clock(scenario.rate, T, stream(seed, PURPOSE_CLOCK, rep))
    js = sample_jump_stream(times.size, run.jump_sd, stream(seed, PURPOSE_JUMPS, rep))

    out: dict = {"n_jumps": float(times.size)}

    # jump moments: X = Y (x) Y is rank one, so |X|_HS = |X|_tr = |Y|^2
    y2 = np.sum(js.ys**2, axis=1)
    out["sum_y2"] = float(np.sum(y2))
    out["sum_y4"] = float(np.sum(y2**2))
    out["sum_y8"] = float(np.sum(y2**4))
    out["x_sum_tensor"] = js.jumps.sum(axis=0)
    out["l2_total"] = float(np.sum(out["x_sum_tensor"] ** 2))
    if mode == "jumps":
        yn = _level_jumps(js.ys, levels)
        # one row per level, one column per jump; each row sum has the bits
        # of the same sum over that level alone
        y2n = np.sum(yn**2, axis=2)
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
        # L - L^n is piecewise constant, so its sup sits at a jump time; X^n
        # is X on the level's block and zero off it
        prefix = np.where(run.keeps[:, None], 0.0, np.cumsum(js.jumps, axis=0))
        out["cpp_sup_sq"] = np.max(np.sum(prefix**2, axis=(2, 3)), axis=1, initial=0.0)

    # the first jump-free replication keeps its grid, paths, roots and
    # running maxima, read-only, in the scenario's _jump_free entry: HS ones,
    # and op ones if it sweeps op sups.  An entry without the maxima this
    # call sweeps counts as absent: the call's first jump-free replication
    # rebuilds it
    modes = ("hs", "op") if mode == "jumps" and op_sups else ("hs",)
    free = scenario.__dict__.get("_jump_free")
    if free is not None and free[4].shape[1] < len(modes):
        free = None
    if free is not None and not times.size:
        grid, V, R = free[:3]
    else:
        grid = build_grid(T, scenario.m_points, times)
        V = evolve_coupled(run.v0s[0], run.stepper, js.jumps, grid)
        R = _reference_path(scenario, grid, js.jumps)
    # the jump-free slots: those before the first left limit, or all of them
    k = 0 if free is None else int(np.argmax(grid.is_left)) if times.size else grid.size
    head = free[3][:, :k] if k and free[3] is not None else None
    maxima = free[4][..., :k] if k else None
    with _failures_named(rep, levels, run.keeps[0], grid, V, R):
        stats, sqrts = _variance_stats(scenario, V, R, head, maxima, op_sups)
        out.update(stats)
        if free is None and not times.size:
            _keep_jump_free(scenario, grid, V, R, sqrts, _free_maxima(run.keeps, V, R, sqrts, modes))
        if sqrts is not None:
            out.update(_forward_stats(scenario, rep, grid, V, sqrts))
    return out


def _free_maxima(keeps: np.ndarray, V: np.ndarray, R: np.ndarray, sqrts: np.ndarray | None,
                 modes: tuple[str, ...]) -> np.ndarray:
    """(S, M, L, G) _running_sups, one row per mode in modes, of the S
    difference stacks of a replication: of its level paths (_differences of
    V and R) and, in jumps mode, of its roots sqrts (None otherwise)."""
    stacks = [_differences(keeps, V, R)]
    if sqrts is not None:
        stacks.append(sqrts[0] - s for s in sqrts[1:])
    return np.stack([_running_sups(diffs, modes) for diffs in stacks])


def _keep_jump_free(scenario: CoupledScenario, grid: TimeGrid, *arrays) -> None:
    """Make the grid and the arrays V, R, sqrts and maxima read-only and keep
    them as the scenario's _jump_free entry."""
    for a in (grid.times, grid.is_left, grid.jump_index, *arrays):
        if a is not None:
            a.setflags(write=False)
    scenario.__dict__["_jump_free"] = (grid, *arrays)


def _level_jumps(ys: np.ndarray, levels: tuple[int, ...]) -> np.ndarray:
    """The (L, N, d) jump vectors Y^n of every level n, each Y with its
    coordinates from n on zeroed."""
    return np.where(np.arange(ys.shape[1]) < np.array(levels)[:, None, None], ys, 0.0)


def _jump_trace_norm_sq(dy2: np.ndarray, y2n: np.ndarray) -> np.ndarray:
    """|Y (x) Y - Y^n (x) Y^n|_tr^2 from dy2 = |Y - Y^n|^2 and y2n = |Y^n|^2.

    With Z = Y - Y^n orthogonal to Y^n, the difference Y^n (x) Z + Z (x) Y^n
    + Z (x) Z has rank two: on the orthonormal pair Y^n / |Y^n|, Z / |Z| it
    is [[0, ab], [ab, b^2]] with a = |Y^n| and b = |Z|.  Its eigenvalues
    (b^2 +- sqrt(b^4 + 4 a^2 b^2)) / 2 have opposite signs, so the trace
    norm is their difference, sqrt(dy2 (dy2 + 4 y2n)).
    """
    return dy2 * (dy2 + 4.0 * y2n)


def _reference_path(scenario: CoupledScenario, grid: TimeGrid, jumps: np.ndarray) -> np.ndarray:
    """The (G, d, d) path R that every level path equals off the entries its
    level keeps.

    In jumps mode a level keeps its n x n block, and off it only V0 is
    left: R is the jump-free diagonal path diag(e^{ct} V0)
    (_jump_free_diagonal), or zero with truncate_v0, a read-only view of one
    zero that takes no stack's memory.  In generator mode the dropped
    entries do not move between jumps: R is U = V0 + the jumps so far, added
    one at a time, in order, as the compressed semigroup's factors of ones
    leave them.
    """
    run = scenario._run
    G, d = grid.size, scenario.d
    if scenario.truncation == "jumps":
        if scenario.truncate_v0:
            return np.broadcast_to(0.0, (G, d, d))
        R = np.zeros((G, d, d))
        R.reshape(G, d * d)[:, :: d + 1] = _jump_free_diagonal(run.v0s[0], run.stepper, grid)
        return R
    U = np.cumsum(np.concatenate((run.v0s[:1], jumps)), axis=0)
    # the jumps at or before each slot
    return U[np.maximum.accumulate(grid.jump_index) + 1]


def _differences(keeps: np.ndarray, V: np.ndarray, R: np.ndarray):
    """The differences V - V^n of the level paths, one (G, d, d) stack per
    keep-mask, lazily: where(keep, 0, V - R) from one V - R.  A level path
    is V where it keeps an entry and R elsewhere, so its difference is zero
    on the kept entries and V - R off them.

    A NaN or inf in V raises LinAlgError at once, as sup_norm_stack does on
    a non-finite difference: on a kept entry, V - V would be NaN, and the
    mask would hide it.  R counts only off the kept entries, where the
    sweep's own check sees it."""
    if not np.isfinite(V).all():
        raise np.linalg.LinAlgError("NaN or inf in the stack")
    VR = V - R
    return (np.where(keep, 0.0, VR) for keep in keeps)


def _variance_stats(scenario: CoupledScenario, V: np.ndarray, R: np.ndarray,
                    head: np.ndarray | None, maxima: np.ndarray | None,
                    op_sups: bool = True) -> tuple[dict, np.ndarray | None]:
    """The (L,) sup errors of the level paths, each the (G, d, d) exact path
    V on the entries its level keeps and the reference path R off them, and,
    in jumps mode, those of their square roots, with the (P, G, d, d) root
    stack, exact path first (None in generator mode), allocated once and
    written by psd_sqrt_batch in place.  The sups are HS ones and, in jumps
    mode with op_sups, op ones too (_rep_stats's keys).

    Every sup is sup_norm_stack's on a level's difference stack (_sups,
    _differences), and every root psd_sqrt_batch's, one call per path: the
    exact path's whole, and a level's as blockdiag(V's leading n x n block,
    R's diagonal tail), which a jumps-mode level path is by construction.
    What those calls gave for the first k slots can come given, as
    _rep_stats takes it from the jump-free copy; only the slots from k on
    are then decomposed and swept (none for the whole grid, whose head is
    returned as the roots).  head, None or (P, k, d, d), holds the roots of
    those slots of every path, and a failure still names its (path, slot)
    in the whole stack.  maxima, None or (S, M, L, k), holds the
    _running_sups of those slots for the S difference stacks (of the paths
    and, in jumps mode, of the roots), HS first and op second if M = 2.
    Squares of sups are taken on the Python floats: numpy's square of an
    array can round differently from the float's ** 2."""
    keeps = scenario._run.keeps
    jumps = scenario.truncation == "jumps"
    sweep = "both" if jumps and op_sups else "hs"
    k = 0 if maxima is None else maxima.shape[-1]
    whole = k == len(V)
    prefix = (None, None) if maxima is None else (*maxima, None)
    sups = _sups(None if whole else _differences(keeps, V[k:], R[k:]), prefix[0], sweep)
    out: dict = {"sup_hs": sups[0], "sup_sq_hs": np.array([s**2 for s in sups[0].tolist()])}
    if sweep == "both":
        out["sup_op"] = sups[1]
    if not jumps:
        return out, None

    if whole:
        sqrts = head
    else:
        sqrts = np.empty((len(keeps) + 1, *V.shape))
        if k:
            sqrts[:, :k] = head
        tail = np.diagonal(R[k:], axis1=1, axis2=2)
        for p, n in enumerate((V.shape[-1], *scenario.levels)):
            try:
                psd_sqrt_batch(V[k:, :n, :n], tail[:, n:], out=sqrts[p, k:])
            except NotPositiveSemidefinite as exc:
                # name the matrix by (path, slot), as in the whole (P, G) stack
                raise NotPositiveSemidefinite.at((p, k + exc.index[0]), exc.detail) from exc
    sqrt = _sups(None if whole else (sqrts[0, k:] - s[k:] for s in sqrts[1:]), prefix[1], sweep)
    if sweep == "both":
        out["sqrt_sup_sq_op"] = np.array([s**2 for s in sqrt[1].tolist()])
    out["sqrt_sup_sq_hs"] = np.array([s**2 for s in sqrt[0].tolist()])
    return out, sqrts


def _sups(diffs, maxima: np.ndarray | None, mode: str) -> np.ndarray:
    """(M, L) sups over the grid of the level differences diffs, an iterable
    of one (G - k, d, d) stack per level, with sup_norm_stack's mode "hs"
    (M = 1: the HS sups) or "both" (M = 2: the HS sups, then the op sups
    from the same sweep), one call per level.

    maxima, None or the (M', L, k) _running_sups of the first k slots with
    M' >= M, means the stacks hold only the slots from k on, and each sup is
    the larger of sup_norm_stack's and the running max at slot k - 1 (that
    alone, with diffs None, for k = G).  max is exact, so the sups keep the
    whole-stack call's bits."""
    rows = 2 if mode == "both" else 1
    if diffs is None:
        return maxima[:rows, :, -1].copy()
    sups = np.array([np.reshape(sup_norm_stack(D, mode), rows) for D in diffs]).T.copy()
    if maxima is not None:
        np.maximum(sups, maxima[:rows, :, -1], out=sups)
    return sups


def _running_sups(diffs, modes: tuple[str, ...]) -> np.ndarray:
    """(M, L, G) running maxima over the grid of the per-slot norms, one row
    per mode in modes ("hs", then "op" if given), of the level differences
    diffs, an iterable of one (G, d, d) stack per level, whose last column
    is _sups's."""
    norms = np.array([[_slot_norms(D, mode) for mode in modes] for D in diffs])
    return np.maximum.accumulate(np.swapaxes(norms, 0, 1), axis=-1)


def _forward_stats(scenario: CoupledScenario, rep: int, grid: TimeGrid,
                   V: np.ndarray, sqrts: np.ndarray) -> dict:
    """Forward run and payoff statistics of one replication (jumps mode):
    pay_exact, and (L,) fwd_sup_sq, pay_trunc and dx_tau, driven by the
    replication's own Wiener increments on the exact path V and the root
    stack sqrts of every path, which are only read."""
    run = scenario._run
    xs = simulate_forward_coupled(
        VariancePath(grid, V), run.forward, scenario.q_spectrum,
        stream(scenario.master_seed, PURPOSE_WIENER, rep), sqrts,
    )
    # X is continuous, so the last slot at the exercise time will do.  It is
    # copied: an identity payoff is a view of its argument, and a statistic
    # must not keep all of xs alive
    x_tau = xs[:, np.searchsorted(grid.times, run.tau, side="right") - 1].copy()
    pay = run.payoff.evaluate(run.functional.apply(x_tau))
    return {
        "pay_exact": pay[0],
        "fwd_sup_sq": forward_sup_error(xs),
        "pay_trunc": pay[1:],
        "dx_tau": np.array([np.linalg.norm(x_tau[0] - x) for x in x_tau[1:]]),
    }


@contextmanager
def _failures_named(rep: int, levels: tuple[int, ...], keep: np.ndarray, grid: TimeGrid,
                    V: np.ndarray, R: np.ndarray):
    """Re-raise a numerical failure inside the block, in replication rep on
    its grid, exact path V and reference path R, with _failure_message's
    one line; a NotPositiveSemidefinite keeps its index and detail."""
    try:
        yield
    except NotPositiveSemidefinite as exc:
        message = _failure_message(exc, rep, levels, keep, grid, V, R)
        raise NotPositiveSemidefinite(message, exc.index, exc.detail) from exc
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(_failure_message(exc, rep, levels, keep, grid, V, R)) from exc


def _failure_message(exc: Exception, rep: int, levels: tuple[int, ...], keep: np.ndarray,
                     grid: TimeGrid, V: np.ndarray, R: np.ndarray) -> str:
    """One line naming the replication, path and grid slot a numerical
    failure came from.

    A NotPositiveSemidefinite from the square roots carries its (path, slot)
    index; otherwise the slot is the earliest one holding a non-finite value
    in some path, the usual cause of a LAPACK failure: in V (the exact
    path, and every level path on the entries it keeps) or in R off the
    entries the first level keeps (its path, which keeps the fewest).
    """
    where = f"numerical failure in replication {rep}"
    index, cause = getattr(exc, "index", ()), ""
    if len(index) != 2:
        exact = ~np.all(np.isfinite(V), axis=(-2, -1))
        bad = exact | ~np.all(np.isfinite(R) | keep, axis=(-2, -1))
        if not np.any(bad):
            return f"{where}, no single grid slot identified: {exc}"
        g = int(np.argmax(bad))
        index, cause = (0 if exact[g] else 1, g), ", first non-finite value"
    p, g = index
    path = "exact path" if p == 0 else f"level {levels[p - 1]} path"
    side = ", left limit" if grid.is_left[g] else ""
    return f"{where}, {path}, grid slot {g} (t = {grid.times[g]:.6g}{side}){cause}: {exc}"


def _worker_count(threads: int, replications: int, cpus: int) -> int:
    """Worker processes worth starting: no more than replications or cores."""
    return max(1, min(threads, replications, cpus))


def _map_reps(scenario: CoupledScenario, workers: int, op_sups: bool = True) -> dict[str, np.ndarray]:
    """Run every replication, with _rep_stats's op_sups, and stack its
    statistics into columns.

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
        rows = [_rep_stats(scenario, r, op_sups) for r in reps]
    else:
        # imported here, so a serial run never loads the pool's modules
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, scenario.replications // (workers * 4))
            work = partial(_rep_stats, scenario, op_sups=op_sups)
            rows = list(pool.map(work, reps, chunksize=chunk))
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


def _check_growth(scenario: CoupledScenario) -> None:
    """Raise the bounds' ValueError for a growth factor that overflows, as the
    reducers would, before any replication runs: an overflowing constant is
    the cause to name, and its paths often overflow too.
    e^{2 T |c|} (generator) and e^{2 k T} (forward transport, jumps mode) are
    the largest factors the reducers take."""
    T, run = scenario.horizon, scenario._run
    bound_variance_jumps(T, scenario.rate, run.generator.op_norm)
    if scenario.truncation == "jumps":
        bound_forward(run.forward.k, float(scenario.q_spectrum.sum()), T)


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


def _product_root_se(a: tuple[float, float], b: tuple[float, float], scale: float) -> float:
    """Delta-method stderr of scale * sqrt(a * b) for the estimates a and b."""
    if a[0] <= 0.0 or b[0] <= 0.0:
        return 0.0
    da = 0.5 * math.sqrt(b[0] / a[0])
    db = 0.5 * math.sqrt(a[0] / b[0])
    return scale * math.hypot(da * a[1], db * b[1])


def _affine(x: tuple[float, float], c: float, offset: float = -0.0) -> tuple[float, float]:
    """The estimate offset + c X of an estimate X: the constant offset adds
    no stderr.  -0.0 is the exact additive identity, so without an offset
    the mean keeps the bits of c times X's."""
    return offset + c * x[0], c * x[1]


def _require_finite_rows(rows, names) -> None:
    """Raise a ValueError naming the first non-finite value of the reduced
    rows, each (name, level, *values) with one value per name.  A reduction
    of finite statistics can still overflow (a mean of payoffs near 1e308,
    say)."""
    for name, level, *values in rows:
        for key, value in zip(names, values):
            if not math.isfinite(value):
                raise ValueError(f"numerical failure: {name} at level {level}: {key} is {value}")


# --- experiment reduction ----------------------------------------------------


def _moment_rows(scenario: CoupledScenario, s: dict[str, np.ndarray]):
    """Second moment of the compound Poisson sum, checked from both sides
    against the identity rate*t*m2 + (rate*t)^2*m1sq and from below against
    the coarse bound rate*t*(1 + rate*t)*m2.

    Returns the three rows and the pooled per-jump moments, each an
    estimate: m4 of |Y|^4 = |X|_HS^2 and m2 of |Y|^2.
    """
    lam, T = scenario.rate, scenario.horizon
    counts = s["n_jumps"]
    m4 = _pooled_moment(s["sum_y4"], s["sum_y8"], counts)
    m2 = _pooled_moment(s["sum_y2"], s["sum_y4"], counts)
    lhs = mean_se(s["l2_total"])
    m1sq = _jackknife_mean_norm_sq(s["x_sum_tensor"], counts)
    # |mean X|^2 <= mean |X|^2 holds for every sample; an excess is rounding
    ident = (cp_second_moment(lam, T, m4[0], min(m1sq[0], m4[0])),
             math.hypot(lam * T * m4[1], lam * lam * T * T * m1sq[1]))
    coarse = (cp_second_moment_bound(lam, T, m4[0]), lam * T * (1.0 + lam * T) * m4[1])
    rows = [
        ("cpp_moment_upper", 0, lhs, ident),
        ("cpp_moment_lower", 0, ident, lhs),
        ("cpp_moment_bound", 0, lhs, coarse),
    ]
    return rows, m4, m2


@np.errstate(over="ignore", invalid="ignore")
def _reduce_jumps(scenario: CoupledScenario, s: dict[str, np.ndarray]) -> tuple[list, tuple]:
    """The jumps-mode rows and one PricingReport per level."""
    lam, T, run = scenario.rate, scenario.horizon, scenario._run
    gn = run.generator.op_norm
    c0, c1, c1_sharp = bound_variance_jumps(T, lam, gn)
    cpp_const = bound_cpp_diff(T, lam)
    sqrt_hs_factor = bound_sqrt(T, lam, gn)
    fwd_const = bound_forward(run.forward.k, float(scenario.q_spectrum.sum()), T)
    counts = s["n_jumps"]

    rows, m4, m2 = _moment_rows(scenario, s)
    for i, n in enumerate(scenario.levels):
        col = {key: v[:, i] for key, v in s.items() if v.ndim == 2}  # level n of each (R, L)
        dv0_hs = float(np.linalg.norm(run.v0s[0] - run.v0s[i + 1]))
        dv0_sq = dv0_hs**2
        sup_sq = mean_se(col["sup_sq_hs"])
        dx_sq = _pooled_moment(col["sum_dx_sq"], col["sum_dx_sq_sq"], counts)
        dx_tr = _pooled_moment(col["sum_dx_tr"], col["sum_dx_tr_sq"], counts)
        dy2 = _pooled_moment(col["sum_dy2"], col["sum_dy4"], counts)
        dy4 = _pooled_moment(col["sum_dy4"], col["sum_dy8"], counts)
        slack = col["sup_hs"] - np.array([
            bound_pathwise(gn, T, dv0_hs, x) for x in col["sum_dx_hs"].tolist()
        ])
        rows += [
            ("variance_jumps", n, sup_sq, _affine(dx_sq, c1, c0 * dv0_sq)),
            ("variance_jumps_sharp", n, sup_sq, _affine(dx_sq, c1_sharp, c0 * dv0_sq)),
            ("cpp_diff", n, mean_se(col["cpp_sup_sq"]), _affine(dx_sq, cpp_const)),
            ("variance_pathwise", n, (float(np.max(slack)), 0.0), (0.0, 0.0)),
            ("jump_tensor_sq", n, dx_sq,
             (bound_tensor_jump(m4[0], dy4[0]), _product_root_se(m4, dy4, 4.0))),
            ("jump_tensor_trace", n, dx_tr,
             (bound_tensor_jump_trace(m2[0], dy2[0]), _product_root_se(m2, dy2, 2.0))),
            # the op-norm comparison is constant-free: its right side is the
            # variance error E[sup||V - V^n||_op] itself
            ("sqrt_op", n, mean_se(col["sqrt_sup_sq_op"]), mean_se(col["sup_op"])),
        ]
        if dv0_sq == 0.0:
            # the trace-route square root certificate assumes the approximant
            # starts from the exact initial state
            rows.append(("sqrt_jumps_k1", n, mean_se(col["sqrt_sup_sq_hs"]),
                         _affine(dx_tr, sqrt_hs_factor)))
        sup_hs = mean_se(col["sup_hs"])
        rows.append(("forward_noise", n, mean_se(col["fwd_sup_sq"]), _affine(sup_hs, fwd_const)))

    # the model cap on the price gap: Lipschitz constant times the root of
    # forward_noise's right side, its stderr by the delta method
    scale = run.payoff.lipschitz * run.functional.op_norm
    pricing = []
    for i, n in enumerate(scenario.levels):
        sup_hs, sup_hs_se = mean_se(s["sup_hs"][:, i])
        cap_sq = fwd_const * sup_hs
        cap = scale * math.sqrt(max(cap_sq, 0.0))
        cap_se = scale * fwd_const * sup_hs_se / (2.0 * math.sqrt(cap_sq)) if cap > 0.0 else 0.0
        pricing.append(pricing_report(
            n, s["pay_exact"], s["pay_trunc"][:, i], s["dx_tau"][:, i], run.payoff, run.functional,
            cap, cap_se,
        ))
    return rows, tuple(pricing)


@np.errstate(over="ignore", invalid="ignore")
def _reduce_generator(scenario: CoupledScenario, s: dict[str, np.ndarray]) -> tuple[list, tuple]:
    """The generator-mode rows; this mode prices nothing."""
    lam, T, run = scenario.rate, scenario.horizon, scenario._run
    gn = run.generator.op_norm
    v0_sq = float(np.linalg.norm(run.v0s[0])) ** 2

    rows, m4, m2 = _moment_rows(scenario, s)
    for i, n in enumerate(scenario.levels):
        trunc = scenario.truncated_generator_spec(n)
        gap = generator_gap_op_norm(trunc)
        tail_sq = eigen_tail_sup_sq(trunc)
        sup_sq = mean_se(s["sup_sq_hs"][:, i])
        # each bound as a function of the two jump moments, jump_sq and
        # jump_mean_sq; the bounds are linear in each, so bumping one by its
        # stderr gives that moment's exact contribution
        m2sq, m2sq_se = m2[0] ** 2, 2.0 * m2[0] * m2[1]
        for bound_id, fn, factor in (
            ("variance_generator",
             partial(bound_variance_generator, T, lam, gn, trunc.op_norm, v0_sq), gap**2),
            ("variance_generator_tail",
             partial(bound_variance_generator_tail, T, lam, gn, v0_sq), tail_sq),
        ):
            at = fn(m4[0], m2sq)
            d_m4 = (fn(m4[0] + m4[1], m2sq) - at) * factor
            d_m2 = (fn(m4[0], m2sq + m2sq_se) - at) * factor
            rows.append((bound_id, n, sup_sq, (at * factor, math.hypot(d_m4, d_m2))))
        rows.append(("generator_gap_tail", n, (gap, 0.0), (math.sqrt(2.0 * tail_sq), 0.0)))
    return rows, ()


def run_experiment(scenario: CoupledScenario, workers: int = 1) -> ExperimentResult:
    """Simulate the scenario and check every applicable bound.

    Deterministic given scenario.master_seed; the worker count only changes
    wall time, never results.
    """
    _check_growth(scenario)
    s = _map_reps(scenario, workers)
    _require_finite(scenario, s)
    reduce = _reduce_jumps if scenario.truncation == "jumps" else _reduce_generator
    rows, pricing = reduce(scenario, s)
    flat = [(bound_id, n, *lhs, *rhs) for bound_id, n, lhs, rhs in rows]
    # margins may be +-inf; the values they come from may not
    _require_finite_rows(flat, ("lhs", "lhs_stderr", "rhs", "rhs_stderr"))
    _require_finite_rows([("pricing", *astuple(p)) for p in pricing],
                         [f.name for f in fields(PricingReport)][1:])
    return ExperimentResult(reports=tuple(BoundReport(*row) for row in flat), pricing=pricing)


# --- convergence -------------------------------------------------------------


def _converge_rows(scenario: CoupledScenario, s: dict[str, np.ndarray]):
    """The (bound_id, level, estimate) rows of every series, level by level."""
    for i, n in enumerate(scenario.levels):
        yield "variance_sup_sq", n, mean_se(s["sup_sq_hs"][:, i])
        if scenario.truncation == "jumps":
            yield "forward_sup_sq", n, mean_se(s["fwd_sup_sq"][:, i])
            yield "sqrt_sup_sq_hs", n, mean_se(s["sqrt_sup_sq_hs"][:, i])
            dy2 = _pooled_moment(s["sum_dy2"][:, i], s["sum_dy4"][:, i], s["n_jumps"])
            yield "jump_y_diff_sq", n, dy2
            yield "y_tail_expected", n, (float(np.sum(scenario.jump_gammas[n:])), 0.0)
            yield "diag_tail_sq", n, (float(np.sum(scenario.v0_diag[n // 2:] ** 2)), 0.0)
        else:
            gap = generator_gap_op_norm(scenario.truncated_generator_spec(n))
            yield "generator_gap_sq", n, (gap**2, 0.0)


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
    # its series are HS quantities: no op-norm sup is swept
    s = _map_reps(scenario, workers, op_sups=False)
    _require_finite(scenario, s)
    flat = [(bound_id, n, *est) for bound_id, n, est in _converge_rows(scenario, s)]
    _require_finite_rows(flat, ("estimate", "stderr"))
    rows = tuple(ConvergenceRow(n, bound_id, est, se) for bound_id, n, est, se in flat)

    monotone: dict[str, bool] = {}
    for bound_id in dict.fromkeys(r.bound_id for r in rows):  # in row order
        series = [r for r in rows if r.bound_id == bound_id]
        # b passes when (a - b) / se >= PASS_MARGIN, written without the division
        monotone[bound_id] = all(
            b.estimate <= a.estimate - PASS_MARGIN * math.hypot(a.stderr, b.stderr)
            for a, b in zip(series, series[1:])
        )
    return ConvergenceStudy(rows=rows, monotone=monotone)


# --- presets -----------------------------------------------------------------


def default_scenario() -> CoupledScenario:
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
        truncation="jumps",
        payoff_kind="call",
        payoff_strike=0.0,
        functional_coordinate=0,
        exercise_time=1.0,
        replications=2000,
        master_seed=1729,
    )
