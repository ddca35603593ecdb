"""Volatility-modulated forward dynamics driven by a Q-Wiener process.

The forward component is the stochastic convolution

    X(t) = int_0^t S(t - s) sqrt(V(s)) dB(s),

where S is a quasi-contractive semigroup on the state space and V is the
operator-valued variance path.  The convolution is discretized with a
left-endpoint Euler recursion

    X(t_{m+1}) = S(dt_m) X(t_m) + S(dt_m) sqrt(V(t_m)) dB_m,

which keeps the volatility integrand predictable.  Exact and truncated
variance paths are driven by one shared Wiener path so that the difference
X - X^n isolates the truncation error.

The square roots sqrt(V(t_m)) are taken from the caller when it already holds
them (the experiment engine decomposes every grid slot once and reuses the
stack); otherwise they are computed here, one batched decomposition for all
paths.  The noise terms sqrt(V(t_m)) dB_m of every path and step are formed in
one batched contraction, and only the transport by S(dt_m) runs step by step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
from scipy.linalg import expm

from .operators import HilbertVector, HSOperator, psd_sqrt_batch
from .processes import QWienerSpec, sample_wiener_increments
from .variance import TimeGrid, VariancePath

SKEW_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ForwardSemigroupSpec:
    """Semigroup generator with certified quasi-contraction constants.

    Supported kinds keep the constants explicit: a diagonal generator gives
    ||S(t)||_op = e^{t max a} (c = 1, k = max a); a skew-adjoint generator
    gives an isometry group (c = 1, k = 0).
    """

    kind: str
    A: HSOperator
    c: float = field(init=False)
    k: float = field(init=False)

    def __post_init__(self) -> None:
        A = np.asarray(self.A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("generator must be a square matrix")
        if not np.all(np.isfinite(A)):
            raise ValueError("generator entries must be finite")
        object.__setattr__(self, "A", A)
        scale = 1.0 + float(np.max(np.abs(A))) if A.size else 1.0
        if self.kind == "diagonal":
            if np.count_nonzero(A - np.diag(np.diagonal(A))):
                raise ValueError("diagonal kind requires a diagonal generator")
            object.__setattr__(self, "c", 1.0)
            object.__setattr__(self, "k", float(np.max(np.diagonal(A))))
        elif self.kind == "skew":
            if np.max(np.abs(A + A.T)) > SKEW_TOL * scale:
                raise ValueError("skew kind requires A + A^T = 0")
            object.__setattr__(self, "c", 1.0)
            object.__setattr__(self, "k", 0.0)
        else:
            raise ValueError(f"unknown semigroup kind {self.kind!r}")

    @classmethod
    def diagonal(cls, exponents: np.ndarray) -> "ForwardSemigroupSpec":
        return cls(kind="diagonal", A=np.diag(np.asarray(exponents, dtype=float)))

    @property
    def dim(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True, eq=False)
class ForwardPath:
    """Coupled forward trajectories on a shared grid.

    ``values[g]`` is X at grid slot g; ``approx[n]`` is the trajectory driven
    by the level-n variance path and the same Wiener increments, which are
    kept in ``increments`` (one row per grid step, zero rows for the
    zero-length steps at jump-time markers).
    """

    grid: TimeGrid
    values: np.ndarray
    approx: Mapping[int, np.ndarray]
    increments: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape[0] != self.grid.size:
            raise ValueError("values do not cover the grid")
        if self.increments.shape[0] != self.grid.size - 1:
            raise ValueError("one increment row per grid step required")
        for n, xs in self.approx.items():
            if xs.shape != self.values.shape:
                raise ValueError(f"level {n} trajectory shape mismatch")

    def at_time(self, t: float, level: int | None = None) -> HilbertVector:
        """Value at grid time t (X is continuous, so slot choice is moot)."""
        idx = np.flatnonzero(np.abs(self.grid.times - t) <= 1e-12 * (1.0 + abs(t)))
        if idx.size == 0:
            raise ValueError(f"time {t} is not on the grid")
        xs = self.values if level is None else self.approx[level]
        return xs[idx[-1]]


def _same_grid(a: TimeGrid, b: TimeGrid) -> bool:
    return (
        a is b
        or (
            np.array_equal(a.times, b.times)
            and np.array_equal(a.is_left, b.is_left)
            and np.array_equal(a.jump_index, b.jump_index)
        )
    )


def simulate_forward_coupled(
    exact: VariancePath,
    approx: Mapping[int, VariancePath],
    fwd: ForwardSemigroupSpec,
    q: QWienerSpec,
    rng: np.random.Generator,
    sqrts: np.ndarray | None = None,
) -> ForwardPath:
    """Run the left-endpoint Euler recursion for X and every X^n.

    All trajectories consume the identical Wiener increments.  ``sqrts`` is
    the (1 + len(approx), grid.size, d, d) stack of square roots of the exact
    path followed by each level in ``approx`` order, at every grid slot; when
    omitted it is computed with one batched decomposition.  Only the left
    endpoints of the positive-length steps are read.
    """
    grid = exact.grid
    d = exact.values.shape[1]
    if fwd.dim != d or q.q.shape[0] != d:
        raise ValueError("dimension mismatch between variance, semigroup, and noise")
    for n, path in approx.items():
        if not _same_grid(grid, path.grid):
            raise ValueError(f"level {n} variance path uses a different grid")
    n_paths = 1 + len(approx)
    if sqrts is None:
        sqrts = psd_sqrt_batch(np.stack([exact.values] + [approx[n].values for n in approx]))
    elif sqrts.shape != (n_paths, grid.size, d, d):
        raise ValueError(
            f"square root stack has shape {sqrts.shape}, "
            f"expected {(n_paths, grid.size, d, d)}"
        )

    # One shared Wiener path, sampled on the distinct times and scattered to
    # grid steps (duplicated jump-time slots get a zero increment).
    distinct = grid.distinct_times
    inc_distinct = sample_wiener_increments(q, distinct, rng)
    dts = np.diff(grid.times)
    steps = dts > 0.0
    increments = np.zeros((grid.size - 1, d))
    pos = np.searchsorted(distinct, grid.times[1:])
    increments[steps] = inc_distinct[pos[steps] - 1]

    # sqrt(V(t_m)) dB_m for every path and positive-length step at once
    noise = np.einsum("pkij,kj->pki", sqrts[:, np.flatnonzero(steps)], increments[steps])

    # transport over the positive-length steps: state = S(dt)(state + noise)
    uniq, row = np.unique(dts[steps], return_inverse=True)
    table = _propagator_table(fwd, uniq)
    diagonal = fwd.kind == "diagonal"
    states = np.zeros((n_paths, noise.shape[1] + 1, d))
    state = states[:, 0]
    for k, r in enumerate(row):
        mult = table[r]
        state = state + noise[:, k]
        state = state * mult if diagonal else state @ mult.T
        states[:, k + 1] = state
    # a zero-length jump slot repeats the state before it
    xs = states[:, np.concatenate(([0], np.cumsum(steps)))]

    return ForwardPath(
        grid=grid,
        values=xs[0],
        approx={n: xs[i + 1] for i, n in enumerate(approx)},
        increments=increments,
    )


def _propagator_table(fwd: ForwardSemigroupSpec, dts: np.ndarray) -> np.ndarray:
    """S(dt) for each step length in the 1-D array dts, in one call: the
    multipliers exp(a dt), shape (U, d), for the diagonal kind, the matrices
    shape (U, d, d) otherwise.  Row u holds the bits of the call with dts[u]
    alone (scipy's expm solves a stack slice by slice)."""
    if fwd.kind == "diagonal":
        return np.exp(np.diagonal(fwd.A) * dts[:, None])
    return expm(dts[:, None, None] * fwd.A)


def forward_sup_error(path: ForwardPath, level: int) -> float:
    """sup over the grid of |X(t) - X^n(t)|^2 in the state-space norm."""
    if level not in path.approx:
        raise KeyError(f"level {level} was not simulated")
    diff = path.values - path.approx[level]
    return float(np.max(np.sum(diff * diff, axis=1)))
