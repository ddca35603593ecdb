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

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .operators import psd_sqrt_batch
from .processes import sample_wiener_increments
from .variance import VariancePath

SEMIGROUP_KINDS = ("diagonal", "skew")


@dataclass(frozen=True, eq=False)
class ForwardSemigroupSpec:
    """Semigroup generator A given by its spectrum, one entry per coordinate.

    The diagonal kind has A = diag(spectrum), so ||S(t)||_op = e^{t max a}.
    The skew kind has the tridiagonal skew-adjoint A with A[j, j+1] =
    spectrum[j] = -A[j+1, j] for j < d - 1 (the last entry is unused), an
    isometry group.  Both have c = 1 in ||S(t)|| <= c e^{kt}.
    """

    kind: str
    spectrum: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "spectrum", np.asarray(self.spectrum, dtype=float))
        if self.kind not in SEMIGROUP_KINDS:
            raise ValueError(f"unknown forward semigroup kind {self.kind!r}")

    @property
    def k(self) -> float:
        """Growth rate k of ||S(t)||_op <= e^{kt}."""
        return float(np.max(self.spectrum)) if self.kind == "diagonal" else 0.0

    def propagators(self, dts: np.ndarray) -> np.ndarray:
        """S(dt) for each step length in the 1-D array dts, in one call: the
        multipliers exp(a dt), shape (U, d), for the diagonal kind, the
        matrices shape (U, d, d) for the skew kind.  Row u holds the bits of
        the call with dts[u] alone (scipy's expm solves a stack slice by
        slice)."""
        if self.kind == "diagonal":
            return np.exp(self.spectrum * dts[:, None])
        d = self.spectrum.size
        w = self.spectrum[: d - 1]
        A = np.zeros((d, d))
        A[np.arange(d - 1), np.arange(1, d)] = w
        A[np.arange(1, d), np.arange(d - 1)] = -w
        return expm(dts[:, None, None] * A)


def simulate_forward_coupled(
    paths: VariancePath,
    fwd: ForwardSemigroupSpec,
    q: np.ndarray,
    rng: np.random.Generator,
    sqrts: np.ndarray | None = None,
) -> np.ndarray:
    """Run the left-endpoint Euler recursion for X and every X^n.

    paths.values is the (P, G, d, d) stack of coupled variance paths on
    paths.grid, the exact path first; q is the noise spectrum.  Returns the
    (P, G, d) states: every trajectory consumes the identical Wiener
    increments.  ``sqrts`` is the stack of square roots of paths.values;
    when omitted it is computed with one batched decomposition.  Only the
    left endpoints of the positive-length steps are read.
    """
    grid = paths.grid
    d = paths.values.shape[-1]
    if fwd.spectrum.size != d or q.size != d:
        raise ValueError("dimension mismatch between variance, semigroup, and noise")
    if sqrts is None:
        sqrts = psd_sqrt_batch(paths.values)
    elif sqrts.shape != paths.values.shape:
        raise ValueError(
            f"square root stack has shape {sqrts.shape}, expected {paths.values.shape}"
        )

    # one shared Wiener path: an increment per distinct time, which is one
    # per positive-length step, in order (jump-time slots add zero steps)
    increments = sample_wiener_increments(q, grid.distinct_times, rng)
    dts = np.diff(grid.times)
    steps = dts > 0.0

    # sqrt(V(t_m)) dB_m for every path and positive-length step at once
    noise = np.einsum("pkij,kj->pki", sqrts[:, np.flatnonzero(steps)], increments)

    # transport over the positive-length steps: state = S(dt)(state + noise)
    uniq, row = np.unique(dts[steps], return_inverse=True)
    table = fwd.propagators(uniq)
    diagonal = fwd.kind == "diagonal"
    states = np.zeros((sqrts.shape[0], noise.shape[1] + 1, d))
    state = states[:, 0]
    for k, r in enumerate(row):
        mult = table[r]
        state = state + noise[:, k]
        state = state * mult if diagonal else state @ mult.T
        states[:, k + 1] = state
    # a zero-length jump slot repeats the state before it
    return states[:, np.concatenate(([0], np.cumsum(steps)))]


def forward_sup_error(xs: np.ndarray) -> np.ndarray:
    """(L,) sups over the grid of |X(t) - X^n(t)|^2 in the state-space norm,
    for the (1 + L, G, d) states xs, exact first."""
    diff = xs[0] - xs[1:]
    return np.max(np.sum(diff * diff, axis=2), axis=1)
