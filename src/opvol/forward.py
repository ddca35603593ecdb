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
them (the experiment engine evolves only the exact path, takes every level's
root from its blocks and passes the whole root stack); otherwise they are
computed here, one batched decomposition for all paths.  The noise terms
z_m = sqrt(V(t_m)) dB_m of every path and step are formed in one batched
contraction.  The transport is a scan: with
A = U diag(lam) U^H the recursion solves to

    X(t_{k+1}) = U e^{lam t_{k+1}} sum_{j <= k} e^{-lam t_j} U^H z_j,

one cumsum over each segment of steps whose left endpoints lie within
1 / max|lam| of the segment's start, so no factor can overflow.  Zero
exponents (all of them in the shipped configs) and one-step segments keep
the step-by-step loop's bits; the diagonal kind's other exponents and the
skew kind round differently, by a few ulps of the states.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
            raise ValueError(f"kind must be one of {', '.join(SEMIGROUP_KINDS)}, got {self.kind!r}")

    @property
    def k(self) -> float:
        """Growth rate k of ||S(t)||_op <= e^{kt}."""
        return float(np.max(self.spectrum)) if self.kind == "diagonal" else 0.0

    @cached_property
    def modes(self) -> tuple[np.ndarray, np.ndarray | None]:
        """(lam, U) with A = U diag(lam) U^H, taken once per semigroup.

        The diagonal kind has lam = spectrum and U = I, returned as None.
        The skew kind's A is real and skew-adjoint, so -iA is Hermitian:
        lam = i w and U come from its eigh.
        """
        if self.kind == "diagonal":
            return self.spectrum, None
        d = self.spectrum.size
        w = self.spectrum[: d - 1]
        A = np.zeros((d, d))
        A[np.arange(d - 1), np.arange(1, d)] = w
        A[np.arange(1, d), np.arange(d - 1)] = -w
        w, U = np.linalg.eigh(-1j * A)
        return 1j * w, U


def simulate_forward_coupled(
    paths: VariancePath,
    fwd: ForwardSemigroupSpec,
    q: np.ndarray,
    rng: np.random.Generator,
    sqrts: np.ndarray | None = None,
) -> np.ndarray:
    """Run the left-endpoint Euler recursion for X and every X^n.

    paths.values is the (P, G, d, d) stack of coupled variance paths on
    paths.grid, the exact path first, or the (G, d, d) exact path alone; q
    is the noise spectrum.  sqrts is the (P, G, d, d) stack of the paths'
    square roots, exact first: required with the exact path alone, and
    computed with one batched decomposition when omitted with a stack.
    Returns the (P, G, d) states: every trajectory consumes the identical
    Wiener increments.  Only the left endpoints of the positive-length
    steps are read.
    """
    grid = paths.grid
    d = paths.values.shape[-1]
    if fwd.spectrum.size != d or q.size != d:
        raise ValueError("dimension mismatch between variance, semigroup, and noise")
    if sqrts is None:
        sqrts = psd_sqrt_batch(paths.values)
    want = paths.values.shape if paths.values.ndim == 4 else (len(sqrts), *paths.values.shape)
    if sqrts.shape != want:
        raise ValueError(f"square root stack has shape {sqrts.shape}, expected {want}")

    # one shared Wiener path: an increment per distinct time, which is one
    # per positive-length step, in order (jump-time slots add zero steps)
    times = grid.distinct_times
    increments = sample_wiener_increments(q, times, rng)
    steps = np.diff(grid.times) > 0.0

    # sqrt(V(t_m)) dB_m for every path and positive-length step at once; the
    # contraction runs on every step of the root stack as it lies, a zero
    # increment on each zero-length step, rather than on a gathered copy
    dB = np.zeros((steps.size, d))
    dB[steps] = increments
    noise = np.einsum("pkij,kj->pki", sqrts[:, :-1], dB)[:, steps]

    lam, U = fwd.modes
    if U is None:
        states = _transport(noise, times, lam)
    else:
        states = (_transport(noise @ U.conj(), times, lam) @ U.T).real
    # a zero-length jump slot repeats the state before it
    return states[:, np.concatenate(([0], np.cumsum(steps)))]


def _transport(noise: np.ndarray, times: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """(P, K + 1, d) states X_0 = 0, ..., X_K of X_{k+1} = e^{lam dt_k} (X_k + z_k)
    for the (P, K, d) noise z in the eigenbasis, on the K + 1 step endpoints
    times.  Within a segment starting at step s the recursion is

        X_{k+1} = e^{lam (t_{k+1} - t_s)} cumsum(X_s, e^{-lam (t_j - t_s)} z_j for s <= j <= k),

    with the carried state X_s as the cumsum's first row."""
    n_paths, n_steps, d = noise.shape
    states = np.zeros((n_paths, n_steps + 1, d), dtype=noise.dtype)
    states[:, 1:] = noise
    for s, e in _segments(times[:-1], float(np.max(np.abs(lam), initial=0.0))):
        rel = (times[s : e + 1] - times[s])[:, None]
        seg = states[:, s : e + 1]
        seg[:, 1:] *= np.exp(-lam * rel[:-1])
        np.cumsum(seg, axis=1, out=seg)
        seg *= np.exp(lam * rel)
    return states


def _segments(left: np.ndarray, span: float):
    """(start, end) step ranges whose left endpoints t_j share floor(span t_j),
    so span (t_j - t_start) stays below 1.5 with the rounding of span t_j.
    Past 2^52 that rounding reaches whole units, and every step is a segment
    of its own, which repeats the loop's arithmetic."""
    with np.errstate(over="ignore"):
        r = span * left
    if r[-1] < 2.0**52:
        starts = np.flatnonzero(np.diff(np.floor(r), prepend=-1.0))
    else:
        starts = np.arange(left.size)
    return zip(starts.tolist(), [*starts[1:].tolist(), left.size])


def forward_sup_error(xs: np.ndarray) -> np.ndarray:
    """(L,) sups over the grid of |X(t) - X^n(t)|^2 in the state-space norm,
    for the (1 + L, G, d) states xs, exact first."""
    diff = xs[0] - xs[1:]
    return np.max(np.sum(diff * diff, axis=2), axis=1)
