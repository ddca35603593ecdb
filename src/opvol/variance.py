"""Operator-valued variance process driven by compound Poisson jumps.

The process solves dV = c(V) dt + dL for a bounded generator c on the operator
space and admits the exact representation

    V(t) = exp(c t) V0 + sum_{T_i <= t} exp(c (t - T_i)) X_i,

so paths are built by exact semigroup propagation between events rather than
Euler stepping.  The generator is built from a diagonal d x d matrix C in one
of two kinds,

  sandwich:   T -> C T C*      eigenvalues Lambda[j, k] = C_jj C_kk
  sylvester:  T -> C T + T C*  eigenvalues Lambda[j, k] = C_jj + C_kk

so it is diagonal in the tensor basis e_j (x) e_k and exp(c t) multiplies
entry (j, k) by exp(Lambda[j, k] t).  Either kind supports compression
c^n = Pi_n c Pi_n by a keep-mask over the entries (j, k), which zeroes Lambda
outside the kept index set; truncate_generator keeps J_n = {j + k <= n}.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from opvol.operators import as_hilbert_vector


@dataclass(frozen=True, eq=False)
class GeneratorSpec:
    """Bounded generator of the sandwich or sylvester kind, given by the
    spectrum (diagonal) of C.

    A non-None mask, a (d, d) boolean keep-set over the entries (j, k), means
    the compressed generator Pi c Pi onto span{e_j (x) e_k : mask[j, k]}.
    """

    kind: str
    spectrum: np.ndarray
    mask: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("sandwich", "sylvester"):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        object.__setattr__(self, "spectrum", as_hilbert_vector(self.spectrum))
        if self.mask is not None:
            mask = np.asarray(self.mask, dtype=bool)
            if mask.shape != (self.dim, self.dim):
                raise ValueError(f"mask has shape {mask.shape}, expected {(self.dim, self.dim)}")
            object.__setattr__(self, "mask", mask)

    @property
    def dim(self) -> int:
        return int(self.spectrum.size)

    @cached_property
    def op_norm(self) -> float:
        """Exact operator norm on HS space: max |Lambda| over the kept index set."""
        Lam = generator_eigensystem(self)
        if self.mask is not None:
            Lam = np.where(self.mask, Lam, 0.0)
        return float(np.max(np.abs(Lam)))


def karhunen_loeve_spectrum(d: int) -> np.ndarray:
    """First d eigenvalues (2 / ((2j - 1) pi))^2, j = 1..d, of the canonical
    integration-kernel covariance."""
    j = np.arange(1, d + 1)
    return (2.0 / ((2 * j - 1) * np.pi)) ** 2


def generator_eigensystem(spec: GeneratorSpec) -> np.ndarray:
    """Eigenvalues Lambda[j, k] of the uncompressed generator on e_j (x) e_k."""
    lam = spec.spectrum
    if spec.kind == "sandwich":
        return np.outer(lam, lam)
    return lam[:, None] + lam[None, :]


def truncate_generator(spec: GeneratorSpec, n: int) -> GeneratorSpec:
    """Compressed generator Pi_n c Pi_n onto J_n = {(j, k): j + k <= n}
    (1-based indices)."""
    if spec.mask is not None:
        raise ValueError("generator is already compressed")
    j = np.arange(1, spec.dim + 1)
    return replace(spec, mask=j[:, None] + j[None, :] <= n)


def eigen_tail_sup_sq(spec: GeneratorSpec) -> float:
    """sup of Lambda^2 over the entries a compressed generator drops (0 when
    it drops none)."""
    if spec.mask is None or np.all(spec.mask):
        return 0.0
    return float(np.max(generator_eigensystem(spec)[~spec.mask] ** 2))


def generator_gap_op_norm(spec: GeneratorSpec) -> float:
    """Operator norm of c - Pi c Pi on the operator space, for the
    compressed generator spec = Pi c Pi.

    The difference acts diagonally on the eigen grid, so the norm is exactly
    the sup of |Lambda| over the dropped entries.
    """
    return float(np.sqrt(eigen_tail_sup_sq(spec)))


# --- semigroup steppers -----------------------------------------------------

@dataclass(frozen=True, eq=False)
class Stepper:
    """The semigroup exp(c dt) of one generator as entrywise multipliers
    exp(Lambda dt); a compressed generator (mask set) multiplies on the index
    set and leaves the rest fixed.

    factor(dt) builds the multipliers for one step length, or a stack of them
    for step lengths shaped (U, 1, 1), each slice the same bits as the call
    with that one step length.
    """

    base: np.ndarray
    mask: np.ndarray | None = None

    def factor(self, dt: float | np.ndarray) -> np.ndarray:
        M = np.exp(self.base * dt)
        if self.mask is not None:
            M = np.where(self.mask, M, 1.0)
        return M


def make_stepper(spec: GeneratorSpec) -> Stepper:
    return Stepper(generator_eigensystem(spec), spec.mask)


# --- grids and paths ---------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Sorted evaluation times; jump times appear twice, a left-limit slot
    immediately followed by the post-jump slot."""

    times: np.ndarray
    is_left: np.ndarray
    jump_index: np.ndarray  # index into the clock at post-jump slots, else -1

    @property
    def size(self) -> int:
        return int(self.times.size)

    @cached_property
    def right_slots(self) -> np.ndarray:
        """Indices of the RCLL (right-value) entry at each distinct time."""
        return np.flatnonzero(~self.is_left)

    @cached_property
    def distinct_times(self) -> np.ndarray:
        return self.times[self.right_slots]


def build_grid(horizon: float, m_points: int, jump_times: np.ndarray) -> TimeGrid:
    """Uniform grid of m_points steps joined with all jump times and their left limits."""
    if horizon <= 0 or m_points < 1:
        raise ValueError("need horizon > 0 and at least one step")
    jump_times = np.asarray(jump_times, dtype=float)
    base = np.linspace(0.0, horizon, m_points + 1)
    # the sorted distinct times, as np.union1d gives them; its np.unique
    # call would import numpy.ma (about 13 ms) in the first replication
    both = np.sort(np.concatenate((base, jump_times)))
    distinct = both[np.concatenate(([True], both[1:] != both[:-1]))]
    jump_pos = np.searchsorted(distinct, jump_times)

    # a distinct time holding a jump takes two slots, the left limit first
    counts = np.ones(distinct.size, dtype=np.int64)
    counts[jump_pos] = 2
    right = np.cumsum(counts) - 1
    times = np.repeat(distinct, counts)
    is_left = np.ones(times.size, dtype=bool)
    is_left[right] = False
    jidx = np.full(times.size, -1, dtype=np.int64)
    jidx[right[jump_pos]] = np.arange(jump_pos.size)
    return TimeGrid(times=times, is_left=is_left, jump_index=jidx)


@dataclass(frozen=True, eq=False)
class VariancePath:
    """Variance path sampled on a TimeGrid; values[..., g, :, :] is V at
    times[g] (the left limit where is_left is set).  values is (G, d, d), or
    (P, G, d, d) for P coupled paths on the one grid."""

    grid: TimeGrid
    values: np.ndarray


# When to take the cumulative product.  Timed on 54 diagonal cases (P d^2 from
# 144 to 1,280 entries per slot, 0 to 40 jumps on a 200-step grid; 2-vCPU
# x86-64, numpy 2.4.6), np.multiply.accumulate costs about 4 ns per entry and
# slot plus 22 ns per entry and segment, and the slot-by-slot loop about 1.2 us
# per slot plus 1.8 ns per entry and slot.  The two cross where
# P d^2 (G + 10 J) = 460 G for G slots and J jumps: measured near 460 entries
# per slot with no jump, 400 with 5 and 256 with 20, so four d = 8 paths with
# a jump or two take the cumulative product and five d = 16 paths the loop.
# This rule came within 0.6 % of the faster route in every case; P d^2 <= 512
# alone was up to 66 % slower.
_SEGMENT_SLOTS = 10
_LOOP_SLOT_ENTRIES = 460


def evolve_coupled(
    v0s: np.ndarray,
    steppers: list[Stepper],
    jump_stacks: list[np.ndarray],
    grid: TimeGrid,
) -> np.ndarray:
    """Propagate several coupled paths over one grid; returns (P, G, d, d).

    Paths share the clock; each path has its own initial value, stepper, and
    jump tensors (aligned index-by-index across paths, one per jump slot of
    the grid).  Each distinct stepper object (paths may share one) builds its
    factors for all distinct positive step lengths in one call.  When the
    cost rule above favours it, the per-step factors are written into the
    output and each segment between jumps is one cumulative product along the
    slot axis, which multiplies in the same order as a step-by-step loop; a
    zero-length step takes a factor of ones, and x * 1.0 is x.  Otherwise the
    paths advance slot by slot.
    """
    P, d = v0s.shape[0], v0s.shape[-1]
    G = grid.size
    jidx = grid.jump_index
    jumps = np.stack(jump_stacks)
    jump_slots = np.flatnonzero(jidx[1:] >= 0) + 1
    if jump_slots.size != jumps.shape[1]:
        raise ValueError(
            f"grid has {jump_slots.size} jump slots for {jumps.shape[1]} jumps per path; "
            "it is missing jump times of the clock"
        )
    out = np.empty((P, G, d, d))
    out[:, 0] = v0s

    dts = np.diff(grid.times)
    moving = dts > 0.0
    uniq, inv = np.unique(dts[moving], return_inverse=True)
    distinct = {id(s): s for s in steppers}
    tables = {key: s.factor(uniq[:, None, None]) for key, s in distinct.items()}
    # one factor table per path, its last row ones for the zero-length steps
    ones = np.ones((1, d, d))
    factors = np.stack([np.concatenate([tables[id(s)], ones]) for s in steppers])
    row = np.full(G - 1, uniq.size)  # table row of each step; the ones if zero-length
    row[moving] = inv

    if P * d * d * (G + _SEGMENT_SLOTS * jump_slots.size) <= _LOOP_SLOT_ENTRIES * G:
        for p in range(P):
            # rows are in range; "clip" writes into out, where "raise" buffers
            np.take(factors[p], row, axis=0, out=out[p, 1:], mode="clip")
        for start, stop in zip(np.r_[0, jump_slots], np.r_[jump_slots, G]):
            if start > 0:
                head = out[:, start]
                np.multiply(out[:, start - 1], head, out=head)
                head += jumps[:, jidx[start]]
            seg = out[:, start:stop]
            np.multiply.accumulate(seg, axis=1, out=seg)
        return out

    V = out[:, 0].copy()
    for g, (r, j) in enumerate(zip(row.tolist(), jidx[1:].tolist()), start=1):
        np.multiply(V, factors[:, r], out=V)
        if j >= 0:
            V += jumps[:, j]
        out[:, g] = V
    return out


def sup_norm_stack(D: np.ndarray, mode: str) -> float:
    """max over the first axis of norm(D[g], mode) for a stack of matrices,
    mode "hs" or "op".

    In op mode a finite symmetric stack solves only the slots that can hold
    the max (_op_sup_symmetric); the result is the same to the last bit.  A
    float stack equal to its transpose bit for bit, with max |D| <= _HALF_MAX,
    is its own symmetrisation (D + D^T) / 2 bit for bit, so it goes there
    without the asymmetry, scale and symmetrisation sweeps.
    """
    if mode == "hs":
        return float(np.sqrt(np.max(np.sum(D * D, axis=(-2, -1)))))
    if mode != "op":
        raise ValueError(f"unknown norm mode {mode!r}")
    if D.dtype == np.float64:
        bits = D.view(np.int64)
        if np.array_equal(bits, np.swapaxes(bits, -2, -1)):
            top = np.max(np.abs(D), axis=(-2, -1))
            if np.max(top) <= _HALF_MAX:  # False on NaN
                return _op_sup_symmetric(D, top)
    asym = np.max(np.abs(D - np.swapaxes(D, -2, -1)))
    scale = max(float(np.max(np.abs(D))), 1.0)
    if asym <= 1e-10 * scale:
        S = (D + np.swapaxes(D, -2, -1)) / 2.0
        top = np.max(np.abs(S), axis=(-2, -1))
        if np.all(np.isfinite(top)):
            return _op_sup_symmetric(S, top)
        s = np.abs(np.linalg.eigvalsh(S))
    else:
        s = np.linalg.svd(D, compute_uv=False)
    return float(np.max(s))


# below this, x + x does not overflow, so (x + x) / 2 is x
_HALF_MAX = float(np.finfo(float).max) / 2.0

# a slot whose certified upper bound falls below this fraction of an exact op
# norm cannot hold the sup: eigvalsh and the bound each carry a relative
# rounding error of order d * eps, orders of magnitude below 1e-10
_PRUNE_MARGIN = 1.0 - 1e-10


def _op_sup_symmetric(S: np.ndarray, top: np.ndarray) -> float:
    """max over slots of max |eigvalsh(S[g])| for a finite symmetric stack,
    with top[g] = max |S[g]|; equal to the full-stack max bit for bit.

    An all-zero slot has op norm 0 and needs no solve.  Every other slot gets
    the upper bound ub = top * (tr X^8)^(1/8) >= |S|_op with X = S / top
    (scaled so the powers neither underflow nor overflow).  The slot with the
    largest ub is solved exactly, and then only the slots whose ub reaches
    that value times _PRUNE_MARGIN are solved; the rest cannot hold the max.
    """
    d = S.shape[-1]
    S, top = S.reshape(-1, d, d), top.reshape(-1)
    rest = np.flatnonzero(top > 0.0)
    if rest.size == 0:
        return 0.0
    scale = top[rest]
    X = S[rest]
    X /= scale[:, None, None]
    X = X @ X
    X = X @ X
    ub = scale * np.einsum("gij,gij->g", X, X) ** 0.125
    lead = rest[np.argmax(ub)]
    best = float(np.max(np.abs(np.linalg.eigvalsh(S[lead]))))
    cand = rest[(ub >= best * _PRUNE_MARGIN) & (rest != lead)]
    return float(np.max(np.abs(np.linalg.eigvalsh(S[cand])), initial=best))
