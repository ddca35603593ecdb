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

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from opvol.operators import as_hilbert_vector

_GENERATOR_KINDS = ("sandwich", "sylvester")


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
        if self.kind not in _GENERATOR_KINDS:
            raise ValueError(f"kind must be one of {', '.join(_GENERATOR_KINDS)}, got {self.kind!r}")
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

    @property
    def distinct_times(self) -> np.ndarray:
        """Each distinct time once, at its RCLL (right-value) slot."""
        return self.times[~self.is_left]


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


# When to take the cumulative product.  Timed for one path on 54 cases (d^2 = 64
# and 256 entries per slot, 0 to 40 jumps on a 200-step grid, best of 25;
# 2-vCPU x86-64, numpy 2.4.6), np.multiply.accumulate costs about 2 ns per
# entry and slot plus 15 ns per entry and segment between jumps, and the
# slot-by-slot loop about 0.4 us per slot plus 0.3 ns per entry and slot.  The
# two cross where d^2 (G + 10 J) = 230 G for G slots and J jumps: every d = 8
# case took the cumulative product (1.3 to 2.2 times faster than the loop),
# and every d = 16 case the loop (1.1 to 1.4 times faster).
_SEGMENT_SLOTS = 10
_LOOP_SLOT_ENTRIES = 230


def evolve_coupled(
    v0: np.ndarray,
    stepper: Stepper,
    jumps: np.ndarray,
    grid: TimeGrid,
) -> np.ndarray:
    """Propagate one variance path over a grid: the (G, d, d) path from v0
    with the (N, d, d) jump tensors, one per jump slot of the grid.

    The stepper builds its factors for all distinct positive step lengths
    in one call, and the path multiplies them in the order of a
    step-by-step loop.  When the cost rule above favours it, the per-step
    factors are written into the output and each segment between jumps is
    one cumulative product along the slot axis; a zero-length step takes a
    factor of ones, and x * 1.0 is x.  Otherwise the path advances slot by
    slot.  A truncated path is this path on the entries its truncation
    keeps: the generator acts entry by entry, so the entries it keeps see
    the same factors and jumps, in the same order.
    """
    d = v0.shape[-1]
    G = grid.size
    jidx = grid.jump_index
    jump_slots = np.flatnonzero(jidx[1:] >= 0) + 1
    if jump_slots.size != len(jumps):
        raise ValueError(
            f"grid has {jump_slots.size} jump slots for {len(jumps)} jumps; "
            "it is missing jump times of the clock"
        )
    dts = np.diff(grid.times)
    moving = dts > 0.0
    # the distinct positive step lengths, sorted, as np.unique gives them
    steps = np.sort(dts[moving])
    uniq = steps[np.concatenate(([True], steps[1:] != steps[:-1]))]
    # the factor table, its last row ones for the zero-length steps
    factors = np.concatenate([stepper.factor(uniq[:, None, None]), np.ones((1, d, d))])
    row = np.full(G - 1, uniq.size)  # table row of each step; the ones if zero-length
    row[moving] = np.searchsorted(uniq, dts[moving])

    out = np.empty((G, d, d))
    out[0] = v0
    if d * d * (G + _SEGMENT_SLOTS * jump_slots.size) <= _LOOP_SLOT_ENTRIES * G:
        # rows are in range; "clip" writes into out, where "raise" buffers
        np.take(factors, row, axis=0, out=out[1:], mode="clip")
        bounds = [0, *jump_slots.tolist(), G]
        for start, stop in zip(bounds[:-1], bounds[1:]):
            if start > 0:
                head = out[start]
                np.multiply(out[start - 1], head, out=head)
                head += jumps[jidx[start]]
            seg = out[start:stop]
            np.multiply.accumulate(seg, axis=0, out=seg)
        return out

    V = out[0].copy()
    for g, (r, j) in enumerate(zip(row.tolist(), jidx[1:].tolist()), start=1):
        np.multiply(V, factors[r], out=V)
        if j >= 0:
            V += jumps[j]
        out[g] = V
    return out


def _jump_free_diagonal(v0: np.ndarray, stepper: Stepper, grid: TimeGrid) -> np.ndarray:
    """The (G, d) diagonal of the jump-free path e^{ct} diag(v0) on a grid:
    one cumulative product along the slot axis of each step's diagonal
    factors, the stepper's on its diagonal (exp(Lambda_jj dt), or 1 off a
    mask).  These are the values on the diagonal of evolve_coupled's factor
    table (exp(Lambda_jj * 0) = 1 on a zero-length step), multiplied in the
    order of its step-by-step loop: the bits of that loop's diagonal with
    the jumps left out."""
    mask = None if stepper.mask is None else np.diagonal(stepper.mask)
    free = np.empty((grid.size, v0.shape[-1]))
    free[0] = np.diagonal(v0)
    free[1:] = Stepper(np.diagonal(stepper.base), mask).factor(np.diff(grid.times)[:, None])
    np.multiply.accumulate(free, axis=0, out=free)
    return free


def sup_norm_stack(D: np.ndarray, mode: str) -> float | tuple[float, float]:
    """max over the first axis of norm(D[g], mode) for a stack of matrices,
    mode "hs" or "op", or the pair of both, (hs, op), from one sweep with
    mode "both".

    Op mode takes a symmetric stack, as every difference of variance paths
    or of their square roots is, and solves only the slots that can hold the
    max (_op_sup_symmetric).  A NaN or inf anywhere raises LinAlgError in
    every mode, before any solve; in op and both modes a stack not equal to
    its transpose raises ValueError.  A finite stack whose squares overflow has
    HS sup inf and raises nothing.
    """
    if mode not in ("hs", "op", "both"):
        raise ValueError(f"unknown norm mode {mode!r}")
    # a NaN or inf makes its slot's HS norm NaN or inf; so may a finite
    # stack's overflowing squares, which the largest entries tell apart
    with np.errstate(over="ignore"):
        hs = _slot_norms(D, "hs")
    peak = float(hs.max())
    if not math.isfinite(peak) and not np.isfinite(np.abs(D).max()):
        raise np.linalg.LinAlgError("NaN or inf in the stack")
    if mode == "hs":
        return peak
    if not np.array_equal(D, np.swapaxes(D, -2, -1)):
        raise ValueError("op mode needs a symmetric stack")
    op = _op_sup_symmetric(D, hs)
    return op if mode == "op" else (peak, op)


def _slot_norms(D: np.ndarray, mode: str) -> np.ndarray:
    """norm(D[g], mode) for every slot g of a (G, d, d) stack, mode "hs" or
    "op" (which takes a finite symmetric stack): the values whose max
    sup_norm_stack takes.  An all-zero slot has op norm 0 and needs no
    solve."""
    if mode == "hs":
        return np.sqrt(np.square(D).sum(axis=(-2, -1)))
    norms = np.zeros(len(D))
    live = np.flatnonzero(np.any(D != 0.0, axis=(-2, -1)))
    norms[live] = _op_norms(D[live])
    return norms


def _op_norms(S: np.ndarray) -> np.ndarray:
    """max |eigvalsh(S[g])| for every matrix of a finite symmetric stack:
    the one place an op norm is solved."""
    return np.abs(np.linalg.eigvalsh(S)).max(axis=-1)


# a slot whose certified upper bound falls below this fraction of an exact op
# norm cannot hold the sup: eigvalsh and the bounds each carry a relative
# rounding error of order d * eps, orders of magnitude below 1e-10
_PRUNE_MARGIN = 1.0 - 1e-10

# the HS norms bound the op norms only while their squares do not underflow:
# in a stack whose largest HS norm is below this, a slot's squares may round
# to zero as subnormals, and every nonzero slot goes to the trace bounds
_HS_FLOOR = 2.0**-400

# more slots than this passing the eighth-power bound get a second exact
# solve, of the slot with the largest bound, before the squared bounds: on the
# benchmark scenarios' difference stacks that cost less than squaring their
# bounds against the first lead alone, whose op norm the HS norms chose
_LEAD_AGAIN = 16


def _op_sup_symmetric(S: np.ndarray, hs: np.ndarray) -> float:
    """max over slots of max |eigvalsh(S[g])| for a finite symmetric stack
    with hs[g] = |S[g]|_HS; equal to the full-stack max bit for bit.

    |S|_op <= |S|_HS, so the slot with the largest HS norm is solved first,
    and its op norm best is the value every bound is tested against: a slot
    whose bound falls below best times _PRUNE_MARGIN cannot hold the max and
    is dropped.  The HS norm is the first bound, in a stack whose largest HS
    norm reaches _HS_FLOOR (below it a square may have underflowed, and
    every nonzero slot goes on).  An all-zero slot has op norm 0 and needs
    no solve; a stack of them takes none.  Each slot that passes gets the
    upper bound ub = top * (tr X^8)^(1/8) >= |S|_op with X = S / top and
    top = max |S|; if more than _LEAD_AGAIN pass it, the one with the
    largest ub is solved as well, and best becomes the larger op norm.  The
    survivors' X^4 is squared again for the sharper bound
    top * (tr X^16)^(1/16), and once more for (tr X^32)^(1/32), each tested
    against best, until two or fewer survive; only the final survivors are
    solved, so a stack where the lead alone survives takes one solve.  For
    symmetric X with eigenvalue sizes l1 >= l2 >= ..., tr X^2p = |X^p|_HS^2
    overestimates l1^2p by the factor 1 + (l2 / l1)^2p + ..., so each
    squaring drops more of the slots that are near the max but not tied
    with it.

    X has entries at most 1 and op norm in [1, d], so tr X^2p lies in
    [1, d^(2p+1)] whatever the scale of S.  k squarings give the bound a
    relative rounding error of about k d eps, and the pairwise sum of
    squares behind an HS norm one of order log(d) eps, far below the 1e-10
    margin.
    """
    d = S.shape[-1]
    S, hs = S.reshape(-1, d, d), hs.reshape(-1)
    lead = int(hs.argmax())
    trusted = hs[lead] >= _HS_FLOOR
    if not trusted:
        # the squares may have underflowed: every nonzero slot goes on
        live = np.any(S != 0.0, axis=(-2, -1))
        if not np.any(live):
            return 0.0
        lead = int(np.argmax(live))
    best = float(_op_norms(S[lead]))
    if trusted:
        live = hs >= best * _PRUNE_MARGIN
    live[lead] = False
    rest = np.flatnonzero(live)
    if rest.size == 0:
        return best
    X = S[rest]
    scale = np.abs(X).max(axis=(-2, -1))
    X = X / scale[:, None, None]
    X = X @ X
    X = X @ X
    ub = scale * np.einsum("gij,gij->g", X, X) ** 0.125
    keep = ub >= best * _PRUNE_MARGIN
    if np.count_nonzero(keep) > _LEAD_AGAIN:
        # the slot with the largest bound may beat the lead: solve it too
        top = int(ub.argmax())
        best = max(best, float(_op_norms(S[rest[top]])))
        keep = ub >= best * _PRUNE_MARGIN
        keep[top] = False
    for power in (16, 32):
        if np.count_nonzero(keep) <= 2:
            break
        rest, scale, X = rest[keep], scale[keep], X[keep]
        X = X @ X
        ub = scale * np.einsum("gij,gij->g", X, X) ** (1.0 / power)
        keep = ub >= best * _PRUNE_MARGIN
    cand = rest[keep]
    if cand.size == 0:
        return best
    return float(np.max(_op_norms(S[cand]), initial=best))
