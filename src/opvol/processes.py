"""Random drivers: Poisson jump times, coupled tensor-jump streams, Q-Wiener increments.

Every sampler takes an explicit numpy Generator.  Streams are derived from
(master_seed, purpose, replication) through SeedSequence on a counter-based
Philox engine, so replications are collision-free and order-independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

PURPOSE_CLOCK = 1
PURPOSE_JUMPS = 2
PURPOSE_WIENER = 3


def stream(master_seed: int, purpose: int, replication: int) -> np.random.Generator:
    """Independent generator for one (purpose, replication) slot."""
    return Generator(Philox(SeedSequence([master_seed, purpose, replication])))


def sample_clock(rate: float, horizon: float, rng: np.random.Generator) -> np.ndarray:
    """Jump times of a Poisson process on (0, T], drawn from exponential
    inter-arrivals truncated at the horizon; a rate of 0 gives no jumps and
    draws nothing.

    The gaps come in blocks; each block's arrival times are one cumsum whose
    first term is the time carried from the block before, so they are added
    one gap at a time, in order.
    """
    if rate < 0 or horizon <= 0:
        raise ValueError("sample_clock needs rate >= 0 and horizon > 0")
    if rate == 0:
        return np.empty(0)
    chunks = []
    t = 0.0
    block = max(8, int(2 * rate * horizon) + 1)
    while True:
        gaps = rng.exponential(scale=1.0 / rate, size=block)
        ts = np.cumsum(np.concatenate(([t], gaps)))[1:]
        n = int(np.searchsorted(ts, horizon, side="right"))
        chunks.append(ts[:n])
        if n < block:
            return np.concatenate(chunks)
        t = ts[-1]


@dataclass(frozen=True, eq=False)
class CoupledJumpStream:
    """The jump vectors Y_i of one replication, shared by every level, and
    their tensor squares X_i = Y_i (x) Y_i."""

    ys: np.ndarray  # (N, d) full-resolution jump vectors

    @cached_property
    def jumps(self) -> np.ndarray:
        """(N, d, d) stack of X_i."""
        return np.einsum("ij,ik->ijk", self.ys, self.ys)


def sample_jump_stream(count: int, sd: np.ndarray, rng: np.random.Generator) -> CoupledJumpStream:
    """count mean-zero Gaussian jump vectors whose coordinate j has standard
    deviation sd[j], the square root of the jump spectrum."""
    return CoupledJumpStream(ys=sd * rng.standard_normal((count, sd.size)))


def cp_second_moment(rate: float, t: float, m2: float, m1sq: float) -> float:
    """Exact second moment of a compound Poisson sum:
    E|L(t)|^2 = rate*t*E|J|^2 + rate^2*t^2*|E J|^2."""
    if min(rate, t, m2, m1sq) < 0:
        raise ValueError("all moment inputs must be nonnegative")
    return rate * t * m2 + rate**2 * t**2 * m1sq


def cp_second_moment_bound(rate: float, t: float, m2: float) -> float:
    """Upper bound rate*t*(1 + rate*t)*E|J|^2 (drops the mean to a second moment)."""
    if min(rate, t, m2) < 0:
        raise ValueError("all moment inputs must be nonnegative")
    return rate * t * (1.0 + rate * t) * m2


def sample_wiener_increments(
    q: np.ndarray, grid: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Increments of the Q-Wiener process with diagonal covariance spectrum q
    over each grid step, shape (M, d).

    Coefficient j of step m is sqrt(q_j * dt_m) * xi with xi standard normal.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or grid[0] != 0.0 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing and start at 0")
    dts = np.diff(grid)
    xi = rng.standard_normal((dts.size, q.size))
    return np.sqrt(q)[None, :] * np.sqrt(dts)[:, None] * xi
