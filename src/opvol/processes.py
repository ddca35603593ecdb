"""Random drivers: Poisson clock, coupled tensor-jump streams, Q-Wiener increments.

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


@dataclass(frozen=True, eq=False)
class PoissonClock:
    """Jump times of a Poisson process on (0, T]."""

    rate: float
    horizon: float
    times: np.ndarray

    def __post_init__(self):
        if self.rate < 0 or self.horizon <= 0:
            raise ValueError("rate must be >= 0 and horizon > 0")
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or (t.size and (np.any(np.diff(t) <= 0) or t[0] <= 0 or t[-1] > self.horizon)):
            raise ValueError("jump times must be strictly increasing in (0, T]")
        object.__setattr__(self, "times", t)

    @property
    def count(self) -> int:
        return int(self.times.size)

    @classmethod
    def empty(cls, rate: float, horizon: float) -> "PoissonClock":
        return cls(rate=rate, horizon=horizon, times=np.empty(0))


def sample_clock(rate: float, horizon: float, rng: np.random.Generator) -> PoissonClock:
    """Draw a clock from exponential inter-arrivals truncated at the horizon.

    The gaps come in blocks; each block's arrival times are one cumsum whose
    first term is the time carried from the block before, so they are added
    one gap at a time, in order.
    """
    if rate <= 0 or horizon <= 0:
        raise ValueError("sample_clock needs rate > 0 and horizon > 0")
    chunks = []
    t = 0.0
    block = max(8, int(2 * rate * horizon) + 1)
    while True:
        gaps = rng.exponential(scale=1.0 / rate, size=block)
        ts = np.cumsum(np.concatenate(([t], gaps)))[1:]
        n = int(np.searchsorted(ts, horizon, side="right"))
        chunks.append(ts[:n])
        if n < block:
            return PoissonClock(rate=rate, horizon=horizon, times=np.concatenate(chunks))
        t = ts[-1]


@dataclass(frozen=True, eq=False)
class JumpLaw:
    """Law of the jump building block Y in H: mean-zero Gaussian with
    independent coordinates of variance gammas[j]."""

    gammas: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gammas, dtype=float)
        if g.ndim != 1 or np.any(g < 0) or not np.all(np.isfinite(g)):
            raise ValueError("jump spectrum must be a nonnegative finite sequence")
        object.__setattr__(self, "gammas", g)

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.sqrt(self.gammas) * rng.standard_normal((size, self.gammas.size))


@dataclass(frozen=True, eq=False)
class CoupledJumpStream:
    """Tensor-squared jumps X_i = Y_i (x) Y_i, and their truncations at any
    level, on one clock."""

    clock: PoissonClock
    ys: np.ndarray  # (N, d) full-resolution jump vectors

    def __post_init__(self):
        ys = np.asarray(self.ys, dtype=float)
        if ys.ndim != 2 or ys.shape[0] != self.clock.count:
            raise ValueError("ys must be (N, d) aligned with the clock")
        object.__setattr__(self, "ys", ys)

    @property
    def dim(self) -> int:
        return int(self.ys.shape[1])

    @cached_property
    def jumps(self) -> np.ndarray:
        """(N, d, d) stack of X_i."""
        return np.einsum("ij,ik->ijk", self.ys, self.ys)

    def ys_at_level(self, n: int) -> np.ndarray:
        if n >= self.dim:
            return self.ys
        out = self.ys.copy()
        out[:, n:] = 0.0
        return out

    def approx_jumps(self, n: int) -> np.ndarray:
        """(N, d, d) stack of X_i^n = Y_i^n (x) Y_i^n."""
        yn = self.ys_at_level(n)
        return np.einsum("ij,ik->ijk", yn, yn)


def sample_jump_stream(clock: PoissonClock, law: JumpLaw, rng: np.random.Generator) -> CoupledJumpStream:
    """All jumps of one replication, sharing the clock across levels."""
    return CoupledJumpStream(clock=clock, ys=law.draw(rng, clock.count))


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
