"""Random drivers: Poisson jump times, coupled tensor-jump streams, Q-Wiener increments.

Every sampler takes an explicit numpy Generator.  Streams are derived from
(master_seed, purpose, replication) on a counter-based Philox engine, so
replications are collision-free and order-independent.  A stream's Philox
key is the one numpy's SeedSequence([master_seed, purpose, replication])
gives (generate_state(2, np.uint64)); the keys are derived here for an
aligned block of replications at a time, by SeedSequence's own hash run on
uint32 arrays, and tests/test_processes.py pins them against SeedSequence.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.random import Generator, Philox
from numpy.random.bit_generator import ISeedSequence

PURPOSE_CLOCK = 1
PURPOSE_JUMPS = 2
PURPOSE_WIENER = 3


# replications per key block; a power of two below 2**32, so an aligned block
# never crosses a multiple of 2**32 and all its replications have as many
# uint32 words
_KEY_BLOCK = 1024
# numpy's SeedSequence: pool size and hash constants
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF


def stream(master_seed: int, purpose: int, replication: int) -> np.random.Generator:
    """Independent generator for one (purpose, replication) slot: a new
    Generator on every call, with the bits of
    Generator(Philox(SeedSequence([master_seed, purpose, replication]))).

    The Philox key comes from the cached key block of the replication, and
    Philox takes it through numpy's ISeedSequence interface, so neither
    SeedSequence's hash nor the OS entropy Philox(key=...) draws runs per
    stream.  As with SeedSequence, a negative argument raises ValueError and
    a non-integer one TypeError.
    """
    block, row = divmod(_entropy(replication), _KEY_BLOCK)
    key = _key_block(_entropy(master_seed), _entropy(purpose), block)[row]
    return Generator(Philox(_PhiloxKey(key)))


def _entropy(value) -> int:
    """value as a Python int, with SeedSequence's errors for a non-integer
    (TypeError) and a negative one (ValueError)."""
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError("seed must be integer") from None
    if value < 0:
        raise ValueError("expected non-negative integer")
    return value


def _words(value: int) -> list[int]:
    """SeedSequence's uint32 words of a non-negative int, lowest first; 0 is
    one word."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hash(rows: np.ndarray, init: int, mult: int, first: int) -> np.ndarray:
    """SeedSequence's hash of each uint32 row, row i as the hash's call
    first + i: xor with the hash constant init * mult**(first + i), step the
    constant, multiply by it, xor in the high half."""
    consts = [init * pow(mult, first + i, 1 << 32) & _MASK32 for i in range(len(rows) + 1)]
    value = rows ^ np.array(consts[:-1], dtype=np.uint32)[:, None]
    value *= np.array(consts[1:], dtype=np.uint32)[:, None]
    value ^= value >> 16
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of two uint32 arrays."""
    value = _MIX_L * x
    value -= _MIX_R * y
    value ^= value >> 16
    return value


@lru_cache(maxsize=16)
def _key_block(seed: int, purpose: int, block: int) -> np.ndarray:
    """Read-only (_KEY_BLOCK, 2) uint64 Philox keys of replications
    block * _KEY_BLOCK + r: row r is
    SeedSequence([seed, purpose, block * _KEY_BLOCK + r]).generate_state(2, np.uint64).

    SeedSequence's hash, run on uint32 arrays with one column per
    replication.  The entropy words are seed's, purpose's, then the
    replication's, each lowest first; only the replication's lowest word
    varies across the block.  The first 4 words (zeros past the end) are
    hashed into the pool, every pool word's hash is mixed into each other
    pool word, each later word's hash into every pool word, and
    generate_state hashes the pool into the low and high halves of the two
    keys.  The hashes a step mixes in are independent of each other, so
    each step is one array operation over them.
    """
    head = _words(seed) + _words(purpose)
    words = head + _words(block * _KEY_BLOCK)
    entropy = np.zeros((max(_POOL, len(words)), _KEY_BLOCK), dtype=np.uint32)
    entropy[: len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(head)] += np.arange(_KEY_BLOCK, dtype=np.uint32)

    pool = _hash(entropy[:_POOL], _INIT_A, _MULT_A, 0)
    calls = _POOL
    for src in range(_POOL):
        dst = [i for i in range(_POOL) if i != src]
        hashes = _hash(np.broadcast_to(pool[src], (len(dst), _KEY_BLOCK)), _INIT_A, _MULT_A, calls)
        pool[dst] = _mix(pool[dst], hashes)
        calls += len(dst)
    for word in entropy[_POOL:]:
        pool = _mix(pool, _hash(np.broadcast_to(word, pool.shape), _INIT_A, _MULT_A, calls))
        calls += _POOL

    state = _hash(pool, _INIT_B, _MULT_B, 0).astype(np.uint64)
    keys = np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=1)
    keys.flags.writeable = False
    return keys


class _PhiloxKey(ISeedSequence):
    """A Philox key posing as the seed sequence that derives it: Philox asks
    its seed sequence for generate_state(2, np.uint64), its key, once."""

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


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
