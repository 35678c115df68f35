"""Deterministic pseudo-randomness shared by every component.

All stochastic behaviour (splits, bootstraps, parameter sampling,
synthetic data) flows through :class:`Rng`, a splitmix64 stream.
splitmix64 is a documented 64-bit generator with a published reference
implementation (Steele, Lea & Flood, "Fast splittable pseudorandom
number generators"), so a port in another language can reproduce the
exact same integer streams. Bounded draws use the multiply-shift
reduction ``(x * n) >> 64``, which is exact under Python's
arbitrary-precision integers.

The state of a stream advances by a fixed constant per draw, so blocks
of draws of many streams at once are plain uint64 array arithmetic:
``below(next_u64_block(states, count), n)`` gives exactly what a loop of
``Rng.randbelow(n)`` calls gives, and leaves each stream where it would.
"""

from __future__ import annotations

import hashlib
import math
from typing import MutableSequence, Sequence, TypeVar

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# uint64 operands of the block draws
_U_GOLDEN, _U_MIX1, _U_MIX2 = np.uint64(_GOLDEN), np.uint64(_MIX1), np.uint64(_MIX2)
_U11, _U27, _U30, _U31, _U32 = (np.uint64(b) for b in (11, 27, 30, 31, 32))
_LOW32 = np.uint64(0xFFFFFFFF)

T = TypeVar("T")


def derive_seed(*parts: object) -> int:
    """Stable 64-bit seed from a sequence of labels.

    Uses blake2b over the stringified parts, so the fan-out of run seeds
    into stage/evaluation/split seeds is reproducible across processes
    and platforms (Python's builtin ``hash`` is salted and unusable here).
    """
    payload = "\x1f".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")


class Rng:
    """splitmix64 stream plus the handful of derived draws the package needs."""

    __slots__ = ("_state", "_gauss_cache")

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64
        self._gauss_cache: float | None = None

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1) built from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError("n must be positive")
        return (self.next_u64() * n) >> 64

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], both ends inclusive."""
        if hi < lo:
            raise ValueError("empty integer range")
        return lo + self.randbelow(hi - lo + 1)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def log_uniform(self, lo: float, hi: float) -> float:
        """Uniform in log space over [lo, hi]; requires 0 < lo <= hi."""
        if lo <= 0 or hi < lo:
            raise ValueError("log_uniform needs 0 < lo <= hi")
        return math.exp(self.uniform(math.log(lo), math.log(hi)))

    def choice(self, seq: Sequence[T]) -> T:
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return seq[self.randbelow(len(seq))]

    def shuffle(self, xs: MutableSequence) -> None:
        """In-place Fisher-Yates shuffle (descending index variant)."""
        for i in range(len(xs) - 1, 0, -1):
            j = self.randbelow(i + 1)
            xs[i], xs[j] = xs[j], xs[i]

    def random_block(self, count: int) -> np.ndarray:
        """The next ``count`` ``random()`` draws, as a float64 array."""
        states = np.array([self._state], dtype=np.uint64)
        raw = next_u64_block(states, count)[0]
        self._state = int(states[0])
        return (raw >> _U11) * 2.0**-53

    def gauss(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        """Standard Box-Muller transform; the paired deviate is cached."""
        if self._gauss_cache is not None:
            z, self._gauss_cache = self._gauss_cache, None
        else:
            u1 = self.random()
            u2 = self.random()
            r = math.sqrt(-2.0 * math.log(1.0 - u1))
            z = r * math.cos(2.0 * math.pi * u2)
            self._gauss_cache = r * math.sin(2.0 * math.pi * u2)
        return mu + sigma * z


def streams(seeds: Sequence[int]) -> np.ndarray:
    """uint64 states of the streams ``Rng(seed)``."""
    return np.array([seed & _MASK64 for seed in seeds], dtype=np.uint64)


def next_u64_block(states: np.ndarray, count: int) -> np.ndarray:
    """The next ``count`` ``next_u64()`` outputs of each stream, shape
    (len(states), count); advances ``states`` in place by ``count`` draws.
    uint64 arithmetic wraps, which is the modulo 2**64 of the scalar code."""
    z = states[:, None] + np.arange(1, count + 1, dtype=np.uint64) * _U_GOLDEN
    states += np.uint64((count * _GOLDEN) & _MASK64)
    z ^= z >> _U30
    z *= _U_MIX1
    z ^= z >> _U27
    z *= _U_MIX2
    z ^= z >> _U31
    return z


def below(x: np.ndarray, n) -> np.ndarray:
    """``randbelow(n)`` of ``next_u64`` outputs ``x``, as int64.

    ``n`` is one bound or an array of bounds that broadcasts to ``x``, each
    in [1, 2**32) (unchecked: callers pass counts). ``(x * n) >> 64``
    is computed in 64 bits from the halves of x: with x = hi * 2**32 + lo it
    equals ``(hi * n + (lo * n >> 32)) >> 32``, and no product or sum overflows.
    """
    n = np.asarray(n, dtype=np.uint64)
    hi = (x >> _U32) * n
    hi += ((x & _LOW32) * n) >> _U32
    return (hi >> _U32).astype(np.int64)


def shuffled_block(draws: np.ndarray, size: int) -> np.ndarray:
    """``range(size)`` after the first swaps of ``Rng.shuffle``, one row
    per row of ``draws``: column t holds the draw j that the shuffle
    swaps into position size - 1 - t (bound size - t). With all size - 1
    draws this is the whole shuffle; after the first size - m of them,
    positions m and up are final, so the first m hold the final set."""
    out = np.arange(size)[None, :].repeat(draws.shape[0], axis=0)
    at = np.arange(draws.shape[0])
    for t in range(draws.shape[1]):
        j = draws[:, t]
        out[at, j], out[:, size - 1 - t] = out[:, size - 1 - t], out[at, j]
    return out


def tree_start(seeds: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The first draws of the trees whose streams are ``Rng(seeds[i])``:
    a bootstrap of n ``randbelow(n)`` draws (none for n = 0), then the key
    of the root (``node_draws``); shapes (len(seeds), n) and (len(seeds),)."""
    raw = next_u64_block(np.array(seeds, dtype=np.uint64), n + 1)
    return below(raw[:, :n], n), raw[:, n]


def node_draws(keys: np.ndarray, size: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The draws of the tree nodes whose streams are ``Rng(keys[i])``: the
    first m < size places, ascending, of a ``Rng.shuffle`` of range(size),
    which takes size - 1 draws (``shuffled_block``), then the keys of the
    left and the right child, the next two outputs; shapes (len(keys), m)
    and (len(keys), 2)."""
    raw = next_u64_block(np.array(keys, dtype=np.uint64), size + 1)
    picks = below(raw[:, : size - m], np.arange(size, m, -1))
    return np.sort(shuffled_block(picks, size)[:, :m], axis=1), raw[:, size - 1 :]
