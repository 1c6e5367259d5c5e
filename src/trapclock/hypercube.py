"""Simple random walk on the hypercube {-1,+1}^N and its Ehrenfest projection.

Configurations are stored bit-packed (bit i set means spin i is -1), so
Hamming distances are XOR + popcount and a trajectory of length k costs
O(k) ints of memory, not O(kN). This module alone builds the array form of
configurations that the other layers read: rows of ceil(N/64) uint64
words, low word first, spin i in bit i % 64 of word i // 64, so for N <= 64
a row is the single word `SpinConfig.bits`.

The distance-to-start process is the Ehrenfest birth-death chain on
{0..N}; exact hitting probabilities and the full distribution after k
steps are computed here and cross-checked against a linear-system solve in
the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import as_generator

_WORD = (1 << 64) - 1
# total variation to Binomial(N, 1/2) that mixing_constant_estimate asks for
_MIXING_TV = 1e-6


@dataclass(frozen=True)
class SpinConfig:
    """One vertex of {-1,+1}^N. bit i of `bits` set <=> spin i equals -1."""

    N: int
    bits: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if not 0 <= self.bits < (1 << self.N):
            raise ValueError("bits out of range for N")

    @classmethod
    def all_plus(cls, N: int) -> "SpinConfig":
        return cls(N, 0)

    def flip(self, i: int) -> "SpinConfig":
        if not 0 <= i < self.N:
            raise IndexError(f"coordinate {i} out of range")
        return SpinConfig(self.N, self.bits ^ (1 << i))

    def words(self) -> np.ndarray:
        """The configuration as one row of ceil(N/64) uint64 words, low word
        first: spin i is bit i % 64 of word i // 64."""
        nwords = (self.N + 63) // 64
        return np.array([self.bits >> (64 * j) & _WORD for j in range(nwords)], dtype=np.uint64)


def hamming(a: SpinConfig, b: SpinConfig) -> int:
    if a.N != b.N:
        raise ValueError("dimension mismatch")
    return (a.bits ^ b.bits).bit_count()


def overlap(a: SpinConfig, b: SpinConfig) -> float:
    """Normalized overlap, equal to 1 - 2*hamming/N."""
    return 1.0 - 2.0 * hamming(a, b) / a.N


@dataclass(frozen=True, eq=False)
class WalkTrajectory:
    """A walk given by its start and the read-only int64 array of flipped
    coordinates, one per step."""

    start: SpinConfig
    flips: np.ndarray

    def __post_init__(self):
        flips = np.array(self.flips, dtype=np.int64)
        if flips.ndim != 1:
            raise ValueError("flips must be one-dimensional")
        bad = flips[(flips < 0) | (flips >= self.start.N)]
        if bad.size:
            raise ValueError(f"flip index {bad[0]} out of range")
        flips.flags.writeable = False
        object.__setattr__(self, "flips", flips)

    @property
    def length(self) -> int:
        return len(self.flips)

    @property
    def N(self) -> int:
        return self.start.N

    def config_at(self, k: int) -> SpinConfig:
        """The vertex after k steps: the start with every coordinate flipped
        an odd number of times among the first k flips inverted."""
        if not 0 <= k <= self.length:
            raise IndexError("step index out of range")
        odd = np.flatnonzero(np.bincount(self.flips[:k], minlength=self.N) & 1)
        return SpinConfig(self.N, self.start.bits ^ sum(1 << int(i) for i in odd))

    def position_words(self) -> np.ndarray:
        """(length+1, ceil(N/64)) uint64 word rows of all visited vertices."""
        masks = np.zeros((self.length + 1, (self.N + 63) // 64), dtype=np.uint64)
        masks[0] = self.start.words()
        if self.length:
            rows = np.arange(1, self.length + 1)
            masks[rows, self.flips // 64] = np.uint64(1) << (self.flips % 64).astype(np.uint64)
            np.bitwise_xor.accumulate(masks, axis=0, out=masks)
        return masks


def sample_walk(N: int, k: int, rng) -> WalkTrajectory:
    """A k-step walk from the all-plus vertex, flips drawn from `rng`."""
    return WalkTrajectory(SpinConfig.all_plus(N), as_generator(rng).integers(0, N, size=k))


def _walk_into(walk: np.ndarray, pos, flips: np.ndarray) -> None:
    """One chunk of a walk on one-word rows (N <= 64), in place along the
    last axis of `walk`.

    Column 0 holds the starting site `pos`, column k the site after the
    first k flips, so ``walk[..., :-1]`` are the sites the chunk's waits
    are spent in and ``walk[..., -1]`` is where the next chunk starts.
    """
    walk[..., 0] = pos
    np.left_shift(
        np.uint64(1), flips, out=walk[..., 1:], dtype=np.uint64, casting="unsafe"
    )
    np.bitwise_xor.accumulate(walk, axis=-1, out=walk)


def hamming_u64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamming distance between packed spin configurations (bitwise)."""
    return np.bitwise_count(a ^ b).astype(np.int64)


# ---------------------------------------------------------------------------
# Ehrenfest (distance) chain
# ---------------------------------------------------------------------------


def ehrenfest_hitting_prob(k: int, l: int, m: int, N: int) -> float:
    """P_l[T_m < T_k] for the Ehrenfest chain, exact.

    Computed as a ratio of sums of inverse binomials, evaluated in rational
    arithmetic so the only rounding is the final float conversion.
    """
    if not (0 <= k < l < m <= N):
        raise ValueError(f"need 0 <= k < l < m <= N, got k={k}, l={l}, m={m}, N={N}")
    num = sum(Fraction(1, math.comb(N - 1, i)) for i in range(k, l))
    den = num + sum(Fraction(1, math.comb(N - 1, i)) for i in range(l, m))
    return float(num / den)


def ehrenfest_hitting_linear_solve(k: int, l: int, m: int, N: int) -> float:
    """Same probability from the first-step linear system on states k..m.

    Independent of the closed form above; kept as the cross-check route.
    """
    if not (0 <= k < l < m <= N):
        raise ValueError(f"need 0 <= k < l < m <= N, got k={k}, l={l}, m={m}, N={N}")
    interior = list(range(k + 1, m))
    n = len(interior)
    A = np.eye(n)
    b = np.zeros(n)
    for row, i in enumerate(interior):
        p_down = i / N
        p_up = 1.0 - p_down
        if i - 1 == k:
            pass  # h(k) = 0
        else:
            A[row, row - 1] -= p_down
        if i + 1 == m:
            b[row] += p_up  # h(m) = 1
        else:
            A[row, row + 1] -= p_up
    h = np.linalg.solve(A, b)
    return float(h[interior.index(l)])


def distance_distribution(N: int, k: int) -> np.ndarray:
    """Exact law of the distance from the start after k steps, over {0..N}."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if k < 0:
        raise ValueError("k must be >= 0")
    p = np.zeros(N + 1)
    p[0] = 1.0
    for _ in range(k):
        p = _distance_step(N, p)
    assert abs(p.sum() - 1.0) < 1e-12
    return p


def binomial_half_pmf(N: int) -> np.ndarray:
    """Binomial(N, 1/2) pmf, the parity-averaged stationary law of the chain."""
    return np.array([math.comb(N, d) for d in range(N + 1)], dtype=float) / 2.0**N


def mixing_constant_estimate(N: int) -> float:
    """Smallest K such that the parity-averaged law at k = ceil(K N^2 log N)
    is within _MIXING_TV of Binomial(N, 1/2) in total variation, searched up
    to K = 8.

    The relevant bound guarantees existence of some finite K without naming
    it, so this reports rather than asserts.
    """
    stat = binomial_half_pmf(N)
    scale = N * N * math.log(N) if N > 1 else 1.0
    k_max = int(8 * scale) + 2
    p = distance_distribution(N, 0)
    prev = p
    for k in range(1, k_max + 1):
        prev, p = p, _distance_step(N, p)
        tv = 0.5 * np.abs(0.5 * (prev + p) - stat).sum()
        if tv <= _MIXING_TV:
            return k / scale
    raise RuntimeError(f"no K <= {k_max / scale:.2f} reached TV {_MIXING_TV}")


def _distance_step(N: int, p: np.ndarray) -> np.ndarray:
    down = np.arange(N + 1) / N  # prob of moving d -> d-1 from state d
    q = np.zeros_like(p)
    q[:-1] += p[1:] * down[1:]
    q[1:] += p[:-1] * (1.0 - down[:-1])
    return q


def no_backtrack_prob(N: int, nu: int) -> float:
    """P[the first nu flips pick nu distinct coordinates] = prod (N-i)/N."""
    if not 1 <= nu <= N:
        raise ValueError(f"need 1 <= nu <= N, got nu={nu}, N={N}")
    prob = 1.0
    for i in range(nu):
        prob *= (N - i) / N
    lower = math.exp(-(nu**2) / N)
    if prob < lower:
        raise AssertionError(
            f"no_backtrack_prob({N}, {nu}) = {prob} broke the lower bound {lower}"
        )
    return prob

