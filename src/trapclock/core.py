"""Model parameters, derived scales, and the randomness contract.

Everything downstream shares three conventions defined here:

* parameters travel as an immutable :class:`ModelParams`;
* randomness is counter-based: a :class:`RngStream` is a pure value
  (master_seed, stream_id) and every draw is a function of it, so replicas
  parallelize without shared state;
* quantities of the form exp(beta*sqrt(N)*H) are accumulated either in the
  linear domain (desk-scale N fits in float64) or in the log domain via
  :func:`log_cumsum_exp`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ndtri

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# steps beyond this cannot be indexed as python ints reliably anyway and the
# run would never finish; refuse instead of silently overflowing
_MAX_STEPS = 1 << 60


def mix64(x: int) -> int:
    """SplitMix64 finalizer on python ints (stateless 64-bit avalanche)."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def mix64_array(x: np.ndarray) -> np.ndarray:
    """Vectorized SplitMix64 finalizer on a copy of `x`; input/output
    np.uint64 (a scalar input gives a 0-d array)."""
    x = np.array(x, dtype=np.uint64)
    return mix64_inplace(x, np.empty_like(x))


def mix64_inplace(x: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """:func:`mix64_array` on a uint64 array, in place; returns `x`.

    `tmp` is a uint64 work array of x's shape, so the rounds allocate
    nothing: the form for large arrays in a loop."""
    x += np.uint64(_GOLDEN)
    np.right_shift(x, np.uint64(30), out=tmp)
    x ^= tmp
    x *= np.uint64(0xBF58476D1CE4E5B9)
    np.right_shift(x, np.uint64(27), out=tmp)
    x ^= tmp
    x *= np.uint64(0x94D049BB133111EB)
    np.right_shift(x, np.uint64(31), out=tmp)
    x ^= tmp
    return x


def gaussian_from_bits(h: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Standard normals from uint64 random bits `h`, written into `out`.

    The top 53 bits give a uniform offset by half a unit, and the normal
    quantile `ndtri` maps it to a standard normal. In float64 the offset
    uniform of the top cell, ``h >> 11 == 2**53 - 1``, rounds up to 1.0, so
    the uniform is clamped to the largest double below 1: it lies strictly
    inside (0, 1) and every depth is finite. The map is nondecreasing in
    `h`, so a threshold on the normal is a threshold on the bits. `h` is
    overwritten; returns `out`, a float64 array of h's shape.
    """
    np.right_shift(h, np.uint64(11), out=h)
    np.add(h, 0.5, out=out)
    out *= 2.0**-53
    np.minimum(out, 1.0 - 2.0**-53, out=out)
    return ndtri(out, out=out)


def gaussian_from_hash(key, index) -> np.ndarray:
    """Standard normal as a pure function of (key, index).

    One SplitMix64 round turns ``index + key`` (mod 2**64), summed in a
    fresh array so that `index` is never written, into 64 random bits,
    which :func:`gaussian_from_bits` maps to a standard normal. Repeated
    queries of the same (key, index) are bit-identical, distinct indices
    are independent for statistical purposes. `key` may be a scalar or an
    array broadcastable against `index`; a 0-d `index` and scalar key give
    a 0-d array.
    """
    idx = np.asarray(index, dtype=np.uint64)
    if isinstance(key, (int, np.integer)):
        key = np.uint64(int(key) & _MASK64)
    else:
        key = np.asarray(key, dtype=np.uint64)
    h = np.empty(np.broadcast_shapes(idx.shape, np.shape(key)), dtype=np.uint64)
    np.add(idx, key, out=h)
    out = np.empty(h.shape)
    mix64_inplace(h, out.view(np.uint64))
    return gaussian_from_bits(h, out)


@dataclass(frozen=True)
class RngStream:
    """Counter-based stream handle: a pure (master_seed, stream_id) pair.

    Two streams with distinct pairs are statistically independent, identical
    pairs reproduce bit-identical sequences (Philox counter mode underneath).
    """

    master_seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array(
            [self.master_seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64
        )
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, k: int) -> "RngStream":
        """Derive a child stream; children with distinct k are independent."""
        child = mix64((self.stream_id ^ mix64(k + 1)) & _MASK64)
        return RngStream(self.master_seed, child)

    def hash_key(self) -> int:
        """64-bit key for the stateless gaussian generator."""
        return mix64((self.master_seed ^ mix64(self.stream_id)) & _MASK64)


def as_generator(rng) -> np.random.Generator:
    """Accept an RngStream or an already-built Generator.

    An RngStream is a seed recipe, not a stateful source: converting it
    builds a generator seeded from scratch. Functions that draw once per
    call therefore repeat the same draw if handed the same RngStream in a
    loop; pass ``stream.generator()`` (once) to step through a sequence.
    """
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RngStream or numpy Generator, got {type(rng)!r}")


@dataclass(frozen=True)
class ModelParams:
    """Static parameters of one experiment.

    N        number of spins
    p        interaction order (>= 2)
    beta     inverse temperature; beta = 0 is the decoupled null model used
             for calibration checks (rescaling is undefined there)
    gamma    time-scale exponent of the observation scale exp(gamma*N)
    omega    block exponent in (1/2, 1); nu = floor(N**omega)
    horizon_T  macroscopic time horizon
    seed     master seed for all streams derived from these parameters
    """

    N: int
    p: int
    beta: float
    gamma: float
    omega: float = 0.6
    horizon_T: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.N, int) or self.N < 1:
            raise ValueError(f"N must be a positive integer, got {self.N!r}")
        if not isinstance(self.p, int) or self.p < 2:
            raise ValueError(f"p must be an integer >= 2, got {self.p!r}")
        if not 0 <= self.beta < math.inf:
            raise ValueError(f"beta must be finite and >= 0, got {self.beta!r}")
        if not 0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and positive, got {self.gamma!r}")
        if not 0.5 < self.omega < 1.0:
            raise ValueError(f"omega must lie in (1/2, 1), got {self.omega!r}")
        if not 0 < self.horizon_T < math.inf:
            raise ValueError(f"horizon_T must be finite and positive, got {self.horizon_T!r}")
        if self.nu() >= self.N:
            warnings.warn(
                f"nu = {self.nu()} >= N = {self.N}: block structure degenerate",
                stacklevel=2,
            )

    def nu(self) -> int:
        return max(1, math.floor(self.N**self.omega))

    def alpha(self) -> float:
        """gamma / beta**2, the stable index of the limiting subordinator."""
        if self.beta == 0:
            raise ValueError("alpha undefined at beta = 0")
        return self.gamma / self.beta**2

    def log_r1(self) -> float:
        """log of the step scale r(N) = sqrt(N) * exp(N gamma^2 / (2 beta^2))."""
        if self.beta == 0:
            raise ValueError("step scale undefined at beta = 0")
        return 0.5 * math.log(self.N) + self.N * self.gamma**2 / (2 * self.beta**2)

    def r_steps(self, t: float) -> int:
        """floor(t * sqrt(N) * exp(N gamma^2 / (2 beta^2))), nondecreasing in t."""
        if t < 0:
            raise ValueError("t must be >= 0")
        if t == 0:
            return 0
        log_steps = math.log(t) + self.log_r1()
        if log_steps > math.log(_MAX_STEPS):
            raise OverflowError(
                f"step budget exp({log_steps:.1f}) exceeds addressable range"
            )
        return math.floor(t * math.exp(self.log_r1()))

    def log_wall_scale(self) -> float:
        """log of the observation time scale exp(gamma * N)."""
        return self.gamma * self.N

    def stream(self) -> RngStream:
        return RngStream(self.seed, 0)


@dataclass(frozen=True)
class ScaleReport:
    nu: int
    r1: int
    r_horizon: int
    log_wall_scale: float
    wall_scale: float
    alpha: float
    zeta_p: float
    admissible: bool
    notes: tuple[str, ...]


def derive_scales(params: ModelParams) -> ScaleReport:
    """Derived scales and admissibility flags for a parameter set.

    Admissibility means gamma < min(beta^2, zeta(p) * beta); a violation is
    reported, not raised, because the finite-N simulation is still defined.
    """
    if params.beta <= 0:
        raise ValueError("derive_scales requires beta > 0")
    # ModelParams has already validated the other ranges
    zeta_p = _zeta_cached(params.p)
    alpha = params.alpha()
    notes = []
    if params.nu() >= params.N:
        notes.append("nu >= N: block structure degenerate")
    gamma_max = min(params.beta**2, zeta_p * params.beta)
    admissible = params.gamma < gamma_max
    if not admissible:
        notes.append(
            f"gamma = {params.gamma} >= min(beta^2, zeta(p) beta) = {gamma_max:.6g}: "
            "outside the subordinator regime"
        )
    if not 0 < alpha < 1:
        notes.append(f"alpha = {alpha:.6g} outside (0, 1)")
    log_wall = params.log_wall_scale()
    wall = math.exp(log_wall) if log_wall < 709 else math.inf
    report = ScaleReport(
        nu=params.nu(),
        r1=params.r_steps(1.0),
        r_horizon=params.r_steps(params.horizon_T),
        log_wall_scale=log_wall,
        wall_scale=wall,
        alpha=alpha,
        zeta_p=zeta_p,
        admissible=admissible,
        notes=tuple(notes),
    )
    for note in notes:
        warnings.warn(note, stacklevel=2)
    return report


@lru_cache(maxsize=None)
def _zeta_cached(p: int) -> float:
    from .analysis import zeta

    return zeta(p)


def log_cumsum_exp(log_values: np.ndarray) -> np.ndarray:
    """Running log(sum(exp(...))) along the last axis, overflow-free."""
    return np.logaddexp.accumulate(np.asarray(log_values, dtype=np.float64), axis=-1)
