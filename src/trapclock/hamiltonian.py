"""Gaussian energy landscapes on the hypercube.

Two realizations of the centered Gaussian field with covariance
E[H(sigma) H(tau)] = overlap(sigma, tau)^p:

* PSpinDisorder: the multilinear form N^{-p/2} sum_t J_t sigma_{i_1}...sigma_{i_p}
  over all ordered p-tuples (with repetition), J_t i.i.d. standard normal.
  The ordered-tuple convention makes the covariance identity exact, with no
  diagonal corrections. Couplings live either in a dense tensor (small N) or
  are produced on demand by a counter-based hash of the tuple index, which
  removes the O(N^p) memory cost; hashing is the default above N = 25.
* RemDisorder: the p -> infinity caricature, an i.i.d. standard normal per
  vertex, realized as a pure hash of the configuration bits so no table of
  size 2^N exists anywhere.

Energies along a walk trajectory come in one pass: a hash per site for the
REM, and for p-spin couplings the visited configurations are unpacked into
sign rows and contracted in row blocks, as `energy_of_bits` does for any
batch of configurations. Dense couplings contract the whole tensor; hashed
couplings contract one first-index slab of N^{p-1} couplings at a time.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .core import RngStream, gaussian_from_hash, mix64
from .hypercube import SpinConfig, WalkTrajectory

_DENSE_MAX_ENTRIES = 16_000_000
_DENSE_DEFAULT_MAX_N = 25
# floats in one row block of a many-configuration contraction
_FOLD_FLOATS = 1 << 16


class PSpinDisorder:
    """p-spin coupling disorder, reproducible from (seed, N, p, mode)."""

    def __init__(self, N: int, p: int, stream: RngStream, mode: str = "auto"):
        if p < 2:
            raise ValueError("p must be >= 2")
        if N < 1:
            raise ValueError("N must be >= 1")
        if mode == "auto":
            mode = (
                "dense"
                if N <= _DENSE_DEFAULT_MAX_N and N**p <= _DENSE_MAX_ENTRIES
                else "hashed"
            )
        if mode not in ("dense", "hashed"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "dense" and N**p > 200_000_000:
            raise ValueError(f"dense tensor with N^p = {N**p} entries refused")
        if mode == "hashed" and p * math.log2(N) >= 63:
            raise ValueError("tuple index does not fit in 63 bits; reduce N or p")
        self.N = N
        self.p = p
        self.mode = mode
        self.stream = stream
        self._norm = N ** (-p / 2.0)
        # multipliers for flattening an ordered tuple into one counter
        self._mults = [N**a for a in range(p - 1, -1, -1)]
        if mode == "dense":
            self.couplings = stream.generator().standard_normal((N,) * p)
            self._key = None
        else:
            self.couplings = None
            self._key = stream.hash_key()

    @classmethod
    def from_seed(cls, seed: int, N: int, p: int, mode: str = "auto") -> "PSpinDisorder":
        return cls(N, p, RngStream(seed, 101), mode)

    # -- coupling access ----------------------------------------------------

    def _block(self, fixed: dict) -> np.ndarray:
        """Sub-tensor of couplings with the axes in `fixed` pinned to given
        indices; shape (N,)*(p - len(fixed)), free axes in increasing order."""
        if self.mode == "dense":
            idx = tuple(fixed.get(a, slice(None)) for a in range(self.p))
            return self.couplings[idx]
        free = [a for a in range(self.p) if a not in fixed]
        base = sum(self._mults[a] * i for a, i in fixed.items())
        flat = np.uint64(base)
        nfree = len(free)
        for pos, a in enumerate(free):
            shape = [1] * nfree
            shape[pos] = self.N
            idx = np.arange(self.N, dtype=np.uint64).reshape(shape)
            flat = flat + idx * np.uint64(self._mults[a])
        return gaussian_from_hash(self._key, flat)

    @staticmethod
    def _fold(block: np.ndarray, signs: np.ndarray) -> np.ndarray:
        """Contract every axis of `block` with each column of `signs` (N, m):
        one value per column."""
        if block.ndim == 0:
            return np.full(signs.shape[1], float(block))
        N, m = signs.shape
        out = block.reshape(-1, N) @ signs
        for _ in range(block.ndim - 1):
            out = np.einsum("aim,im->am", out.reshape(-1, N, m), signs)
        return out[0]

    # -- energies -----------------------------------------------------------

    def energy(self, config: SpinConfig) -> float:
        self._check(config)
        packed = np.frombuffer(config.packed(), np.uint8)[None]
        return float(self._energy_of_packed(packed)[0])

    def energy_of_bits(self, bits) -> np.ndarray:
        """Energies of configurations given as bit integers (N <= 64), one
        per entry of `bits`."""
        bits = np.asarray(bits, dtype="<u8")
        packed = bits.reshape(-1, 1).view(np.uint8)
        return self._energy_of_packed(packed).reshape(bits.shape)

    def _energy_of_packed(self, packed: np.ndarray) -> np.ndarray:
        """Energies of rows of little-endian packed bits (bit i set: spin i
        is -1), one sign column per row (BLAS runs several times slower on a
        transposed view). Hashed couplings sum signs[i] times the contracted
        slab of first index i, so memory stays at N^{p-1}. Row blocks keep
        the sign block and the first fold product near _FOLD_FLOATS floats;
        a slab has one axis fewer than the tensor."""
        out = np.empty(packed.shape[0])
        axes = self.p - (self.mode == "hashed")
        step = max(1, _FOLD_FLOATS // max(self.N, self.N ** (axes - 1)))
        for lo in range(0, packed.shape[0], step):
            bits = np.unpackbits(
                packed[lo : lo + step], axis=1, count=self.N, bitorder="little"
            )
            signs = 1.0 - 2.0 * np.ascontiguousarray(bits.T)
            if self.mode == "dense":
                out[lo : lo + step] = self._fold(self.couplings, signs)
            else:
                out[lo : lo + step] = sum(
                    signs[i] * self._fold(self._block({0: i}), signs)
                    for i in range(self.N)
                )
        return self._norm * out

    def energy_delta(self, config: SpinConfig, flip_index: int, cache: dict):
        """Energy after flipping one spin, via the multilinear expansion in
        the rank-one perturbation. O(p N^{p-1}) instead of O(N^p)."""
        self._check(config)
        _check_cache(cache, config)
        if not 0 <= flip_index < self.N:
            raise IndexError("flip index out of range")
        s = config.signs().astype(np.float64)[:, None]
        step = -2.0 * s[flip_index, 0]  # sigma'_f - sigma_f
        delta = 0.0
        for k in range(1, self.p + 1):
            for axes in combinations(range(self.p), k):
                fixed = {a: flip_index for a in axes}
                delta += step**k * float(self._fold(self._block(fixed), s)[0])
        new_energy = cache["energy"] + self._norm * delta
        new_config = config.flip(flip_index)
        return new_energy, {"bits": new_config.bits, "energy": new_energy}

    def _check(self, config: SpinConfig):
        if config.N != self.N:
            raise ValueError("configuration dimension mismatch")


class RemDisorder:
    """I.i.d. standard normal per vertex, as a pure function of the bits."""

    def __init__(self, N: int, stream: RngStream):
        if N < 1:
            raise ValueError("N must be >= 1")
        self.N = N
        self.stream = stream
        self._key = stream.hash_key()

    @classmethod
    def from_seed(cls, seed: int, N: int) -> "RemDisorder":
        return cls(N, RngStream(seed, 102))

    def energy_of_bits(self, bits) -> np.ndarray:
        """Vectorized energy lookup for configurations given as bit integers
        (valid whenever N <= 64; larger N folds the words, see energy)."""
        return gaussian_from_hash(self._key, np.asarray(bits, dtype=np.uint64))

    def energy(self, config: SpinConfig) -> float:
        if config.N != self.N:
            raise ValueError("configuration dimension mismatch")
        if self.N <= 64:
            return float(self.energy_of_bits(config.bits))
        key = self._key
        b = config.bits
        while b:
            key = mix64((key ^ mix64(b & ((1 << 64) - 1))) & ((1 << 64) - 1))
            b >>= 64
        return float(gaussian_from_hash(key, np.uint64(0)))

    def energy_delta(self, config: SpinConfig, flip_index: int, cache: dict):
        _check_cache(cache, config)
        new_config = config.flip(flip_index)
        e = self.energy(new_config)
        return e, {"bits": new_config.bits, "energy": e}


def _check_cache(cache: dict, config: SpinConfig):
    if cache.get("bits") != config.bits:
        raise ValueError("stale incremental cache: checksum mismatch")


def trajectory_energies(disorder, traj: WalkTrajectory) -> np.ndarray:
    """X(i) = H(Y(i)) along the trajectory, length k+1, in one pass: a hash
    per site for the REM, a row-blocked contraction for p-spin couplings."""
    if disorder.N != traj.N:
        raise ValueError("dimension mismatch")
    if isinstance(disorder, PSpinDisorder):
        return disorder._energy_of_packed(traj.position_bits())
    if disorder.N <= 64:
        bits = traj.position_bits()
        words = np.zeros((bits.shape[0], 8), dtype=np.uint8)
        words[:, : bits.shape[1]] = bits
        return disorder.energy_of_bits(words.view("<u8").ravel())
    return np.array([disorder.energy(c) for c in traj.positions()])


def overlap_matrix(traj: WalkTrajectory) -> np.ndarray:
    bits = traj.position_bits()
    d = np.bitwise_count(bits[:, None, :] ^ bits[None, :, :]).sum(axis=2)
    return 1.0 - 2.0 * d.astype(np.float64) / traj.N


def exact_trajectory_sample(
    traj: WalkTrajectory, p: int, rng, max_len: int = 2000
) -> np.ndarray:
    """Sample the energies along a fixed trajectory directly from their joint
    Gaussian law (covariance = pairwise overlap to the power p), bypassing any
    coupling realization. Dense factorization, so lengths are capped."""
    if traj.length > max_len:
        raise ValueError(f"trajectory length {traj.length} exceeds {max_len}")
    lam = overlap_matrix(traj) ** p
    w, v = np.linalg.eigh(lam)
    floor = -1e-8 * float(w.max())
    if w.min() < floor:
        raise ValueError(
            f"covariance has eigenvalue {w.min():.3e}; not PSD within tolerance"
        )
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    z = gen.standard_normal(len(w))
    return v @ (np.sqrt(np.clip(w, 0.0, None)) * z)
