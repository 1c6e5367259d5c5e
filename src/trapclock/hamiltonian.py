"""Gaussian energy landscapes on the hypercube.

Two realizations of the centered Gaussian field with covariance
E[H(sigma) H(tau)] = overlap(sigma, tau)^p:

* PSpinDisorder: the multilinear form N^{-p/2} sum_t J_t sigma_{i_1}...sigma_{i_p}
  over all ordered p-tuples (with repetition), J_t i.i.d. standard normal.
  The ordered-tuple convention makes the covariance identity exact, with no
  diagonal corrections. J_t hashes the tuple index t in either storage: a
  dense tensor of all N^p couplings (the default up to 2e6 of them), or one
  slab hashed on demand, which removes the O(N^p) memory cost.
* RemDisorder: the p -> infinity caricature, an i.i.d. standard normal per
  vertex, realized as a pure hash of the configuration bits so no table of
  size 2^N exists anywhere.

Each has one evaluator, `energy_of_words`, on rows of uint64 configuration
words as `hypercube` builds them, for every N, so energies along a walk
trajectory come in one pass. The REM folds each row's high words into the
key and hashes the low word. For p-spin couplings the rows are unpacked into
sign columns and contracted in row blocks: dense couplings contract the
whole tensor, hashed couplings one first-index slab of N^{p-1} couplings at
a time.

The contractions are small matrix products, and numpy's OpenBLAS only adds
thread start-up and contention to them. So `PSpinDisorder.energy_of_words`
runs them with OpenBLAS on one thread, dense or hashed, whoever calls it,
and gives the caller's count back after (`_one_blas_thread`).
"""

from __future__ import annotations

import ctypes
import functools
import glob
import math
import os
import threading

import numpy as np

from .core import RngStream, gaussian_from_hash, mix64_array
from .hypercube import SpinConfig, WalkTrajectory

# couplings the auto storage keeps dense (16 MB a disorder, 512 MiB for the
# 32 replicas of an aging batch); hashed above
_DENSE_MAX_ENTRIES = 2_000_000
# floats in one row block of a many-configuration contraction
_FOLD_FLOATS = 1 << 16


@functools.cache
def _openblas():
    """The thread-count getter and setter of the OpenBLAS that numpy wheels
    ship (``libscipy_openblas64_`` in ``numpy.libs``), or None where numpy
    ships none."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*"))):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype, put.argtypes, put.restype = ctypes.c_int, [ctypes.c_int], None
        return get, put
    return None


# OpenBLAS's thread count is process-wide: the callers now inside
# `_one_blas_thread` and the count the last of them restores
_blas_lock = threading.Lock()
_blas_users = 0
_blas_threads = 1


class _one_blas_thread:
    """Context manager: run the body with numpy's OpenBLAS on one thread and
    restore its thread count after, also when the body raises; do nothing
    where that library is not found (`_openblas`). Its one caller is
    `PSpinDisorder.energy_of_words`, whose contractions are small and run
    one per worker in the aging kernel, where a threaded BLAS only adds
    contention. Concurrent callers share the cap: the first one in sets it
    and the last one out restores the count the first one found. When that
    count is already 1, neither sets it."""

    def __enter__(self):
        global _blas_users, _blas_threads
        self._api = _openblas()
        if self._api is None:
            return
        get, put = self._api
        with _blas_lock:
            if _blas_users == 0:
                _blas_threads = get()
                if _blas_threads != 1:
                    put(1)
            _blas_users += 1

    def __exit__(self, *exc):
        global _blas_users
        if self._api is None:
            return
        with _blas_lock:
            _blas_users -= 1
            if _blas_users == 0 and _blas_threads != 1:
                self._api[1](_blas_threads)


class _Landscape:
    """Single-configuration access shared by both landscapes; every energy
    comes from the subclass's `energy_of_words`."""

    N: int

    def energy(self, config: SpinConfig) -> float:
        if config.N != self.N:
            raise ValueError("configuration dimension mismatch")
        return float(self.energy_of_words(config.words()[None])[0])

    def energy_delta(self, config: SpinConfig, flip_index: int, cache: dict):
        """Energy after flipping one spin, evaluated directly, and the cache
        of the new configuration. `cache` must hold the bits of `config`."""
        if cache.get("bits") != config.bits:
            raise ValueError("stale incremental cache: checksum mismatch")
        new_config = config.flip(flip_index)
        e = self.energy(new_config)
        return e, {"bits": new_config.bits, "energy": e}


class PSpinDisorder(_Landscape):
    """p-spin coupling disorder, reproducible from (seed, N, p); `mode` picks
    the storage (the `couplings` tensor or hashed slabs) and nothing else."""

    def __init__(self, N: int, p: int, stream: RngStream, mode: str = "auto"):
        if p < 2:
            raise ValueError("p must be >= 2")
        if N < 1:
            raise ValueError("N must be >= 1")
        if mode == "auto":
            mode = "dense" if N**p <= _DENSE_MAX_ENTRIES else "hashed"
        if mode not in ("dense", "hashed"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "dense" and N**p > 200_000_000:
            raise ValueError(f"dense tensor with N^p = {N**p} entries refused")
        if mode == "hashed" and p * math.log2(N) >= 63:
            raise ValueError("tuple index does not fit in 63 bits; reduce N or p")
        self.N = N
        self.p = p
        self.mode = mode
        self._norm = N ** (-p / 2.0)
        # rows per contraction block of `energy_of_words`: the sign block and
        # the first fold product stay near _FOLD_FLOATS floats; a hashed slab
        # has one axis fewer than the tensor
        axes = p - (mode == "hashed")
        self.row_block = max(1, _FOLD_FLOATS // max(N, N ** (axes - 1)))
        self._key = stream.hash_key()
        self.couplings = None
        if mode == "dense":
            # the hashed slabs in order, a block of about _FOLD_FLOATS
            # couplings at a time, so the build holds the tensor and one block
            self.couplings = np.empty((N,) * p)
            step = max(1, _FOLD_FLOATS // N ** (p - 1))
            for lo in range(0, N, step):
                self.couplings[lo : lo + step] = self._slabs(lo, min(lo + step, N))

    @classmethod
    def from_seed(cls, seed: int, N: int, p: int) -> "PSpinDisorder":
        return cls(N, p, RngStream(seed, 101))

    # -- coupling access ----------------------------------------------------

    def _slabs(self, lo: int, hi: int) -> np.ndarray:
        """Couplings of first indices lo..hi-1, shape (hi-lo,)+(N,)*(p-1):
        the ordered tuple (i, j, ...) reads counter i N^{p-1} + j N^{p-2} + ..."""
        size = self.N ** (self.p - 1)
        idx = np.arange(lo * size, hi * size, dtype=np.uint64)
        return gaussian_from_hash(self._key, idx).reshape((hi - lo,) + (self.N,) * (self.p - 1))

    @staticmethod
    def _fold(block: np.ndarray, signs: np.ndarray) -> np.ndarray:
        """Contract every axis of `block` with each column of `signs` (N, m):
        one value per column."""
        N, m = signs.shape
        out = block.reshape(-1, N) @ signs
        for _ in range(block.ndim - 1):
            out = np.einsum("aim,im->am", out.reshape(-1, N, m), signs)
        return out[0]

    # -- energies -----------------------------------------------------------

    def energy_of_words(self, words: np.ndarray) -> np.ndarray:
        """Energies of rows of configuration words (bit i set: spin i is
        -1), one sign column per row (BLAS runs several times slower on a
        transposed view). Hashed couplings sum signs[i] times the contracted
        slab of first index i, so memory stays at N^{p-1}. Rows are
        contracted `row_block` at a time, so a call on whole row blocks of a
        longer array gives the same bytes as the call on all of it."""
        packed = words.astype("<u8", copy=False).view(np.uint8)
        out = np.empty(packed.shape[0])
        step = self.row_block
        with _one_blas_thread():
            for lo in range(0, packed.shape[0], step):
                bits = np.unpackbits(
                    packed[lo : lo + step], axis=1, count=self.N, bitorder="little"
                )
                signs = 1.0 - 2.0 * np.ascontiguousarray(bits.T)
                if self.mode == "dense":
                    out[lo : lo + step] = self._fold(self.couplings, signs)
                else:
                    out[lo : lo + step] = sum(
                        signs[i] * self._fold(self._slabs(i, i + 1)[0], signs)
                        for i in range(self.N)
                    )
        return self._norm * out


class RemDisorder(_Landscape):
    """I.i.d. standard normal per vertex, as a pure function of the bits.

    The words w_0 ... w_{W-1} of a configuration fold into the key as
    key = mix64(key ^ mix64(w_j)) for j >= 1, and the energy is ``gaussian_from_hash(key, w_0)``. For N <= 64
    that is ``gaussian_from_hash(key, bits)``, the trap depth the aging
    kernel draws for the same key.
    """

    def __init__(self, N: int, stream: RngStream):
        if N < 1:
            raise ValueError("N must be >= 1")
        self.N = N
        self._key = stream.hash_key()

    @classmethod
    def from_seed(cls, seed: int, N: int) -> "RemDisorder":
        return cls(N, RngStream(seed, 102))

    def energy_of_words(self, words: np.ndarray) -> np.ndarray:
        """Energies of rows of configuration words, one per row; each fold
        step runs on one word column of all rows at once."""
        key = np.uint64(self._key)
        for j in range(1, words.shape[1]):
            key = mix64_array(key ^ mix64_array(words[:, j]))
        return gaussian_from_hash(key, words[:, 0])


def trajectory_energies(disorder, traj: WalkTrajectory) -> np.ndarray:
    """X(i) = H(Y(i)) along the trajectory, length k+1, in one pass over the
    word rows of the visited configurations: a hash per site for the REM, a
    row-blocked contraction on one BLAS thread for p-spin couplings
    (`PSpinDisorder.energy_of_words`)."""
    if disorder.N != traj.N:
        raise ValueError("dimension mismatch")
    return disorder.energy_of_words(traj.position_words())

