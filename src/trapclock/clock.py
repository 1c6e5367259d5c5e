"""The clock process: accumulated waiting time along a walk trajectory.

S(k) = sum_{i<k} e_i exp(beta sqrt(N) X(i)) with unit exponentials e_i and
X(i) the landscape energy at the i-th visited vertex. Increments span many
orders of magnitude, so the accumulation is done in the log domain
throughout; the linear-domain values are materialized on demand and an
overflow flag records when they stop being representable.

`simulate_clock` is one vectorized pass, the same for the REM and the
p-spin landscapes: `sample_walk` draws the jump chain, `trajectory_energies`
reads the energies of the visited sites and `clock_from_energies` weights
the waits by them. There is no stateful per-step driver; a longer clock is
a new call with more steps.

Rescalings of one simulated clock (plain, coarse-grained to block
boundaries, energy-truncated) are lazy views: they map a macroscopic time t
to a step index and read the stored cumulative sums, so querying is O(log)
per point and no dense rescaled path ever exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ModelParams, RngStream, log_cumsum_exp
from .hamiltonian import trajectory_energies
from .hypercube import WalkTrajectory, sample_walk
from .skorokhod import CadlagStepPath


@dataclass(frozen=True, eq=False)
class ClockPath:
    """Cumulative clock S over integer steps 0..K; S(0) = 0.

    log_values[k] = log S(k) (log_values[0] = -inf); values[k] = S(k) with
    inf where the linear domain overflows, in which case `overflowed` is set.
    `log_incs[k]` is the log of the increment S(k+1) - S(k), as summed.
    """

    log_values: np.ndarray
    overflowed: bool
    log_incs: np.ndarray

    @property
    def steps(self) -> int:
        return len(self.log_values) - 1

    @property
    def values(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.exp(self.log_values)


def clock_from_log_increments(log_incs: np.ndarray) -> ClockPath:
    log_incs = np.asarray(log_incs, dtype=np.float64)
    log_values = np.concatenate(([-np.inf], log_cumsum_exp(log_incs)))
    overflowed = bool(log_values[-1] > 709.0)
    return ClockPath(log_values, overflowed, log_incs)


def clock_from_energies(
    energies: np.ndarray, exponentials: np.ndarray, params: ModelParams
) -> ClockPath:
    """Clock from given per-step energies X(0..k-1) and waiting draws e_i."""
    energies = np.asarray(energies, dtype=np.float64)
    exponentials = np.asarray(exponentials, dtype=np.float64)
    if len(energies) != len(exponentials):
        raise ValueError("energies and exponentials must align per step")
    if np.any(exponentials <= 0):
        raise ValueError("waiting variables must be positive")
    log_incs = (
        params.beta * math.sqrt(params.N) * energies + np.log(exponentials)
    )
    return clock_from_log_increments(log_incs)


def simulate_clock(
    disorder, params: ModelParams, steps: int, rng: RngStream
) -> tuple[WalkTrajectory, ClockPath, np.ndarray]:
    """Simulate `steps` walk steps and the attached clock. The returned
    energy sequence has length steps+1 (one value per visited vertex);
    increment i uses energies[i].

    The flips come from substream 1 of `rng` and the waits from substream 2.
    """
    if not isinstance(rng, RngStream):
        raise TypeError(f"rng must be an RngStream, got {type(rng).__name__}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if disorder.N != params.N:
        raise ValueError("disorder and params disagree on N")
    traj = sample_walk(params.N, steps, rng.substream(1).generator())
    energies = trajectory_energies(disorder, traj)
    waits = rng.substream(2).generator().exponential(size=steps)
    return traj, clock_from_energies(energies[:-1], waits, params), energies


# ---------------------------------------------------------------------------
# rescaled views
# ---------------------------------------------------------------------------


class InsufficientStepsError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class RescaledClock:
    """Lazy macroscopic view t -> e^{-gamma N} S(step_index(t)).

    step_index floors t sqrt(N) e^{N gamma^2/2 beta^2} to a multiple of
    `block`: 1 for the plain view, nu for the coarse-grained one.
    """

    clock: ClockPath
    params: ModelParams
    block: int = 1

    def _rate(self) -> float:
        return math.exp(self.params.log_r1())

    def step_index(self, t):
        arr = np.asarray(t, dtype=np.float64)
        if np.any(np.isnan(arr)):
            raise ValueError("t must not be NaN")
        if np.any(arr < 0):
            raise ValueError("t must be >= 0")
        # floored in float64, so an infinite or huge t is refused before the
        # cast to int64
        k = self.block * np.floor(np.floor(arr * self._rate()) / self.block)
        if np.any(k > self.clock.steps):
            raise InsufficientStepsError(
                f"query needs step {np.max(k):.0f} but clock has {self.clock.steps}"
            )
        return k.astype(np.int64)

    def value_at(self, t):
        k = self.step_index(t)
        out = np.exp(self.clock.log_values[k] - self.params.gamma * self.params.N)
        return float(out) if np.ndim(t) == 0 else out

    def to_step_path(self, T: float) -> CadlagStepPath:
        """Materialize the exact step path on [0, T] for metric diagnostics."""
        rate = self._rate()
        k_max = math.floor(T * rate)
        if k_max > self.clock.steps:
            raise InsufficientStepsError(
                f"T={T} needs step {k_max} but clock has {self.clock.steps}"
            )
        ks = np.arange(self.block, k_max + 1, self.block)
        times = ks / rate
        vals = np.exp(
            self.clock.log_values[ks] - self.params.gamma * self.params.N
        )
        keep = np.diff(np.concatenate(([0.0], vals))) > 0
        return CadlagStepPath(T, 0.0, times[keep], vals[keep])


def _require_coverage(clock: ClockPath, params: ModelParams):
    needed = params.r_steps(params.horizon_T)
    if clock.steps < needed:
        raise InsufficientStepsError(
            f"horizon {params.horizon_T} needs {needed} steps, clock has {clock.steps}"
        )


def rescale_clock(clock: ClockPath, params: ModelParams) -> RescaledClock:
    _require_coverage(clock, params)
    return RescaledClock(clock, params)


def coarse_grain_clock(clock: ClockPath, params: ModelParams) -> RescaledClock:
    _require_coverage(clock, params)
    return RescaledClock(clock, params, params.nu())


def truncation_level(params: ModelParams, m: float) -> float:
    """B_m = gamma sqrt(N)/beta - m/(beta sqrt(N)); increments with energy
    above this level are dropped by the truncated clock."""
    root = math.sqrt(params.N)
    return params.gamma * root / params.beta - m / (params.beta * root)


def truncated_clock(
    clock: ClockPath, energies: np.ndarray, params: ModelParams, m: float
) -> RescaledClock:
    """Rescaled clock keeping only increments whose energy is <= B_m."""
    energies = np.asarray(energies, dtype=np.float64)
    if len(energies) < clock.steps:
        raise ValueError("energies must cover every increment")
    keep = energies[: clock.steps] <= truncation_level(params, m)
    masked = np.where(keep, clock.log_incs, -np.inf)
    return RescaledClock(clock_from_log_increments(masked), params)


def record_point_process(
    energies: np.ndarray, params: ModelParams, m: float
) -> np.ndarray:
    """Macroscopic positions i nu / r(N) of blocks whose maximal energy over
    steps (i nu, (i+1) nu] exceeds B_m, clipped to [0, horizon_T]."""
    energies = np.asarray(energies, dtype=np.float64)
    nu = params.nu()
    level = truncation_level(params, m)
    n_steps = len(energies) - 1
    n_blocks = n_steps // nu
    if n_blocks < 1:
        return np.array([])
    # block i looks at X(i nu + 1) .. X((i+1) nu)
    blockwise = energies[1 : n_blocks * nu + 1].reshape(n_blocks, nu)
    hits = np.flatnonzero(blockwise.max(axis=1) > level)
    rate = math.exp(params.log_r1())
    pos = hits * nu / rate
    return pos[pos <= params.horizon_T]
