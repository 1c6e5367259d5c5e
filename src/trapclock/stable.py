"""One-sided alpha-stable subordinators, the generalized arcsine law, and the
range-miss probability that drives the aging predictions.

Increments are sampled exactly (no Euler bias) with Kanter's
exponential-uniform representation of the one-sided stable law, normalized so
E exp(-lambda V(t)) = exp(-K t lambda^alpha). The arcsine CDF is the
regularized incomplete beta I_x(alpha, 1-alpha).

The range-miss estimator answers: does the closure of {V(u)} intersect the
window (t, t+s)? Since V is increasing, that reduces to the value at first
passage above t, which is located by forward simulation in fixed time
steps: 5e-3 t^alpha/K while the path is below 0.9 t, 5e-4 t^alpha/K from
0.9 t upward. Each pass draws a block of steps for every live replica (one
step while many are live, more as they retire), and a replica stops at its
first grid value above t. The residual discretization bias is one-sided
(toward over-reporting misses) and of the order of the coarse step, well
under the Monte Carlo error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.special

from .core import as_generator


@dataclass(frozen=True)
class SubordinatorPath:
    grid: np.ndarray
    values: np.ndarray
    alpha: float
    K: float

    def __post_init__(self):
        if (self.grid[1:] <= self.grid[:-1]).any():
            raise ValueError("grid must be strictly increasing")
        if (self.values[1:] < self.values[:-1]).any():
            raise ValueError("values must be nondecreasing")


def sample_one_sided_stable(alpha: float, size, rng) -> np.ndarray:
    """Standard one-sided stable draws: E exp(-lambda X) = exp(-lambda^alpha).

    Kanter's representation: X = (A(pi U) / W)^{(1-alpha)/alpha} with U
    uniform, W unit exponential, and

        log A(x) = (a/(1-a)) log sin(a x) + log sin((1-a) x)
                   - (1/(1-a)) log sin(x),   a = alpha.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    gen = as_generator(rng)
    u = gen.random(size)
    np.clip(u, 1e-15, 1.0 - 1e-15, out=u)
    x = np.pi * u
    w = np.maximum(gen.exponential(size=size), 1e-300)
    log_a = (
        (alpha / (1.0 - alpha)) * np.log(np.sin(alpha * x))
        + np.log(np.sin((1.0 - alpha) * x))
        - (1.0 / (1.0 - alpha)) * np.log(np.sin(x))
    )
    return np.exp(((1.0 - alpha) / alpha) * (log_a - np.log(w)))


def sample_subordinator(alpha: float, K: float, grid, rng) -> SubordinatorPath:
    """Path of the subordinator with E exp(-lambda V(t)) = exp(-K t lambda^a),
    evaluated on the given strictly increasing grid (measured from V(0)=0)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    if not K >= 0:
        raise ValueError("K must be >= 0")
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a nonempty 1-d array")
    if grid[0] < 0 or (grid[1:] <= grid[:-1]).any():
        raise ValueError("grid must be nonnegative and strictly increasing")
    if K == 0.0:
        return SubordinatorPath(grid, np.zeros_like(grid), alpha, K)
    dts = np.empty_like(grid)
    dts[0] = grid[0]
    np.subtract(grid[1:], grid[:-1], out=dts[1:])
    draws = sample_one_sided_stable(alpha, grid.size, rng)
    increments = (K * dts) ** (1.0 / alpha) * draws
    return SubordinatorPath(grid, np.cumsum(increments), alpha, K)


# ---------------------------------------------------------------------------
# arcsine law
# ---------------------------------------------------------------------------


def arcsine_cdf(alpha: float, x) -> float | np.ndarray:
    """P[last zero / occupation functional <= x] = I_x(alpha, 1 - alpha)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    x = np.asarray(x, dtype=np.float64)
    if np.any((x < 0.0) | (x > 1.0)):
        raise ValueError("x must lie in [0,1]")
    out = scipy.special.betainc(alpha, 1.0 - alpha, x)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# range-miss probability
# ---------------------------------------------------------------------------


# draws per first-passage pass, spread over the live replicas: a pass takes
# max(1, _PASSAGE_ELEMENTS // live) steps per replica, so one step while more
# than half this many are live (cf. `aging._chunk_length`)
_PASSAGE_ELEMENTS = 1 << 14


def _passage_block(v, draws, scale_c, scale_f, switch) -> np.ndarray:
    """Path values after each step of a block, steps along axis 0 and
    replicas along axis 1, from the values `v` before the block.

    A step adds its draw times `scale_c` while the value before it is below
    `switch` and times `scale_f` from then on. Each column is summed in step
    order, as a per-step loop adds them; a path that passes `switch` inside
    the block is summed again with fine steps from the step after, starting
    from its value there, so a large coarse jump cannot swamp the fine ones.
    """
    coarse = v < switch
    path = draws * np.where(coarse, scale_c, scale_f)
    path[0] += v
    if len(path) > 1:
        np.cumsum(path, axis=0, out=path)
        # paths only rise: a coarse path owes fine steps iff its value
        # before the last step is at or above switch
        turn = np.flatnonzero(coarse & (path[-2] >= switch))
        if turn.size:
            n_coarse = (path[:, turn] < switch).sum(axis=0) + 1
            step = np.arange(len(path))[:, None]
            part = draws[:, turn] * np.where(step < n_coarse, scale_c, scale_f)
            part[0] += v[turn]
            path[:, turn] = np.cumsum(part, axis=0, out=part)
    return path


def first_passage_values(
    alpha: float,
    K: float,
    t: float,
    replicas: int,
    rng,
) -> np.ndarray:
    """V at the first grid point where the path exceeds level t, per replica.

    Forward simulation in time steps of 5e-3 t^alpha/K while the path sits
    below 0.9 t and of 5e-4 t^alpha/K from 0.9 t upward, advanced in blocks
    of steps per pass (`_passage_block`). All window queries at this level
    t (any s) can be answered from the returned values, and coupling across
    s is pathwise exact.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    if not t > 0 or not K > 0:
        raise ValueError("need t > 0 and K > 0")
    base = t**alpha / K  # first-passage time scale
    dt_coarse = 5e-3 * base
    dt_fine = 5e-4 * base
    margin = 0.1 * t
    gen = as_generator(rng)
    out = np.empty(replicas)
    v = np.zeros(replicas)
    pos = np.arange(replicas)
    scale_c = (K * dt_coarse) ** (1.0 / alpha)
    scale_f = (K * dt_fine) ** (1.0 / alpha)
    steps_left = int(50 * base / dt_fine) + 1000  # per replica
    while pos.size:
        if steps_left == 0:
            raise RuntimeError("first-passage simulation exceeded its step budget")
        block = max(1, min(steps_left, _PASSAGE_ELEMENTS // pos.size))
        draws = sample_one_sided_stable(alpha, (block, pos.size), gen)
        path = _passage_block(v, draws, scale_c, scale_f, t - margin)
        steps_left -= block
        done = path[-1] > t
        if done.any():
            # a replica retires at its first value above t, which follows
            # its values at or below t, as paths only rise
            cols = np.flatnonzero(done)
            out[pos[cols]] = path[(path[:, cols] <= t).sum(axis=0), cols]
            keep = ~done
            v, pos = path[-1, keep], pos[keep]
        else:
            v = path[-1]
    return out


def range_miss_prob_mc(
    alpha: float,
    t: float,
    s: float,
    replicas: int,
    rng,
    K: float = 1.0,
) -> tuple[float, float]:
    """P[the range of V avoids the open window (t, t+s)], by Monte Carlo.

    Equals P[V at first passage above t lands at or beyond t+s] because the
    path is increasing; the limit law says this is arcsine_cdf(alpha, t/(t+s)).
    Returns (estimate, stderr).
    """
    if not s > 0:
        raise ValueError("s must be > 0")
    vstar = first_passage_values(alpha, K, t, replicas, rng)
    miss = (vstar >= t + s).astype(np.float64)
    est = float(miss.mean())
    se = float(miss.std(ddof=1) / math.sqrt(replicas)) if replicas > 1 else 0.0
    return est, se
