"""Rate functions controlling which (p, beta, gamma) triples sit inside the
subordinator regime, and the threshold curve zeta(p).

The central object is the piecewise rate function Upsilon(u): the clock-
process arguments go through if sup_u Upsilon < 0 away from u = 1/2, and the
threshold gamma at which the sup touches zero (at beta = 1) defines zeta(p).
The branch split at (1-2u)^p = gamma/beta^2 + lambda - 1 mirrors the two
regimes of the Gaussian tail estimate behind it; lambda > 0 is a proof-side
margin and defaults to 0 here.

For the threshold itself the second branch is a spurious obstruction: it
encodes a crude bound that turns positive near u = 1/2 as soon as
gamma > beta^2 even though the true rate stays negative, and taking it
literally would cap zeta at 1. zeta therefore maximizes the principal-branch
expression gamma^2 Phi(u) - I(u) (beta = 1) over u in [0, 1/2], which is the
object the threshold values and limits are quoted for. Both evaluators are
public; see upsilon and upsilon_principal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import as_generator

_LOG2 = math.log(2.0)
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class BracketError(RuntimeError):
    """Raised when a root bracket assumption is violated; never swallowed."""


@dataclass(frozen=True)
class RateFunctionParams:
    p: int
    beta: float
    gamma: float
    lambda_margin: float = 0.0
    eta: float = 0.0

    def __post_init__(self):
        if not isinstance(self.p, int) or self.p < 2:
            raise ValueError(f"p must be an integer >= 2, got {self.p!r}")
        if self.beta <= 0:
            raise ValueError("beta must be > 0")
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if self.lambda_margin < 0:
            raise ValueError("lambda_margin must be >= 0")
        if self.eta < 0:
            raise ValueError("eta must be >= 0")

    @property
    def branch_split(self) -> float:
        """Threshold value of (1-2u)^p separating the two branches."""
        return self.gamma / self.beta**2 + self.lambda_margin - 1.0


def _xlogx(u: np.ndarray) -> np.ndarray:
    out = np.zeros_like(u)
    mask = u > 0
    out[mask] = u[mask] * np.log(u[mask])
    return out


def entropy_I(u):
    """Binary entropy gap I(u) = u log u + (1-u) log(1-u) + log 2.

    Convex on [0,1], zero at 1/2, log 2 at the endpoints (by limit).
    """
    arr = np.asarray(u, dtype=np.float64)
    if np.any(arr < 0) or np.any(arr > 1):
        raise ValueError("u must lie in [0,1]")
    val = _xlogx(arr) + _xlogx(1.0 - arr) + _LOG2
    return float(val) if np.ndim(u) == 0 else val


def phi(u, p: int):
    """Phi(u) = 1 - 1/(1 + (1-2u)^p).

    For odd p the denominator vanishes at u = 1; that pole is raised, not
    smoothed away.
    """
    arr = np.asarray(u, dtype=np.float64)
    if np.any(arr < 0) or np.any(arr > 1):
        raise ValueError("u must lie in [0,1]")
    denom = 1.0 + (1.0 - 2.0 * arr) ** p
    if np.any(denom <= 0):
        raise ZeroDivisionError(f"1 + (1-2u)^p vanishes (pole) for p={p}")
    val = 1.0 - 1.0 / denom
    return float(val) if np.ndim(u) == 0 else val


def phi_slope_report(p: int) -> dict:
    """Forward-difference slope of Phi at 0, step 1e-6, next to the two
    candidate closed forms in circulation (-p/2 from direct differentiation,
    -2p as sometimes stated). Reported, not asserted; the fd value settles
    the question."""
    fd = (phi(1e-6, p) - phi(0.0, p)) / 1e-6
    return {
        "p": p,
        "fd_slope": fd,
        "direct_slope": -p / 2.0,
        "stated_slope": -2.0 * p,
        "matches_direct": abs(fd - (-p / 2.0)) < 1e-3 * p,
        "matches_stated": abs(fd - (-2.0 * p)) < 1e-3 * p,
    }


def _two_branch(params: RateFunctionParams, g, lead):
    """Branch rule of upsilon and upsilon_tilde around their leading term."""
    b2 = params.beta**2
    # g = -1 (odd p at u = 1) always falls in the second branch, but
    # np.where still evaluates the first expression there
    with np.errstate(divide="ignore"):
        first = lead - params.gamma**2 / (b2 * (1.0 + g))
    second = lead + b2 * (1.0 + g) - 2.0 * params.gamma
    return np.where(g >= params.branch_split, first, second)


def upsilon(params: RateFunctionParams, u):
    """Piecewise rate function.

    With g = (1-2u)^p and split = gamma/beta^2 + lambda - 1:

        g >= split:  gamma^2/beta^2 - I(u) - gamma^2 / (beta^2 (1+g))
        g <  split:  gamma^2/beta^2 - I(u) + beta^2 (1+g) - 2 gamma
    """
    arr = np.asarray(u, dtype=np.float64)
    g = (1.0 - 2.0 * arr) ** params.p
    val = _two_branch(params, g, params.gamma**2 / params.beta**2 - entropy_I(arr))
    return float(val) if np.ndim(u) == 0 else val


def upsilon_principal(params: RateFunctionParams, u):
    """First-branch expression on the whole interval:
    gamma^2/beta^2 * Phi(u) - I(u). This is the object whose sign defines
    zeta; it has no pole on [0, 1/2]."""
    arr = np.asarray(u, dtype=np.float64)
    g = (1.0 - 2.0 * arr) ** params.p
    val = (params.gamma**2 / params.beta**2) * (g / (1.0 + g)) - entropy_I(arr)
    return float(val) if np.ndim(u) == 0 else val


def upsilon_tilde(params: RateFunctionParams, u):
    """Tilted variant without the entropy term; ||u|| = min(u, 1-u).

        g >= split:  gamma^2/(2 beta^2) - gamma^2/(beta^2 (1+g)) + eta ||u||
        g <  split:  gamma^2/(2 beta^2) + beta^2 (1+g) - 2 gamma + eta ||u||
    """
    arr = np.asarray(u, dtype=np.float64)
    if np.any(arr < 0) or np.any(arr > 1):
        raise ValueError("u must lie in [0,1]")
    g = (1.0 - 2.0 * arr) ** params.p
    lead = params.gamma**2 / (2.0 * params.beta**2)
    val = _two_branch(params, g, lead) + params.eta * np.minimum(arr, 1.0 - arr)
    return float(val) if np.ndim(u) == 0 else val


def j_N(u: float, N: int) -> float:
    """2^{-N} binom(N, floor(Nu)) sqrt(pi N / 2) e^{N I(u)}, via log-gamma.

    At lattice points u = k/N the entropy bound on the binomial gives
    j_N <= sqrt(pi N / 2). Between lattice points the floor lets the
    e^{N I(u)} factor drift against the frozen binomial by up to
    e^{I'(u) frac(Nu)} per cell, which is harmless in the interior but
    blows up as u -> 1 where I' diverges; the sqrt(N) bound is a lattice
    statement, not a uniform one. Along N with Nu an integer, Stirling
    gives the limit (1/2) (u(1-u))^{-1/2} on compacts of (0,1). A limit
    of the form (4u(1-u))^{-1} is also in circulation; it agrees with
    the Stirling value only at u = 1/2. See j_N_limit_report.
    """
    if not 0.0 <= u <= 1.0:
        raise ValueError("u must lie in [0,1]")
    if N < 1:
        raise ValueError("N must be >= 1")
    k = math.floor(N * u)
    log_binom = (
        math.lgamma(N + 1) - math.lgamma(k + 1) - math.lgamma(N - k + 1)
    )
    return math.exp(
        -N * _LOG2 + log_binom + 0.5 * math.log(math.pi * N / 2.0) + N * entropy_I(u)
    )


def j_N_limit_report(u: float, N_list) -> dict:
    """Convergence report for j_N at fixed u along a sequence of N.

    Evaluates j_N at each N (callers wanting the clean limit should pick N
    with N*u integral, which kills the floor oscillation) and compares the
    tail value against the two candidate limits: the Stirling value
    (1/2)(u(1-u))^{-1/2} and the alternative (4u(1-u))^{-1}. Reported, not
    asserted."""
    if not 0.0 < u < 1.0:
        raise ValueError("u must lie in (0,1) for a limit report")
    values = [j_N(u, int(N)) for N in N_list]
    stirling = 0.5 / math.sqrt(u * (1.0 - u))
    alternative = 1.0 / (4.0 * u * (1.0 - u))
    tail = values[-1]
    return {
        "u": u,
        "N": list(N_list),
        "values": values,
        "stirling_limit": stirling,
        "alternative_limit": alternative,
        "tail_matches_stirling": abs(tail - stirling) < 0.02 * stirling,
        "tail_matches_alternative": abs(tail - alternative) < 0.02 * alternative,
    }


# ---------------------------------------------------------------------------
# zeta(p): the threshold gamma at beta = 1
# ---------------------------------------------------------------------------


def _golden_max(f, a: float, b: float) -> float:
    """Maximum value of f on [a, b] by 60 golden-section steps (f unimodal
    on the bracket; the caller supplies a bracket around a grid argmax)."""
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(60):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_GOLDEN * (b - a)
            f1 = f(x1)
    return max(f1, f2)


def _principal_at(p: int, gamma2: float, u: float) -> float:
    """upsilon_principal at beta = 1 for one float u, in Python floats:
    the same formula as the array path, without 0-d numpy calls."""
    g = (1.0 - 2.0 * u) ** p
    w = 1.0 - u
    ent = (u * math.log(u) if u > 0 else 0.0) + (w * math.log(w) if w > 0 else 0.0) + _LOG2
    return gamma2 * (g / (1.0 + g)) - ent


def zeta(p: int, tol: float = 1e-5, grid_points: int = 10_001) -> float:
    """Largest gamma (at beta = 1) with sup_u of the principal rate <= 0.

    Bisection over gamma; each predicate evaluation maximizes over a dense
    u-grid on [0, 1/2] with golden-section polishing around the grid argmax.
    The gamma-free grid terms Phi(u) and I(u) are computed once per call, so
    a predicate evaluation is gamma^2 Phi - I on the grid plus a polish in
    Python floats.
    Known anchors: zeta(2) = 2^{-1/2}, zeta(3) near 1.0291, and
    zeta(p) -> sqrt(2 log 2) from below as p grows.
    """
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"p must be an integer >= 2, got {p!r}")
    if tol <= 0:
        raise ValueError("tol must be > 0")
    grid = np.linspace(0.0, 0.5, grid_points)
    g = (1.0 - 2.0 * grid) ** p
    phi_g = g / (1.0 + g)
    ent_g = entropy_I(grid)
    last = len(grid) - 1
    lo, hi = 0.3, 1.3

    # the rate vanishes identically at u = 1/2, so the sup is never below
    # zero; rounding there lands within an ulp of 0 and needs this slack
    def nonpositive(gamma: float) -> bool:
        gamma2 = gamma**2
        vals = gamma2 * phi_g - ent_g
        i = int(np.argmax(vals))
        refined = _golden_max(
            lambda x: _principal_at(p, gamma2, x),
            float(grid[max(i - 1, 0)]),
            float(grid[min(i + 1, last)]),
        )
        return max(float(vals[i]), refined) <= 1e-12

    if not nonpositive(lo):
        raise BracketError(f"sup of the rate is positive already at gamma={lo}")
    if nonpositive(hi):
        raise BracketError(f"sup of the rate is still nonpositive at gamma={hi}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if nonpositive(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# decay-rate check for the correlated two-point functional
# ---------------------------------------------------------------------------


def xi_rate_check(
    c: float,
    beta: float,
    gamma: float,
    u: float,
    v: float,
    N_list,
    samples: int,
    rng,
    lambda_margin: float = 0.0,
) -> dict:
    """Monte Carlo decay rate of the two-point functional

        Xi_N(c) = u v beta^2 N e^{-2 gamma N}
                  E[ exp{ beta sqrt(N)(U1+U2)
                         - 2 log(1 + u e^{beta sqrt(N) U1 - gamma N})
                         - 2 log(1 + v e^{beta sqrt(N) U2 - gamma N}) } ]

    over standard normals (U1, U2) with correlation c. Fits log Xi_N against
    N and reports the slope together with the applicable analytic bound:
    -gamma^2 / (beta^2 (1+c)) when c > gamma/beta^2 + lambda - 1, else
    beta^2 (1+c) - 2 gamma. The slope should not exceed the bound by more
    than fit noise; the caller asserts with its own margin.
    """
    if not -1.0 < c < 1.0:
        raise ValueError("c must lie in (-1, 1)")
    if u <= 0 or v <= 0:
        raise ValueError("u and v must be > 0")
    gen = as_generator(rng)
    N_arr = np.asarray(list(N_list), dtype=np.int64)
    log_xi = np.empty(len(N_arr), dtype=np.float64)
    log_xi_se = np.empty(len(N_arr), dtype=np.float64)
    for idx, N in enumerate(N_arr):
        z1 = gen.standard_normal(samples)
        z2 = gen.standard_normal(samples)
        u1 = z1
        u2 = c * z1 + math.sqrt(1.0 - c * c) * z2
        root = beta * math.sqrt(N)
        log_integrand = (
            root * (u1 + u2)
            - 2.0 * np.logaddexp(0.0, math.log(u) + root * u1 - gamma * N)
            - 2.0 * np.logaddexp(0.0, math.log(v) + root * u2 - gamma * N)
        )
        m = float(log_integrand.max())
        if not math.isfinite(m):
            raise RuntimeError(f"degenerate integrand at N={N}")
        r = np.exp(log_integrand - m)
        mean_r = float(r.mean())
        log_mean = m + math.log(mean_r)
        log_xi[idx] = (
            math.log(u * v * beta**2 * N) - 2.0 * gamma * N + log_mean
        )
        log_xi_se[idx] = float(r.std(ddof=1) / (mean_r * math.sqrt(samples)))
    slope, intercept = np.polyfit(N_arr.astype(float), log_xi, 1)
    first_branch = c > gamma / beta**2 + lambda_margin - 1.0
    bound = (
        -(gamma**2) / (beta**2 * (1.0 + c))
        if first_branch
        else beta**2 * (1.0 + c) - 2.0 * gamma
    )
    return {
        "N": N_arr,
        "log_xi": log_xi,
        "log_xi_stderr": log_xi_se,
        "rate": float(slope),
        "intercept": float(intercept),
        "bound": bound,
        "branch": "first" if first_branch else "second",
    }
