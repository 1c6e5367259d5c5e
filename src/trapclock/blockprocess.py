"""Comparison block process with covariance 1 - 2p|i-j|/N and its block-sum
Laplace functionals.

Within a block of length nu the process U_1..U_nu is Gaussian with unit
variance and covariance decaying linearly in |i-j|; across blocks it is
independent. It admits an explicit representation in i.i.d. normals Z_k,

    U_i = Gamma_1 Z_1 + ... + Gamma_i Z_i - Gamma_{i+1} Z_{i+1} - ... ,

with Gamma_1 = sqrt(1 - p(nu-1)/N) and Gamma_k = sqrt(p/N) for k >= 2, which
is what sample_block implements. The tail probability 1 - F_N(u) of the
exponential block sum is estimated by Monte Carlo with the exponentials
integrated out analytically (a product of 1/(1+x) factors), since the target
is exponentially small in N and the naive estimator would drown in variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import ModelParams, as_generator


@dataclass(frozen=True)
class GammaCoefficients:
    N: int
    p: int
    nu: int
    gammas: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.nu < 1:
            raise ValueError("nu must be >= 1")
        head = 1.0 - self.p * (self.nu - 1) / self.N
        if head <= 0:
            raise ValueError(
                f"p(nu-1) = {self.p * (self.nu - 1)} must stay below N = {self.N}"
            )
        g = np.full(self.nu, math.sqrt(self.p / self.N))
        g[0] = math.sqrt(head)
        object.__setattr__(self, "gammas", g)
        assert abs(float(g @ g) - 1.0) < 1e-12

    def covariance(self, i: int, j: int) -> float:
        """Model covariance E[U_i U_j], indices 0-based within the block."""
        return 1.0 - 2.0 * self.p * abs(i - j) / self.N

    def mixing_matrix(self) -> np.ndarray:
        """M with U = M Z; row i carries +Gamma_k for k <= i, else -Gamma_k."""
        nu = self.nu
        signs = np.where(np.arange(nu)[None, :] <= np.arange(nu)[:, None], 1.0, -1.0)
        return signs * self.gammas[None, :]


def sample_block(coeffs: GammaCoefficients, rng, samples: int) -> np.ndarray:
    """Draw U_1..U_nu `samples` times: a (samples, nu) matrix."""
    gen = as_generator(rng)
    return gen.standard_normal((samples, coeffs.nu)) @ coeffs.mixing_matrix().T


def block_laplace_mc(
    params: ModelParams,
    u: float,
    samples: int,
    rng,
    method: str = "rao-blackwell",
) -> tuple[float, float]:
    """Estimate 1 - F_N(u) = P-average of 1 - exp(-u e^{-gamma N} sum_i e_i
    e^{beta sqrt(N) U_i}) over one block. Returns (estimate, stderr).

    method="rao-blackwell" integrates the unit exponentials out exactly;
    method="naive" draws them, and exists to cross-check the reduction.
    """
    if u < 0:
        raise ValueError("u must be >= 0")
    if not samples >= 2:
        raise ValueError(f"samples must be >= 2, got {samples!r}")
    if u == 0.0:
        return 0.0, 0.0
    coeffs = GammaCoefficients(params.N, params.p, params.nu())
    gen = as_generator(rng)
    U = sample_block(coeffs, gen, samples)
    # log of u * e^{-gamma N} * e^{beta sqrt(N) U_i}, elementwise
    a = math.log(u) - params.gamma * params.N + params.beta * math.sqrt(params.N) * U
    if method == "rao-blackwell":
        log_prod = np.logaddexp(0.0, a).sum(axis=1)  # sum_i log(1 + e^{a_i})
        vals = -np.expm1(-log_prod)
    elif method == "naive":
        e = gen.exponential(size=U.shape)
        with np.errstate(divide="ignore"):
            log_total = _logsumexp_rows(a + np.log(e))
        vals = -np.expm1(-np.exp(np.minimum(log_total, 700.0)))
    else:
        raise ValueError(f"unknown method {method!r}")
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(samples))
    return est, se


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    m = a.max(axis=1, keepdims=True)
    return (m + np.log(np.exp(a - m).sum(axis=1, keepdims=True))).ravel()


def rescale_factor(params: ModelParams) -> float:
    """N^{1/2} nu^{-1} e^{N gamma^2 / 2 beta^2}, the normalization under which
    1 - F_N(u) should stabilize."""
    return (
        math.sqrt(params.N)
        / params.nu()
        * math.exp(params.N * params.gamma**2 / (2.0 * params.beta**2))
    )


def block_scaling_constant(
    params: ModelParams,
    u: float,
    N_list,
    samples: int = 50_000,
    rng=None,
) -> list[dict]:
    """Rescaled tail N^{1/2} nu^{-1} e^{N gamma^2/2 beta^2} (1 - F_N(u)) for
    each N in N_list; rows carry the raw estimate and stderr as well."""
    rows = []
    for idx, N in enumerate(N_list):
        pN = replace(params, N=int(N))
        stream = rng if rng is not None else params.stream().substream(7000 + idx)
        est, se = block_laplace_mc(pN, u, samples, stream)
        factor = rescale_factor(pN)
        rows.append(
            {
                "N": int(N),
                "u": u,
                "estimate": est,
                "stderr": se,
                "rescaled": factor * est,
                "rescaled_stderr": factor * se,
            }
        )
    return rows

