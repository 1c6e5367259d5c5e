import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from trapclock.blockprocess import (
    GammaCoefficients,
    block_laplace_mc,
    block_scaling_constant,
    rescale_factor,
    sample_block,
)
from trapclock.core import ModelParams, RngStream


def test_gamma_known_values():
    co = GammaCoefficients(100, 3, 5)
    assert co.gammas[0] == pytest.approx(math.sqrt(0.88))
    assert np.allclose(co.gammas[1:], math.sqrt(0.03))
    assert float(co.gammas @ co.gammas) == pytest.approx(1.0, abs=1e-12)


def test_gamma_rejects_wide_blocks():
    with pytest.raises(ValueError):
        GammaCoefficients(10, 5, 3)  # p(nu-1) = 10 = N


@given(st.data())
def test_gamma_normalization(data):
    N = data.draw(st.integers(min_value=4, max_value=300))
    p = data.draw(st.integers(min_value=2, max_value=6))
    nu_max = (N - 1) // p + 1
    nu = data.draw(st.integers(min_value=1, max_value=min(nu_max, N)))
    co = GammaCoefficients(N, p, nu)
    assert abs(float(co.gammas @ co.gammas) - 1.0) < 1e-12


def test_sample_block_single_coefficient_is_standard_normal():
    co = GammaCoefficients(50, 3, 1)
    draws = sample_block(co, RngStream(1, 1), samples=5000)[:, 0]
    _, pvalue = scipy.stats.kstest(draws, "norm")
    assert pvalue > 0.01


def test_sample_block_covariance_entrywise():
    co = GammaCoefficients(100, 3, 5)
    n = 100_000
    U = sample_block(co, RngStream(2, 9), samples=n)
    emp = np.cov(U.T)
    # the documented endpoint pair first
    assert co.covariance(0, 4) == pytest.approx(0.76)
    for i in range(5):
        for j in range(5):
            target = co.covariance(i, j)
            se = math.sqrt((1.0 + target**2) / (n - 1))
            assert abs(emp[i, j] - target) < 4 * se


def test_block_laplace_at_zero():
    params = ModelParams(N=20, p=3, beta=1.0, gamma=0.6)
    assert block_laplace_mc(params, 0.0, 100, RngStream(1, 1)) == (0.0, 0.0)


def test_block_laplace_monotone_in_u_coupled():
    params = ModelParams(N=20, p=3, beta=1.0, gamma=0.6)
    us = [0.25, 0.5, 1.0, 2.0, 4.0]
    ests = [block_laplace_mc(params, u, 4000, RngStream(7, 7))[0] for u in us]
    assert all(a <= b for a, b in zip(ests, ests[1:]))


def test_block_laplace_rao_blackwell_matches_naive():
    params = ModelParams(N=24, p=3, beta=1.0, gamma=0.6)
    rb, rb_se = block_laplace_mc(params, 1.0, 60_000, RngStream(3, 1))
    nv, nv_se = block_laplace_mc(params, 1.0, 60_000, RngStream(3, 2), method="naive")
    assert abs(rb - nv) < 3 * math.hypot(rb_se, nv_se)
    assert rb_se < nv_se  # the conditioning must not increase variance


def test_block_laplace_rejects_unknown_method():
    params = ModelParams(N=20, p=3, beta=1.0, gamma=0.6)
    with pytest.raises(ValueError):
        block_laplace_mc(params, 1.0, 10, RngStream(1, 1), method="antithetic")


def test_scaling_constant_zero_u():
    params = ModelParams(N=20, p=3, beta=1.0, gamma=0.6)
    rows = block_scaling_constant(params, 0.0, [16, 20], samples=100, rng=RngStream(1, 2))
    assert [r["rescaled"] for r in rows] == [0.0, 0.0]


def test_scaling_constant_consistent_with_factor():
    params = ModelParams(N=20, p=3, beta=1.0, gamma=0.6)
    rows = block_scaling_constant(params, 1.0, [20], samples=5000, rng=RngStream(4, 4))
    row = rows[0]
    per_n = ModelParams(N=20, p=params.p, beta=params.beta, gamma=params.gamma, omega=params.omega)
    assert row["rescaled"] == pytest.approx(row["estimate"] * rescale_factor(per_n))


def test_scaling_constant_u_doubling_exponent():
    """(1-F_N)(2u) / (1-F_N)(u) approaches 2^{gamma/beta^2}."""
    params = ModelParams(N=32, p=3, beta=1.0, gamma=0.6)
    e1, s1 = block_laplace_mc(params, 1.0, 200_000, RngStream(11, 1))
    e2, s2 = block_laplace_mc(params, 2.0, 200_000, RngStream(11, 2))
    ratio = e2 / e1
    se = ratio * math.hypot(s1 / e1, s2 / e2)
    assert abs(ratio - 2.0**0.6) < max(4 * se, 0.2)
