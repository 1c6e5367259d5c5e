import math

import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from trapclock.core import RngStream
from trapclock.stable import (
    SubordinatorPath,
    arcsine_cdf,
    first_passage_values,
    range_miss_prob_mc,
    sample_one_sided_stable,
    sample_subordinator,
)


def test_one_sided_stable_half_is_levy():
    """alpha = 1/2 has the closed Levy form: S = levy(scale=1/2) has
    Laplace transform exp(-sqrt(lambda))."""
    draws = sample_one_sided_stable(0.5, 20_000, RngStream(1, 1))
    _, pvalue = scipy.stats.kstest(draws, scipy.stats.levy(scale=0.5).cdf)
    assert pvalue > 0.01


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_one_sided_stable_laplace_at_unit_lambda(alpha):
    draws = sample_one_sided_stable(alpha, 100_000, RngStream(2, 7))
    vals = np.exp(-draws)
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - math.exp(-1.0)) < 3 * se


def test_one_sided_stable_rejects_bad_alpha():
    for alpha in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(ValueError):
            sample_one_sided_stable(alpha, 4, RngStream(1, 1))


def test_subordinator_zero_rate_is_flat():
    path = sample_subordinator(0.5, 0.0, np.linspace(0, 1, 11), RngStream(3, 3))
    assert np.all(path.values == 0.0)


def test_subordinator_paths_nondecreasing():
    for i in range(20):
        path = sample_subordinator(0.4, 1.0, np.linspace(0, 2, 33), RngStream(4, i))
        assert np.all(np.diff(path.values) >= 0.0)
        assert path.values[0] == 0.0


def test_subordinator_self_similarity():
    """V(4) and 4^{1/alpha} V(1) agree in law for alpha = 1/2."""
    n = 20_000
    grid = np.array([0.0, 1.0, 4.0])
    v1 = np.empty(n)
    v4 = np.empty(n)
    gen = RngStream(5, 5).generator()
    for i in range(n):
        path = sample_subordinator(0.5, 1.0, grid, gen)
        v1[i] = path.values[1]
        v4[i] = path.values[2]
    _, pvalue = scipy.stats.ks_2samp(v4, 16.0 * v1)
    assert pvalue > 0.01


def test_subordinator_increments_stationary():
    n = 8000
    grid = np.array([0.0, 0.5, 1.0])
    first = np.empty(n)
    second = np.empty(n)
    gen = RngStream(6, 1).generator()
    for i in range(n):
        path = sample_subordinator(0.6, 1.0, grid, gen)
        first[i] = path.values[1] - path.values[0]
        second[i] = path.values[2] - path.values[1]
    _, pvalue = scipy.stats.ks_2samp(first, second)
    assert pvalue > 0.01


@pytest.mark.parametrize("lam,t", [(0.5, 1.0), (2.0, 0.5), (1.0, 2.0)])
def test_subordinator_laplace_contract(lam, t):
    alpha, K = 0.5, 1.0
    n = 40_000
    grid = np.array([0.0, t])
    gen = RngStream(7, 2).generator()
    vals = np.empty(n)
    for i in range(n):
        vals[i] = sample_subordinator(alpha, K, grid, gen).values[1]
    probe = np.exp(-lam * vals)
    se = probe.std(ddof=1) / math.sqrt(n)
    assert abs(probe.mean() - math.exp(-K * t * lam**alpha)) < 4 * se


def test_arcsine_cdf_endpoints_and_symmetry():
    assert arcsine_cdf(0.5, 0.0) == 0.0
    assert arcsine_cdf(0.5, 1.0) == 1.0
    assert arcsine_cdf(0.5, 0.5) == pytest.approx(0.5, abs=1e-12)


def test_arcsine_cdf_half_alpha_closed_form():
    for x in (0.1, 0.25, 0.5, 0.75, 0.9):
        closed = (2.0 / math.pi) * math.asin(math.sqrt(x))
        assert arcsine_cdf(0.5, x) == pytest.approx(closed, abs=1e-12)
    assert arcsine_cdf(0.5, 0.75) == pytest.approx(2.0 / 3.0, abs=1e-6)


@given(
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
)
def test_arcsine_cdf_reflection(alpha, x):
    # x bounded away from the endpoints so that 1 - x is representable;
    # below 2**-53 the reflected argument rounds to exactly 1
    lhs = arcsine_cdf(alpha, x) + arcsine_cdf(1.0 - alpha, 1.0 - x)
    assert abs(lhs - 1.0) < 1e-10


def test_arcsine_cdf_matches_density_quadrature():
    # integrate sin(pi a)/pi * u^(a-1) (1-u)^(-a) from 0 to x; the weight
    # takes the u^(a-1) singularity at 0, the factor left is smooth there
    xs = np.array([0.01, 0.2, 0.5, 0.8, 0.99])
    for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
        got = arcsine_cdf(alpha, xs)
        assert got.shape == xs.shape
        for x, value in zip(xs, got):
            ref, _ = scipy.integrate.quad(
                lambda u: (1.0 - u) ** -alpha, 0.0, x, weight="alg", wvar=(alpha - 1.0, 0.0)
            )
            assert abs(value - math.sin(math.pi * alpha) / math.pi * ref) < 1e-10


def test_arcsine_cdf_rejects_bad_domain():
    with pytest.raises(ValueError):
        arcsine_cdf(1.2, 0.5)
    with pytest.raises(ValueError):
        arcsine_cdf(0.5, 1.5)


def test_first_passage_values_exceed_level():
    vals = first_passage_values(0.5, 1.0, 1.0, 200, RngStream(8, 8))
    assert vals.shape == (200,)
    assert np.all(vals > 1.0)


def test_range_miss_matches_arcsine():
    est, se = range_miss_prob_mc(0.5, 1.0, 1.0, 4000, RngStream(9, 9))
    assert abs(est - 0.5) < 3 * se


def test_range_miss_monotone_in_s():
    ests = [
        range_miss_prob_mc(0.5, 1.0, s, 2000, RngStream(10, 10))[0]
        for s in (0.25, 1.0, 4.0)
    ]
    assert ests[0] >= ests[1] >= ests[2]


def test_range_miss_small_window_trend():
    est, _ = range_miss_prob_mc(0.5, 1.0, 0.01, 1500, RngStream(11, 11))
    assert est > 0.9


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SubordinatorPath(np.array([0.0, 0.0]), np.zeros(2), 0.5, 1.0),
         "grid must be strictly increasing"),
        (lambda: SubordinatorPath(np.array([0.0, 1.0]), np.array([1.0, 0.5]), 0.5, 1.0),
         "values must be nondecreasing"),
        (lambda: sample_subordinator(1.0, 1.0, [1.0], RngStream(1, 1)), "alpha must lie in"),
        (lambda: sample_subordinator(0.5, -1.0, [1.0], RngStream(1, 1)), "K must be >= 0"),
        (lambda: sample_subordinator(0.5, 1.0, [], RngStream(1, 1)), "nonempty 1-d"),
        (lambda: sample_subordinator(0.5, 1.0, [[1.0]], RngStream(1, 1)), "nonempty 1-d"),
        (lambda: sample_subordinator(0.5, 1.0, [-1.0, 1.0], RngStream(1, 1)),
         "nonnegative and strictly increasing"),
        (lambda: sample_subordinator(0.5, 1.0, [1.0, 1.0], RngStream(1, 1)),
         "nonnegative and strictly increasing"),
        (lambda: first_passage_values(0.5, 1.0, 0.0, 10, RngStream(1, 1)), "need t > 0 and K > 0"),
        (lambda: first_passage_values(0.5, 0.0, 1.0, 10, RngStream(1, 1)), "need t > 0 and K > 0"),
        (lambda: range_miss_prob_mc(0.5, 1.0, 0.0, 10, RngStream(1, 1)), "s must be > 0"),
    ],
    ids=["path_grid", "path_values", "alpha", "K", "empty_grid", "2d_grid", "negative_grid",
         "flat_grid", "passage_t", "passage_K", "window_s"],
)
def test_stable_guards(call, message):
    with pytest.raises(ValueError, match=message):
        call()
