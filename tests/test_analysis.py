import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trapclock.analysis import (
    RateFunctionParams,
    entropy_I,
    j_N,
    phi,
    upsilon,
    upsilon_principal,
    upsilon_tilde,
    xi_rate_check,
    zeta,
)
from trapclock.core import RngStream

# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------


def test_entropy_trivials():
    assert entropy_I(0.5) == pytest.approx(0.0, abs=1e-15)
    assert entropy_I(0.0) == pytest.approx(math.log(2))
    assert entropy_I(1.0) == pytest.approx(math.log(2))


def test_entropy_domain():
    with pytest.raises(ValueError):
        entropy_I(-0.01)
    with pytest.raises(ValueError):
        entropy_I(1.01)


@given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
def test_entropy_midpoint_convex(a, b):
    mid = entropy_I(0.5 * (a + b))
    assert mid <= 0.5 * (entropy_I(a) + entropy_I(b)) + 1e-12


@given(st.floats(min_value=0.0, max_value=1.0))
def test_entropy_quadratic_lower_bound(u):
    # Pinsker-type bound: I(u) >= (1-2u)^2 / 2
    assert entropy_I(u) >= 0.5 * (1.0 - 2.0 * u) ** 2 - 1e-12


def test_entropy_vectorized():
    grid = np.linspace(0, 1, 7)
    vals = entropy_I(grid)
    assert vals.shape == (7,)
    assert vals[3] == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------------------
# Phi and its slope at zero
# ---------------------------------------------------------------------------


def test_phi_anchor_values():
    for p in (2, 3, 4, 7):
        assert phi(0.0, p) == pytest.approx(0.5)
        assert phi(0.5, p) == pytest.approx(0.0, abs=1e-15)
    assert phi(1.0, 4) == pytest.approx(0.5)


def test_phi_pole_odd_p():
    with pytest.raises(ZeroDivisionError):
        phi(1.0, 3)


@pytest.mark.parametrize("p", [2, 3, 4, 6])
def test_phi_slope_is_minus_half_p(p):
    fd = (phi(1e-6, p) - phi(0.0, p)) / 1e-6
    assert fd == pytest.approx(-p / 2.0, abs=1e-3)


# ---------------------------------------------------------------------------
# the piecewise rate function
# ---------------------------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        RateFunctionParams(p=1, beta=1.0, gamma=0.5)
    with pytest.raises(ValueError):
        RateFunctionParams(p=3, beta=0.0, gamma=0.5)
    with pytest.raises(ValueError):
        RateFunctionParams(p=3, beta=1.0, gamma=-0.5)
    with pytest.raises(ValueError):
        RateFunctionParams(p=3, beta=1.0, gamma=0.5, lambda_margin=-0.1)
    with pytest.raises(ValueError):
        RateFunctionParams(p=3, beta=1.0, gamma=0.5, eta=-1.0)
    for field in ("beta", "gamma", "lambda_margin", "eta"):
        for value in (math.nan, math.inf):
            kwargs = {"p": 3, "beta": 1.0, "gamma": 0.5, field: value}
            with pytest.raises(ValueError, match=field):
                RateFunctionParams(**kwargs)


def test_branch_split_value():
    params = RateFunctionParams(p=3, beta=2.0, gamma=1.0, lambda_margin=0.25)
    assert params.branch_split == pytest.approx(1.0 / 4.0 + 0.25 - 1.0)


def test_upsilon_vanishes_at_half():
    for p in (2, 3, 4, 5):
        params = RateFunctionParams(p=p, beta=1.0, gamma=0.5)
        assert abs(upsilon(params, 0.5)) < 1e-10


@pytest.mark.parametrize("p", [3, 4, 5])
def test_upsilon_curvature_at_half(p):
    params = RateFunctionParams(p=p, beta=1.3, gamma=0.6)
    h = 1e-4
    fd2 = (upsilon(params, 0.5 + h) - 2 * upsilon(params, 0.5) + upsilon(params, 0.5 - h)) / h**2
    assert fd2 == pytest.approx(-4.0, abs=1e-3)


def test_upsilon_curvature_at_half_p2():
    beta, gamma = 1.3, 0.6
    params = RateFunctionParams(p=2, beta=beta, gamma=gamma)
    h = 1e-4
    fd2 = (upsilon(params, 0.5 + h) - 2 * upsilon(params, 0.5) + upsilon(params, 0.5 - h)) / h**2
    assert fd2 == pytest.approx(4.0 * (2.0 * gamma**2 / beta**2 - 1.0), abs=1e-3)


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
def test_upsilon_flat_at_half(p):
    params = RateFunctionParams(p=p, beta=1.0, gamma=0.5)
    h = 1e-6
    fd1 = (upsilon(params, 0.5 + h) - upsilon(params, 0.5 - h)) / (2 * h)
    assert abs(fd1) < 1e-8


def test_upsilon_local_quadratic_cap():
    params = RateFunctionParams(p=3, beta=1.0, gamma=0.5)
    for u in np.linspace(0.4, 0.6, 41):
        if abs(u - 0.5) < 1e-12:
            continue
        assert upsilon(params, u) <= -1.8 * (u - 0.5) ** 2 + 1e-12


def test_upsilon_branch_selection():
    # split = gamma/beta^2 - 1 = 0.2 > 0, so g = 0 (u = 1/2) takes the
    # second branch and g = 1 (u = 0) takes the first
    params = RateFunctionParams(p=3, beta=1.0, gamma=1.2)
    assert upsilon(params, 0.5) == pytest.approx((1.2 - 1.0) ** 2)
    assert upsilon(params, 0.0) == pytest.approx(1.2**2 / 2.0 - math.log(2))


def test_upsilon_continuous_across_split():
    # with lambda_margin = 0 both branches coincide where (1-2u)^p hits the
    # split, so the piecewise join is continuous there
    params = RateFunctionParams(p=4, beta=1.0, gamma=1.3)
    u_star = 0.5 * (1.0 - params.branch_split ** 0.25)
    left = upsilon(params, u_star - 1e-9)
    right = upsilon(params, u_star + 1e-9)
    assert abs(left - right) < 1e-6


def test_upsilon_principal_matches_first_branch_below_split():
    params = RateFunctionParams(p=3, beta=1.0, gamma=0.5)
    grid = np.linspace(0.0, 0.5, 101)
    assert np.allclose(upsilon_principal(params, grid), upsilon(params, grid), atol=1e-14)


def test_upsilon_tilde_anchors():
    params = RateFunctionParams(p=3, beta=1.2, gamma=0.7)
    assert upsilon_tilde(params, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert upsilon_tilde(params, 0.5) == pytest.approx(-0.7**2 / (2 * 1.2**2))


def test_upsilon_tilde_tilt_is_linear():
    base = RateFunctionParams(p=3, beta=1.0, gamma=0.5)
    tilted = RateFunctionParams(p=3, beta=1.0, gamma=0.5, eta=2.0)
    grid = np.linspace(0.0, 1.0, 21)
    gap = upsilon_tilde(tilted, grid) - upsilon_tilde(base, grid)
    assert np.allclose(gap, 2.0 * np.minimum(grid, 1.0 - grid), atol=1e-14)


def test_upsilon_tilde_domain():
    params = RateFunctionParams(p=3, beta=1.0, gamma=0.5)
    with pytest.raises(ValueError):
        upsilon_tilde(params, 1.2)


# ---------------------------------------------------------------------------
# j_N and its limit
# ---------------------------------------------------------------------------


def test_j_N_exact_small():
    assert j_N(0.0, 1) == pytest.approx(math.sqrt(math.pi / 2.0))


def test_j_N_at_half_tends_to_one():
    assert j_N(0.5, 1000) == pytest.approx(1.0, rel=1e-2)


def test_j_N_quarter_stirling_limit():
    # along N divisible by 4, the floor is exact and Stirling gives
    # (1/2) (u(1-u))^{-1/2} = 2/sqrt(3) at u = 1/4
    assert j_N(0.25, 4000) == pytest.approx(2.0 / math.sqrt(3.0), abs=2e-3)


def test_j_N_limit_report_quarter():
    # along N divisible by 4 the error to the Stirling limit shrinks, and the
    # alternative (4u(1-u))^{-1} = 4/3 in circulation is ruled out
    stirling = 2.0 / math.sqrt(3.0)
    errs = [abs(j_N(0.25, N) - stirling) for N in (40, 400, 4000)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.02 * stirling
    assert abs(j_N(0.25, 4000) - 4.0 / 3.0) > 0.02 * (4.0 / 3.0)


def test_j_N_limit_report_half_degenerate():
    # at u = 1/2 the Stirling limit and the alternative coincide at 1, so
    # this point cannot tell them apart
    u = 0.5
    assert 0.5 / math.sqrt(u * (1.0 - u)) == pytest.approx(1.0)
    assert 1.0 / (4.0 * u * (1.0 - u)) == pytest.approx(1.0)
    assert j_N(u, 2000) == pytest.approx(1.0, rel=0.02)


def test_j_N_sqrt_growth_bound_on_lattice():
    # the entropy bound binom(N,k) <= 2^N e^{-N I(k/N)} pins j_N at
    # lattice points; off-lattice the floor drifts (see next test)
    for N in (1, 2, 3, 5, 10, 50, 200, 500):
        for k in range(N + 1):
            assert j_N(k / N, N) <= math.sqrt(math.pi * N / 2.0) + 1e-9


def test_j_N_off_lattice_blowup_near_one():
    # just below u = 1 the floor freezes the binomial at k = N-1 while
    # e^{N I(u)} approaches 2^N, so no sqrt(N) bound holds there
    assert j_N(1.0 - 1e-9, 50) > 10.0 * math.sqrt(50)


def test_j_N_domain():
    with pytest.raises(ValueError):
        j_N(-0.1, 10)
    with pytest.raises(ValueError):
        j_N(0.5, 0)


# ---------------------------------------------------------------------------
# zeta
# ---------------------------------------------------------------------------


def test_zeta_p2_closed_form():
    assert zeta(2) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-4)


def test_zeta_p3():
    assert zeta(3) == pytest.approx(1.0291, abs=1e-3)


def test_zeta_validation():
    with pytest.raises(ValueError):
        zeta(1)
    with pytest.raises(ValueError):
        zeta(3, tol=0.0)


def test_zeta_is_pinned():
    # zeta returns a bisection midpoint, so its bytes hold exactly when no
    # "sup <= 1e-12" decision moves; the digest covers p = 2..50 at four
    # tolerances and two grid sizes
    values = [
        repr(zeta(p, tol, gp))
        for p in range(2, 51)
        for tol in (1.0, 1e-3, 1e-4, 1e-5)
        for gp in (2001, 10001)
    ]
    digest = hashlib.sha256("\n".join(values).encode()).hexdigest()
    assert digest == "643513394d9b25be020c81cf1a431e18bf6bf8af270912b44c76e1d181f156a7"


def test_zeta_refuses_a_non_integer_p():
    with pytest.raises(ValueError, match="integer"):
        zeta(3.0)


# ---------------------------------------------------------------------------
# decay-rate check
# ---------------------------------------------------------------------------


def test_xi_rate_check_keys_and_bound():
    res = xi_rate_check(
        0.0, 1.0, 0.7, 1.0, 1.0, [8, 16, 24, 32], 60_000, RngStream(77, 1)
    )
    for key in ("N", "log_xi", "log_xi_stderr", "rate", "intercept", "bound", "branch"):
        assert key in res
    assert np.all(np.isfinite(res["log_xi"]))
    assert res["branch"] == "first"
    assert res["bound"] == pytest.approx(-0.49)
    assert res["rate"] <= res["bound"] + 0.15


def test_xi_rate_check_branches():
    first = xi_rate_check(0.5, 1.0, 1.2, 1.0, 1.0, [6, 12], 500, RngStream(77, 2))
    assert first["branch"] == "first"
    assert first["bound"] == pytest.approx(-(1.2**2) / 1.5)
    second = xi_rate_check(0.1, 1.0, 1.2, 1.0, 1.0, [6, 12], 500, RngStream(77, 3))
    assert second["branch"] == "second"
    assert second["bound"] == pytest.approx(1.1 - 2.4)


def test_xi_rate_check_validation():
    with pytest.raises(ValueError):
        xi_rate_check(1.0, 1.0, 0.5, 1.0, 1.0, [5], 10, RngStream(1, 1))
    with pytest.raises(ValueError):
        xi_rate_check(0.0, 1.0, 0.5, 0.0, 1.0, [5], 10, RngStream(1, 1))
