import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trapclock.skorokhod import (
    CadlagStepPath,
    _discrete_frechet,
    j1_distance,
    m1_distance,
    modulus_v,
    modulus_w,
    modulus_w_prime,
)


def staircase(n: int) -> CadlagStepPath:
    return CadlagStepPath(
        2.0, 0.0, np.array([1.0 - 1.0 / n, 1.0]), np.array([0.5, 1.0])
    )


SINGLE = CadlagStepPath(2.0, 0.0, np.array([1.0]), np.array([1.0]))


@st.composite
def step_paths(draw, monotone=False):
    n = draw(st.integers(min_value=0, max_value=5))
    times = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.01, max_value=0.99),
                min_size=n,
                max_size=n,
                unique=True,
            )
        )
    )
    initial = draw(st.floats(min_value=-2.0, max_value=2.0))
    if monotone:
        heights = draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1.5),
                min_size=n,
                max_size=n,
            )
        )
        values = initial + np.cumsum(heights) if n else np.array([])
    else:
        values = np.array(
            draw(
                st.lists(
                    st.floats(min_value=-2.0, max_value=2.0),
                    min_size=n,
                    max_size=n,
                )
            )
        )
    return CadlagStepPath(1.0, initial, np.array(times), values)


# ---------------------------------------------------------------------------
# path container
# ---------------------------------------------------------------------------


def test_path_right_continuity():
    f = CadlagStepPath(2.0, 0.0, np.array([0.5, 1.5]), np.array([1.0, -1.0]))
    assert f.value_at(0.5) == 1.0
    assert f.value_at(0.5 - 1e-12) == 0.0
    assert f.value_at(1.5) == -1.0
    assert f.value_at(2.0) == -1.0
    assert f.value_at(0.0) == 0.0


def test_path_levels_and_boundaries():
    f = CadlagStepPath(3.0, 0.25, np.array([1.0, 2.0]), np.array([0.5, 0.75]))
    assert np.array_equal(f.levels(), [0.25, 0.5, 0.75])
    assert np.array_equal(f.boundaries(), [0.0, 1.0, 2.0, 3.0])
    assert f.n_jumps == 2


def test_path_vectorized_eval():
    f = CadlagStepPath(2.0, 0.0, np.array([1.0]), np.array([1.0]))
    out = f.value_at(np.array([0.0, 0.999, 1.0, 2.0]))
    assert np.array_equal(out, [0.0, 0.0, 1.0, 1.0])


def test_path_validation():
    with pytest.raises(ValueError):
        CadlagStepPath(0.0, 0.0, np.array([]), np.array([]))
    with pytest.raises(ValueError):
        CadlagStepPath(1.0, 0.0, np.array([0.5]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        CadlagStepPath(1.0, 0.0, np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        CadlagStepPath(1.0, 0.0, np.array([1.5]), np.array([1.0]))
    with pytest.raises(ValueError):
        CadlagStepPath(1.0, 0.0, np.array([0.5, 0.5]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        SINGLE.value_at(2.5)
    # NaN is no point of [0, T]: refused, not read as the last level
    for t in (np.nan, np.array([0.5, np.nan])):
        with pytest.raises(ValueError, match=r"outside \[0, T\]"):
            SINGLE.value_at(t)


# ---------------------------------------------------------------------------
# oscillation moduli
# ---------------------------------------------------------------------------


def test_modulus_w_single_jump_is_zero():
    assert modulus_w(SINGLE, 0.3) == 0.0


def test_modulus_w_detects_close_jump_pair():
    f = CadlagStepPath(2.0, 0.0, np.array([0.5, 0.6]), np.array([1.0, 0.0]))
    assert modulus_w(f, 0.2) == 1.0
    assert modulus_w(f, 0.05) == 0.0


def test_modulus_w_delta_domain():
    with pytest.raises(ValueError):
        modulus_w(SINGLE, 0.0)
    with pytest.raises(ValueError):
        modulus_w(SINGLE, 2.0)


@given(step_paths(monotone=True))
def test_modulus_w_prime_vanishes_monotone(path):
    assert modulus_w_prime(path, 0.3) == 0.0


def test_modulus_w_prime_down_up():
    f = CadlagStepPath(1.0, 1.0, np.array([0.4, 0.45]), np.array([0.0, 2.0]))
    assert modulus_w_prime(f, 0.2) == 1.0


@given(step_paths())
def test_modulus_w_prime_below_w(path):
    assert modulus_w_prime(path, 0.3) <= modulus_w(path, 0.3) + 1e-12


LATTICE = 16


@given(
    st.lists(st.integers(min_value=1, max_value=LATTICE), max_size=8, unique=True),
    st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=9, max_size=9),
    st.integers(min_value=0, max_value=LATTICE - 1),
)
def test_moduli_match_brute_force_on_a_lattice(cells, levels, q):
    # Jumps sit on multiples of h = 1/LATTICE and delta halfway between two
    # of them, so t2 - t1 < delta is decided by the lattice alone. Each
    # segment is represented by its first point and by a point eps before
    # its end (the closed final segment by T itself); every triple of these
    # points inside the window is checked against both definitions.
    h, eps = 1.0 / LATTICE, 1e-3 / LATTICE
    times = np.array(sorted(cells)) / LATTICE
    path = CadlagStepPath(1.0, levels[0], times, np.array(levels[1 : len(times) + 1]))
    delta = (q + 0.5) * h
    pts = np.concatenate((np.arange(LATTICE + 1) * h, np.arange(1, LATTICE + 1) * h - eps))
    pts.sort()
    f = path.value_at(pts)
    i, j, k = np.meshgrid(*[np.arange(pts.size)] * 3, indexing="ij")
    ok = (i <= j) & (j <= k) & (pts[k] - pts[i] < delta)
    f1, f0, f2 = f[i[ok]], f[j[ok]], f[k[ok]]
    w = np.minimum(np.abs(f0 - f1), np.abs(f2 - f0)).max()
    gap = np.maximum(np.minimum(f1, f2) - f0, f0 - np.maximum(f1, f2))
    assert modulus_w(path, delta) == w
    assert modulus_w_prime(path, delta) == max(gap.max(), 0.0)


def test_modulus_v_window():
    f = CadlagStepPath(2.0, 0.0, np.array([1.0]), np.array([2.0]))
    assert modulus_v(f, 1.0, 0.1) == 2.0
    assert modulus_v(f, 0.5, 0.3) == 0.0
    with pytest.raises(ValueError):
        modulus_v(f, 3.0, 0.1)
    with pytest.raises(ValueError):
        modulus_v(f, 1.0, 0.0)


# ---------------------------------------------------------------------------
# J1
# ---------------------------------------------------------------------------


def test_j1_zero_on_equal_paths():
    assert j1_distance(SINGLE, SINGLE) == 0.0


@pytest.mark.parametrize("n", [2, 3, 8, 64])
def test_j1_staircase_half(n):
    # the early half-jump cannot be matched by any time change, so J1
    # equals the level mismatch 0.5 exactly, independent of n
    assert j1_distance(staircase(n), SINGLE) == 0.5


def test_j1_displaced_jump_min_rule():
    a = CadlagStepPath(3.0, 0.0, np.array([0.3]), np.array([1.0]))
    b = CadlagStepPath(3.0, 0.0, np.array([0.5]), np.array([1.0]))
    c = CadlagStepPath(3.0, 0.0, np.array([2.5]), np.array([1.0]))
    assert j1_distance(a, b) == pytest.approx(0.2)
    assert j1_distance(a, c) == 1.0


def test_j1_symmetry_and_triangle():
    a = CadlagStepPath(3.0, 0.0, np.array([0.3]), np.array([1.0]))
    b = CadlagStepPath(3.0, 0.0, np.array([0.5]), np.array([1.0]))
    c = CadlagStepPath(3.0, 0.0, np.array([0.7]), np.array([1.0]))
    assert j1_distance(a, b) == j1_distance(b, a)
    assert j1_distance(a, c) <= j1_distance(a, b) + j1_distance(b, c) + 1e-12


def test_j1_domain_mismatch():
    with pytest.raises(ValueError):
        j1_distance(SINGLE, CadlagStepPath(3.0, 0.0, np.array([1.0]), np.array([1.0])))


# ---------------------------------------------------------------------------
# M1
# ---------------------------------------------------------------------------


def _row_frechet(P, Q):
    """Discrete Frechet by the row-by-row recursion: the reference the
    anti-diagonal fill must match to the bit."""
    n, m = len(P), len(Q)
    prev = None
    for i in range(n):
        row_d = np.maximum(np.abs(P[i, 0] - Q[:, 0]), np.abs(P[i, 1] - Q[:, 1]))
        cur = row_d.tolist()
        if i == 0:
            for j in range(1, m):
                cur[j] = max(cur[j - 1], cur[j])
        else:
            cur[0] = max(prev[0], cur[0])
            for j in range(1, m):
                reach = min(prev[j], prev[j - 1], cur[j - 1])
                if reach > cur[j]:
                    cur[j] = reach
        prev = cur
    return float(prev[-1])


def test_discrete_frechet_matches_row_dp():
    gen = np.random.default_rng(8)
    sizes = [(1, 1), (1, 7), (7, 1), (2, 2), (3, 40), (40, 3), (17, 17)]
    sizes += [tuple(int(x) for x in gen.integers(1, 80, size=2)) for _ in range(40)]
    for n, m in sizes:
        P = np.cumsum(gen.normal(size=(n, 2)), axis=0)
        Q = np.cumsum(gen.normal(size=(m, 2)), axis=0)
        assert _discrete_frechet(P, Q) == _row_frechet(P, Q), (n, m)
        assert _discrete_frechet(Q, P) == _row_frechet(Q, P), (m, n)


def test_m1_zero_on_equal_paths():
    assert m1_distance(SINGLE, SINGLE) == 0.0


@pytest.mark.parametrize("n", [2, 4, 8, 32])
def test_m1_staircase_exact(n):
    # the M1 time change absorbs the half-step, leaving only the 1/n
    # horizontal mismatch; the polyline bound attains it exactly here
    assert m1_distance(staircase(n), SINGLE, resolution=512) == pytest.approx(
        1.0 / n, abs=1e-12
    )


def test_m1_below_j1_on_staircase():
    f = staircase(8)
    assert m1_distance(f, SINGLE, resolution=512) <= j1_distance(f, SINGLE)


def test_m1_vertical_shift():
    g = CadlagStepPath(2.0, 0.3, np.array([1.0]), np.array([1.3]))
    assert m1_distance(SINGLE, g, resolution=64) == pytest.approx(0.3)


def test_m1_symmetry():
    f = staircase(4)
    assert m1_distance(f, SINGLE, resolution=128) == m1_distance(
        SINGLE, f, resolution=128
    )


def test_m1_triangle_with_slack():
    f4, f8 = staircase(4), staircase(8)
    lhs = m1_distance(f4, SINGLE, resolution=256)
    rhs = m1_distance(f4, f8, resolution=256) + m1_distance(f8, SINGLE, resolution=256)
    assert lhs <= rhs + 0.01


def test_m1_upper_bound_across_resolutions():
    f = staircase(8)
    vals = [m1_distance(f, SINGLE, resolution=r) for r in (16, 64, 256, 1024)]
    assert all(v >= 1.0 / 8 - 1e-12 for v in vals)
    assert vals[-1] <= vals[0] + 1e-9


def test_m1_validation():
    with pytest.raises(ValueError):
        m1_distance(SINGLE, CadlagStepPath(3.0, 0.0, np.array([1.0]), np.array([1.0])))
    with pytest.raises(ValueError):
        m1_distance(SINGLE, SINGLE, resolution=1)
