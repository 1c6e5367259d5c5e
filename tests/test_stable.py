import hashlib
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from trapclock import core, stable
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


@pytest.mark.parametrize("alpha, digest", [
    (0.3, "76831008cc04c135ec639297926ad35ecc363c5f83fe2c9dbc6a412abef2aa90"),
    (0.5, "29218e92727998c7121f3137e3b7ffc442437d51df3688be384070801e2f322f"),
    (0.8, "3dd1beeb5644be811720a2d12807f79a65ce51bc8539555a4ee64d026cf24df6"),
], ids=["a0.3", "a0.5", "a0.8"])
def test_subordinator_stream_is_pinned(alpha, digest):
    # SHA-256 of 500 paths on criterion 6's 4-point grid from one generator;
    # a change that alters the subordinator stream on purpose updates it
    grid = np.array([0.0, 0.5, 1.0, 2.0])
    gen = RngStream(65, int(10 * alpha)).generator()
    h = hashlib.sha256()
    for _ in range(500):
        path = sample_subordinator(alpha, 1.0, grid, gen)
        h.update(path.grid.tobytes() + path.values.tobytes())
    assert h.hexdigest() == digest


def test_subordinator_fine_grid_is_pinned():
    path = sample_subordinator(0.5, 2.0, np.linspace(0.0, 3.0, 101), RngStream(65, 3))
    assert hashlib.sha256(path.grid.tobytes() + path.values.tobytes()).hexdigest() == (
        "86f2bf4579a3e3d39978328a026159b53e7f3eebc1e6b462d924b27ac8735463"
    )


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
    for x in (math.nan, [0.5, math.nan]):
        with pytest.raises(ValueError, match=r"x must lie in \[0,1\]"):
            arcsine_cdf(0.5, x)


def test_first_passage_values_exceed_level():
    vals = first_passage_values(0.5, 1.0, 1.0, 200, RngStream(8, 8))
    assert vals.shape == (200,)
    assert np.all(vals > 1.0)


def _per_step(v, draws, scale_c, scale_f, switch):
    # the coarse/fine rule one step at a time: the scale follows the value
    # before each step
    path = []
    for d in draws:
        v = v + (scale_c if v < switch else scale_f) * d
        path.append(v)
    return path


def test_passage_block_matches_a_per_step_loop():
    scale_c, scale_f, switch, t = 0.05, 0.005, 0.9, 1.0
    ones = np.ones(8)
    rows = [
        (0.72, ones),  # switches to fine steps inside the block
        (0.9, ones),  # starts at the switch: every step is fine
        (0.95, ones),  # starts above the switch
        (0.5, np.array([1.0, 20.0, 1, 1, 1, 1, 1, 1])),  # crosses t on a coarse step
        (0.0, ones),  # stays below the switch and below t
        (0.89, ones),  # switches on its first step
        (0.5, np.array([1.0, 1, 1, 1, 1, 1, 1, 12.0])),  # crosses t on its last step
    ]
    gen = RngStream(66, 1).generator()
    v = np.concatenate([[r[0] for r in rows], gen.uniform(0.0, 1.0, 300)])
    draws = np.column_stack([r[1] for r in rows] + [
        stable.sample_one_sided_stable(0.5, (8, 300), gen) * 0.1
    ])
    got = stable._passage_block(v, draws, scale_c, scale_f, switch)
    want = np.column_stack([
        _per_step(v[i], draws[:, i], scale_c, scale_f, switch) for i in range(v.size)
    ])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    # the hand-made rows do what their comments say
    assert want[2, 0] < switch <= want[3, 0] < t
    assert (want[:, 3] > t).argmax() == 1 and want[0, 3] < switch
    assert want[-1, 4] < switch and want[-2, 6] < switch and want[-1, 6] > t
    # the random rows switch and cross inside the block too
    assert ((v[7:] < switch) & (want[-2, 7:] >= switch)).sum() > 10
    assert (want[-1, 7:] > t).sum() > 10


def _passage_by_steps(alpha, K, t, replicas, rng, elements):
    # first passage one replica and one step at a time, on the draws of the
    # passes `first_passage_values` makes with this element budget, group g
    # of `_PASSAGE_GROUP` replicas on the stream rng.substream(g)
    base = t**alpha / K
    scale_c = (K * 5e-3 * base) ** (1.0 / alpha)
    scale_f = (K * 5e-4 * base) ** (1.0 / alpha)
    out = []
    for g, lo in enumerate(range(0, replicas, stable._PASSAGE_GROUP)):
        size = min(stable._PASSAGE_GROUP, replicas - lo)
        gen = rng.substream(g).generator()
        v, group, live = [0.0] * size, [None] * size, list(range(size))
        while live:
            block = max(1, elements // len(live))
            draws = sample_one_sided_stable(alpha, (block, len(live)), gen)
            still = []
            for col, r in enumerate(live):
                for value in _per_step(v[r], draws[:, col], scale_c, scale_f, t - 0.1 * t):
                    if value > t:
                        group[r] = value
                        break
                else:
                    v[r] = value
                    still.append(r)
            live = still
        out += group
    return np.array(out)


@pytest.mark.parametrize("elements", [1, 64, 1 << 14])
def test_first_passage_matches_a_per_step_loop(monkeypatch, elements):
    monkeypatch.setattr(stable, "_PASSAGE_ELEMENTS", elements)
    got = first_passage_values(0.5, 2.0, 0.5, 150, RngStream(66, 2))
    want = _passage_by_steps(0.5, 2.0, 0.5, 150, RngStream(66, 2), elements)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_first_passage_step_budget_raises(monkeypatch):
    # draws of zero never move the path: the replica runs out of its
    # 50 t^alpha/K / dt_fine + 1000 steps
    monkeypatch.setattr(stable, "sample_one_sided_stable", lambda alpha, size, rng: np.zeros(size))
    with pytest.raises(RuntimeError, match="step budget"):
        first_passage_values(0.5, 1.0, 1.0, 3, RngStream(66, 3))


@pytest.mark.parametrize("alpha, K, t, replicas, digest", [
    (0.5, 1.0, 1.0, 2000, "e4ced48a4348331dd66a7b6d57d41fd367ca77b082dbe079cb72be960acd5f31"),
    (0.3, 2.0, 0.5, 500, "ebe04b90e9c4ed15c6eebff3874ac309b3c06170c49cab0a01f2a0fa3d8e415a"),
], ids=["a0.5", "a0.3"])
def test_first_passage_stream_is_pinned(alpha, K, t, replicas, digest):
    # SHA-256 of the first-passage values at a fixed stream and size; a
    # change that alters the range-miss stream on purpose updates it
    vals = first_passage_values(alpha, K, t, replicas, RngStream(66, 4))
    assert hashlib.sha256(vals.tobytes()).hexdigest() == digest


def test_first_passage_ignores_worker_count(monkeypatch):
    # 2100 replicas are three groups of up to 1024, the last one short: the
    # same bytes inline (one core, or off Linux) and on the process pool at
    # 2 and 3 workers
    real_pool, pooled = core._process_pool, []

    def recording_pool():
        pooled.append(True)
        return real_pool()

    monkeypatch.setattr(core, "_process_pool", recording_pool)
    runs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(core, "_cpu_count", lambda w=workers: w)
        runs.append(first_passage_values(0.5, 1.0, 1.0, 2100, RngStream(66, 5)).tobytes())
        assert len(pooled) == workers - 1
    monkeypatch.setattr(core.sys, "platform", "darwin")
    runs.append(first_passage_values(0.5, 1.0, 1.0, 2100, RngStream(66, 5)).tobytes())
    assert len(pooled) == 2
    assert all(run == runs[0] for run in runs[1:])


def test_first_passage_group_reads_its_own_stream():
    # group g's slice is a one-group call on rng.substream(g)
    rng, size = RngStream(66, 5), stable._PASSAGE_GROUP
    vals = first_passage_values(0.5, 1.0, 1.0, 2100, rng)
    for g, lo in enumerate(range(0, 2100, size)):
        hi = min(lo + size, 2100)
        group = stable._passage_group(0.5, 1.0, 1.0, hi - lo, rng.substream(g))
        assert vals[lo:hi].tobytes() == group.tobytes()


@pytest.mark.parametrize("call", [first_passage_values, range_miss_prob_mc],
                         ids=["passage", "range_miss"])
def test_range_miss_takes_a_stream_only(call):
    with pytest.raises(TypeError, match="expected RngStream"):
        call(0.5, 1.0, 1.0, 10, RngStream(66, 6).generator())


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
        (lambda: sample_subordinator(0.5, 1.0, [0.5, math.nan], RngStream(1, 1)),
         "nonnegative and strictly increasing"),
        (lambda: sample_subordinator(0.5, 1.0, [math.nan, 0.5], RngStream(1, 1)),
         "nonnegative and strictly increasing"),
        (lambda: sample_subordinator(0.5, 1.0, [math.nan], RngStream(1, 1)),
         "nonnegative and strictly increasing"),
        (lambda: SubordinatorPath(np.array([0.0, math.nan]), np.zeros(2), 0.5, 1.0),
         "grid must be strictly increasing"),
        (lambda: first_passage_values(0.5, 1.0, 0.0, 10, RngStream(1, 1)), "need t > 0 and K > 0"),
        (lambda: first_passage_values(0.5, 0.0, 1.0, 10, RngStream(1, 1)), "need t > 0 and K > 0"),
        (lambda: range_miss_prob_mc(0.5, 1.0, 0.0, 10, RngStream(1, 1)), "s must be > 0"),
        (lambda: first_passage_values(0.5, 1.0, 1.0, -1, RngStream(1, 1)),
         "replicas must be >= 0"),
        (lambda: sample_subordinator(0.5, math.nan, [1.0], RngStream(1, 1)), "K must be >= 0"),
        (lambda: first_passage_values(0.5, 1.0, math.nan, 10, RngStream(1, 1)),
         "need t > 0 and K > 0"),
        (lambda: first_passage_values(0.5, math.nan, 1.0, 10, RngStream(1, 1)),
         "need t > 0 and K > 0"),
        (lambda: range_miss_prob_mc(0.5, 1.0, math.nan, 10, RngStream(1, 1)), "s must be > 0"),
        (lambda: range_miss_prob_mc(0.5, 1.0, 1.0, 0, RngStream(1, 1)),
         "replicas must be >= 1"),
    ],
    ids=["path_grid", "path_values", "alpha", "K", "empty_grid", "2d_grid", "negative_grid",
         "flat_grid", "nan_grid_point", "nan_first_grid_point", "nan_grid", "path_nan_grid",
         "passage_t", "passage_K", "window_s", "passage_replicas", "K_nan", "passage_t_nan",
         "passage_K_nan", "window_s_nan", "window_replicas"],
)
def test_stable_guards(call, message):
    with pytest.raises(ValueError, match=message):
        call()
