import contextlib
import hashlib
import math
import multiprocessing
import operator
import os
import subprocess
import sys
import threading
import warnings
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtri

from trapclock import aging, core, hamiltonian, hypercube
from trapclock.aging import (
    AgingEstimate,
    aging_curve,
    estimate_aging,
    estimate_aging_frozen,
    estimate_range_miss,
)
from trapclock.clock import clock_from_log_increments, simulate_clock
from trapclock.core import (
    ModelParams,
    RngStream,
    gaussian_from_bits,
    gaussian_from_hash,
    mix64_array,
)
from trapclock.hamiltonian import PSpinDisorder, RemDisorder
from trapclock.hypercube import SpinConfig, hamming_u64
from trapclock.stable import arcsine_cdf

# alpha = gamma / beta^2 = 1/2; small enough that a few thousand replicas
# run in about a second
PARAMS = ModelParams(N=12, p=3, beta=2.0, gamma=2.0, horizon_T=2.0)
# the aging CLI preset at its seed, alpha = 1/2, in p-spin mode
PSPIN = ModelParams(N=10, p=3, beta=1.5, gamma=1.125, seed=11)
# the REM point of acceptance criterion 7, alpha = 1/2
CRITERION_7 = ModelParams(N=20, p=3, beta=2.0, gamma=2.0, horizon_T=2.5)


@pytest.fixture(scope="module")
def sweep():
    return estimate_aging(
        PARAMS, 1.0, 1.0, [0.1, 0.3, 0.5], 2000, rng=RngStream(41, 1)
    )


def test_degenerate_window_is_certain():
    est = estimate_aging(PARAMS, 1.0, 0.0, 0.3, 200, rng=RngStream(41, 9))
    assert est.estimate == 1.0
    assert est.stderr == 0.0


def test_validation():
    with pytest.raises(ValueError):
        estimate_aging(PARAMS, 0.0, 0.0, 0.3, 10)
    with pytest.raises(ValueError):
        estimate_aging(PARAMS, -1.0, 1.0, 0.3, 10)
    with pytest.raises(ValueError):
        estimate_aging(PARAMS, 1.0, 1.0, 0.3, 0)
    with pytest.raises(ValueError):
        estimate_aging(PARAMS, 1.0, 1.0, 0.3, 10, mode="sk")


@pytest.mark.parametrize("kwargs, name", [
    ({"t": math.nan}, "t"), ({"t": math.inf}, "t"),
    ({"s": -math.inf}, "s"), ({"s": math.nan}, "s"),
    ({"epsilon": -0.5}, "epsilon"), ({"epsilon": math.nan}, "epsilon"),
    ({"epsilon": [0.1, math.nan]}, "epsilon"),
    ({"t": -1.0}, "t"), ({"s": math.inf}, "s"),
    ({"replicas": 0}, "replicas"), ({"replicas": -3}, "replicas"),
    ({"replicas": True}, "replicas"), ({"replicas": 10.0}, "replicas"),
    ({"replicas": 2.5}, "replicas"),
])
def test_bad_estimator_input_is_refused(monkeypatch, kwargs, name):
    # each refusal names its argument and comes before any kernel runs
    monkeypatch.setattr(aging, "_aging_batch", None)
    call = {"t": 1.0, "s": 1.0, "epsilon": 0.3, "replicas": 10, **kwargs}
    with pytest.raises(ValueError, match=name):
        estimate_aging(PARAMS, **call)
    epsilon, replicas = call.pop("epsilon"), call.pop("replicas")
    if np.isscalar(epsilon):
        with pytest.raises(ValueError, match=name):
            estimate_aging_frozen(PARAMS, epsilon=epsilon, replicas_per_group=replicas, **call)
    if name != "epsilon":
        with pytest.raises(ValueError, match=name):
            estimate_range_miss(PARAMS, replicas=replicas, **call)


def test_integral_counts_of_numpy_type_are_taken():
    a = estimate_aging(PARAMS, 0.5, 0.5, 0.3, np.int64(40), rng=RngStream(41, 7))
    b = estimate_aging(PARAMS, 0.5, 0.5, 0.3, 40, rng=RngStream(41, 7))
    assert a == b
    with pytest.raises(ValueError, match="groups"):
        estimate_aging_frozen(PARAMS, 1.0, 1.0, 0.3, 5, groups=2.0)


def test_kernel_domain_guards():
    with pytest.raises(ValueError, match="N <= 64"):
        estimate_aging(
            ModelParams(N=80, p=3, beta=1.0, gamma=0.5), 1.0, 1.0, 0.3, 10
        )
    with pytest.raises(ValueError, match="overflow"):
        estimate_aging(
            ModelParams(N=64, p=3, beta=12.0, gamma=0.5), 1.0, 1.0, 0.3, 10
        )
    with pytest.raises(ValueError, match="wall-clock"):
        estimate_aging(
            ModelParams(N=64, p=3, beta=1.0, gamma=10.0), 1.0, 1.0, 0.3, 10
        )


def test_matches_arcsine_at_half(sweep):
    est = sweep[1]
    assert est.arcsine_prediction == pytest.approx(0.5, abs=1e-12)
    assert est.alpha_used == pytest.approx(0.5)
    assert abs(est.estimate - 0.5) < max(0.2, 4 * est.stderr)
    assert not est.non_conclusive


def test_stderr_is_binomial(sweep):
    est = sweep[1]
    n_valid = est.replicas - est.excluded
    expected = math.sqrt(est.estimate * (1 - est.estimate) / n_valid)
    assert est.stderr == pytest.approx(expected, rel=1e-12)


def test_epsilon_sweep_shares_one_run(sweep):
    assert isinstance(sweep, list) and len(sweep) == 3
    assert [e.epsilon for e in sweep] == [0.1, 0.3, 0.5]
    # same kernel draw behind every entry
    assert len({e.excluded for e in sweep}) == 1
    ests = [e.estimate for e in sweep]
    assert ests[0] <= ests[1] <= ests[2]
    # the limit law is epsilon-free; the finite-N spread should be mild
    assert ests[2] - ests[0] < 0.1


def test_scalar_epsilon_matches_sweep_entry(sweep):
    single = estimate_aging(PARAMS, 1.0, 1.0, 0.3, 2000, rng=RngStream(41, 1))
    assert isinstance(single, AgingEstimate)
    assert single.estimate == sweep[1].estimate
    assert single.excluded == sweep[1].excluded


def test_zero_dim_epsilon_is_a_scalar():
    a = estimate_aging(PARAMS, 0.5, 0.5, np.array(0.3), 40, rng=RngStream(41, 7))
    b = estimate_aging(PARAMS, 0.5, 0.5, 0.3, 40, rng=RngStream(41, 7))
    assert isinstance(a, AgingEstimate) and a == b
    assert estimate_aging(PARAMS, 0.5, 0.5, np.array([0.3]), 40, rng=RngStream(41, 7)) == [b]


def test_rerun_is_deterministic():
    a = estimate_aging(PARAMS, 0.5, 0.5, 0.3, 300, rng=RngStream(41, 7))
    b = estimate_aging(PARAMS, 0.5, 0.5, 0.3, 300, rng=RngStream(41, 7))
    assert a == b


def test_default_stream_is_reproducible():
    a = estimate_aging(PARAMS, 0.5, 0.5, 0.3, 200)
    b = estimate_aging(
        PARAMS, 0.5, 0.5, 0.3, 200, rng=PARAMS.stream().substream(3)
    )
    assert a == b


def test_beta_zero_decorrelates():
    # without energies the two observation times are far beyond mixing, so
    # the occupied sites are nearly independent uniform corners
    params = ModelParams(N=10, p=3, beta=0.0, gamma=0.5, horizon_T=3.0)
    est = estimate_aging(params, 1.0, 1.0, 0.2, 400, rng=RngStream(41, 4))
    assert est.estimate < 0.06
    assert math.isnan(est.arcsine_prediction)
    assert math.isnan(est.alpha_used)


def test_non_conclusive_on_starved_budget(monkeypatch):
    monkeypatch.setattr(aging, "_STEP_CAP_FACTOR", 0.001)
    est = estimate_aging(PARAMS, 1.0, 1.0, 0.3, 200, rng=RngStream(41, 8))
    assert est.non_conclusive
    assert est.excluded > 10


def test_frozen_chain_agrees(sweep):
    frozen = estimate_aging_frozen(
        PARAMS, 1.0, 1.0, 0.3, 150, groups=12, rng=RngStream(41, 2)
    )
    assert frozen.mode == "rem-frozen"
    assert frozen.replicas == 150 * 12
    combined = math.hypot(frozen.stderr, sweep[1].stderr)
    assert abs(frozen.estimate - sweep[1].estimate) < 4 * combined


def test_frozen_needs_groups():
    with pytest.raises(ValueError):
        estimate_aging_frozen(PARAMS, 1.0, 1.0, 0.3, 50, groups=1)


@pytest.mark.parametrize("replicas_per_group", [0, -3])
def test_frozen_needs_replicas(replicas_per_group):
    with pytest.raises(ValueError, match="replicas must be positive"):
        estimate_aging_frozen(PARAMS, 1.0, 1.0, 0.3, replicas_per_group, groups=3)


def test_frozen_with_fewer_than_two_resolved_groups(monkeypatch):
    # no group resolves: no estimate; one group resolves: its mean, and no
    # spread to estimate a stderr from; neither case warns
    rem20 = ModelParams(N=20, p=3, beta=2.0, gamma=2.0)
    monkeypatch.setattr(aging, "_STEP_CAP_FACTOR", 0.02)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        none = estimate_aging_frozen(rem20, 1, 1, 0.3, 8, groups=3, rng=RngStream(3, 3))
        one = estimate_aging_frozen(PARAMS, 1, 1, 0.3, 4, groups=3, rng=RngStream(41, 54))
    assert none.excluded == none.replicas and none.non_conclusive
    assert math.isnan(none.estimate) and math.isnan(none.stderr)
    cap = aging._step_cap(PARAMS, 2.0, 0.02)
    groups = aging._frozen_kernel(PARAMS, 1, 1, 4, 3, RngStream(41, 54), cap)
    resolved = [dist[~excluded] for dist, excluded in groups if not excluded.all()]
    assert len(resolved) == 1
    assert one.estimate == float((resolved[0] <= 0.3 * PARAMS.N / 2).mean())
    assert math.isnan(one.stderr)


def test_range_miss_sits_below_two_time(sweep):
    rm = estimate_range_miss(PARAMS, 1.0, 1.0, 2000, rng=RngStream(41, 3))
    assert rm.mode == "rem-range"
    assert math.isnan(rm.epsilon)
    # a miss forces both crossings into one coarse block, so the event is
    # (nearly) contained in the two-time one
    combined = math.hypot(rm.stderr, sweep[1].stderr)
    assert rm.estimate <= sweep[1].estimate + 4 * combined
    assert abs(rm.estimate - rm.arcsine_prediction) < 0.2


def test_pspin_preset_matches_arcsine():
    est = estimate_aging(
        PSPIN, 0.5, 0.5, 0.3, 300, mode="pspin", rng=PSPIN.stream().substream(3)
    )
    assert est.mode == "pspin"
    assert abs(est.estimate - float(arcsine_cdf(0.5, 0.5))) <= 4 * est.stderr
    assert est.excluded <= 0.05 * est.replicas


def test_pspin_range_miss_sits_below_two_time():
    # the bounds of the REM check above, on the default streams of each
    two_time = estimate_aging(PSPIN, 0.5, 0.5, 0.3, 300, mode="pspin")
    rm = estimate_range_miss(PSPIN, 0.5, 0.5, 300, mode="pspin")
    assert rm.mode == "pspin-range"
    assert math.isnan(rm.epsilon)
    combined = math.hypot(rm.stderr, two_time.stderr)
    assert rm.estimate <= two_time.estimate + 4 * combined
    assert abs(rm.estimate - rm.arcsine_prediction) < 0.2


def test_pspin_mode_guards():
    # N^p = 2085136 is past the dense storage bound: the couplings are
    # hashed, not refused
    big = ModelParams(N=38, p=4, beta=1.0, gamma=0.5)
    assert big.N**big.p > hamiltonian._DENSE_MAX_ENTRIES
    est = estimate_aging(big, 0.05, 0.05, 0.3, 4, mode="pspin")
    assert est.excluded == 0 and 0.0 <= est.estimate <= 1.0
    null = ModelParams(N=8, p=3, beta=0.0, gamma=0.5)
    with pytest.raises(ValueError, match="beta > 0"):
        estimate_aging(null, 0.5, 0.5, 0.3, 8, mode="pspin")


def test_curve_validates_ratios():
    with pytest.raises(ValueError):
        aging_curve(PARAMS, [0.0, 0.5], 1.0, 0.3, 10)


def test_curve_checks_every_ratio_before_estimating(monkeypatch):
    calls = []
    monkeypatch.setattr(aging, "estimate_aging", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match="ratios"):
        aging_curve(PARAMS, [0.5, 0.25, 1.0], 1.0, 0.3, 10)
    assert calls == []


def test_curve_and_csv():
    ests = aging_curve(
        PARAMS, [0.25, 0.5, 0.75], 1.0, 0.3, 300, rng=RngStream(41, 6)
    )
    assert len(ests) == 3
    preds = [e.arcsine_prediction for e in ests]
    assert preds == sorted(preds)
    assert [e.t + e.s for e in ests] == pytest.approx([1.0, 1.0, 1.0])


def test_hamming_u64_matches_bit_count():
    gen = np.random.default_rng(5)
    a = gen.integers(0, 2**63, size=50, dtype=np.uint64)
    b = gen.integers(0, 2**63, size=50, dtype=np.uint64)
    want = [int(x ^ y).bit_count() for x, y in zip(a.tolist(), b.tolist())]
    assert hamming_u64(a, b).tolist() == want


def _expand(cols, vals, clock, length):
    # the clock after every step of a chunk from the pair of `_clock_series`:
    # a row's last listed value at or before the step, its carried clock
    # before its first listed step; checks the pair's padding on the way
    series = np.empty((clock.size, length))
    for i, (c, v) in enumerate(zip(cols, vals)):
        listed = c < length
        assert np.array_equal(listed, np.arange(c.size) < listed.sum())
        assert np.all(np.diff(c[listed]) > 0) and np.all(c[~listed] == length)
        assert np.all(v[~listed] == (v[listed][-1] if listed.any() else clock[i]))
        k = np.searchsorted(c, np.arange(length), side="right") - 1
        series[i] = np.where(k >= 0, v[np.maximum(k, 0)], clock[i])
    return series


def _check_crossings(cols, vals, series, clock, nu):
    # the crossing rows and steps, the block value and the carried clock
    # read off the pair are those of the dense series; rows whose clock is
    # already above a target have crossed it; returns the crossings seen
    assert np.array_equal(vals[:, -1], series[:, -1])
    crossed = 0
    for target in np.quantile(series[:, -1], [0.2, 0.5, 0.8]):
        have = clock > target
        rows, at = aging._first_crossing(cols, vals, have, target)
        want = np.flatnonzero(~have & (series[:, -1] > target))
        steps = np.argmax(series[want] > target, axis=1)
        assert np.array_equal(rows, want) and np.array_equal(cols[rows, at], steps)
        ends = steps // nu * nu + nu - 1
        assert np.array_equal(aging._block_end_value(cols, vals, rows, at, nu), series[want, ends])
        crossed += rows.size
    return crossed


def test_chunk_stages_match_allocating_reference():
    # the in-place walk and clock pair against the fresh-array form they
    # replace: same draws, same operations in the same order, same bytes;
    # floor 0 keeps every site and lists every step, deeper floors weight
    # only the sites hashed at or above them, draw their waits in step
    # order and list only those steps once they are few; at z0 = 2.5 some
    # rows have no deep step, at z0 = 20 no row has one
    N, n, chunk, nu = 20, 5, 144, 6
    root = 2.0 * math.sqrt(N)
    keys = aging._landscapes(PARAMS, "rem", RngStream(41, 24), np.arange(n))
    pos = np.random.default_rng(3).integers(0, 2**N, size=n, dtype=np.uint64)
    clock = np.linspace(0.0, 2.0, n)
    compact = []
    for z0 in (-math.inf, 1.0, 2.5, 20.0):
        floor = aging._deep_floor(z0)
        ref_gen = RngStream(41, 23).generator()
        gen = RngStream(41, 23).generator()

        flips = ref_gen.integers(0, N, size=(n, chunk)).astype(np.uint64)
        pos_after = pos[:, None] ^ np.bitwise_xor.accumulate(np.uint64(1) << flips, axis=1)
        sites = np.concatenate([pos[:, None], pos_after[:, :-1]], axis=1)
        h = mix64_array(sites + keys[:, None])
        deep = h >= np.uint64(floor)
        assert deep.all() == (floor == 0)
        assert deep.any(axis=1).all() == (z0 < 2.5) and deep.any() == (z0 < 20.0)
        widest = max(int(deep.sum(axis=1).max()), 1)
        u = ((h >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
        inc = np.zeros((n, chunk))
        inc[deep] = ref_gen.standard_exponential(size=deep.sum()) * np.exp(root * ndtri(u[deep]))
        want = clock[:, None] + np.cumsum(inc, axis=1)

        walk = np.empty((n, chunk + 1), dtype=np.uint64)
        hypercube._walk_into(walk, pos, gen.integers(0, N, size=(n, chunk)))
        cols, vals = aging._clock_series(
            keys, walk[:, :-1], clock, root, floor, math.inf, nu, gen,
            np.empty((n, chunk), dtype=np.uint64), np.empty((n, chunk)),
            np.empty((n, chunk), dtype=bool),
        )
        assert np.array_equal(walk[:, :-1], sites)
        assert np.array_equal(walk[:, -1], pos_after[:, -1])
        compact.append(vals.shape[1] < chunk)
        assert compact[-1] == (4 * widest <= chunk)
        got = _expand(cols, vals, clock, chunk)
        assert np.array_equal(got, want)
        assert (_check_crossings(cols, vals, got, clock, nu) > 0) == (z0 < 20.0)
    assert compact == [False, True, True, True]


def test_pspin_chunk_stage_reads_each_rows_landscape():
    # every row's energies come from its own disorder at its own sites,
    # checked against one energy() call per site; p-spin lists every step
    n, chunk, nu = 3, 40, 8
    root = PSPIN.beta * math.sqrt(PSPIN.N)
    keys = aging._landscapes(PSPIN, "pspin", RngStream(41, 32), np.arange(n, dtype=np.uint64))
    sites = np.random.default_rng(4).integers(0, 2**PSPIN.N, size=(n, chunk), dtype=np.uint64)
    clock = np.array([0.0, 1.0, 2.0])
    waits = RngStream(41, 33).generator().standard_exponential(size=(n, chunk))
    energies = np.array(
        [[d.energy(SpinConfig(PSPIN.N, int(b))) for b in row] for d, row in zip(keys, sites)]
    )
    want = clock[:, None] + np.cumsum(waits * np.exp(root * energies), axis=1)
    cols, vals = aging._clock_series(
        keys, sites, clock, root, 0, math.inf, nu, RngStream(41, 33).generator(),
        np.empty((n, chunk), dtype=np.uint64), np.empty((n, chunk)),
        np.empty((n, chunk), dtype=bool),
    )
    assert np.array_equal(cols, np.broadcast_to(np.arange(chunk), (n, chunk)))
    np.testing.assert_allclose(_expand(cols, vals, clock, chunk), want, rtol=1e-12)
    assert _check_crossings(cols, vals, vals, clock, nu) > 0


def test_pspin_rows_stop_after_the_second_crossing():
    # a finite stop leaves the crossings, the block values and every value
    # up to the stop as an infinite one does, and the row flat past it; a
    # row stops after the first row block (655 sites at N=10) in which its
    # last complete nu-block ends above the stop
    n, length, nu = 8, 2046, 3
    root = PSPIN.beta * math.sqrt(PSPIN.N)
    keys = aging._landscapes(PSPIN, "pspin", RngStream(41, 37), np.arange(n, dtype=np.uint64))
    step = keys[0].row_block
    sites = np.random.default_rng(8).integers(0, 2**PSPIN.N, size=(n, length), dtype=np.uint64)
    clock = np.zeros(n)

    def chunk(stop):
        return aging._clock_series(
            keys, sites, clock, root, 0, stop, nu, RngStream(41, 38).generator(),
            np.empty((n, length), dtype=np.uint64), np.empty((n, length)),
            np.empty((n, length), dtype=bool),
        )

    cols, full = chunk(math.inf)
    # the second pair puts row 0's crossings at step 654: past the first
    # row block's last complete block (steps 651-653), so it runs on
    mid = (full[0, 653] + full[0, 654]) / 2
    for target1, target2 in [(np.median(full[:, 653]), np.median(full[:, -1])), (mid, mid)]:
        stop_cols, vals = chunk(target2)
        assert np.array_equal(stop_cols, cols)
        stops = []
        for i in range(n):
            ends = [hi for hi in range(step, length, step) if full[i, hi // nu * nu - 1] > target2]
            stops.append(ends[0] if ends else length)
            assert np.array_equal(vals[i, : stops[i]], full[i, : stops[i]])
            assert np.all(vals[i, stops[i] :] == full[i, stops[i] - 1])
        if target2 == mid:
            assert stops[0] == 2 * step
        else:
            assert 0 < sum(hi < length for hi in stops) < n
        for target in (target1, target2):
            have = np.zeros(n, dtype=bool)
            rows, at = aging._first_crossing(cols, full, have, target)
            stop_rows, stop_at = aging._first_crossing(cols, vals, have, target)
            assert rows.size and np.array_equal(stop_rows, rows) and np.array_equal(stop_at, at)
            assert np.array_equal(aging._block_end_value(cols, vals, rows, at, nu),
                                  aging._block_end_value(cols, full, rows, at, nu))


def test_pspin_preset_evaluates_few_of_its_chunk_energies(monkeypatch):
    # on the N=10 preset's stream most replicas cross twice early in their
    # first chunk, so under 40% of the chunk columns get an energy; each
    # evaluator call is one row block or the chunk's remainder past the last
    calls, shapes = [], []
    evaluate, clock_series = PSpinDisorder.energy_of_words, aging._clock_series

    def counting(self, words):
        calls.append((self.row_block, words.shape[0]))
        return evaluate(self, words)

    def recording(*args):
        shapes.append(args[1].shape)
        return clock_series(*args)

    _inline(monkeypatch)
    monkeypatch.setattr(PSpinDisorder, "energy_of_words", counting)
    monkeypatch.setattr(aging, "_clock_series", recording)
    estimate_aging(PSPIN, 0.5, 0.5, 0.3, 300, mode="pspin", rng=PSPIN.stream().substream(3))
    assert {block for block, _ in calls} == {655}
    remainders = {length % 655 for _, length in shapes}
    assert all(m == 655 or m in remainders for _, m in calls)
    assert sum(m for _, m in calls) < 0.4 * sum(rows * length for rows, length in shapes)


def test_block_end_value_reads_the_last_listed_step_of_the_block():
    # a 12-step chunk in blocks of 4: row 0 lists steps 1, 2, 3 and 9, row 1
    # step 5 alone (padded with 12), row 2 steps 8 to 11 up to its last slot
    cols = np.array([[1, 2, 3, 9], [5, 12, 12, 12], [8, 9, 10, 11]])
    vals = np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 5.0, 5.0, 5.0], [6.0, 7.0, 8.0, 9.0]])
    rows, at = np.array([0, 0, 1, 2, 2]), np.array([0, 3, 0, 1, 3])
    assert aging._block_end_value(cols, vals, rows, at, 4).tolist() == [3.0, 4.0, 5.0, 9.0, 9.0]


def _off_the_pool(monkeypatch):
    # forked workers keep the module as it was at fork time, so a test that
    # patches it must run its kernels inline; this fails any pooled call
    def no_pool():
        raise AssertionError("a patched kernel call reached the process pool")

    monkeypatch.setattr(core, "_process_pool", no_pool)


def _inline(monkeypatch):
    # a p-spin call of two or more batches goes to the pool whatever its
    # size; on one core it runs inline, where a patch reaches it
    _off_the_pool(monkeypatch)
    monkeypatch.setattr(core, "_cpu_count", lambda: 1)


def _pspin_kernel_bytes():
    return [a.tobytes() for a in aging._aging_kernel(
        PSPIN, 0.5, 0.5, 70, RngStream(41, 25), aging._step_cap(PSPIN, 1.0, 8.0), "pspin"
    )]


def test_pspin_kernel_runs_blas_on_one_thread(monkeypatch):
    # the dense contractions of a p-spin kernel and the hashed ones of an
    # evaluator call see one BLAS thread, and the caller's count comes back
    # after the call, also after a contraction that raises
    api = hamiltonian._openblas()
    if api is None:
        pytest.skip("numpy ships no scipy-openblas library here")
    get, put = api
    threads, seen = get(), []
    fold = PSpinDisorder._fold

    def recording(block, signs):
        seen.append(get())
        return fold(block, signs)

    def failing(block, signs):
        raise RuntimeError("contraction failed")

    hashed = PSpinDisorder(12, 3, RngStream(41, 40), "hashed")
    try:
        put(2)
        _inline(monkeypatch)
        monkeypatch.setattr(PSpinDisorder, "_fold", staticmethod(recording))
        _pspin_kernel_bytes()
        assert seen and set(seen) == {1} and get() == 2
        seen.clear()
        hashed.energy_of_words(np.arange(40, dtype=np.uint64)[:, None])
        assert len(seen) == 12 and set(seen) == {1} and get() == 2
        monkeypatch.setattr(PSpinDisorder, "_fold", staticmethod(failing))
        with pytest.raises(RuntimeError, match="contraction failed"):
            _pspin_kernel_bytes()
        assert get() == 2
    finally:
        put(threads)


def test_concurrent_blas_caps_restore_the_first_count():
    # threads entering and leaving the cap in any interleaving all see one
    # BLAS thread inside it, and the count found first comes back at the end
    api = hamiltonian._openblas()
    if api is None:
        pytest.skip("numpy ships no scipy-openblas library here")
    get, put = api
    threads, seen = get(), []

    def enter_and_leave():
        for _ in range(200):
            with hamiltonian._one_blas_thread():
                seen.append(get())

    interval = sys.getswitchinterval()
    try:
        put(2)
        sys.setswitchinterval(1e-6)
        workers = [threading.Thread(target=enter_and_leave) for _ in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
        assert not any(w.is_alive() for w in workers)
        assert len(seen) == 800 and set(seen) == {1} and get() == 2
    finally:
        sys.setswitchinterval(interval)
        put(threads)


@pytest.mark.parametrize("threads, sets", [(1, []), (3, [1, 3])], ids=["one", "three"])
def test_blas_cap_sets_the_count_only_when_it_is_not_one(monkeypatch, threads, sets):
    # at a count of 1 the cap has nothing to do: an evaluator call, nested
    # caps included, never calls the setter; at another count it sets 1 on
    # the way in and the count it found on the way out, once each
    puts = []
    monkeypatch.setattr(hamiltonian, "_openblas", lambda: (lambda: threads, puts.append))
    dense = PSpinDisorder(10, 3, RngStream(41, 42), "dense")
    with hamiltonian._one_blas_thread():
        dense.energy_of_words(np.arange(8, dtype=np.uint64)[:, None])
    assert puts == sets


@pytest.mark.parametrize("name, stand_in", [
    ("_one_blas_thread", contextlib.nullcontext), ("_openblas", lambda: None),
], ids=["cap-off", "no-library"])
def test_pspin_kernel_bytes_ignore_the_blas_cap(monkeypatch, name, stand_in):
    want = _pspin_kernel_bytes()
    _inline(monkeypatch)
    monkeypatch.setattr(hamiltonian, name, stand_in)
    assert _pspin_kernel_bytes() == want


def test_batch_parallel_kernels_ignore_worker_count(monkeypatch):
    # 70 and 1000 REM replicas are 3 and 32 batches of up to 32, the last
    # one short; the starved cap (factor 0.05) ends batches in the cap
    # clamp; 12 frozen groups; 70 p-spin replicas are three batches. Each
    # case runs inline, and on the process pool at 2 and 3 workers
    caps = [aging._step_cap(PARAMS, 2.0, f) for f in (8.0, 0.05)]
    pspin_cap = aging._step_cap(PSPIN, 1.0, 8.0)
    runs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(core, "_cpu_count", lambda w=workers: w)
        arrays = []
        for cap in caps:
            for replicas in (70, 1000):
                arrays += aging._aging_kernel(PARAMS, 1.0, 1.0, replicas, RngStream(41, 21), cap)
            frozen = aging._frozen_kernel(PARAMS, 1.0, 1.0, 20, 12, RngStream(41, 22), cap)
            arrays += [a for pair in frozen for a in pair]
        arrays += aging._aging_kernel(
            PSPIN, 0.5, 0.5, 70, RngStream(41, 25), pspin_cap, "pspin"
        )
        runs.append([a.tobytes() for a in arrays])
    assert all(run == runs[0] for run in runs[1:])


def _pooled_fold_threads():
    # a pool job: its process, the BLAS thread counts a dense contraction
    # sees inside `_fold`, and the worker's count before and after it
    get, fold, seen = hamiltonian._openblas()[0], vars(PSpinDisorder)["_fold"], []

    def recording(block, signs):
        seen.append(get())
        return fold.__func__(block, signs)

    before = get()
    PSpinDisorder._fold = staticmethod(recording)
    try:
        PSpinDisorder(10, 3, RngStream(41, 42), "dense").energy_of_words(
            np.arange(8, dtype=np.uint64)[:, None]
        )
    finally:
        PSpinDisorder._fold = fold
    return os.getpid(), seen, before, get()


def test_pool_workers_run_blas_on_one_thread(monkeypatch):
    # a worker's contraction caps BLAS as the parent's does, whatever count
    # the worker was forked with, and gives that count back after
    api = hamiltonian._openblas()
    if api is None:
        pytest.skip("numpy ships no scipy-openblas library here")
    get, put = api
    threads = get()
    monkeypatch.setattr(core, "_cpu_count", lambda: 2)
    try:
        put(2)
        for pid, seen, before, after in core._run_jobs(_pooled_fold_threads, [()] * 4):
            assert pid != os.getpid() and seen == [1] and after == before
        assert get() == 2
    finally:
        put(threads)


@pytest.mark.parametrize("fn, job, error", [
    (operator.truediv, (1, 0), ZeroDivisionError), (os._exit, (3,), BrokenProcessPool),
], ids=["job-raises", "worker-dies"])
def test_pool_failure_reaches_the_caller(monkeypatch, fn, job, error):
    # a job that raises, or a worker that dies, fails the call that ran it,
    # and the next call runs on a working pool; an earlier call may have
    # forked the pool with the host's core count
    cores = core._cpu_count()
    monkeypatch.setattr(core, "_cpu_count", lambda: 2)
    with pytest.raises(error):
        core._run_jobs(fn, [job, job])
    pids = core._run_jobs(os.getpid, [()] * 4)
    assert os.getpid() not in pids and len(set(pids)) <= max(cores, 2)


@pytest.mark.parametrize("shared", [False, True])
def test_chunks_keep_the_element_budget(monkeypatch, shared):
    # a 32-replica batch whose replicas retire one by one: every chunk fits
    # the full batch's n0 * chunk elements in whole blocks, survivors run
    # longer chunks, and the last chunk stops at the first block boundary
    # past the cap
    n0, chunk = 32, 8
    cap = aging._step_cap(PARAMS, 2.0, 4.0)
    nu, _, targets, root, floor = aging._kernel_scales(
        PARAMS, 1.0, 1.0, cap, aging._DROPPED_MASS
    )
    shapes = []
    clock_series = aging._clock_series

    def recording(*args):
        shapes.append(args[1].shape)
        return clock_series(*args)

    monkeypatch.setattr(aging, "_clock_series", recording)
    stream = RngStream(41, 60)
    _, excluded, _ = aging._aging_batch(
        aging._landscapes(PARAMS, "rem", stream.substream(3), np.arange(n0)),
        stream.substream(1).generator(), stream.substream(2).generator(),
        PARAMS.N, nu, root, targets, cap, chunk, floor, shared,
    )
    assert 0 < excluded.sum() < n0 // 2
    for rows, length in shapes:
        assert rows * length <= n0 * chunk
        assert length % nu == 0 and length >= chunk
    assert max(length for _, length in shapes) > chunk
    assert cap <= sum(length for _, length in shapes) < cap + chunk


def test_aging_work_special_branches():
    # beta = 0: walk time is the wall e^{gamma N} itself
    beta0 = ModelParams(N=10, p=3, beta=0.0, gamma=0.5)
    assert aging._aging_work(beta0, 2.0, 3) == 3 * 2.0 * math.exp(5.0)
    # alpha = gamma / beta^2 >= 1 has no stable clock to predict from
    assert aging._aging_work(ModelParams(N=10, p=3, beta=1.0, gamma=1.0), 2.0, 3) == math.inf
    deep = ModelParams(N=64, p=3, beta=2.0, gamma=3.6)
    with pytest.raises(OverflowError):
        deep.r_steps(1.0)
    assert aging._aging_work(deep, 2.0, 3) == math.inf


def test_aging_work_prices_a_pspin_step_at_its_couplings():
    # a p-spin step contracts N^p couplings where a REM step hashes once
    beta0 = ModelParams(N=10, p=3, beta=0.0, gamma=0.5)
    for params in (PSPIN, beta0, ModelParams(N=8, p=4, beta=1.5, gamma=1.125)):
        rem = aging._aging_work(params, 2.0, 300)
        assert aging._aging_work(params, 2.0, 300, "rem") == rem
        assert aging._aging_work(params, 2.0, 300, "pspin") == pytest.approx(
            rem * params.N**params.p, rel=1e-14)


class _Pooled(Exception):
    """Raised by a stand-in for the process pool: the call was sent there."""


def _no_threads(monkeypatch):
    # inline calls start no thread; this fails any that does
    def start(thread):
        raise AssertionError("an inline call started a thread")

    monkeypatch.setattr(threading.Thread, "start", start)


def test_calls_of_two_or_more_jobs_go_to_the_pool(monkeypatch):
    # on a 2-core Linux host a call of two or more jobs goes to the pool
    # whatever its size, and a one-job call runs inline: it reaches no pool
    # and starts no thread
    def pool():
        raise _Pooled

    monkeypatch.setattr(core.sys, "platform", "linux")
    monkeypatch.setattr(core, "_cpu_count", lambda: 2)
    monkeypatch.setattr(core, "_process_pool", pool)
    # the N=10 point in REM mode at 64 replicas is two batches and about
    # 4e3 predicted walk steps; 70 p-spin replicas are three batches
    for call in (lambda: estimate_aging(PSPIN, 0.5, 0.5, 0.3, 64),
                 lambda: estimate_aging(PSPIN, 0.5, 0.5, 0.3, 70, mode="pspin"),
                 lambda: estimate_aging_frozen(PARAMS, 0.1, 0.1, 0.3, 2, groups=2),
                 lambda: estimate_range_miss(PARAMS, 1.0, 1.0, 96),
                 lambda: core._run_jobs(os.getpid, [(), ()])):
        with pytest.raises(_Pooled):
            call()
    _no_threads(monkeypatch)
    before = threading.active_count()
    warm = RngStream(3, 3)
    estimate_aging(CRITERION_7, 0.1, 0.1, 0.3, 8, rng=warm)
    estimate_aging(PSPIN, 0.5, 0.5, 0.3, 32, mode="pspin", rng=warm)
    estimate_range_miss(CRITERION_7, 0.1, 0.1, 8, rng=warm)
    assert threading.active_count() == before


def test_large_calls_run_inline_off_linux(monkeypatch):
    # the pool is forked, so only Linux uses it: elsewhere a call of many
    # batches runs inline, and gives the bytes it gives pooled
    replicas, cap = 480, aging._step_cap(PARAMS, 2.0, 8.0)

    def kernel_bytes():
        return [a.tobytes() for a in aging._aging_kernel(
            PARAMS, 1.0, 1.0, replicas, RngStream(41, 29), cap)]

    monkeypatch.setattr(core, "_cpu_count", lambda: 2)
    pooled = kernel_bytes()
    monkeypatch.setattr(core.sys, "platform", "darwin")
    _off_the_pool(monkeypatch)
    _no_threads(monkeypatch)
    assert kernel_bytes() == pooled


def _worker_pids() -> set[int]:
    return {child.pid for child in multiprocessing.active_children()}


def test_no_worker_outlives_a_call(monkeypatch, tmp_path):
    # the pool's workers live on, the same ones for every pooled call, until
    # the interpreter exits and joins them; an earlier call may have forked
    # the pool with the host's core count
    cores = core._cpu_count()
    monkeypatch.setattr(core, "_cpu_count", lambda: 2)
    estimate_aging(PARAMS, 1.0, 1.0, 0.3, 240, rng=RngStream(41, 26))
    workers = _worker_pids()
    assert 0 < len(workers) <= max(cores, 2)
    estimate_aging_frozen(PARAMS, 1.0, 1.0, 0.3, 20, groups=3, rng=RngStream(41, 27))
    assert _worker_pids() == workers
    assert set(core._run_jobs(os.getpid, [()] * 8)) <= workers

    script = (
        "import multiprocessing\n"
        "from trapclock import aging, core\n"
        "from trapclock.core import ModelParams, RngStream\n"
        "core._cpu_count = lambda: 2\n"
        "aging.estimate_aging(ModelParams(N=12, p=3, beta=2.0, gamma=2.0), 1.0, 1.0, 0.3, 96,\n"
        "                     rng=RngStream(41, 26))\n"
        "print(*(child.pid for child in multiprocessing.active_children()))\n"
    )
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(aging.__file__)))
    path = os.pathsep.join(filter(None, [pkg_root, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    res = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                         capture_output=True, timeout=120)
    assert res.returncode == 0, res.stderr.decode()
    pids = [int(pid) for pid in res.stdout.split()]
    assert 0 < len(pids) <= 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_shared_walk_batch_matches_per_replica_for_one_replica():
    # with one replica the broadcast walker row is that replica's own walk,
    # so both modes draw and compute the same; starved caps cover exclusion
    keys = aging._landscapes(PARAMS, "rem", RngStream(41, 28), np.arange(4))
    for factor in (8.0, 0.3):
        cap = aging._step_cap(PARAMS, 2.0, factor)
        nu, chunk, targets, root, floor = aging._kernel_scales(
            PARAMS, 1.0, 1.0, cap, aging._DROPPED_MASS
        )
        for i in range(keys.size):
            runs = []
            for shared in (False, True):
                stream = RngStream(41, 29).substream(i)
                out = aging._aging_batch(
                    keys[i : i + 1], stream.substream(1).generator(),
                    stream.substream(2).generator(), PARAMS.N, nu, root, targets,
                    cap, chunk, floor, shared,
                )
                runs.append([a.tobytes() for a in out])
            assert runs[0] == runs[1]


def _batch_distance_matching_simulate_clock(params, keys, disorder, stream, chunks,
                                            dropped=0.0):
    # one replica, flips and waits on separate generators: the kernel's
    # crossing sites and block value must be those of simulate_clock on the
    # same landscape with the same streams; returns the crossing distance.
    # Above a dropped mass of 0 the reference clock gives the steps below
    # the deep floor a -inf log increment and the deep steps the waits
    # stream's draws in step order
    nu, chunk, *_ = aging._kernel_scales(params, 0.2, 1.0, 1, 0.0)
    cap = chunks * chunk
    _, _, targets, root, floor = aging._kernel_scales(params, 0.2, 1.0, cap, dropped)
    dist, excluded, vstar = aging._aging_batch(
        keys, stream.substream(1).generator(), stream.substream(2).generator(),
        params.N, nu, root, targets, cap, chunk, floor,
    )
    traj, clock, energies = simulate_clock(disorder, params, cap, stream)
    if floor:
        level = gaussian_from_bits(np.array([floor], dtype=np.uint64), np.empty(1))[0]
        deep = energies[:-1] >= level
        assert 0 < deep.mean() < 1
        waits = stream.substream(2).generator().standard_exponential(int(deep.sum()))
        log_incs = np.full(cap, -np.inf)
        log_incs[deep] = root * energies[:-1][deep] + np.log(waits)
        clock = clock_from_log_increments(log_incs)
    values = clock.values
    k1, k2 = (int(np.argmax(values > target)) for target in targets)
    assert not excluded[0] and 0 < k1 <= k2
    words = traj.position_words()
    assert dist[0] == np.bitwise_count(words[k1 - 1] ^ words[k2 - 1]).sum()
    boundaries = values[nu::nu]
    want = boundaries[np.argmax(boundaries > targets[0])]
    assert vstar[0] == pytest.approx(want, rel=1e-9)
    return int(dist[0])


def test_pspin_batch_matches_simulate_clock():
    # one chunk on each replica's dense landscape
    dists = []
    for i in range(6):
        stream = RngStream(41, 30).substream(i)
        disorder = PSpinDisorder(PSPIN.N, PSPIN.p, stream.substream(0), mode="dense")
        keys = np.empty(1, dtype=object)
        keys[0] = disorder
        dists.append(_batch_distance_matching_simulate_clock(PSPIN, keys, disorder, stream, 1))
    assert max(dists) > 0


def test_rem_batch_matches_simulate_clock():
    # replica i's key is that of the RemDisorder on the key stream's
    # substream i, so that disorder sees the kernel's landscape; up to 32
    # chunks per replica
    key_stream = RngStream(41, 34)
    keys = aging._landscapes(PARAMS, "rem", key_stream, np.arange(6))
    dists = []
    for i in range(6):
        stream = RngStream(41, 35).substream(i)
        disorder = RemDisorder(PARAMS.N, key_stream.substream(i))
        dists.append(
            _batch_distance_matching_simulate_clock(PARAMS, keys[i : i + 1], disorder, stream, 32)
        )
    assert max(dists) > 0


def test_rem_batch_matches_masked_clock_at_default_floor():
    # the default floor drops the visits below the deep level, so the
    # kernel must match a clock in which those steps add nothing
    key_stream = RngStream(41, 34)
    keys = aging._landscapes(PARAMS, "rem", key_stream, np.arange(3))
    dists = []
    for i in range(3):
        stream = RngStream(41, 36).substream(i)
        disorder = RemDisorder(PARAMS.N, key_stream.substream(i))
        dists.append(_batch_distance_matching_simulate_clock(
            PARAMS, keys[i : i + 1], disorder, stream, 32, aging._DROPPED_MASS
        ))
    assert max(dists) > 0


def test_rem_stream_is_pinned():
    # SHA-256 of the integer outputs of a fixed aging and frozen run; a
    # change that alters the REM aging stream on purpose updates a digest.
    # Dropped mass 0 keeps every site, so it must give the stream of the
    # exact kernel, recorded before the deep floor existed
    cap = aging._step_cap(PARAMS, 2.0, 8.0)
    digests = []
    for dropped in (0.0, aging._DROPPED_MASS):
        dist, excluded, _ = aging._aging_kernel(
            PARAMS, 1, 1, 300, RngStream(41, 40), cap, dropped=dropped
        )
        frozen = aging._frozen_kernel(PARAMS, 1, 1, 20, 3, RngStream(41, 41), cap,
                                      dropped=dropped)
        arrays = [dist, excluded, *(a for pair in frozen for a in pair)]
        digests.append(hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest())
    assert digests == [
        "eb90b086b9ea72b09d4a54b674d58234b334aa73efbc6d5f9c2c1674dd78aacd",
        "7afd6ed69703d77009f68c21f341fa10b0ddc1d52313b922af9b9c66280c05fd",
    ]


def test_vstar_and_pspin_stream_are_pinned():
    # SHA-256 of the REM kernel's block values at both dropped masses and of
    # the whole dense p-spin kernel output, NaN entries included
    cap = aging._step_cap(PARAMS, 2.0, 8.0)
    arrays = []
    for dropped in (0.0, aging._DROPPED_MASS):
        _, _, vstar = aging._aging_kernel(
            PARAMS, 1, 1, 300, RngStream(41, 40), cap, dropped=dropped
        )
        arrays.append(vstar)
    arrays += aging._aging_kernel(
        PSPIN, 0.5, 0.5, 70, RngStream(41, 25), aging._step_cap(PSPIN, 1.0, 8.0), "pspin"
    )
    assert hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest() == (
        "11eee66db327dc072e8f5bf367fe03d2aaa0d4d9c9afba69edf126f065530d10"
    )


@pytest.mark.parametrize("N, replicas, stream, digest", [
    (16, 96, 26, "fa0e68dc6e65c46605ffea07f8ad7c4cf99d0e3ae46f24905f7c91c20b19fb9e"),
    (20, 40, 27, "b45688702ec79dd1e0d5165faa537d3d21ccf2f5efcf22ebcceb4ae8f98f5606"),
], ids=["N16", "N20"])
def test_larger_pspin_streams_are_pinned(N, replicas, stream, digest):
    # SHA-256 of the whole dense p-spin kernel output at the N=10 gate's
    # point, where the evaluator's row blocks (256 and 163 sites) split a
    # chunk into several contractions; the same with one or two BLAS threads
    params = ModelParams(N, p=3, beta=1.5, gamma=1.125)
    arrays = aging._aging_kernel(
        params, 1.0, 1.0, replicas, RngStream(41, stream),
        aging._step_cap(params, 2.0, 8.0), "pspin",
    )
    assert hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest() == digest


@pytest.mark.parametrize("factor, digest", [
    (8.0, "97c46f5bf972ae61c8d79c30efd73ac4f49b158b672f837647554231290a5eaa"),
    (0.3, "e242a08e123ddb66ad41201baa77a11f22558d2b1e676aa0aeded9cad9e19898"),
], ids=["full-cap", "starved-cap"])
def test_criterion_7_stream_is_pinned(factor, digest):
    # SHA-256 of an aging and a frozen run at criterion 7's point, where
    # about 3% of steps are deep; the starved cap (factor 0.3) excludes
    # replicas and ends batches in the cap-clamped last chunk
    cap = aging._step_cap(CRITERION_7, 2.0, factor)
    dist, excluded, vstar = aging._aging_kernel(CRITERION_7, 1, 1, 256, RngStream(41, 42), cap)
    frozen = aging._frozen_kernel(CRITERION_7, 1, 1, 32, 2, RngStream(41, 43), cap)
    arrays = [dist, excluded, vstar, *(a for pair in frozen for a in pair)]
    assert hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest() == digest


def test_deep_floor_keeps_exactly_the_deep_sites():
    # hash >= floor iff the site's depth is at least the depth at the floor,
    # and the floor is the least such hash: one cell lower falls below z0
    key = RngStream(41, 50).hash_key()
    sites = np.random.default_rng(6).integers(0, 2**63, size=200_000, dtype=np.uint64)
    depths = gaussian_from_hash(key, sites)
    hashes = mix64_array(sites + np.uint64(key))
    cap = aging._step_cap(CRITERION_7, 2.0, 8.0)
    *_, default = aging._kernel_scales(CRITERION_7, 1.0, 1.0, cap, aging._DROPPED_MASS)
    for floor in [aging._deep_floor(z0) for z0 in (-1.5, 0.0, 0.05, 1.85, 3.0)] + [default]:
        kept = hashes >= np.uint64(floor)
        assert 0 < kept.sum() < kept.size
        at_floor, below = gaussian_from_bits(
            np.array([floor, floor - 2048], dtype=np.uint64), np.empty(2)
        )
        assert np.array_equal(kept, depths >= at_floor)
        assert depths[~kept].max() <= below < at_floor
    z0 = aging._deep_level(2 * math.sqrt(20), math.exp(40), cap, aging._DROPPED_MASS)
    assert default == aging._deep_floor(z0) and 1.8 < z0 < 1.9


@pytest.mark.parametrize(
    "root, target1, cap, dropped",
    [(2 * math.sqrt(20), math.exp(40), 1_600_000, 1e-6), (2 * math.sqrt(12), 0.2 * math.exp(24),
     65_536, 1e-6), (1.0, 3.0, 1000, 1e-3), (0.0, 1.0, 50, 1e-9)],
)
def test_deep_level_bounds_the_dropped_mass(root, target1, cap, dropped):
    # cap * E[exp(root Z) 1{Z < z0}] over a standard normal Z, by quadrature,
    # is the dropped mass times the first target
    z0 = aging._deep_level(root, target1, cap, dropped)
    assert z0 < root
    mass, err = quad(lambda z: math.exp(root * z - z * z / 2) / math.sqrt(2 * math.pi),
                     -np.inf, z0, epsabs=0.0, epsrel=1e-13, limit=200)
    assert cap * mass == pytest.approx(dropped * target1, rel=1e-10)


def test_beta_zero_keeps_nearly_every_site():
    params = ModelParams(N=10, p=3, beta=0.0, gamma=0.5, horizon_T=3.0)
    cap = aging._step_cap(params, 2.0, 8.0)
    *_, floor = aging._kernel_scales(params, 1.0, 1.0, cap, aging._DROPPED_MASS)
    assert 0 < floor <= 1e-6 * 2.0**64


def test_deep_level_never_drops_every_site():
    # a step cap too short to reach the dropped mass clamps z0 at root; a
    # level above every finite depth still keeps the top cell; no mass keeps
    # every site
    assert aging._deep_level(1.0, 10.0, 1, 0.5) == 1.0
    assert aging._deep_level(0.0, 10.0, 1, 0.5) == 0.0
    assert aging._deep_floor(20.0) == ((1 << 53) - 1) << 11
    assert aging._deep_level(3.0, 10.0, 100, 0.0) == -math.inf
    assert aging._deep_level(3.0, 0.0, 100, 1e-6) == -math.inf
    assert aging._deep_floor(-math.inf) == 0


@pytest.mark.parametrize("dropped", [-1e-12, 1.0, 2.0, math.nan])
def test_dropped_mass_outside_its_range_is_refused(dropped):
    cap = aging._step_cap(PARAMS, 2.0, 8.0)
    with pytest.raises(ValueError, match="dropped mass"):
        aging._deep_level(1.0, 1.0, cap, dropped)
    with pytest.raises(ValueError, match="dropped mass"):
        aging._aging_kernel(PARAMS, 1, 1, 4, RngStream(41, 51), cap, dropped=dropped)
    with pytest.raises(ValueError, match="dropped mass"):
        aging._frozen_kernel(PARAMS, 1, 1, 4, 2, RngStream(41, 51), cap, dropped=dropped)


def test_pspin_kernel_reads_the_same_couplings_in_either_storage(monkeypatch):
    # one batch, so it runs inline and sees the patched storage bound
    _off_the_pool(monkeypatch)
    cap = aging._step_cap(PSPIN, 1.0, 8.0)

    def run():
        return aging._aging_kernel(PSPIN, 0.5, 0.5, 32, RngStream(41, 28), cap, "pspin")

    dense = run()
    monkeypatch.setattr(hamiltonian, "_DENSE_MAX_ENTRIES", 0)
    assert aging._landscapes(PSPIN, "pspin", RngStream(41, 28), np.arange(1))[0].mode == "hashed"
    hashed = run()
    assert np.array_equal(dense[0], hashed[0])
    assert np.array_equal(dense[1], hashed[1])
    np.testing.assert_allclose(dense[2], hashed[2], rtol=1e-12)


def test_pspin_landscapes_are_keyed_by_replica_index():
    # replica i's couplings depend on i alone, not on its batch
    ids = np.arange(30, 35, dtype=np.uint64)
    got = aging._landscapes(PSPIN, "pspin", RngStream(41, 31), ids)
    for i, disorder in zip(ids, got):
        stream = RngStream(41, 31).substream(int(i))
        want = PSpinDisorder(PSPIN.N, PSPIN.p, stream, mode="dense")
        assert np.array_equal(disorder.couplings, want.couplings)
