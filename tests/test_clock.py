import contextlib
import math
import warnings

import numpy as np
import pytest
import scipy.stats

from trapclock import hamiltonian
from trapclock.clock import (
    InsufficientStepsError,
    RescaledClock,
    clock_from_energies,
    clock_from_log_increments,
    coarse_grain_clock,
    record_point_process,
    rescale_clock,
    simulate_clock,
    truncated_clock,
    truncation_level,
)
from trapclock.core import ModelParams, RngStream
from trapclock.hamiltonian import PSpinDisorder, RemDisorder, trajectory_energies
from trapclock.hypercube import sample_walk


def _params(**kw):
    base = dict(N=16, p=3, beta=1.0, gamma=0.5, horizon_T=1.0)
    base.update(kw)
    return ModelParams(**base)


def test_clock_zero_coupling_law_of_large_numbers():
    params = _params(beta=0.0)
    dis = RemDisorder(16, RngStream(1, 1))
    k = 10_000
    _, clock, _ = simulate_clock(dis, params, k, RngStream(1, 2))
    assert abs(clock.values[-1] / k - 1.0) < 3.0 / math.sqrt(k)


def test_clock_from_injected_exponentials():
    params = _params()
    clock = clock_from_energies(np.zeros(3), np.array([0.5, 1.0, 2.0]), params)
    assert np.allclose(clock.values, [0.0, 0.5, 1.5, 3.5])


def test_clock_starts_at_zero_and_strictly_increases():
    params = _params()
    _, clock, _ = simulate_clock(RemDisorder(16, RngStream(5, 1)), params, 200, RngStream(5, 2))
    assert clock.values[0] == 0.0
    assert np.all(np.diff(clock.log_values[1:]) > 0)
    assert np.isneginf(clock.log_values[0])


def test_clock_increments_are_weighted_exponentials():
    """exp(log-increment - beta sqrt(N) X) must be a unit exponential."""
    params = _params()
    _, clock, energies = simulate_clock(
        RemDisorder(16, RngStream(8, 1)), params, 5000, RngStream(8, 2)
    )
    waits = np.exp(clock.log_incs - params.beta * math.sqrt(params.N) * energies[:-1])
    _, pvalue = scipy.stats.kstest(waits, "expon")
    assert pvalue > 0.01


def test_clock_from_energies_requires_aligned_lengths():
    params = _params()
    with pytest.raises(ValueError):
        clock_from_energies(np.zeros(4), np.ones(3), params)


def test_overflow_switches_to_log_domain():
    params = ModelParams(N=25, p=3, beta=2.0, gamma=0.5)
    clock = clock_from_energies(np.full(3, 500.0), np.ones(3), params)
    assert clock.overflowed
    assert np.isfinite(clock.log_values[1:]).all()
    assert np.isinf(clock.values[1:]).all()


def test_rescale_clock_exact_definition():
    params = _params()
    steps = params.r_steps(1.0) + 1
    _, clock, _ = simulate_clock(RemDisorder(16, RngStream(2, 1)), params, steps, RngStream(2, 2))
    bar = rescale_clock(clock, params)
    assert bar.value_at(0.0) == 0.0
    rate = math.sqrt(params.N) * math.exp(params.N * params.gamma**2 / (2 * params.beta**2))
    for t in (0.11, 0.37, 0.5, 0.93):
        direct = math.exp(-params.gamma * params.N) * clock.values[math.floor(t * rate)]
        assert bar.value_at(t) == pytest.approx(direct, rel=1e-12)
    grid = np.linspace(0.0, 1.0, 64)
    vals = bar.value_at(grid)
    assert np.all(np.diff(vals) >= 0)


def test_rescale_clock_insufficient_steps():
    params = _params()
    _, clock, _ = simulate_clock(RemDisorder(16, RngStream(3, 1)), params, 10, RngStream(3, 2))
    with pytest.raises(InsufficientStepsError):
        rescale_clock(clock, params)


def test_coarse_grain_below_bar_and_equal_on_block_boundaries():
    params = _params()
    steps = params.r_steps(1.0) + 1
    _, clock, _ = simulate_clock(RemDisorder(16, RngStream(4, 1)), params, steps, RngStream(4, 2))
    bar = rescale_clock(clock, params)
    tilde = coarse_grain_clock(clock, params)
    rate = math.sqrt(params.N) * math.exp(params.N * params.gamma**2 / (2 * params.beta**2))
    nu = params.nu()
    grid = np.linspace(0.0, 1.0, 200)
    assert np.all(tilde.value_at(grid) <= bar.value_at(grid) + 1e-15)
    for j in range(1, int(rate / nu)):
        t = j * nu / rate
        # value is flat on [j nu / rate, (j nu + 1) / rate), so nudge inside
        t_in = t + 0.25 / rate
        assert tilde.value_at(t_in) == bar.value_at(t)


def test_coarse_jumps_only_at_block_multiples():
    params = _params()
    steps = params.r_steps(1.0) + 1
    _, clock, _ = simulate_clock(RemDisorder(16, RngStream(6, 1)), params, steps, RngStream(6, 2))
    path = coarse_grain_clock(clock, params).to_step_path(1.0)
    rate = math.sqrt(params.N) * math.exp(params.N * params.gamma**2 / (2 * params.beta**2))
    ids = np.asarray(path.jump_times) * rate / params.nu()
    assert np.allclose(ids, np.round(ids), atol=1e-9)


def test_coarse_grain_gap_is_the_sup_distance():
    # the sup over [0, T] of (plain - coarse-grained) rescaled clock is the
    # largest intra-block accumulation, read off the raw log clock values
    params = _params()
    steps = params.r_steps(1.0) + 1
    _, clock, _ = simulate_clock(RemDisorder(16, RngStream(7, 1)), params, steps, RngStream(7, 2))
    k_max = params.r_steps(params.horizon_T)
    nu = params.nu()
    vals = np.exp(clock.log_values[: k_max + 1] - params.gamma * params.N)
    gap = float(np.max(vals - vals[nu * (np.arange(k_max + 1) // nu)]))
    bar = rescale_clock(clock, params)
    tilde = coarse_grain_clock(clock, params)
    rate = math.sqrt(params.N) * math.exp(params.N * params.gamma**2 / (2 * params.beta**2))
    # sampling just below each step boundary realizes the sup exactly; the
    # horizon itself reads the last step index the gap covers
    ts = (np.arange(1, clock.steps + 1) - 1e-9) / rate
    ts = np.append(ts[ts <= 1.0], params.horizon_T)
    dense_sup = np.max(bar.value_at(ts) - tilde.value_at(ts))
    assert gap == pytest.approx(dense_sup, rel=1e-9)
    assert gap > 0.0


def test_truncation_level_formula():
    params = _params()
    m = 1.7
    expected = params.gamma * math.sqrt(params.N) / params.beta - m / (
        params.beta * math.sqrt(params.N)
    )
    assert truncation_level(params, m) == pytest.approx(expected)


def test_truncated_clock_sandwich_and_limits():
    params = _params()
    steps = params.r_steps(1.0) + 1
    _, clock, energies = simulate_clock(
        RemDisorder(16, RngStream(9, 1)), params, steps, RngStream(9, 2)
    )
    bar = rescale_clock(clock, params)
    full = truncated_clock(clock, energies, params, m=-1e9)
    grid = np.linspace(0.0, 1.0, 50)
    assert np.allclose(full.value_at(grid), bar.value_at(grid), rtol=1e-12)
    prev = bar.value_at(1.0)
    for m in (-2.0, 0.0, 2.0, 4.0):
        cur = truncated_clock(clock, energies, params, m).value_at(1.0)
        assert cur <= prev + 1e-15  # coupled paths: raising m removes mass
        prev = cur


def test_record_point_process_trivial_cases():
    params = _params()
    nu = params.nu()
    quiet = np.zeros(3 * nu + 1)
    assert record_point_process(quiet, params, m=0.0).size == 0
    level = truncation_level(params, 0.0)
    one = np.zeros(3 * nu + 1)
    one[nu + 2] = level + 1.0  # inside block 1
    pts = record_point_process(one, params, m=0.0)
    rate = math.sqrt(params.N) * math.exp(params.N * params.gamma**2 / (2 * params.beta**2))
    assert pts.shape == (1,)
    assert pts[0] == pytest.approx(nu / rate)


def test_record_point_process_gaps_look_exponential():
    """Poissonity diagnostic on REM exceedance blocks (intensity fitted)."""
    params = _params(horizon_T=135.0)  # 4000 steps cover this horizon
    _, _, energies = simulate_clock(
        RemDisorder(16, RngStream(10, 1)), params, 4000, RngStream(10, 2)
    )
    # m = 0 puts the threshold at gamma sqrt(N) / beta = 2 exactly
    assert truncation_level(params, 0.0) == pytest.approx(2.0)
    pts = record_point_process(energies, params, m=0.0)
    gaps = np.diff(pts)
    assert gaps.size > 30
    _, pvalue = scipy.stats.kstest(gaps, "expon", args=(0.0, gaps.mean()))
    assert pvalue > 0.01


@pytest.mark.parametrize("kind", ["rem", "dense"])
def test_simulate_clock_stream_contract(kind):
    """Flips from substream 1, waits from substream 2, energies from
    trajectory_energies; a bare Generator is refused."""
    params = _params()
    k = 400
    if kind == "rem":
        dis = RemDisorder(16, RngStream(12, 1))
    else:
        dis = PSpinDisorder(16, 3, RngStream(12, 1), mode="dense")
    rng = RngStream(12, 2)
    traj, clock, energies = simulate_clock(dis, params, k, rng)
    walk = sample_walk(16, k, rng.substream(1).generator())
    waits = rng.substream(2).generator().exponential(size=k)
    assert np.array_equal(traj.flips, walk.flips)
    assert np.array_equal(energies, trajectory_energies(dis, walk))
    # rebuilding the clock from the reference waits gives the same bytes
    want = clock_from_energies(energies[:-1], waits, params)
    assert clock.log_values.tobytes() == want.log_values.tobytes()
    traj2, clock2, energies2 = simulate_clock(dis, params, k, rng)
    assert np.array_equal(traj2.flips, traj.flips)
    assert clock2.log_values.tobytes() == clock.log_values.tobytes()
    assert energies2.tobytes() == energies.tobytes()
    with pytest.raises(TypeError, match="RngStream"):
        simulate_clock(dis, params, k, np.random.default_rng(12))


def test_dense_simulate_clock_runs_blas_on_one_thread(monkeypatch):
    # the dense contraction sees one OpenBLAS thread, the caller's count comes
    # back after the call, and the bytes are those of an uncapped run
    api = hamiltonian._openblas()
    if api is None:
        pytest.skip("numpy ships no scipy-openblas library here")
    get, put = api
    threads, seen = get(), []
    fold = PSpinDisorder._fold

    def recording(block, signs):
        seen.append(get())
        return fold(block, signs)

    dis = PSpinDisorder(16, 3, RngStream(12, 1), mode="dense")

    def run():
        _, clock, energies = simulate_clock(dis, _params(), 5000, RngStream(12, 2))
        return clock.log_values.tobytes() + energies.tobytes()

    try:
        put(2)
        monkeypatch.setattr(PSpinDisorder, "_fold", staticmethod(recording))
        capped = run()
        assert seen and set(seen) == {1} and get() == 2
        seen.clear()
        monkeypatch.setattr(hamiltonian, "_one_blas_thread", contextlib.nullcontext)
        assert run() == capped and seen and set(seen) == {2}
    finally:
        put(threads)


def test_clock_log_increments_round_trip():
    logs = np.array([-0.5, 1.25, 0.0])
    clock = clock_from_log_increments(logs)
    assert np.allclose(np.exp(clock.log_values[1:]), np.cumsum(np.exp(logs)))
    assert np.array_equal(clock.log_incs, logs)
    assert clock.steps == 3


def test_log_increments_recover_the_drawn_waits():
    # 4000 steps: increments tiny against the running sum must still come
    # back to the digit, so no reconstruction from log_values may cancel
    params = _params()
    k = 4000
    rng = RngStream(12, 3)
    dis = PSpinDisorder(16, 3, RngStream(12, 4), mode="dense")
    _, clock, energies = simulate_clock(dis, params, k, rng)
    waits = rng.substream(2).generator().exponential(size=k)
    root = params.beta * math.sqrt(params.N)
    got = np.exp(clock.log_incs - root * energies[:-1])
    np.testing.assert_allclose(got, waits, rtol=1e-12, atol=0.0)


_SHORT = clock_from_log_increments(np.zeros(5))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: clock_from_energies(np.zeros(3), np.array([1.0, 0.0, 1.0]), _params()),
         ValueError, "waiting variables must be positive"),
        (lambda: simulate_clock(RemDisorder(16, RngStream(1, 1)), _params(), 0, RngStream(1, 2)),
         ValueError, "steps must be >= 1"),
        (lambda: simulate_clock(RemDisorder(8, RngStream(1, 1)), _params(), 5, RngStream(1, 2)),
         ValueError, "disagree on N"),
        (lambda: RescaledClock(_SHORT, _params()).step_index(-0.5),
         ValueError, "t must be >= 0"),
        (lambda: RescaledClock(_SHORT, _params()).value_at(1.0),
         InsufficientStepsError, "query needs step 29 but clock has 5"),
        (lambda: truncated_clock(_SHORT, np.zeros(4), _params(), 1.0),
         ValueError, "energies must cover every increment"),
    ],
    ids=["waits", "steps", "N", "negative_t", "past_clock", "short_energies"],
)
def test_clock_guards(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("block", [1, 5], ids=["plain", "coarse"])
def test_clock_views_refuse_nan_and_infinite_times(block):
    # on a 16-spin REM clock: NaN is no time, and an infinite or huge time
    # needs more steps than any clock holds; neither reaches the int64 cast
    params = _params()
    _, clock, _ = simulate_clock(RemDisorder(16, RngStream(1, 1)), params, 2000, RngStream(1, 2))
    view = RescaledClock(clock, params, block)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (math.nan, np.array([0.1, math.nan])):
            with pytest.raises(ValueError, match="t must not be NaN"):
                view.value_at(t)
        with pytest.raises(InsufficientStepsError, match="needs step inf but clock has 2000"):
            view.value_at(math.inf)
        for t in (1e300, np.array([0.5, math.inf])):
            with pytest.raises(InsufficientStepsError, match="but clock has 2000"):
                view.value_at(t)


def test_coarse_view_reads_up_to_the_last_whole_block():
    # nu = 5: a time that floors to a step past the clock's last one still
    # reads the last block boundary the clock holds, and the next block's
    # first step is refused
    params = _params()
    view = RescaledClock(clock_from_log_increments(np.zeros(12)), params, 5)
    rate = math.exp(params.log_r1())
    assert view.step_index(np.array([4.5, 12.5, 14.5]) / rate).tolist() == [0, 10, 10]
    with pytest.raises(InsufficientStepsError, match="query needs step 15 but clock has 12"):
        view.step_index(15.5 / rate)
