import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from trapclock.core import RngStream
from trapclock.hypercube import (
    SpinConfig,
    WalkTrajectory,
    _walk_into,
    binomial_half_pmf,
    distance_distribution,
    ehrenfest_hitting_linear_solve,
    ehrenfest_hitting_prob,
    hamming,
    mixing_constant_estimate,
    no_backtrack_prob,
    overlap,
    sample_walk,
)


def test_overlap_identities():
    a = SpinConfig(10, 0b0000000111)
    assert overlap(a, a) == 1.0
    flipped = SpinConfig(10, a.bits ^ ((1 << 10) - 1))
    assert overlap(a, flipped) == -1.0
    # distance 3 from the all-zero configuration
    assert overlap(SpinConfig(10, 0), a) == pytest.approx(0.4)
    assert hamming(SpinConfig(10, 0), a) == 3


def test_overlap_rejects_mismatched_n():
    with pytest.raises(ValueError):
        overlap(SpinConfig(4, 0), SpinConfig(5, 0))


def test_sample_walk_flip_indices_uniform():
    """Flip-index histogram over 1e5 steps passes a chi-square test."""
    traj = sample_walk(8, 100_000, RngStream(42, 0))
    counts = np.bincount(traj.flips, minlength=8)
    _, pvalue = scipy.stats.chisquare(counts)
    assert pvalue > 0.01


def test_walk_distance_bounded_by_step_count():
    traj = sample_walk(12, 30, RngStream(9, 1))
    for k in range(31):
        assert hamming(traj.config_at(0), traj.config_at(k)) <= k


def test_walk_consecutive_configs_differ_by_one():
    traj = sample_walk(9, 25, RngStream(17, 4))
    for k in range(25):
        assert hamming(traj.config_at(k), traj.config_at(k + 1)) == 1


@pytest.mark.parametrize("N", [12, 64, 70, 130])
def test_word_rows_agree_across_layers(N):
    """Row k of position_words is config_at(k).words(), spin i in bit i % 64
    of word i // 64, on an empty walk too; for N <= 64 the chunk builder's
    walk gives the same rows."""
    start = SpinConfig(N, (1 << (N - 1)) | 5)
    walk = WalkTrajectory(start, RngStream(8, N).generator().integers(0, N, size=200))
    assert walk.flips.dtype == np.int64 and not walk.flips.flags.writeable
    rows = walk.position_words()
    assert rows.dtype == np.uint64 and rows.shape == (201, (N + 63) // 64)
    for k in range(walk.length + 1):
        config = walk.config_at(k)
        assert np.array_equal(rows[k], config.words())
        assert sum(int(w) << (64 * j) for j, w in enumerate(rows[k])) == config.bits
    empty = WalkTrajectory(start, ())
    assert np.array_equal(empty.position_words(), start.words()[None])
    if N <= 64:
        kernel = np.empty(walk.length + 1, dtype=np.uint64)
        _walk_into(kernel, np.uint64(start.bits), walk.flips)
        assert np.array_equal(kernel, rows[:, 0])


@pytest.mark.parametrize("bad", [-1, 6, 7])
def test_walk_rejects_out_of_range_flips(bad):
    start = SpinConfig(6, 0)
    with pytest.raises(ValueError, match="out of range"):
        WalkTrajectory(start, (0, 5, bad, 2))
    with pytest.raises(ValueError, match="out of range"):
        WalkTrajectory(start, np.array([bad]))


def test_walk_rejects_non_vector_flips():
    with pytest.raises(ValueError, match="one-dimensional"):
        WalkTrajectory(SpinConfig(6, 0), [[0, 1], [2, 3]])


def test_ehrenfest_hitting_small_chain():
    # first-step analysis on N=3: from 1, up w.p. 2/3 then absorbed at 2,
    # down w.p. 1/3 absorbed at 0
    assert ehrenfest_hitting_prob(0, 1, 2, 3) == pytest.approx(2.0 / 3.0)


def test_ehrenfest_hitting_matches_linear_solver():
    for N in range(2, 9):
        for k in range(N - 1):
            for m in range(k + 2, N + 1):
                for l in range(k + 1, m):
                    closed = ehrenfest_hitting_prob(k, l, m, N)
                    solved = ehrenfest_hitting_linear_solve(k, l, m, N)
                    assert abs(closed - solved) < 1e-10


def test_ehrenfest_hitting_rejects_bad_ordering():
    with pytest.raises(ValueError):
        ehrenfest_hitting_prob(2, 2, 4, 8)
    with pytest.raises(ValueError):
        ehrenfest_hitting_prob(1, 3, 3, 8)


@given(st.data())
def test_ehrenfest_hitting_monotone_in_start(data):
    N = data.draw(st.integers(min_value=3, max_value=20))
    k = data.draw(st.integers(min_value=0, max_value=N - 3))
    m = data.draw(st.integers(min_value=k + 3, max_value=N))
    l1 = data.draw(st.integers(min_value=k + 1, max_value=m - 2))
    l2 = data.draw(st.integers(min_value=l1 + 1, max_value=m - 1))
    assert ehrenfest_hitting_prob(k, l1, m, N) <= ehrenfest_hitting_prob(k, l2, m, N)


def test_distance_distribution_first_steps():
    p0 = distance_distribution(6, 0)
    assert p0[0] == 1.0 and p0[1:].sum() == 0.0
    p1 = distance_distribution(6, 1)
    assert p1[1] == 1.0


@given(st.integers(min_value=1, max_value=16), st.integers(min_value=0, max_value=40))
def test_distance_distribution_is_a_distribution(N, k):
    p = distance_distribution(N, k)
    assert p.shape == (N + 1,)
    assert abs(p.sum() - 1.0) < 1e-12
    assert (p >= -1e-15).all()


def test_distance_distribution_mixes_to_binomial():
    # desk-scale mixing bound with K = 1: k >= N^2 log N
    N = 10
    k = math.ceil(N * N * math.log(N))
    avg = 0.5 * (distance_distribution(N, k) + distance_distribution(N, k + 1))
    assert np.max(np.abs(avg - binomial_half_pmf(N))) < 1e-6


def test_no_backtrack_exact_values():
    assert no_backtrack_prob(10, 3) == pytest.approx(0.72)
    assert no_backtrack_prob(10, 1) == 1.0


def test_no_backtrack_lower_bound():
    for N in range(1, 25):
        for nu in range(1, N + 1):
            assert no_backtrack_prob(N, nu) >= math.exp(-(nu * nu) / N)


def test_no_backtrack_rejects_nu_above_n():
    with pytest.raises(ValueError):
        no_backtrack_prob(4, 5)


def test_walk_matches_ehrenfest_projection():
    """Empirical law of dist(Y(0), Y(k)) against the exact projected chain."""
    N, k, reps = 10, 9, 10_000
    ends = np.empty(reps, dtype=np.int64)
    for r in range(reps):
        traj = sample_walk(N, k, RngStream(1000, r))
        ends[r] = hamming(traj.config_at(0), traj.config_at(k))
    expected = distance_distribution(N, k) * reps
    observed = np.bincount(ends, minlength=N + 1)
    mask = expected > 0
    assert observed[~mask].sum() == 0
    _, pvalue = scipy.stats.chisquare(observed[mask], expected[mask])
    assert pvalue > 0.01


def test_mixing_constant_is_self_consistent():
    N, target = 8, 1e-6
    K = mixing_constant_estimate(N)
    assert K > 0
    k = math.ceil(K * N * N * math.log(N))
    avg = 0.5 * (distance_distribution(N, k) + distance_distribution(N, k + 1))
    tv = 0.5 * np.abs(avg - binomial_half_pmf(N)).sum()
    assert tv <= target * 1.01
