import math

import numpy as np
import pytest
import scipy.stats

from trapclock.core import RngStream
from trapclock.hamiltonian import (
    PSpinDisorder,
    RemDisorder,
    exact_trajectory_sample,
    overlap_matrix,
    trajectory_energies,
)
from trapclock.hypercube import SpinConfig, WalkTrajectory, overlap, sample_walk


def _cache(disorder, config):
    return {"bits": config.bits, "energy": disorder.energy(config)}


def _configs_at_distance(N, d):
    return SpinConfig(N, 0), SpinConfig(N, (1 << d) - 1)


def test_zero_couplings_zero_energy():
    dis = PSpinDisorder(5, 3, RngStream(1, 1), mode="dense")
    dis.couplings[:] = 0.0
    for bits in range(32):
        assert dis.energy(SpinConfig(5, bits)) == 0.0


def test_pspin_energy_variance_is_one():
    draws = np.array(
        [
            PSpinDisorder(6, 3, RngStream(77, i), mode="dense").energy(SpinConfig(6, 0b101001))
            for i in range(4000)
        ]
    )
    se = math.sqrt(2.0 / (draws.size - 1))  # Var of a chi-square based variance estimate
    assert abs(draws.var(ddof=1) - 1.0) < 3 * se
    assert abs(draws.mean()) < 3.0 / math.sqrt(draws.size)


@pytest.mark.parametrize("mode", ["dense", "hashed"])
def test_pspin_energy_covariance_overlap_cubed(mode):
    """Cov(H(sigma), H(tau)) = overlap^p, checked at distance 2, N=8, p=3."""
    a, b = _configs_at_distance(8, 2)
    target = overlap(a, b) ** 3
    assert target == pytest.approx(0.125)
    pairs = np.array(
        [
            (d.energy(a), d.energy(b))
            for d in (PSpinDisorder(8, 3, RngStream(500, i), mode=mode) for i in range(4000))
        ]
    )
    cov = np.cov(pairs.T)[0, 1]
    se = math.sqrt((1.0 + target**2) / (pairs.shape[0] - 1))
    assert abs(cov - target) < 3 * se


def test_energy_delta_involution():
    dis = PSpinDisorder(10, 3, RngStream(9, 2))
    cfg = SpinConfig(10, 0b1100110011)
    e0 = dis.energy(cfg)
    cache = _cache(dis, cfg)
    e1, cache1 = dis.energy_delta(cfg, 4, cache)
    e2, _ = dis.energy_delta(cfg.flip(4), 4, cache1)
    assert e2 == pytest.approx(e0, abs=1e-9)
    assert e1 == pytest.approx(dis.energy(cfg.flip(4)), abs=1e-9)


def test_energy_delta_long_run_agrees_with_full_recompute():
    dis = PSpinDisorder(12, 3, RngStream(31, 0), mode="dense")
    gen = RngStream(31, 1).generator()
    cfg = SpinConfig(12, 0)
    cache = _cache(dis, cfg)
    worst = 0.0
    for _ in range(1000):
        i = int(gen.integers(12))
        e_inc, cache = dis.energy_delta(cfg, i, cache)
        cfg = cfg.flip(i)
        worst = max(worst, abs(e_inc - dis.energy(cfg)))
    assert worst < 1e-9


def test_energy_delta_rejects_stale_cache():
    dis = PSpinDisorder(6, 3, RngStream(2, 2))
    cache = _cache(dis, SpinConfig(6, 0))
    with pytest.raises(ValueError, match="stale"):
        dis.energy_delta(SpinConfig(6, 0b111), 1, cache)


def test_rem_energy_repeatable_and_delta_consistent():
    dis = RemDisorder(16, RngStream(4, 4))
    cfg = SpinConfig(16, 0xBEEF & 0xFFFF)
    assert dis.energy(cfg) == dis.energy(cfg)
    cache = _cache(dis, cfg)
    e1, _ = dis.energy_delta(cfg, 3, cache)
    # the delta path and a fresh hash query are the same pure function
    assert e1 == dis.energy(cfg.flip(3))


def test_rem_distinct_sites_decorrelated():
    dis = RemDisorder(20, RngStream(6, 0))
    vals = np.array([dis.energy_of_bits(b) for b in range(2000)])
    _, pvalue = scipy.stats.kstest(vals, "norm")
    assert pvalue > 0.01


@pytest.mark.parametrize("p", [2, 3, 4])
def test_energy_of_bits_matches_energy(p):
    # 512 configurations span several row blocks at p = 4 (dense)
    bits = np.arange(512, dtype=np.uint64).reshape(16, 32)
    for mode in ("dense", "hashed"):
        dis = PSpinDisorder(9, p, RngStream(13, p), mode=mode)
        es = dis.energy_of_bits(bits)
        assert es.shape == bits.shape
        want = [dis.energy(SpinConfig(9, int(b))) for b in bits.ravel()]
        assert np.max(np.abs(es.ravel() - want)) < 1e-12


@pytest.mark.parametrize("mode", ["dense", "hashed"])
def test_pspin_trajectory_energies_beyond_64_spins(mode):
    dis = PSpinDisorder(70, 2, RngStream(13, 5), mode=mode)
    traj = sample_walk(70, 3000, RngStream(13, 6))
    es = trajectory_energies(dis, traj)
    assert es.shape == (3001,)
    for k in (0, 1, 935, 936, 3000):  # rows 0-935 are the first block
        assert es[k] == pytest.approx(dis.energy(traj.config_at(k)), abs=1e-12)


@pytest.mark.parametrize("N, p, steps", [(30, 3, 5000), (9, 4, 3000), (70, 2, 3000)])
def test_dense_and_hashed_trajectory_energies_agree(N, p, steps):
    """The same couplings, stored or hashed, give the same walk energies;
    each walk spans at least three hashed row blocks."""
    hashed = PSpinDisorder(N, p, RngStream(21, p), mode="hashed")
    dense = PSpinDisorder(N, p, RngStream(21, p), mode="dense")
    dense.couplings = hashed._block({})
    traj = sample_walk(N, steps, RngStream(22, N))
    es = trajectory_energies(hashed, traj)
    assert np.max(np.abs(es - trajectory_energies(dense, traj))) < 1e-12


def test_rem_trajectory_energies_beyond_64_spins():
    # spins 64 and above live in the second word of the folded hash key
    traj = sample_walk(70, 200, RngStream(23, 1))
    dis = RemDisorder(70, RngStream(23, 2))
    es = trajectory_energies(dis, traj)
    assert es.shape == (201,)
    assert list(es) == [dis.energy(c) for c in traj.positions()]
    es = trajectory_energies(dis, WalkTrajectory(SpinConfig(70, 0), (66, 66, 3, 3)))
    assert es[0] == es[2] == es[4]
    assert es[1] != es[0]


@pytest.mark.parametrize("mode", ["dense", "hashed"])
def test_trajectory_energies_match_full_evaluation(mode):
    traj = sample_walk(8, 50, RngStream(3, 3))
    for dis in (
        PSpinDisorder(8, 3, RngStream(12, 0), mode=mode),
        RemDisorder(8, RngStream(12, 1)),
    ):
        es = trajectory_energies(dis, traj)
        assert es.shape == (51,)
        for k in (0, 1, 7, 23, 50):
            assert es[k] == pytest.approx(dis.energy(traj.config_at(k)), abs=1e-9)


def test_trajectory_energies_rem_revisit():
    traj = WalkTrajectory(SpinConfig(10, 0), (2, 2, 5, 5))
    es = trajectory_energies(RemDisorder(10, RngStream(1, 5)), traj)
    assert es[0] == es[2] == es[4]
    assert es[1] != es[0]


def test_overlap_matrix_structure():
    traj = sample_walk(7, 12, RngStream(14, 2))
    om = overlap_matrix(traj)
    assert np.array_equal(om, om.T)
    assert np.allclose(np.diag(om), 1.0)
    for i in (0, 3, 9):
        for j in (1, 5, 12):
            assert om[i, j] == pytest.approx(overlap(traj.config_at(i), traj.config_at(j)))


def test_exact_trajectory_sample_single_point():
    traj = WalkTrajectory(SpinConfig(8, 0), ())
    draws = np.array(
        [exact_trajectory_sample(traj, 3, RngStream(90, i))[0] for i in range(3000)]
    )
    _, pvalue = scipy.stats.kstest(draws, "norm")
    assert pvalue > 0.01


def test_exact_trajectory_sample_pair_correlation():
    # two points at distance 1, N=8, p=3: rho = (1 - 2/8)^3
    traj = WalkTrajectory(SpinConfig(8, 0), (0,))
    xs = np.array([exact_trajectory_sample(traj, 3, RngStream(91, i)) for i in range(6000)])
    rho = np.corrcoef(xs.T)[0, 1]
    target = 0.75**3
    se = (1.0 - target**2) / math.sqrt(xs.shape[0])
    assert abs(rho - target) < 4 * se


def test_exact_sampler_and_disorder_agree_in_law():
    """Dual route: the Gram-factorized sampler and the coupling-tensor field
    must produce the same mean vector and covariance matrix."""
    traj = sample_walk(8, 3, RngStream(15, 15))
    n = 4000
    via_disorder = np.array(
        [trajectory_energies(PSpinDisorder(8, 3, RngStream(600, i)), traj) for i in range(n)]
    )
    via_factor = np.array([exact_trajectory_sample(traj, 3, RngStream(601, i)) for i in range(n)])
    target = overlap_matrix(traj) ** 3
    for sample in (via_disorder, via_factor):
        assert np.max(np.abs(sample.mean(axis=0))) < 4.0 / math.sqrt(n)
        cov = np.cov(sample.T)
        se = np.sqrt((1.0 + target**2) / (n - 1))
        assert np.all(np.abs(cov - target) < 4 * se)


def test_exact_trajectory_sample_rejects_long_trajectories():
    traj = sample_walk(6, 60, RngStream(7, 7))
    with pytest.raises(ValueError):
        exact_trajectory_sample(traj, 3, RngStream(1, 1), max_len=50)
