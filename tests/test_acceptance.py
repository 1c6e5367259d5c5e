"""Acceptance suite: one test per shipped guarantee, fixed seeds throughout.

Each test prints a one-line summary of the measured values next to the
tolerance it is held to, so `pytest -v -s tests/test_acceptance.py` doubles
as the verification report. Monte Carlo tests pin their RngStream seeds;
the z-scores quoted in comments are the values measured at those seeds.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import trapclock
from trapclock.aging import aging_curve, estimate_aging, estimate_aging_frozen
from trapclock.analysis import RateFunctionParams, upsilon, zeta
from trapclock.blockprocess import GammaCoefficients, block_laplace_mc, sample_block
from trapclock.core import ModelParams, RngStream
from trapclock.hamiltonian import PSpinDisorder, trajectory_energies
from trapclock.hypercube import (
    SpinConfig,
    WalkTrajectory,
    ehrenfest_hitting_linear_solve,
    ehrenfest_hitting_prob,
    no_backtrack_prob,
)
from trapclock.skorokhod import (
    CadlagStepPath,
    j1_distance,
    m1_distance,
    modulus_w_prime,
)
from trapclock.stable import arcsine_cdf, range_miss_prob_mc, sample_subordinator


def test_criterion_1_zeta_thresholds():
    """zeta(3) = 1.0291 +- 1e-3, zeta(2) = 2^{-1/2} +- 1e-4, monotone sweep.

    The sweep over p = 3..50 must be nondecreasing and end within 0.02 of
    sqrt(2 log 2). Strict increase is only asserted through p = 14: beyond
    that the increments fall under the bisection tolerance and adjacent
    values may tie. Budget: 2 minutes.
    """
    t0 = time.monotonic()
    z3 = zeta(3)
    z2 = zeta(2)
    assert z3 == pytest.approx(1.0291, abs=1e-3)
    assert z2 == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-4)

    sweep = [zeta(p) for p in range(3, 51)]
    assert all(b >= a for a, b in zip(sweep, sweep[1:]))
    head = sweep[:12]  # p = 3..14
    assert all(b > a for a, b in zip(head, head[1:]))
    limit = math.sqrt(2.0 * math.log(2.0))
    assert abs(sweep[-1] - limit) < 0.02

    elapsed = time.monotonic() - t0
    print(
        f"\ncriterion 1: zeta(3)={z3:.5f} zeta(2)={z2:.6f} "
        f"zeta(50)={sweep[-1]:.6f} (limit {limit:.6f}) [{elapsed:.1f}s]"
    )
    assert elapsed < 120.0


def test_criterion_2_upsilon_zero_and_curvature():
    """Upsilon(1/2) = 0 to 1e-10; centered second difference at u = 1/2.

    With h = 1e-4 the curvature comes out -4 +- 1e-3 for p in {3,4,5}
    (the overlap term is flat to second order at u = 1/2 once p >= 3) and
    4(2 gamma^2/beta^2 - 1) +- 1e-3 for p = 2. Budget: 10 seconds.
    """
    t0 = time.monotonic()
    h = 1e-4
    rows = []
    for p in (3, 4, 5):
        params = RateFunctionParams(p=p, beta=1.3, gamma=0.6)
        assert abs(float(upsilon(params, 0.5))) < 1e-10
        fd = float(
            upsilon(params, 0.5 + h) - 2.0 * upsilon(params, 0.5) + upsilon(params, 0.5 - h)
        ) / h**2
        assert fd == pytest.approx(-4.0, abs=1e-3)
        rows.append((p, fd))

    for beta, gamma in ((1.3, 0.6), (1.0, 0.9)):
        params = RateFunctionParams(p=2, beta=beta, gamma=gamma)
        assert abs(float(upsilon(params, 0.5))) < 1e-10
        fd = float(
            upsilon(params, 0.5 + h) - 2.0 * upsilon(params, 0.5) + upsilon(params, 0.5 - h)
        ) / h**2
        target = 4.0 * (2.0 * gamma**2 / beta**2 - 1.0)
        assert fd == pytest.approx(target, abs=1e-3)
        rows.append((2, fd))

    elapsed = time.monotonic() - t0
    print(f"\ncriterion 2: curvatures {[(p, round(v, 5)) for p, v in rows]} [{elapsed:.1f}s]")
    assert elapsed < 10.0


def test_criterion_3_ehrenfest_and_no_backtrack():
    """Closed-form hitting probabilities against the linear-system route.

    All 1001 admissible (k, l, m) triples for N = 2..12 agree to 1e-10,
    and the distinct-coordinate probability stays above exp(-nu^2/N) for
    every nu <= N <= 64. Budget: 30 seconds.
    """
    t0 = time.monotonic()
    triples = 0
    worst = 0.0
    for N in range(2, 13):
        for k in range(0, N - 1):
            for l in range(k + 1, N):
                for m in range(l + 1, N + 1):
                    exact = ehrenfest_hitting_prob(k, l, m, N)
                    solved = ehrenfest_hitting_linear_solve(k, l, m, N)
                    worst = max(worst, abs(exact - solved))
                    triples += 1
    assert triples == 1001
    assert worst <= 1e-10

    for N in range(1, 65):
        for nu in range(1, N + 1):
            assert no_backtrack_prob(N, nu) >= math.exp(-(nu**2) / N)

    elapsed = time.monotonic() - t0
    print(f"\ncriterion 3: {triples} triples, max |exact - solve| = {worst:.2e} [{elapsed:.1f}s]")
    assert elapsed < 30.0


def test_criterion_4_energy_covariance_is_overlap_power():
    """MC covariance of p-spin energies equals overlap^p, exhaustively.

    N = 6, p = 3: all 64 configurations are visited along one Gray-code
    trajectory per disorder draw (each flip changes one coordinate, so the
    walk's energies cover the cube exactly once). 1e4 draws; every
    configuration pair must match (1 - 2 d/N)^p within 4 standard errors.
    Budget: 2 minutes.
    """
    t0 = time.monotonic()
    N, p, draws = 6, 3, 10_000
    size = 1 << N
    gray_flips = tuple((i & -i).bit_length() - 1 for i in range(1, size))
    traj = WalkTrajectory(SpinConfig.all_plus(N), gray_flips)
    codes = np.array([i ^ (i >> 1) for i in range(size)])

    E = np.empty((draws, size))
    for d in range(draws):
        disorder = PSpinDisorder(N, p, RngStream(900, d))
        E[d, codes] = trajectory_energies(disorder, traj)

    bits = np.arange(size, dtype=np.uint64)
    dmat = np.bitwise_count(bits[:, None] ^ bits[None, :]).astype(np.float64)
    pred = (1.0 - 2.0 * dmat / N) ** p

    S1 = E.T @ E / draws
    EE = E * E
    S2 = EE.T @ EE / draws
    var_hat = (S2 - S1**2) * draws / (draws - 1)
    se = np.sqrt(var_hat / draws)
    z = (S1 - pred) / se
    worst = float(np.max(np.abs(z)))
    assert worst <= 4.0

    elapsed = time.monotonic() - t0
    print(f"\ncriterion 4: {size}x{size} pair grid, max |z| = {worst:.2f} [{elapsed:.1f}s]")
    assert elapsed < 120.0


def test_criterion_5_block_covariance_and_laplace_slope():
    """Slepian block: sampled covariance and the Laplace-tail exponent.

    (a) sample_block at N = 100, p = 3, nu = 8, 1e5 draws reproduces
        cov(U_i, U_j) = 1 - 2p|i-j|/N entrywise within 4 standard errors.
    (b) the one-block Laplace tail at N = 36, beta = 1, gamma = 0.6 has
        log-log slope gamma/beta^2 +- 0.1 across u in [1/4, 4]; the
        multiplicative constant is not pinned, only the exponent.
    Budget: 5 minutes.
    """
    t0 = time.monotonic()
    coeffs = GammaCoefficients(100, 3, 8)
    n = 100_000
    U = sample_block(coeffs, RngStream(31, 1), n)
    prods = U[:, :, None] * U[:, None, :]
    emp = prods.mean(axis=0)
    se = prods.std(axis=0, ddof=1) / math.sqrt(n)
    pred = np.array([[coeffs.covariance(i, j) for j in range(8)] for i in range(8)])
    offdiag = ~np.eye(8, dtype=bool)
    z_cov = np.abs((emp - pred)[offdiag] / se[offdiag])
    assert float(z_cov.max()) <= 4.0
    assert np.allclose(np.diag(emp), 1.0, atol=4.0 * float(np.diag(se).max() + 1e-12) + 0.01)

    params = ModelParams(N=36, p=3, beta=1.0, gamma=0.6)
    u_grid = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
    ests = []
    for k, u in enumerate(u_grid):
        est, _ = block_laplace_mc(params, float(u), 200_000, RngStream(32, k))
        ests.append(est)
    slope, intercept = np.polyfit(np.log(u_grid), np.log(ests), 1)
    target = params.gamma / params.beta**2
    assert abs(slope - target) <= 0.1

    elapsed = time.monotonic() - t0
    print(
        f"\ncriterion 5: cov max |z| = {float(z_cov.max()):.2f}, "
        f"slope = {slope:.4f} (target {target}), K_hat = {math.exp(intercept):.3f} "
        f"[{elapsed:.1f}s]"
    )
    assert elapsed < 300.0


def test_criterion_6_stable_laplace_and_range_miss():
    """Subordinator marginals and the range-miss law against closed forms.

    (a) E[exp(-lambda V_t)] = exp(-t lambda^alpha) within 3 standard errors
        on the 3x3 grid lambda, t in {1/2, 1, 2} for alpha in {0.3, 0.5, 0.8}.
    (b) the range-miss probability matches arcsine_cdf(alpha, t/(t+s))
        within 3 standard errors at (alpha, t, s) = (0.5, 1, 1) and
        (0.3, 1, 2). Budget: 2 minutes.
    """
    t0 = time.monotonic()
    lams = (0.5, 1.0, 2.0)
    ts = (0.5, 1.0, 2.0)
    grid = np.array([0.0, 0.5, 1.0, 2.0])
    replicas = 20_000
    worst = 0.0
    for ai, alpha in enumerate((0.3, 0.5, 0.8)):
        gen = RngStream(64, ai).generator()
        V = np.empty((replicas, 3))
        for r in range(replicas):
            V[r] = sample_subordinator(alpha, 1.0, grid, gen).values[1:]
        for ti, t in enumerate(ts):
            for lam in lams:
                probe = np.exp(-lam * V[:, ti])
                se = probe.std(ddof=1) / math.sqrt(replicas)
                z = abs((probe.mean() - math.exp(-t * lam**alpha)) / se)
                worst = max(worst, z)
    assert worst <= 3.0

    zs = []
    for alpha, t, s in ((0.5, 1.0, 1.0), (0.3, 1.0, 2.0)):
        est, se = range_miss_prob_mc(alpha, t, s, replicas, RngStream(62, int(10 * alpha)))
        pred = float(arcsine_cdf(alpha, t / (t + s)))
        zs.append(abs(est - pred) / se)
        assert abs(est - pred) <= 3.0 * se
    elapsed = time.monotonic() - t0
    print(
        f"\ncriterion 6: Laplace grid max |z| = {worst:.2f}, "
        f"range-miss |z| = {[round(z, 2) for z in zs]} [{elapsed:.1f}s]"
    )
    assert elapsed < 120.0


def test_criterion_7_rem_aging_toward_arcsine():
    """REM two-time estimates around the arcsine law at N = 20, alpha = 1/2.

    Headline: t = s = 1, 2e4 replicas, estimate within max(0.15, 4 se) of
    arcsine_cdf(1/2, 1/2) = 1/2. The curve over t/(t+s) is monotone within
    noise (isotonic residual under twice the average stderr). The window
    limits are probed at extreme ratios with hard closeness bounds plus a
    2 se consistency check. Frozen-trajectory and unconditional estimates
    agree within combined error.

    The N -> infinity limit itself is NOT reproduced at this scale: N = 20
    carries visible finite-size bias (the epsilon-ball occupies ~1e-3 of
    the cube, early deep straddles decay only slowly in t), so the suite
    demonstrates statistical consistency with the limit, not convergence.
    Budget: 10 minutes.
    """
    t0 = time.monotonic()
    params = ModelParams(N=20, p=3, beta=2.0, gamma=2.0, horizon_T=2.5)
    assert params.alpha() == pytest.approx(0.5)

    head = estimate_aging(params, 1.0, 1.0, 0.3, 20_000, rng=RngStream(72, 1))
    tol = max(0.15, 4.0 * head.stderr)
    assert not head.non_conclusive
    assert head.excluded <= 0.05 * 20_000
    assert abs(head.estimate - 0.5) <= tol

    curve = aging_curve(params, [0.2, 0.35, 0.5, 0.65, 0.8], 1.0, 0.3, 1200,
                        rng=RngStream(72, 3))
    ests = np.array([e.estimate for e in curve])
    ses = np.array([e.stderr for e in curve])
    iso = _pava_increasing(ests)
    resid = float(np.max(np.abs(iso - ests)))
    assert resid <= 2.0 * float(ses.mean())

    lim_s = estimate_aging(params, 1.0, 1e-5, 0.3, 600, rng=RngStream(71, 5))
    assert lim_s.estimate >= 0.98
    assert 1.0 - lim_s.estimate <= 2.0 * lim_s.stderr

    lim_t = estimate_aging(params, 1e-7, 4.0, 0.3, 600, rng=RngStream(71, 7))
    assert lim_t.estimate <= 0.02
    assert lim_t.estimate <= 2.0 * lim_t.stderr

    frozen = estimate_aging_frozen(params, 1.0, 1.0, 0.3, 150, groups=12,
                                   rng=RngStream(72, 2))
    combined = math.hypot(frozen.stderr, head.stderr)
    assert abs(frozen.estimate - head.estimate) <= 4.0 * combined

    elapsed = time.monotonic() - t0
    print(
        f"\ncriterion 7: headline {head.estimate:.4f} +- {head.stderr:.4f} "
        f"(target 0.5 +- {tol:.4f}); curve residual {resid:.4f} vs {2 * ses.mean():.4f}; "
        f"s->0 {lim_s.estimate:.4f}, ratio->0 {lim_t.estimate:.4f}; "
        f"frozen {frozen.estimate:.4f} +- {frozen.stderr:.4f} [{elapsed:.1f}s]"
    )
    print(
        "criterion 7: NOTE the N -> infinity arcsine limit is not reproduced "
        "at desk scale; N = 20 shows finite-size bias and these checks assert "
        "consistency within quoted errors only."
    )
    assert elapsed < 600.0


def _pava_increasing(values: np.ndarray) -> np.ndarray:
    """Pool-adjacent-violators fit, nondecreasing, unit weights."""
    blocks = [[float(v), 1.0, [i]] for i, v in enumerate(values)]
    changed = True
    while changed:
        changed = False
        for i in range(len(blocks) - 1):
            if blocks[i][0] > blocks[i + 1][0] + 1e-15:
                v0, w0, i0 = blocks[i]
                v1, w1, i1 = blocks[i + 1]
                blocks[i] = [(v0 * w0 + v1 * w1) / (w0 + w1), w0 + w1, i0 + i1]
                del blocks[i + 1]
                changed = True
                break
    out = np.empty(len(values))
    for v, _, idx in blocks:
        out[idx] = v
    return out


def test_criterion_8_m1_j1_separation_and_monotone_modulus():
    """The split-jump family separates M1 from J1; w' vanishes on monotone paths.

    f_n jumps to 1/2 at 1 - 1/n and to 1 at 1; against the single unit jump
    m1(f_n, f) <= 1/n + grid slack while j1(f_n, f) >= 1/2 for all n <= 64.
    On 100 random nondecreasing step paths the modulus w' is exactly zero.
    Budget: 30 seconds.
    """
    t0 = time.monotonic()
    single = CadlagStepPath(2.0, 0.0, [1.0], [1.0])
    worst_excess = -1.0
    min_j1 = math.inf
    for n in range(2, 65):
        f_n = CadlagStepPath(2.0, 0.0, [1.0 - 1.0 / n, 1.0], [0.5, 1.0])
        m1 = m1_distance(f_n, single, resolution=512)
        j1 = j1_distance(f_n, single)
        worst_excess = max(worst_excess, m1 - 1.0 / n)
        min_j1 = min(min_j1, j1)
    assert worst_excess <= 1e-9
    assert min_j1 >= 0.5 - 1e-12

    gen = RngStream(81, 0).generator()
    for _ in range(100):
        k = int(gen.integers(1, 6))
        times = np.sort(gen.uniform(0.05, 0.95, size=k))
        while len(np.unique(times)) < k:
            times = np.sort(gen.uniform(0.05, 0.95, size=k))
        heights = np.cumsum(gen.uniform(0.1, 1.0, size=k))
        path = CadlagStepPath(1.0, 0.0, [float(t) for t in times],
                              [float(h) for h in heights])
        assert modulus_w_prime(path, 0.05) == 0.0

    elapsed = time.monotonic() - t0
    print(
        f"\ncriterion 8: max(m1 - 1/n) = {worst_excess:.2e}, min j1 = {min_j1:.4f} "
        f"[{elapsed:.1f}s]"
    )
    assert elapsed < 30.0


CLI_CASES = {
    "zeta": ["--p", "3", "--tol", "1e-4"],
    "upsilon": ["--p", "2", "--beta", "1.0", "--gamma", "0.5", "--grid", "201"],
    "block-laplace": ["--beta", "1.0", "--gamma", "0.6", "--N-list", "16,25",
                      "--u", "0.5,1", "--samples", "4000"],
    "simulate-clock": ["--N", "16", "--beta", "1.5", "--gamma", "0.9"],
    "aging": ["--N", "10", "--beta", "1.5", "--gamma", "1.125",
              "--t", "0.5", "--s", "0.5", "--replicas", "300"],
    "subordinator": ["--alpha", "0.5", "--replicas", "4000", "--grid-points", "101"],
    "skorokhod-demo": ["--n", "16"],
    "ehrenfest-validate": ["--N", "10"],
}


def _run_cli(sub: str, extra: list, cwd) -> tuple[bytes, dict]:
    cmd = [sys.executable, "-m", "trapclock.cli", sub, *extra,
           "--seed", "11", "--out", "artifacts"]
    # the child starts in `cwd`, where a relative PYTHONPATH entry such as
    # `src` finds nothing: put the directory this test imported trapclock
    # from first, so the child runs the same package
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(trapclock.__file__)))
    path = os.pathsep.join(filter(None, [pkg_root, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    res = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, timeout=120)
    assert res.returncode == 0, (sub, res.stderr.decode())
    outdir = cwd / "artifacts"
    files = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
    assert files, sub
    return res.stdout, files


def test_criterion_9_cli_runs_are_byte_identical(tmp_path):
    """Every subcommand, fixed seed, run twice: stdout and artifacts match.

    The two runs live in separate working directories with the same relative
    output path, so any nondeterminism (or absolute path leaking into an
    artifact) would break the byte comparison. Each preset stays under the
    60 second smoke budget.
    """
    for sub, extra in CLI_CASES.items():
        t0 = time.monotonic()
        dir_a = tmp_path / f"{sub}-a"
        dir_b = tmp_path / f"{sub}-b"
        dir_a.mkdir()
        dir_b.mkdir()
        out_a, files_a = _run_cli(sub, extra, dir_a)
        out_b, files_b = _run_cli(sub, extra, dir_b)
        assert out_a == out_b, sub
        assert sorted(files_a) == sorted(files_b), sub
        for name in files_a:
            assert files_a[name] == files_b[name], (sub, name)
        elapsed = time.monotonic() - t0
        print(f"\ncriterion 9: {sub} reproducible, {len(files_a)} artifacts [{elapsed:.1f}s]")
        assert elapsed < 120.0  # two runs, 60 s each
