"""The four benchmark workloads.

Each workload builds its inputs from the seed (`make_inputs`), warms the
code paths it will time (`warm`), and runs one round of public calls with
their output checks (`run_round`). A round is the unit the benchmark
repeats and times. Output checks reuse the bounds of the acceptance suite
(tests/test_acceptance.py), or of the unit tests where the acceptance
suite has none (range-miss, clock views), exactly; only sizes are scaled
down.

Randomness: inputs whose cost carries the timing (replica streams of the
headline aging call, walks, disorders, CLI seeds) come from `--seed`. The
Monte Carlo gates whose chance of failing at an arbitrary seed is not
negligible at these sizes (the criterion 4 |z| grid, criteria 5 and 6,
the aging curve, the window-limit probes, the frozen-chain comparison, the
range-miss check and the p-spin arcsine check) run on the pinned streams of
the acceptance and unit tests, so a failed gate means the program changed,
not that a seed was unlucky.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import shutil
from pathlib import Path

import numpy as np

from trapclock.aging import (
    aging_curve,
    estimate_aging,
    estimate_aging_frozen,
    estimate_range_miss,
)
from trapclock.analysis import RateFunctionParams, upsilon, zeta
from trapclock.blockprocess import GammaCoefficients, block_laplace_mc, sample_block
from trapclock.cli import main as cli_main
from trapclock.clock import (
    clock_from_energies,
    coarse_grain_clock,
    record_point_process,
    rescale_clock,
    simulate_clock,
    truncated_clock,
)
from trapclock.core import ModelParams, RngStream, derive_scales
from trapclock.hamiltonian import PSpinDisorder, RemDisorder, trajectory_energies
from trapclock.hypercube import (
    SpinConfig,
    WalkTrajectory,
    ehrenfest_hitting_linear_solve,
    ehrenfest_hitting_prob,
    no_backtrack_prob,
    sample_walk,
)
from trapclock.skorokhod import CadlagStepPath, j1_distance, m1_distance, modulus_w_prime
from trapclock.stable import arcsine_cdf, range_miss_prob_mc, sample_subordinator

OUT_DIR = Path(__file__).resolve().parent / "out"


def _seed_stream(seed: int) -> RngStream:
    return RngStream(seed, 0x7C10C)


def pava_increasing(values: np.ndarray) -> np.ndarray:
    """Nondecreasing least-squares fit, unit weights (pool adjacent violators)."""
    blocks = []  # [mean, weight, count]
    for v in map(float, values):
        blocks.append([v, 1.0, 1])
        while len(blocks) > 1 and blocks[-2][0] > blocks[-1][0] + 1e-15:
            v1, w1, n1 = blocks.pop()
            v0, w0, n0 = blocks.pop()
            blocks.append([(v0 * w0 + v1 * w1) / (w0 + w1), w0 + w1, n0 + n1])
    return np.concatenate([np.full(n, v) for v, _, n in blocks])


# ----------------------------------------------------------------- rem-aging

REM = ModelParams(N=20, p=3, beta=2.0, gamma=2.0, horizon_T=2.5)
EPS = 0.3
# Sizes keep each phase's share of the round near its share of criterion 7 at
# full scale (headline 65%, curve 12%, window limits 4%, frozen 19%) and keep
# the kernels' arrays wide: a frozen group of 64 replicas walks 64 x 2040-step
# chunks, where array work, not per-chunk Python overhead, sets the time.
HEADLINE_REPLICAS = 1152  # one full 1024-replica kernel batch and a 128-replica one
CURVE_RATIOS = (0.2, 0.35, 0.5, 0.65, 0.8)
CURVE_REPLICAS = 64
LIMIT_S_REPLICAS = 40
LIMIT_T_REPLICAS = 40
FROZEN_GROUPS = 2
FROZEN_PER_GROUP = 64
RANGE_REPLICAS = 96


class RemAging:
    name = "rem-aging"

    def make_inputs(self, seed: int) -> dict:
        base = _seed_stream(seed)
        return {"headline": base.substream(1)}

    def warm(self, inp: dict) -> None:
        derive_scales(REM)
        # a fixed stream: at short horizons some streams exclude a whole frozen
        # group, and the warm-up should neither warn nor depend on the seed
        warm = RngStream(3, 3)
        estimate_aging(REM, 0.1, 0.1, EPS, 8, rng=warm)
        estimate_aging_frozen(REM, 0.1, 0.1, EPS, 2, groups=2, rng=warm)
        estimate_range_miss(REM, 0.1, 0.1, 8, rng=warm)

    def run_round(self, s, inp: dict) -> None:
        with s.phase("headline"):
            head = s.call("aging.estimate_aging.rem", estimate_aging, REM, 1.0, 1.0, EPS,
                          HEADLINE_REPLICAS, rng=inp["headline"])
            s.check(head.excluded <= 0.05 * HEADLINE_REPLICAS, "headline excluded > 5%")
            s.check(abs(head.estimate - 0.5) <= max(0.15, 4.0 * head.stderr),
                    "headline outside max(0.15, 4 se) of 1/2")
            s.digest(head)
            s.values.setdefault("aging_cost_se01_s", []).append(
                s.last_seconds * (head.stderr / 0.01) ** 2)

        with s.phase("curve"):
            curve = s.call("aging.aging_curve.rem", aging_curve, REM, list(CURVE_RATIOS), 1.0,
                           EPS, CURVE_REPLICAS, rng=RngStream(72, 3))
            ests = np.array([e.estimate for e in curve])
            ses = np.array([e.stderr for e in curve])
            resid = float(np.max(np.abs(pava_increasing(ests) - ests)))
            s.check(resid <= 2.0 * float(ses.mean()), "curve isotonic residual > 2 mean se")
            s.digest(*curve)

        with s.phase("window-limits"):
            lim_s = s.call("aging.estimate_aging.rem", estimate_aging, REM, 1.0, 1e-5, EPS,
                           LIMIT_S_REPLICAS, rng=RngStream(71, 5))
            s.check(lim_s.estimate >= 0.98 and 1.0 - lim_s.estimate <= 2.0 * lim_s.stderr,
                    "s -> 0 probe below 0.98 or beyond 2 se of 1")
            lim_t = s.call("aging.estimate_aging.rem", estimate_aging, REM, 1e-7, 4.0, EPS,
                           LIMIT_T_REPLICAS, rng=RngStream(71, 7))
            s.check(lim_t.estimate <= 0.02 and lim_t.estimate <= 2.0 * lim_t.stderr,
                    "ratio -> 0 probe above 0.02 or beyond 2 se of 0")
            s.digest(lim_s, lim_t)

        with s.phase("frozen"):
            frozen = s.call("aging.estimate_aging_frozen.rem", estimate_aging_frozen, REM,
                            1.0, 1.0, EPS, FROZEN_PER_GROUP, groups=FROZEN_GROUPS,
                            rng=RngStream(72, 2))
            combined = math.hypot(frozen.stderr, head.stderr)
            s.check(abs(frozen.estimate - head.estimate) <= 4.0 * combined,
                    "frozen and headline differ by more than 4 combined se")
            s.digest(frozen)

        with s.phase("range-miss"):
            rm = s.call("aging.estimate_range_miss.rem", estimate_range_miss, REM, 1.0, 1.0,
                        RANGE_REPLICAS, rng=RngStream(41, 3))
            # bounds and stream of tests/test_aging.py::test_range_miss_sits_below_two_time
            combined = math.hypot(rm.stderr, head.stderr)
            s.check(rm.estimate <= head.estimate + 4.0 * combined,
                    "range-miss above the two-time estimate by more than 4 se")
            s.check(abs(rm.estimate - rm.arcsine_prediction) < 0.2,
                    "range-miss 0.2 or more from the arcsine prediction")
            s.digest(rm)


# --------------------------------------------------------------- pspin-clock

CLOCK_BETA, CLOCK_GAMMA = 1.5, 0.9
CLOCK_STEPS = {"rem": 10_000, "dense": 5_000, "hashed": 500}
VIEW_STEPS = 100_000
VIEW = ModelParams(N=16, p=3, beta=CLOCK_BETA, gamma=CLOCK_GAMMA, horizon_T=1000.0)
TRUNCATION_M = 1.0
C4_N, C4_P, C4_DRAWS = 6, 3, 300
# the aging CLI preset of criterion 9, at its seed
PSPIN_AGING = ModelParams(N=10, p=3, beta=1.5, gamma=1.125, seed=11)
PSPIN_REPLICAS = 300


class PSpinClock:
    name = "pspin-clock"

    def make_inputs(self, seed: int) -> dict:
        base = _seed_stream(seed)
        p16 = ModelParams(N=16, p=3, beta=CLOCK_BETA, gamma=CLOCK_GAMMA)
        p30 = ModelParams(N=30, p=3, beta=CLOCK_BETA, gamma=CLOCK_GAMMA)
        rem = RemDisorder(16, base.substream(1))
        size = 1 << C4_N
        gray = tuple((i & -i).bit_length() - 1 for i in range(1, size))
        return {
            "clocks": [
                ("rem", rem, p16, base.substream(4)),
                ("dense", PSpinDisorder(16, 3, base.substream(2), mode="dense"), p16,
                 base.substream(5)),
                ("hashed", PSpinDisorder(30, 3, base.substream(3), mode="hashed"), p30,
                 base.substream(6)),
            ],
            "rem": rem,
            "walk": base.substream(7),
            "exps": base.substream(8).generator().standard_exponential(VIEW_STEPS),
            "gray": WalkTrajectory(SpinConfig.all_plus(C4_N), gray),
            "codes": np.array([i ^ (i >> 1) for i in range(size)]),
        }

    def warm(self, inp: dict) -> None:
        derive_scales(VIEW)
        for _, disorder, params, stream in inp["clocks"]:
            simulate_clock(disorder, params, 8, stream)
        trajectory_energies(PSpinDisorder(C4_N, C4_P, RngStream(900, 0)), inp["gray"])
        estimate_aging(PSPIN_AGING, 0.05, 0.05, 0.3, 4, mode="pspin",
                       rng=PSPIN_AGING.stream().substream(99))

    def run_round(self, s, inp: dict) -> None:
        for kind, disorder, params, stream in inp["clocks"]:
            steps = CLOCK_STEPS[kind]
            with s.phase(f"clock-{kind}"):
                traj, clock, energies = s.call(f"clock.simulate_clock.{kind}", simulate_clock,
                                               disorder, params, steps, stream, steps=steps)
                if kind == "rem":
                    again = s.call("hamiltonian.trajectory_energies.rem", trajectory_energies,
                                   disorder, traj, steps=steps)
                    s.check(np.array_equal(energies, again),
                            "simulate_clock REM energies differ from trajectory_energies")
                else:
                    final = s.call(f"hamiltonian.energy.{kind}", disorder.energy,
                                   traj.config_at(traj.length))
                    s.check(abs(final - energies[-1]) <= 1e-9,
                            f"{kind} incremental energy drifted more than 1e-9")
                s.digest(energies, clock.log_values[-1])

        with s.phase("clock-views"):
            rem = inp["rem"]
            walk = s.call("hypercube.sample_walk", sample_walk, 16, VIEW_STEPS, inp["walk"],
                          steps=VIEW_STEPS)
            energies = s.call("hamiltonian.trajectory_energies.rem", trajectory_energies, rem,
                              walk, steps=VIEW_STEPS)
            clock = s.call("clock.clock_from_energies", clock_from_energies, energies[:-1],
                           inp["exps"], VIEW, steps=VIEW_STEPS)
            bar = s.call("clock.rescale_clock", rescale_clock, clock, VIEW)
            tilde = s.call("clock.coarse_grain_clock", coarse_grain_clock, clock, VIEW)
            trunc = s.call("clock.truncated_clock", truncated_clock, clock, energies, VIEW,
                           TRUNCATION_M)
            grid = np.linspace(0.0, VIEW.horizon_T, 257)
            vb = s.call("clock.RescaledClock.value_at", bar.value_at, grid)
            vt = s.call("clock.RescaledClock.value_at", tilde.value_at, grid)
            s.check(bool(np.all(vt <= vb + 1e-15)), "coarse-grained clock above the plain one")
            vr = s.call("clock.RescaledClock.value_at", trunc.value_at, grid)
            s.check(bool(np.all(vr <= vb * (1.0 + 1e-12))), "truncated clock above the plain one")
            points = s.call("clock.record_point_process", record_point_process, energies, VIEW,
                            TRUNCATION_M)
            s.digest(vb, vt, vr, points)

        with s.phase("covariance"):
            # criterion 4 loop at reduced draws: one fresh dense disorder per draw,
            # energies along a Gray-code walk that visits every vertex once
            size = 1 << C4_N
            E = np.empty((C4_DRAWS, size))
            for d in range(C4_DRAWS):
                disorder = s.call("hamiltonian.PSpinDisorder", PSpinDisorder, C4_N, C4_P,
                                  RngStream(900, d))
                E[d, inp["codes"]] = s.call("hamiltonian.trajectory_energies.dense",
                                            trajectory_energies, disorder, inp["gray"],
                                            steps=size - 1)
            bits = np.arange(size, dtype=np.uint64)
            dmat = np.bitwise_count(bits[:, None] ^ bits[None, :]).astype(np.float64)
            pred = (1.0 - 2.0 * dmat / C4_N) ** C4_P
            S1 = E.T @ E / C4_DRAWS
            EE = E * E
            S2 = EE.T @ EE / C4_DRAWS
            var_hat = (S2 - S1**2) * C4_DRAWS / (C4_DRAWS - 1)
            z = (S1 - pred) / np.sqrt(var_hat / C4_DRAWS)
            s.check(float(np.max(np.abs(z))) <= 4.0, "energy covariance |z| > 4")
            s.digest(S1)

        with s.phase("pspin-aging"):
            est = s.call("aging.estimate_aging.pspin", estimate_aging, PSPIN_AGING, 0.5, 0.5, 0.3,
                         PSPIN_REPLICAS, mode="pspin", rng=PSPIN_AGING.stream().substream(3))
            target = float(arcsine_cdf(0.5, 0.5))
            s.check(abs(est.estimate - target) <= 4.0 * est.stderr,
                    "p-spin aging beyond 4 se of arcsine(1/2, 1/2)")
            s.digest(est)


# -------------------------------------------------------------------- limits

C5_SAMPLES = 20_000
C5_LAPLACE_SAMPLES = 40_000
C6_REPLICAS = 4_000
C8_STAIRS = range(2, 10)
C8_PATHS = 100


class Limits:
    name = "limits"

    def make_inputs(self, seed: int) -> dict:
        gen = _seed_stream(seed).substream(1).generator()
        paths = []
        for _ in range(C8_PATHS):
            k = int(gen.integers(1, 6))
            times = np.sort(gen.uniform(0.05, 0.95, size=k))
            while len(np.unique(times)) < k:
                times = np.sort(gen.uniform(0.05, 0.95, size=k))
            heights = np.cumsum(gen.uniform(0.1, 1.0, size=k))
            paths.append(CadlagStepPath(1.0, 0.0, [float(t) for t in times],
                                        [float(h) for h in heights]))
        return {"paths": paths}

    def warm(self, inp: dict) -> None:
        derive_scales(ModelParams(N=36, p=3, beta=1.0, gamma=0.6))
        upsilon(RateFunctionParams(p=3, beta=1.3, gamma=0.6), 0.5)
        sample_subordinator(0.5, 1.0, np.array([0.0, 1.0]), RngStream(0, 0).generator())
        range_miss_prob_mc(0.5, 1.0, 1.0, 8, RngStream(0, 1))
        single = CadlagStepPath(2.0, 0.0, [1.0], [1.0])
        m1_distance(single, single, resolution=16)
        j1_distance(single, single)

    def run_round(self, s, inp: dict) -> None:
        with s.phase("criterion-1"):
            z3 = s.call("analysis.zeta", zeta, 3)
            s.check(abs(z3 - 1.0291) <= 1e-3, "zeta(3) off 1.0291 by more than 1e-3")
            z2 = s.call("analysis.zeta", zeta, 2)
            s.check(abs(z2 - 1.0 / math.sqrt(2.0)) <= 1e-4, "zeta(2) off 2^-1/2 by more than 1e-4")
            sweep = [s.call("analysis.zeta", zeta, p) for p in range(3, 51)]
            head = sweep[:12]
            s.check(all(b >= a for a, b in zip(sweep, sweep[1:]))
                    and all(b > a for a, b in zip(head, head[1:]))
                    and abs(sweep[-1] - math.sqrt(2.0 * math.log(2.0))) < 0.02,
                    "zeta sweep not monotone or zeta(50) off the limit")
            s.digest(z3, z2, sweep)

        with s.phase("criterion-2"):
            h = 1e-4
            cases = [(p, 1.3, 0.6, -4.0) for p in (3, 4, 5)]
            cases += [(2, b, g, 4.0 * (2.0 * g**2 / b**2 - 1.0)) for b, g in ((1.3, 0.6), (1.0, 0.9))]
            for p, beta, gamma, target in cases:
                params = RateFunctionParams(p=p, beta=beta, gamma=gamma)
                u = np.array([0.5 - h, 0.5, 0.5 + h])
                vals = s.call("analysis.upsilon", upsilon, params, u, elements=3)
                fd = float(vals[2] - 2.0 * vals[1] + vals[0]) / h**2
                s.check(abs(float(vals[1])) < 1e-10 and abs(fd - target) <= 1e-3,
                        f"upsilon p={p} not zero at 1/2 or curvature off {target}")
                s.digest(vals)

        with s.phase("criterion-3"):
            worst = 0.0
            for N in range(2, 13):
                for k in range(0, N - 1):
                    for l in range(k + 1, N):
                        for m in range(l + 1, N + 1):
                            exact = s.call("hypercube.ehrenfest_hitting_prob",
                                           ehrenfest_hitting_prob, k, l, m, N)
                            solved = s.call("hypercube.ehrenfest_hitting_linear_solve",
                                            ehrenfest_hitting_linear_solve, k, l, m, N)
                            worst = max(worst, abs(exact - solved))
            s.check(worst <= 1e-10, "Ehrenfest exact and solved differ by more than 1e-10")
            bound_ok = True
            for N in range(1, 65):
                for nu in range(1, N + 1):
                    bound_ok &= s.call("hypercube.no_backtrack_prob", no_backtrack_prob,
                                       N, nu) >= math.exp(-(nu**2) / N)
            s.check(bound_ok, "no_backtrack_prob below exp(-nu^2/N)")
            s.digest(worst)

        with s.phase("criterion-5"):
            coeffs = GammaCoefficients(100, 3, 8)
            U = s.call("blockprocess.sample_block", sample_block, coeffs, RngStream(31, 1),
                       C5_SAMPLES, elements=C5_SAMPLES)
            prods = U[:, :, None] * U[:, None, :]
            emp = prods.mean(axis=0)
            se = prods.std(axis=0, ddof=1) / math.sqrt(C5_SAMPLES)
            pred = np.array([[coeffs.covariance(i, j) for j in range(8)] for i in range(8)])
            off = ~np.eye(8, dtype=bool)
            s.check(float(np.abs((emp - pred)[off] / se[off]).max()) <= 4.0
                    and np.allclose(np.diag(emp), 1.0,
                                    atol=4.0 * float(np.diag(se).max() + 1e-12) + 0.01),
                    "block covariance beyond 4 se")
            params = ModelParams(N=36, p=3, beta=1.0, gamma=0.6)
            u_grid = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
            ests = [s.call("blockprocess.block_laplace_mc", block_laplace_mc, params, float(u),
                           C5_LAPLACE_SAMPLES, RngStream(32, k), elements=C5_LAPLACE_SAMPLES)[0]
                    for k, u in enumerate(u_grid)]
            slope, _ = np.polyfit(np.log(u_grid), np.log(ests), 1)
            s.check(abs(slope - params.gamma / params.beta**2) <= 0.1,
                    "Laplace tail slope off gamma/beta^2 by more than 0.1")
            s.digest(emp, ests)

        with s.phase("criterion-6"):
            grid = np.array([0.0, 0.5, 1.0, 2.0])
            worst = 0.0
            for ai, alpha in enumerate((0.3, 0.5, 0.8)):
                gen = RngStream(64, ai).generator()
                V = np.empty((C6_REPLICAS, 3))
                for r in range(C6_REPLICAS):
                    V[r] = s.call("stable.sample_subordinator", sample_subordinator, alpha, 1.0,
                                  grid, gen, elements=grid.size).values[1:]
                for ti, t in enumerate((0.5, 1.0, 2.0)):
                    for lam in (0.5, 1.0, 2.0):
                        probe = np.exp(-lam * V[:, ti])
                        se = probe.std(ddof=1) / math.sqrt(C6_REPLICAS)
                        worst = max(worst, abs((probe.mean() - math.exp(-t * lam**alpha)) / se))
                s.digest(V)
            s.check(worst <= 3.0, "subordinator Laplace transform beyond 3 se")
            for alpha, t, sw in ((0.5, 1.0, 1.0), (0.3, 1.0, 2.0)):
                est, se = s.call("stable.range_miss_prob_mc", range_miss_prob_mc, alpha, t, sw,
                                 C6_REPLICAS, RngStream(62, int(10 * alpha)),
                                 elements=C6_REPLICAS)
                pred = s.call("stable.arcsine_cdf", arcsine_cdf, alpha, t / (t + sw))
                s.check(abs(est - pred) <= 3.0 * se, "range-miss beyond 3 se of arcsine")
                s.digest(est, se)

        with s.phase("criterion-8"):
            single = CadlagStepPath(2.0, 0.0, [1.0], [1.0])
            worst_excess, min_j1 = -1.0, math.inf
            for n in C8_STAIRS:
                f_n = CadlagStepPath(2.0, 0.0, [1.0 - 1.0 / n, 1.0], [0.5, 1.0])
                m1 = s.call("skorokhod.m1_distance", m1_distance, f_n, single, resolution=512)
                j1 = s.call("skorokhod.j1_distance", j1_distance, f_n, single)
                worst_excess = max(worst_excess, m1 - 1.0 / n)
                min_j1 = min(min_j1, j1)
            s.check(worst_excess <= 1e-9 and min_j1 >= 0.5 - 1e-12,
                    "staircase family not M1-close and J1-separated")
            flat = all(s.call("skorokhod.modulus_w_prime", modulus_w_prime, path, 0.05) == 0.0
                       for path in inp["paths"])
            s.check(flat, "w' nonzero on a monotone path")
            s.digest(worst_excess, min_j1)


# --------------------------------------------------------------- cli-presets

# the eight presets of criterion 9 (tests/test_acceptance.py::CLI_CASES)
CLI_PRESETS = {
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


def run_cli(sub: str, extra: list, seed: int, cwd: Path) -> tuple[int, str, dict]:
    """One in-process CLI run writing to the relative `artifacts` under `cwd`."""
    cwd.mkdir(parents=True, exist_ok=True)
    here = os.getcwd()
    out = io.StringIO()
    try:
        os.chdir(cwd)
        with contextlib.redirect_stdout(out):
            rc = cli_main([sub, *extra, "--seed", str(seed), "--out", "artifacts"])
    finally:
        os.chdir(here)
    art = cwd / "artifacts"
    files = {p.name: p.read_bytes() for p in sorted(art.iterdir())} if art.is_dir() else {}
    return rc, out.getvalue(), files


class CliPresets:
    name = "cli-presets"

    def make_inputs(self, seed: int) -> dict:
        return {"seed": seed % (1 << 31), "tmp": OUT_DIR / f"cli-{os.getpid()}"}

    def warm(self, inp: dict) -> None:
        for sub, extra in CLI_PRESETS.items():
            run_cli(sub, extra, inp["seed"], inp["tmp"] / "warm" / sub)
        shutil.rmtree(inp["tmp"], ignore_errors=True)

    def run_round(self, s, inp: dict) -> None:
        try:
            for sub, extra in CLI_PRESETS.items():
                with s.phase(f"preset-{sub}"):
                    runs = [s.call(f"cli.main.{sub}", run_cli, sub, extra, inp["seed"],
                                   inp["tmp"] / f"{sub}-{rep}") for rep in "ab"]
                    (rc_a, out_a, files_a), (rc_b, out_b, files_b) = runs
                    s.check(rc_a == 0 and rc_b == 0, f"{sub} exit code {rc_a}/{rc_b}")
                    s.check(bool(files_a) and out_a == out_b and files_a == files_b,
                            f"{sub} stdout or artifacts differ across repetitions")
                    s.digest(out_a.encode(), *(name.encode() + data
                                               for name, data in sorted(files_a.items())))
        finally:
            shutil.rmtree(inp["tmp"], ignore_errors=True)


WORKLOADS = {w.name: w for w in (RemAging(), PSpinClock(), Limits(), CliPresets())}
