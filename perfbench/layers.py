"""Per-layer probes: timed calls into each trapclock module's public functions.

Every probe runs at a fixed size and a fixed stream, independent of the
workload and its seed, so a traced run of any workload reports the same
set of layer figures. Each timed call is a span on the run's tracer, and
the figure is work done over the median span time. The `control.*`
figures time numpy and scipy primitives at the REM chunk shape; no change
to trapclock can move them, so they measure host drift.
"""

from __future__ import annotations

import math
import shutil
import statistics
import time

import numpy as np
from scipy.special import ndtri

from trapclock.aging import (
    aging_curve,
    estimate_aging,
    estimate_aging_frozen,
    estimate_range_miss,
)
from trapclock.analysis import RateFunctionParams, upsilon, zeta
from trapclock.blockprocess import GammaCoefficients, block_laplace_mc, sample_block
from trapclock.clock import (
    clock_from_energies,
    coarse_grain_clock,
    record_point_process,
    rescale_clock,
    simulate_clock,
    truncated_clock,
)
from trapclock.core import ModelParams, RngStream, gaussian_from_hash, mix64_array
from trapclock.hamiltonian import PSpinDisorder, RemDisorder, trajectory_energies
from trapclock.hypercube import (
    SpinConfig,
    ehrenfest_hitting_linear_solve,
    ehrenfest_hitting_prob,
    sample_walk,
)
from trapclock.skorokhod import CadlagStepPath, j1_distance, m1_distance
from trapclock.stable import (
    arcsine_cdf,
    range_miss_prob_mc,
    sample_one_sided_stable,
    sample_subordinator,
)

from workloads import CLI_PRESETS, EPS, OUT_DIR, PSPIN_AGING, REM, VIEW, run_cli

CHUNK = (256, 2048)  # one REM kernel chunk at N = 20: 256 replicas x 2040-step rows

# host-drift baselines measured at the re-anchor (2 cores, numpy 2.4.6, scipy 1.17.1)
CONTROL_BASELINE = {
    "philox_integers": 102.0,
    "philox_exponential": 72.0,
    "xor_accumulate": 246.0,
    "ndtri": 42.0,
    "exp_mul": 214.0,
    "cumsum": 269.0,
}


class Probe:
    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.metrics: dict[str, float] = {}

    def time(self, name: str, fn, reps: int = 3, **counts) -> float:
        """Median wall seconds of `reps` calls of `fn`, each in its own span."""
        times = []
        for _ in range(reps):
            with self.tracer.span(name, **counts):
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def rate(self, metric: str, span: str, work: float, scale: float, fn, reps: int = 3):
        """Record work per second over `scale` (1e6 for M-units, 1e3 for k-units)."""
        self.metrics[metric] = work / self.time(span, fn, reps, elements=int(work)) / scale

    def latency(self, metric: str, span: str, calls: int, scale: float, fn, reps: int = 3):
        """Record seconds per call times `scale` (1e6 for us, 1e3 for ms)."""
        self.metrics[metric] = self.time(span, fn, reps, calls=calls) / calls * scale


def controls(p: Probe) -> None:
    gen = RngStream(1, 1).generator()
    n = CHUNK[0] * CHUNK[1]
    flips = gen.integers(0, REM.N, size=CHUNK).astype(np.uint64)
    waits = gen.standard_exponential(size=CHUNK)
    energies = gen.standard_normal(size=CHUNK)
    uniforms = gen.random(size=CHUNK)
    root = REM.beta * math.sqrt(REM.N)
    one = np.uint64(1)
    cases = {
        "philox_integers": lambda: gen.integers(0, REM.N, size=CHUNK),
        "philox_exponential": lambda: gen.standard_exponential(size=CHUNK),
        "xor_accumulate": lambda: np.bitwise_xor.accumulate(one << flips, axis=1),
        "ndtri": lambda: ndtri(uniforms),
        "exp_mul": lambda: waits * np.exp(root * energies),
        "cumsum": lambda: np.cumsum(waits, axis=1),
    }
    for key, fn in cases.items():
        p.rate(f"control.{key}.melem_s", f"control.{key}", n, 1e6, fn, reps=5)


def core(p: Probe) -> None:
    n = CHUNK[0] * CHUNK[1]
    sites = np.arange(n, dtype=np.uint64).reshape(CHUNK)
    p.rate("core.mix64_array.melem_s", "core.mix64_array", n, 1e6,
           lambda: mix64_array(sites), reps=5)
    idx = np.arange(n, dtype=np.uint64)
    p.rate("core.gaussian_from_hash.melem_s", "core.gaussian_from_hash", n, 1e6,
           lambda: gaussian_from_hash(0x5EED, idx))
    p.latency("core.rngstream_generator.us", "core.RngStream.generator", 200, 1e6,
              lambda: [RngStream(7, i).generator() for i in range(200)])


def hypercube(p: Probe) -> None:
    gen = RngStream(2, 1).generator()
    p.rate("hypercube.sample_walk.msteps_s", "hypercube.sample_walk", 100_000, 1e6,
           lambda: sample_walk(16, 100_000, gen))

    def flips():
        cfg = SpinConfig.all_plus(16)
        for i in range(20_000):
            cfg = cfg.flip(i & 15)

    p.rate("hypercube.spinconfig_flip.kflips_s", "hypercube.SpinConfig.flip", 20_000, 1e3, flips)

    def triples():
        for N in range(2, 13):
            for k in range(0, N - 1):
                for l in range(k + 1, N):
                    for m in range(l + 1, N + 1):
                        ehrenfest_hitting_prob(k, l, m, N)
                        ehrenfest_hitting_linear_solve(k, l, m, N)

    p.latency("hypercube.ehrenfest_triple.us", "hypercube.ehrenfest_triples", 1001, 1e6, triples)


def _delta_walk(disorder, flips) -> None:
    cfg = SpinConfig.all_plus(disorder.N)
    cache = {"bits": cfg.bits, "energy": disorder.energy(cfg)}
    for f in flips:
        _, cache = disorder.energy_delta(cfg, f, cache)
        cfg = cfg.flip(f)


def hamiltonian(p: Probe) -> None:
    gen = RngStream(3, 1).generator()
    rem = RemDisorder(16, RngStream(3, 2))
    dense = PSpinDisorder(16, 3, RngStream(3, 3), mode="dense")
    hashed = PSpinDisorder(30, 3, RngStream(3, 4), mode="hashed")
    for kind, disorder, calls in (("rem", rem, 2000), ("dense", dense, 1000), ("hashed", hashed, 100)):
        flips = [int(f) for f in gen.integers(0, disorder.N, size=calls)]
        p.rate(f"hamiltonian.energy_delta.{kind}.kcalls_s", f"hamiltonian.energy_delta.{kind}",
               calls, 1e3, lambda d=disorder, f=flips: _delta_walk(d, f))
    long_walk = sample_walk(16, 100_000, gen)
    p.rate("hamiltonian.trajectory_energies.rem.ksteps_s", "hamiltonian.trajectory_energies.rem",
           100_000, 1e3, lambda: trajectory_energies(rem, long_walk))
    short_walk = sample_walk(16, 1000, gen)
    p.rate("hamiltonian.trajectory_energies.dense.ksteps_s",
           "hamiltonian.trajectory_energies.dense", 1000, 1e3,
           lambda: trajectory_energies(dense, short_walk))
    p.latency("hamiltonian.pspin_disorder_init.us", "hamiltonian.PSpinDisorder", 200, 1e6,
              lambda: [PSpinDisorder(6, 3, RngStream(900, d)) for d in range(200)])


def clock(p: Probe) -> None:
    p16 = ModelParams(N=16, p=3, beta=VIEW.beta, gamma=VIEW.gamma)
    p30 = ModelParams(N=30, p=3, beta=VIEW.beta, gamma=VIEW.gamma)
    cases = (
        ("rem", RemDisorder(16, RngStream(4, 1)), p16, 5000),
        ("dense", PSpinDisorder(16, 3, RngStream(4, 2), mode="dense"), p16, 2000),
        ("hashed", PSpinDisorder(30, 3, RngStream(4, 3), mode="hashed"), p30, 200),
    )
    for kind, disorder, params, steps in cases:
        p.rate(f"clock.simulate_clock.{kind}.ksteps_s", f"clock.simulate_clock.{kind}", steps, 1e3,
               lambda d=disorder, q=params, k=steps: simulate_clock(d, q, k, RngStream(4, 9)))
    gen = RngStream(4, 5).generator()
    n = 1_000_000
    energies = gen.standard_normal(n)
    exps = gen.standard_exponential(n)
    p.rate("clock.clock_from_energies.msteps_s", "clock.clock_from_energies", n, 1e6,
           lambda: clock_from_energies(energies, exps, VIEW))
    walk_energies = trajectory_energies(RemDisorder(16, RngStream(4, 6)),
                                        sample_walk(16, 100_000, gen))
    path = clock_from_energies(walk_energies[:-1], exps[:100_000], VIEW)
    grid = np.linspace(0.0, VIEW.horizon_T, 257)

    def views():
        for view in (rescale_clock(path, VIEW), coarse_grain_clock(path, VIEW),
                     truncated_clock(path, walk_energies, VIEW, 1.0)):
            view.value_at(grid)
        record_point_process(walk_energies, VIEW, 1.0)

    p.latency("clock.views.ms", "clock.views", 1, 1e3, views)


def aging(p: Probe) -> None:
    replicas = 64
    t_head = p.time("aging.estimate_aging.rem",
                    lambda: estimate_aging(REM, 1.0, 1.0, EPS, replicas, rng=RngStream(5, 1)),
                    reps=1, replicas=replicas)
    p.metrics["aging.estimate_aging.rem.replicas_s"] = replicas / t_head
    # computed, not counted: expected steps replicas * r1 * h^alpha / Gamma(1 + alpha),
    # the work model behind the CLI's --max-work refusal
    alpha = REM.alpha()
    predicted = replicas * REM.r_steps(1.0) * 2.0**alpha / math.gamma(1.0 + alpha)
    p.metrics["aging.predicted_msteps_s"] = predicted / t_head / 1e6
    ratios = [0.35, 0.65]
    p.rate("aging.aging_curve.rem.replicas_s", "aging.aging_curve.rem", 16 * len(ratios), 1.0,
           lambda: aging_curve(REM, ratios, 1.0, EPS, 16, rng=RngStream(5, 2)), reps=1)
    p.rate("aging.estimate_aging_frozen.rem.replicas_s", "aging.estimate_aging_frozen.rem", 16, 1.0,
           lambda: estimate_aging_frozen(REM, 1.0, 1.0, EPS, 8, groups=2, rng=RngStream(5, 3)),
           reps=1)
    p.rate("aging.estimate_range_miss.rem.replicas_s", "aging.estimate_range_miss.rem", 32, 1.0,
           lambda: estimate_range_miss(REM, 1.0, 1.0, 32, rng=RngStream(5, 4)), reps=1)
    p.rate("aging.estimate_aging.pspin.replicas_s", "aging.estimate_aging.pspin", 64, 1.0,
           lambda: estimate_aging(PSPIN_AGING, 0.5, 0.5, 0.3, 64, mode="pspin",
                                  rng=RngStream(5, 5)), reps=1)


def stable(p: Probe) -> None:
    gen = RngStream(6, 1).generator()
    p.rate("stable.sample_one_sided_stable.mdraws_s", "stable.sample_one_sided_stable",
           1_000_000, 1e6, lambda: sample_one_sided_stable(0.5, 1_000_000, gen))
    grid = np.array([0.0, 0.5, 1.0, 2.0])
    p.latency("stable.sample_subordinator.us", "stable.sample_subordinator", 2000, 1e6,
              lambda: [sample_subordinator(0.5, 1.0, grid, gen) for _ in range(2000)])
    p.rate("stable.range_miss_prob_mc.kreplicas_s", "stable.range_miss_prob_mc", 4000, 1e3,
           lambda: range_miss_prob_mc(0.5, 1.0, 1.0, 4000, RngStream(6, 2)))
    xs = np.linspace(0.01, 0.99, 200)
    p.latency("stable.arcsine_cdf.us", "stable.arcsine_cdf", 200, 1e6,
              lambda: [arcsine_cdf(0.5, float(x)) for x in xs])


def analysis(p: Probe) -> None:
    p.latency("analysis.zeta.ms", "analysis.zeta", 1, 1e3, lambda: zeta(3))
    u = np.linspace(0.0, 1.0, 100_000)
    params = RateFunctionParams(p=3, beta=1.3, gamma=0.6)
    p.rate("analysis.upsilon.melem_s", "analysis.upsilon", u.size, 1e6, lambda: upsilon(params, u))


def blockprocess(p: Probe) -> None:
    coeffs = GammaCoefficients(100, 3, 8)
    p.rate("blockprocess.sample_block.ksamples_s", "blockprocess.sample_block", 100_000, 1e3,
           lambda: sample_block(coeffs, RngStream(7, 1), 100_000))
    params = ModelParams(N=36, p=3, beta=1.0, gamma=0.6)
    p.rate("blockprocess.block_laplace_mc.ksamples_s", "blockprocess.block_laplace_mc", 200_000,
           1e3, lambda: block_laplace_mc(params, 1.0, 200_000, RngStream(7, 2)))


def skorokhod(p: Probe) -> None:
    stair = CadlagStepPath(2.0, 0.0, [1.0 - 1.0 / 8, 1.0], [0.5, 1.0])
    single = CadlagStepPath(2.0, 0.0, [1.0], [1.0])
    p.latency("skorokhod.m1_distance.ms", "skorokhod.m1_distance", 1, 1e3,
              lambda: m1_distance(stair, single, resolution=512))
    p.latency("skorokhod.j1_distance.ms", "skorokhod.j1_distance", 50, 1e3,
              lambda: [j1_distance(stair, single) for _ in range(50)])


def cli(p: Probe) -> None:
    tmp = OUT_DIR / "probe-cli"
    try:
        for sub, extra in CLI_PRESETS.items():
            p.latency(f"cli.main.{sub}.ms", f"cli.main.{sub}", 1, 1e3,
                      lambda s=sub, e=extra: run_cli(s, e, 11, tmp / s))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


LAYERS = (core, hypercube, hamiltonian, clock, aging, stable, analysis, blockprocess, skorokhod, cli)


def run_probes(tracer, include_layers: bool) -> dict[str, float]:
    """Host-drift controls always; every layer probe when `include_layers`."""
    p = Probe(tracer)
    controls(p)
    if include_layers:
        for layer in LAYERS:
            with tracer.span(f"layer.{layer.__name__}"):
                layer(p)
    return p.metrics
