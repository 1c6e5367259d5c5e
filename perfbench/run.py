#!/usr/bin/env python3
"""trapclock benchmark: one workload per process, tracing off or on.

    python3 perfbench/run.py --workload rem-aging --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 15

A run builds the workload's inputs from the seed, times the set-up
(import, inputs, warm-up) five times, in this process and in child
processes before and after the rounds, and reports the median. It
repeats rounds of the workload's public calls and their output checks
until `--seconds` have passed. `--trace 0` reports the end-to-end metrics
of BENCHMARK.json; `--trace 1` alternates untraced and traced rounds,
runs the per-layer probes, writes the spans, and reports the per-layer
metrics. The last line of standard output is the JSON result; a report
with every figure goes to perfbench/out/. `--workload all` runs each
workload in its own process and prints one table.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# child processes that repeat the set-up, before the rounds and again after them, so the
# samples span the run; with the run's own set-up, 5 samples
SETUP_PROBES = 2

# BLAS and OpenMP pools stay within the CPUs this process may use; set before numpy loads
NPROC = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    _cur = os.environ.get(_var, "")
    _threads = int(_cur) if _cur.isdigit() and int(_cur) > 0 else NPROC
    os.environ[_var] = str(min(_threads, NPROC))


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def set_up(name: str, seed: int):
    """Import trapclock from this checkout, build inputs, warm caches; timed."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import trapclock

    if Path(trapclock.__file__).resolve().parent != SRC / "trapclock":
        raise SystemExit(f"error: imported trapclock from {trapclock.__file__}, not {SRC}")
    import workloads

    wl = workloads.WORKLOADS[name]
    inputs = wl.make_inputs(seed)
    wl.warm(inputs)
    return time.perf_counter() - t0, wl, inputs


def setup_samples(name: str, seed: int) -> list[float]:
    out = []
    for _ in range(SETUP_PROBES):
        res = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
        )
        out.append(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def run_round(wl, inputs, session, label: str) -> tuple[float, bool]:
    """One timed round; returns (seconds, completed)."""
    from session import CallFailed

    session.tracer.run_id = label
    t0 = time.perf_counter()
    try:
        with session.tracer.span("round"):
            wl.run_round(session, inputs)
        done = True
    except CallFailed:
        done = False
    return time.perf_counter() - t0, done


def _calls(session, prefix: str) -> tuple[list[float], Counter]:
    """Call times and summed totals of every call whose name starts with `prefix`."""
    times, totals = [], Counter()
    for name, secs in session.seconds.items():
        if name.startswith(prefix):
            times.extend(secs)
            totals.update(session.totals[name])
    return times, totals


def workload_figures(session, round_times) -> dict:
    """Every end-to-end figure of the issue, None where the workload has no such call."""
    aging_s, aging = _calls(session, "aging.")
    clock_s, clocks = _calls(session, "clock.simulate_clock.")
    cli = sorted(t * 1e3 for t in _calls(session, "cli.main.")[0])
    replicas, excluded = aging["replicas"], aging["excluded"]
    cost = session.values.get("aging_cost_se01_s")
    return {
        # the mean round, i.e. the timed phase over its rounds: host speed here drifts
        # between two levels for seconds at a time, and a median over rounds would
        # jump between the levels where the mean moves in proportion
        "wall_s": statistics.fmean(round_times),
        "fail_frac": len(session.failures) / max(session.attempted, 1),
        "excluded_frac": excluded / replicas if replicas else None,
        "aging_replicas_per_s": (replicas - excluded) / sum(aging_s) if aging_s else None,
        "aging_cost_se01_s": statistics.median(cost) if cost else None,
        "clock_steps_per_s": clocks["steps"] / sum(clock_s) if clock_s else None,
        "call_p50_ms": statistics.median(cli) if cli else None,
        "call_p90_ms": statistics.quantiles(cli, n=10, method="inclusive")[8] if len(cli) > 1 else None,
        "call_samples": len(cli),
        "rounds": len(round_times),
    }


UNITS = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "fail_frac": "frac",
    "excluded_frac": "frac", "aging_replicas_per_s": "replicas/s", "aging_cost_se01_s": "s",
    "clock_steps_per_s": "steps/s", "call_p50_ms": "ms", "call_p90_ms": "ms",
}


def print_figures(name: str, figs: dict) -> None:
    for key, unit in UNITS.items():
        val = figs.get(key)
        shown = "n/a (no such call in this workload)" if val is None else f"{val:.6g} {unit}"
        extra = ""
        if key.startswith("call_p") and val is not None:
            extra = f" (n={figs['call_samples']})"
            if key == "call_p90_ms" and figs["call_samples"] < 100:
                extra += " fewer than 10 samples beyond p90"
        print(f"{name}  {key:22s} {shown}{extra}")


def main_one(args, spec) -> int:
    from tracing import NullTracer, Tracer

    setup_first, wl, inputs = set_up(args.workload, args.seed)
    import layers
    from session import Session
    from workloads import OUT_DIR

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    plain = Session(NullTracer())
    traced = Session(Tracer()) if args.trace else None
    setups = [setup_first] if args.trace else [setup_first, *setup_samples(args.workload, args.seed)]

    plain_times, traced_times, complete = [], [], True
    start = time.perf_counter()
    i = 0
    while complete:
        dt, complete = run_round(wl, inputs, plain, f"{args.workload}-{args.seed}-plain{i}")
        plain_times.append(dt)
        if traced is not None and complete:
            dt, complete = run_round(wl, inputs, traced, f"{args.workload}-{args.seed}-traced{i}")
            traced_times.append(dt)
        i += 1
        if time.perf_counter() - start >= args.seconds:
            break

    # peak memory of the rounds, read before the probes below allocate their own arrays
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not args.trace:
        setups += setup_samples(args.workload, args.seed)
    round_selfs = traced.tracer.self_times() if traced is not None else {}
    probe_tracer = traced.tracer if traced is not None else NullTracer()
    probe_tracer.run_id = f"{args.workload}-{args.seed}-probes"
    layer_metrics = layers.run_probes(probe_tracer, include_layers=bool(args.trace))

    sessions = [plain] if traced is None else [plain, traced]
    attempted = sum(x.attempted for x in sessions)
    failed = [f for x in sessions for f in x.failures]
    figs = workload_figures(plain, plain_times)
    figs["setup_s"] = statistics.median(setups)
    figs["peak_rss_mb"] = peak_rss_mb
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    print(f"{args.workload}  why: {why}")
    print(f"{args.workload}  seed {args.seed}, {figs['rounds']} untraced round(s), "
          f"{attempted} operations, setup samples {[round(x, 4) for x in setups]}")
    print_figures(args.workload, figs)
    for (op_name, reason), n in sorted(Counter(failed).items()):
        print(f"{args.workload}  FAILED {op_name}: {reason} (x{n})")
    print(f"{args.workload}  digest {plain.hexdigest()}")
    for key, base in layers.CONTROL_BASELINE.items():
        val = layer_metrics[f"control.{key}.melem_s"]
        print(f"{args.workload}  control.{key}.melem_s {val:.1f} (re-anchor {base:.0f})")

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "why": why, "figures": figs, "setup_samples": setups,
              "round_s": plain_times, "digest": plain.hexdigest(),
              "failed": failed, "layers": layer_metrics}
    if traced is not None:
        overhead = (statistics.fmean(traced_times) / statistics.fmean(plain_times) - 1.0
                    if traced_times else float("nan"))  # nan: the first round failed
        layer_metrics["trace.overhead_frac"] = overhead
        report["traced_round_s"] = traced_times
        spans_path = OUT_DIR / f"{stem}.spans.json"
        traced.tracer.write(spans_path)
        print(f"{args.workload}  trace.overhead_frac {overhead:.4f}; spans in {spans_path}")
        print(f"{args.workload}  self time of the traced rounds by span name "
              "(share: total time over that of all rounds):")
        rounds_s = round_selfs.get("round", {}).get("total_s")  # no round if the first failed
        for name, agg in sorted(round_selfs.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"{args.workload}  self {agg['self_s']:9.4f} s  total {agg['total_s']:9.4f} s"
                  f"  share {agg['total_s'] / rounds_s:6.1%}  x{agg['calls']:<6d} {name}")
        chosen = spec["per_layer"]
        values = layer_metrics
    else:
        chosen = spec["end_to_end"]
        values = figs
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen}
    result = {"correct": complete and not failed, "attempted": attempted,
              "failed": len(failed), "metrics": metrics}
    print(json.dumps(result))
    return 0


def main_all(args, spec) -> int:
    """Each workload in its own process; the table lists their JSON results."""
    status = 0
    rows = []
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(res.stdout[: res.stdout.rstrip().rfind("\n") + 1])
        if res.returncode != 0:
            sys.stderr.write(res.stderr)
            status = 1
            continue
        result = json.loads(res.stdout.strip().splitlines()[-1])
        status |= not result["correct"]
        rows.append((w["name"], result))
    print()
    for name, result in rows:
        cells = "  ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items())
        print(f"{name:12s} correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']}  {cells}")
    return status


def main(argv=None) -> int:
    if not (SRC / "trapclock" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no trapclock sources under {SRC} or no BENCHMARK.json in {ROOT}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.setup_probe:
        seconds, _, _ = set_up(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds}))
        return 0
    if args.workload == "all":
        return main_all(args, spec)
    return main_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
