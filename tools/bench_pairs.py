#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark and of the test suite,
summarized into one BENCH_<pr>.json.

    python3 tools/bench_pairs.py --parent ../parent --change ../change --pr 24 \\
        --workloads limits cli-presets --seeds 601-610 \\
        --tests tests/test_acceptance.py::test_criterion_6_stable_laplace_and_range_miss \\
        --test-pairs 10 --tier1-pairs 2 --trace-pairs 3 --out BENCH_24.json

`--parent` and `--change` are two checkouts of the repository (for example
`git archive` of each commit unpacked into its own directory); every run
happens inside one of them, so neither writes into the other. Pair i runs
the parent first when i is even and the change first when it is odd.

- Workloads: `perfbench/run.py --workload W --seed S --trace 0`, one pair
  per seed, each run as long as BENCHMARK.json's `run_seconds`. Every
  end-to-end metric of the change's BENCHMARK.json is kept, and one figure
  no bound gates, `children_peak_rss_mb`: the largest peak RSS of the run's
  child processes (`RUSAGE_CHILDREN`, read by a wrapper that runs
  `perfbench/run.py` in its own interpreter, after the pool workers are
  joined at exit). Those children are the package's pool workers and the
  set-up probes; `peak_rss_mb` (`RUSAGE_SELF`) sees neither. On Linux a
  forked child's peak counts the pages it shares with the parent, and an
  exec'd probe keeps the high-water mark of the address space it replaced,
  so the figure is at least the parent's resident set when it last forked
  or spawned a child: it shows a child only where one peaks above that.
- Digests: one `--seconds 0` round of each workload per side, at the first
  seed; both output digests are kept, and whether they match. The digest
  of a timed run depends on how many rounds fit, so only these compare.
- `--tests`: the named tests under pytest, one pair per `--test-pairs`; the
  call time of each test (from `--durations=0`) is kept. These are the
  figures for acceptance-criterion times.
- `--tier1-pairs`: the whole suite under its tier-1 command; the suite time
  pytest reports is kept.
- `--trace-pairs`: `--trace 1` runs of the first workload, one pair per
  seed from the first; every per-layer metric of BENCHMARK.json is kept.

Every pytest run's passed, failed and error counts and exit code are kept
per side; a run that prints no summary line stops the script.

For each metric the file holds both sides' runs, medians and quartiles, and
the number of pairs the change won (ties count for neither side).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
DURATION = re.compile(r"^\s*([0-9.]+)s call\s+(\S+)")
SUMMARY = re.compile(r"^=*\s*(.*) in ([0-9.]+)s")
COUNT = re.compile(r"(\d+) (passed|failed|errors?)\b")


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


# `python -c CHILDREN script args...` runs the script as `python script
# args...` would; its exit hook, registered before the script's, runs after
# theirs (the pool's shutdown joins the workers) and prints the children's
# peak RSS as a JSON line on standard error
CHILDREN = """\
import atexit, json, os, resource, runpy, sys
atexit.register(lambda: print(json.dumps({"children_peak_rss_mb": resource.getrusage(
    resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0}), file=sys.stderr))
sys.argv = sys.argv[1:]
sys.path[0] = os.path.dirname(os.path.abspath(sys.argv[0]))
runpy.run_path(sys.argv[0], run_name="__main__")
"""
CHILD_FIGURE = {"name": "children_peak_rss_mb", "unit": "MB", "better": "lower"}


def _run(cmd: list[str], root: Path, timeout: float) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                          timeout=timeout)


def bench(root: Path, workload: str, seed: int, trace: int, *extra: str) -> dict:
    res = _run([sys.executable, "-c", CHILDREN, "perfbench/run.py", "--workload", workload,
                "--seed", str(seed), "--trace", str(trace), *extra], root, 1800)
    if res.returncode != 0:
        raise SystemExit(f"{root}: {workload} seed {seed} exited {res.returncode}\n{res.stderr}")
    lines = res.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    values = {k: m["value"] for k, m in result["metrics"].items()}
    values.update(json.loads(next(ln for ln in reversed(res.stderr.splitlines())
                                  if ln.startswith('{"children_peak_rss_mb"'))))
    digest = next(ln.split()[-1] for ln in lines if ln.startswith(f"{workload}  digest "))
    return {"correct": result["correct"], "values": values, "digest": digest}


def pytest_times(root: Path, args: list[str], tests: list[str]) -> dict:
    """The suite time pytest reports, its outcome counts and exit code, and
    each test's call time."""
    res = _run([*args, "--durations=0", "--durations-min=0", *tests], root, 3600)
    calls, summary = {}, None
    for line in res.stdout.splitlines():
        m = DURATION.match(line)
        if m:
            calls[m.group(2)] = float(m.group(1))
        elif COUNT.search(line):
            summary = SUMMARY.match(line) or summary
    if summary is None:
        raise SystemExit(f"{root}: pytest printed no summary line (exit {res.returncode})\n"
                         f"{res.stdout[-2000:]}{res.stderr[-2000:]}")
    counts = {"passed": 0, "failed": 0, "errors": 0}
    for n, what in COUNT.findall(summary.group(1)):
        counts["errors" if what.startswith("error") else what] += int(n)
    return {**counts, "returncode": res.returncode,
            "suite_s": float(summary.group(2)), "calls": calls}


def outcomes(runs) -> dict:
    """Each side's pytest outcome counts and exit codes, one entry per pair."""
    keys = ("passed", "failed", "errors", "returncode")
    return {side: {k: [pair[i][k] for pair in runs] for k in keys}
            for i, side in enumerate(("parent", "change"))}


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    def side(xs):
        if len(xs) < 2:
            return {"median": statistics.median(xs), "q1": xs[0], "q3": xs[0]}
        q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
        return {"median": med, "q1": q1, "q3": q3}

    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    return {"better": better, "pairs": len(parent), "change_wins": wins,
            "parent": {**side(parent), "runs": parent},
            "change": {**side(change), "runs": change}}


def in_pairs(n: int, one, label: str):
    """Run `one(side, i)` for n alternating pairs; yields (parent, change) results."""
    for i in range(n):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {}
        for name in order:
            got[name] = one(name, i)
            print(f"{label} pair {i + 1}/{n} {name} done", file=sys.stderr, flush=True)
        yield got["parent"], got["change"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--workloads", nargs="*", default=[])
    ap.add_argument("--seeds", default="0", help="one seed per pair: N or LO-HI")
    ap.add_argument("--trace-pairs", type=int, default=0)
    ap.add_argument("--tests", nargs="*", default=[])
    ap.add_argument("--test-pairs", type=int, default=0)
    ap.add_argument("--tier1-pairs", type=int, default=0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    seeds = _seeds(args.seeds)
    if args.trace_pairs and not args.workloads:
        ap.error("--trace-pairs traces the first of --workloads; name one")

    import numpy
    import scipy

    out = {"pr": args.pr, "host": {"cpus": len(os.sched_getaffinity(0)),
                                   "python": platform.python_version(),
                                   "numpy": numpy.__version__, "scipy": scipy.__version__},
           "run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}, "tests": {}}

    def paired(workload, trace, metrics, n):
        runs = list(in_pairs(n, lambda side, i: bench(roots[side], workload, seeds[i], trace),
                             workload))
        entry = {"correct": {"parent": [p["correct"] for p, _ in runs],
                             "change": [c["correct"] for _, c in runs]}}
        for m in metrics:
            entry[m["name"]] = {"unit": m["unit"], **summarize(
                [p["values"][m["name"]] for p, _ in runs],
                [c["values"][m["name"]] for _, c in runs], m["better"])}
        return entry

    for w in args.workloads:
        out["workloads"][w] = paired(w, 0, [*spec["end_to_end"], CHILD_FIGURE], len(seeds))
        digests = {side: bench(root, w, seeds[0], 0, "--seconds", "0")["digest"]
                   for side, root in roots.items()}
        out["workloads"][w]["digest"] = {"seed": seeds[0], **digests,
                                         "match": digests["parent"] == digests["change"]}
    if args.trace_pairs:
        w = args.workloads[0]
        out["layers"] = {"workload": w, **paired(w, 1, spec["per_layer"], args.trace_pairs)}

    if args.tests and args.test_pairs:
        runs = list(in_pairs(args.test_pairs, lambda side, i: pytest_times(
            roots[side], [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
            args.tests), "tests"))
        out["tests"]["outcomes"] = outcomes(runs)
        for test in args.tests:
            if any(test not in r["calls"] for pair in runs for r in pair):
                print(f"{test}: not run on both sides, left out", file=sys.stderr)
                continue
            out["tests"][test.rsplit("::", 1)[-1] + "_s"] = {"unit": "s", **summarize(
                [p["calls"][test] for p, _ in runs], [c["calls"][test] for _, c in runs],
                "lower")}
    if args.tier1_pairs:
        runs = list(in_pairs(args.tier1_pairs, lambda side, i: pytest_times(
            roots[side], TIER1, []), "tier-1"))
        out["tests"]["tier1_s"] = {"unit": "s", **summarize(
            [p["suite_s"] for p, _ in runs], [c["suite_s"] for _, c in runs], "lower")}
        out["tests"]["tier1_outcomes"] = outcomes(runs)

    args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
