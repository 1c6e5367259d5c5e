"""Command line surface: reproducible experiment runs with file artifacts.

Every subcommand resolves its parameters from defaults, an optional
``--config file.json`` layer, and explicit flags (highest precedence),
writes the resolved configuration next to its outputs, and emits only
deterministic bytes for a fixed seed: no timestamps, no machine info,
floats rendered via repr/json. This module alone decides the artifact
format: `_write` writes every file and `_csv` renders every table.

Exit codes: 0 success, 2 validation failure (bad flags, bad config,
unsatisfiable preconditions), 3 non-conclusive run (the estimator finished
but breached its exclusion threshold, or the requested preset exceeds the
step-work budget and was refused before burning CPU).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .aging import _aging_work, aging_curve, estimate_aging
from .analysis import RateFunctionParams, upsilon, zeta
from .blockprocess import block_scaling_constant
from .clock import (
    coarse_grain_clock,
    rescale_clock,
    simulate_clock,
)
from .core import ModelParams, RngStream
from .hamiltonian import PSpinDisorder, RemDisorder
from .hypercube import (
    ehrenfest_hitting_linear_solve,
    ehrenfest_hitting_prob,
    no_backtrack_prob,
)
from .skorokhod import (
    CadlagStepPath,
    j1_distance,
    m1_distance,
    modulus_v,
    modulus_w,
    modulus_w_prime,
)
from .stable import arcsine_cdf, range_miss_prob_mc, sample_subordinator

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NON_CONCLUSIVE = 3


class CliError(Exception):
    """Validation failure surfaced as exit code 2."""


class NonConclusive(Exception):
    """Run refused or finished without a trustworthy estimate: exit code 3."""


def _write(args: argparse.Namespace, files: dict[str, dict | str]) -> None:
    """Create --out and write `<command>_config.json` (the resolved flags)
    and each of `files`: a dict as sorted, indented JSON, a str as it is."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    resolved = {k: v for k, v in vars(args).items() if k not in ("config", "func")}
    files = {f"{args.command.replace('-', '_')}_config.json": resolved, **files}
    for name, body in files.items():
        if isinstance(body, dict):
            body = json.dumps(body, sort_keys=True, indent=2) + "\n"
        (out / name).write_text(body)


def _csv(header: str, rows) -> str:
    """The header line, then one line per row of comma-joined reprs; rows
    hold Python scalars, so a float renders as its shortest round trip."""
    lines = [header] + [",".join(map(repr, row)) for row in rows]
    return "".join(line + "\n" for line in lines)


def _parse_list(text: str, kind: type) -> list:
    """Comma-separated numbers of type `kind` (float or int)."""
    try:
        return [kind(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise CliError(f"bad {kind.__name__} list {text!r}") from exc


# ---------------------------------------------------------------- zeta

def _cmd_zeta(args) -> None:
    value = zeta(args.p, tol=args.tol, grid_points=args.grid_points)
    _write(args, {"zeta.json": {"p": args.p, "tol": args.tol, "zeta": value}})
    print(f"zeta p={args.p} value={value!r}")


# ------------------------------------------------------------- upsilon

def _cmd_upsilon(args) -> None:
    rp = RateFunctionParams(
        p=args.p, beta=args.beta, gamma=args.gamma,
        lambda_margin=args.lambda_margin, eta=args.eta,
    )
    u = np.linspace(0.0, 1.0, args.grid)
    vals = upsilon(rp, u)
    imax = int(np.argmax(vals))
    _write(args, {
        "upsilon.csv": _csv("u,upsilon", zip(u.tolist(), vals.tolist())),
        "upsilon.json": {
            "argmax_u": float(u[imax]),
            "max": float(vals[imax]),
            "value_at_half": float(upsilon(rp, 0.5)),
        },
    })
    print(f"upsilon p={args.p} max={float(vals[imax])!r} at u={float(u[imax])!r}")


# -------------------------------------------------------- block-laplace

def _cmd_block_laplace(args) -> None:
    n_list = _parse_list(args.N_list, int)
    u_list = _parse_list(args.u, float)
    if not n_list or not u_list:
        raise CliError("need at least one N and one u")
    params = ModelParams(
        N=n_list[0], p=args.p, beta=args.beta, gamma=args.gamma,
        omega=args.omega, seed=args.seed,
    )
    rows = []
    for k, u in enumerate(u_list):
        rows += block_scaling_constant(
            params, u, n_list, samples=args.samples,
            rng=params.stream().substream(500 + k),
        )
    keys = ("N", "u", "estimate", "stderr", "rescaled")
    _write(args, {
        "block_laplace.csv": _csv(",".join(keys), ([r[k] for k in keys] for r in rows)),
    })
    for u in u_list:
        last = [r for r in rows if r["u"] == u][-1]
        print(f"block-laplace u={u!r} N={last['N']} rescaled={last['rescaled']!r}")


# -------------------------------------------------------- simulate-clock

def _cmd_simulate_clock(args) -> None:
    params = ModelParams(
        N=args.N, p=args.p, beta=args.beta, gamma=args.gamma,
        omega=args.omega, horizon_T=args.horizon, seed=args.seed,
    )
    steps = params.r_steps(args.horizon)
    if steps > args.max_steps:
        raise NonConclusive(
            f"simulate-clock would need {steps} steps, over the "
            f"--max-steps budget {args.max_steps}"
        )
    if args.mode == "rem":
        disorder = RemDisorder.from_seed(args.seed, args.N)
    else:
        disorder = PSpinDisorder.from_seed(args.seed, args.N, args.p)
    _, clock, _ = simulate_clock(disorder, params, steps, params.stream().substream(1))
    bar = rescale_clock(clock, params)
    tilde = coarse_grain_clock(clock, params)
    grid = np.linspace(0.0, args.horizon, args.grid_points)
    rows = zip(grid.tolist(), bar.value_at(grid).tolist(), tilde.value_at(grid).tolist())
    _write(args, {
        "clock.csv": _csv("t,bar,tilde", rows),
        "clock.json": {
            "steps": steps,
            "nu": params.nu(),
            "overflowed": clock.overflowed,
            "final_bar": bar.value_at(args.horizon),
        },
    })
    print(f"simulate-clock steps={steps} final={bar.value_at(args.horizon)!r}")


# --------------------------------------------------------------- aging

def _cmd_aging(args) -> None:
    if (args.gamma is None) == (args.alpha is None):
        raise CliError("give exactly one of --gamma or --alpha")
    gamma = args.gamma
    if gamma is None:
        if args.beta <= 0.0:
            raise CliError("--alpha needs beta > 0")
        gamma = args.alpha * args.beta**2
    params = ModelParams(
        N=args.N, p=args.p, beta=args.beta, gamma=gamma,
        omega=args.omega, seed=args.seed,
    )
    work = _aging_work(params, args.t + args.s,
                       args.replicas + args.curve_points * args.curve_replicas, args.mode)
    if work > args.max_work:
        raise NonConclusive(
            f"estimated step work {work:.3e} exceeds --max-work "
            f"{args.max_work:.3e}; this preset is not desk-feasible"
        )
    est = estimate_aging(
        params, args.t, args.s, args.epsilon, args.replicas, mode=args.mode
    )
    files = {"aging.json": dataclasses.asdict(est)}
    if args.curve_points > 0:
        ratios = [
            (i + 1) / (args.curve_points + 1) for i in range(args.curve_points)
        ]
        curve = aging_curve(
            params, ratios, args.t + args.s, args.epsilon,
            args.curve_replicas, mode=args.mode,
        )
        files["aging_curve.csv"] = _csv(
            "ratio,t,s,epsilon,estimate,stderr,arcsine,excluded",
            ((e.t / (e.t + e.s), e.t, e.s, e.epsilon, e.estimate, e.stderr,
              e.arcsine_prediction, e.excluded) for e in curve),
        )
    _write(args, files)
    print(
        f"aging estimate={est.estimate!r} stderr={est.stderr!r} "
        f"arcsine={est.arcsine_prediction!r} excluded={est.excluded}"
    )
    if est.non_conclusive:
        raise NonConclusive(
            f"excluded {est.excluded} of {est.replicas} replicas (over the exclusion budget)"
        )


# --------------------------------------------------------- subordinator

def _cmd_subordinator(args) -> None:
    if not args.horizon >= 0.0:
        raise CliError("--horizon must be >= 0 (0 means t+s+1)")
    rng = RngStream(args.seed, 77)
    horizon = args.horizon if args.horizon > 0 else args.t + args.s + 1.0
    grid = np.linspace(0.0, horizon, args.grid_points)
    path = sample_subordinator(args.alpha, args.K, grid, rng.substream(1))
    est, se = range_miss_prob_mc(
        args.alpha, args.t, args.s, args.replicas, rng.substream(2), K=args.K
    )
    pred = float(arcsine_cdf(args.alpha, args.t / (args.t + args.s)))
    _write(args, {
        "subordinator_path.csv": _csv("t,value", zip(path.grid.tolist(), path.values.tolist())),
        "range_miss.json": {
            "alpha": args.alpha, "K": args.K, "t": args.t, "s": args.s,
            "replicas": args.replicas, "estimate": est, "stderr": se,
            "arcsine": pred,
        },
    })
    print(f"subordinator miss={est!r} stderr={se!r} arcsine={pred!r}")


# ------------------------------------------------------- skorokhod-demo

def _staircase_pair(n: int) -> tuple[CadlagStepPath, CadlagStepPath]:
    """Two-step staircase vs one big jump: M1-close, J1-separated."""
    f_n = CadlagStepPath(
        T=2.0, initial=0.0,
        jump_times=[1.0 - 1.0 / n, 1.0], values=[0.5, 1.0],
    )
    f = CadlagStepPath(T=2.0, initial=0.0, jump_times=[1.0], values=[1.0])
    return f_n, f


def _step_rows(path: CadlagStepPath) -> list[tuple[float, float]]:
    """(t, value) at the origin, then at each jump."""
    return [(0.0, float(path.initial)),
            *zip(path.jump_times.tolist(), path.values.tolist())]


def path_from_csv(text: str, T: float) -> CadlagStepPath:
    """The step path on [0, T] back from a skorokhod-demo path file."""
    rows = [ln for ln in text.strip().splitlines() if ln and not ln.startswith("t,")]
    ts, vs = [], []
    for ln in rows:
        a, b = ln.split(",")
        ts.append(float(a))
        vs.append(float(b))
    if not ts or ts[0] != 0.0:
        raise ValueError("csv must start with the t=0 row")
    return CadlagStepPath(T, vs[0], np.array(ts[1:]), np.array(vs[1:]))


def _cmd_skorokhod_demo(args) -> None:
    if args.n < 2:
        raise CliError("need n >= 2")
    f_n, f = _staircase_pair(args.n)
    m1 = m1_distance(f_n, f, resolution=args.resolution)
    j1 = j1_distance(f_n, f)
    _write(args, {
        "path_staircase.csv": _csv("t,value", _step_rows(f_n)),
        "path_limit.csv": _csv("t,value", _step_rows(f)),
        "skorokhod.json": {
            "n": args.n,
            "m1": m1,
            "j1": j1,
            "w_staircase": modulus_w(f_n, args.delta),
            "w_prime_staircase": modulus_w_prime(f_n, args.delta),
            "v_at_jump": modulus_v(f_n, 1.0, args.delta),
        },
    })
    print(f"skorokhod n={args.n} m1={m1!r} j1={j1!r}")


# --------------------------------------------------- ehrenfest-validate

def _cmd_ehrenfest(args) -> None:
    if not 2 <= args.N <= 40:
        raise CliError("ehrenfest-validate supports 2 <= N <= 40")
    worst = 0.0
    pairs = 0
    for k in range(args.N - 1):
        for m in range(k + 2, args.N + 1):
            for l in range(k + 1, m):
                exact = float(ehrenfest_hitting_prob(k, l, m, args.N))
                solved = ehrenfest_hitting_linear_solve(k, l, m, args.N)
                worst = max(worst, abs(exact - solved))
                pairs += 1
    # no_backtrack_prob raises if it falls below exp(-nu^2/N)
    for nu in range(1, args.N + 1):
        no_backtrack_prob(args.N, nu)
    _write(args, {
        "ehrenfest.json": {
            "N": args.N,
            "triples_checked": pairs,
            "max_abs_error": worst,
            "no_backtrack_bound_ok": True,
        },
    })
    print(f"ehrenfest N={args.N} max_abs_error={worst!r} bound_ok=True")


# ------------------------------------------------------------- plumbing

def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", type=str, default=None,
                    help="JSON file of flag defaults (flags still win)")
    sp.add_argument("--out", type=str, default="trapclock_out",
                    help="output directory for artifacts")
    sp.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trapclock",
        description="trap-model clock process experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("zeta", help="critical temperature threshold")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--tol", type=float, default=1e-5)
    sp.add_argument("--grid-points", type=int, default=10001)
    _add_common(sp)
    sp.set_defaults(func=_cmd_zeta)

    sp = sub.add_parser("upsilon", help="rate function curve dump")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--lambda-margin", type=float, default=0.0)
    sp.add_argument("--eta", type=float, default=0.0)
    sp.add_argument("--grid", type=int, default=2001)
    _add_common(sp)
    sp.set_defaults(func=_cmd_upsilon)

    sp = sub.add_parser("block-laplace", help="block Laplace scaling table")
    sp.add_argument("--p", type=int, default=3)
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--u", type=str, default="0.5,1,2")
    sp.add_argument("--N-list", type=str, default="16,25,36")
    sp.add_argument("--samples", type=int, default=50000)
    sp.add_argument("--omega", type=float, default=0.6)
    _add_common(sp)
    sp.set_defaults(func=_cmd_block_laplace)

    sp = sub.add_parser("simulate-clock", help="one clock path, rescaled")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--p", type=int, default=3)
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--omega", type=float, default=0.6)
    sp.add_argument("--horizon", type=float, default=1.0)
    sp.add_argument("--mode", type=str, default="pspin",
                    choices=["rem", "pspin"])
    sp.add_argument("--grid-points", type=int, default=201)
    sp.add_argument("--max-steps", type=int, default=2_000_000)
    _add_common(sp)
    sp.set_defaults(func=_cmd_simulate_clock)

    sp = sub.add_parser("aging", help="two-time overlap estimate")
    sp.add_argument("--mode", type=str, default="rem",
                    choices=["rem", "pspin"])
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--p", type=int, default=3)
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--gamma", type=float, default=None)
    sp.add_argument("--alpha", type=float, default=None,
                    help="sets gamma = alpha * beta**2")
    sp.add_argument("--t", type=float, default=1.0)
    sp.add_argument("--s", type=float, default=1.0)
    sp.add_argument("--epsilon", type=float, default=0.3)
    sp.add_argument("--replicas", type=int, default=2000)
    sp.add_argument("--omega", type=float, default=0.6)
    sp.add_argument("--curve-points", type=int, default=0)
    sp.add_argument("--curve-replicas", type=int, default=1000)
    sp.add_argument("--max-work", type=float, default=4e9,
                    help="refuse presets whose expected step work is larger "
                         "(a REM step counts 1, a p-spin step N^p)")
    _add_common(sp)
    sp.set_defaults(func=_cmd_aging)

    sp = sub.add_parser("subordinator", help="stable subordinator sampling")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--K", type=float, default=1.0)
    sp.add_argument("--t", type=float, default=1.0)
    sp.add_argument("--s", type=float, default=1.0)
    sp.add_argument("--replicas", type=int, default=20000)
    sp.add_argument("--grid-points", type=int, default=201)
    sp.add_argument("--horizon", type=float, default=0.0,
                    help="path horizon, >= 0; 0 means t+s+1")
    _add_common(sp)
    sp.set_defaults(func=_cmd_subordinator)

    sp = sub.add_parser("skorokhod-demo", help="M1 vs J1 on the staircase")
    sp.add_argument("--n", type=int, default=8)
    sp.add_argument("--resolution", type=int, default=512)
    sp.add_argument("--delta", type=float, default=0.25)
    _add_common(sp)
    sp.set_defaults(func=_cmd_skorokhod_demo)

    sp = sub.add_parser("ehrenfest-validate", help="exact hitting checks")
    sp.add_argument("--N", type=int, default=10)
    _add_common(sp)
    sp.set_defaults(func=_cmd_ehrenfest)

    return parser


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    subparsers = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    # a required flag may come from the config, so argparse must not insist
    # on it before the merge; it is checked once both layers are in
    required = [
        a for sp in subparsers.choices.values() for a in sp._actions if a.required
    ]
    for action in required:
        action.required = False
    try:
        args = parser.parse_args(argv)
        sub_parser = subparsers.choices[args.command]
        if args.config is not None:
            sub_parser.set_defaults(**_read_config(args.config, sub_parser))
            args = parser.parse_args(argv)
    finally:
        for action in required:
            action.required = True
    missing = [
        "/".join(a.option_strings) for a in sub_parser._actions
        if a.required and getattr(args, a.dest) is None
    ]
    if missing:
        sub_parser.error(f"the following arguments are required: {', '.join(missing)}")
    return args


def _read_config(path: str, sub_parser: argparse.ArgumentParser) -> dict:
    """The config file's flag defaults, each checked against the flag it sets."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config {path!r}: {exc}") from exc
    if not isinstance(raw, dict):
        raise CliError("config file must hold a JSON object")

    actions = {
        a.dest: a for a in sub_parser._actions
        if a.dest not in ("help", "config", "func")
    }
    unknown = set(raw) - set(actions)
    if unknown:
        raise CliError(f"unknown config keys: {sorted(unknown)}")
    # argparse converts a string default with the flag's type but uses any
    # other value as it is, so that value must already fit the flag
    for key, value in raw.items():
        action = actions[key]
        if isinstance(value, str):
            ok = action.choices is None or value in action.choices
        elif value is None:
            ok = action.default is None
        else:
            kinds = {int: (int,), float: (int, float)}.get(action.type, ())
            ok = isinstance(value, kinds) and not isinstance(value, bool)
        if not ok:
            want = action.type.__name__ if action.choices is None else list(action.choices)
            raise CliError(f"config key {key!r} takes {want}, got {json.dumps(value)}")
    return raw


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = _apply_config(parser, list(argv))
        args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NonConclusive as exc:
        print(f"non-conclusive: {exc}", file=sys.stderr)
        return EXIT_NON_CONCLUSIVE
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
