import json
import math

import numpy as np
import pytest

from trapclock.cli import build_parser, main
from trapclock.skorokhod import path_from_csv

SUBCOMMANDS = [
    "zeta",
    "upsilon",
    "block-laplace",
    "simulate-clock",
    "aging",
    "subordinator",
    "skorokhod-demo",
    "ehrenfest-validate",
]


def test_parser_exposes_all_subcommands():
    parser = build_parser()
    subs = [
        a for a in parser._actions
        if a.__class__.__name__ == "_SubParsersAction"
    ][0]
    assert sorted(subs.choices) == sorted(SUBCOMMANDS)


def test_zeta_runs_and_writes(tmp_path, capsys):
    rc = main(["zeta", "--p", "2", "--tol", "1e-4", "--out", str(tmp_path)])
    assert rc == 0
    assert "zeta p=2" in capsys.readouterr().out
    payload = json.loads((tmp_path / "zeta.json").read_text())
    assert payload["zeta"] == pytest.approx(1 / math.sqrt(2), abs=2e-4)
    resolved = json.loads((tmp_path / "zeta_config.json").read_text())
    assert resolved["p"] == 2
    assert resolved["tol"] == 1e-4


def test_zeta_rejects_small_p(tmp_path):
    assert main(["zeta", "--p", "1", "--out", str(tmp_path)]) == 2


def test_upsilon_curve_files(tmp_path):
    rc = main([
        "upsilon", "--p", "4", "--beta", "1.0", "--gamma", "0.5",
        "--grid", "101", "--out", str(tmp_path),
    ])
    assert rc == 0
    lines = (tmp_path / "upsilon.csv").read_text().strip().splitlines()
    assert lines[0] == "u,upsilon"
    assert len(lines) == 102
    u_mid, v_mid = (float(tok) for tok in lines[51].split(","))
    assert u_mid == pytest.approx(0.5)
    assert v_mid == pytest.approx(0.0, abs=1e-12)
    payload = json.loads((tmp_path / "upsilon.json").read_text())
    # subcritical gamma: the rate peaks at zero, attained at u = 1/2
    assert payload["max"] == pytest.approx(0.0, abs=1e-12)
    assert payload["argmax_u"] == pytest.approx(0.5)
    assert payload["value_at_half"] == pytest.approx(0.0, abs=1e-12)


def test_upsilon_gamma_zero_is_entropy_well(tmp_path):
    rc = main([
        "upsilon", "--p", "2", "--beta", "1.0", "--gamma", "0.0",
        "--grid", "201", "--out", str(tmp_path),
    ])
    assert rc == 0
    payload = json.loads((tmp_path / "upsilon.json").read_text())
    assert payload["max"] == 0.0
    assert payload["argmax_u"] == pytest.approx(0.5)
    rows = (tmp_path / "upsilon.csv").read_text().strip().splitlines()[1:]
    vals = {float(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
    assert all(v < 0 for u, v in vals.items() if abs(u - 0.5) > 1e-9)


def test_block_laplace_small(tmp_path):
    rc = main([
        "block-laplace", "--beta", "1.0", "--gamma", "0.6",
        "--N-list", "16", "--u", "0.5", "--samples", "2000",
        "--out", str(tmp_path),
    ])
    assert rc == 0
    lines = (tmp_path / "block_laplace.csv").read_text().strip().splitlines()
    assert lines[0] == "N,u,estimate,stderr,rescaled"
    assert len(lines) == 2
    assert lines[1].startswith("16,0.5,")


def test_simulate_clock_outputs(tmp_path):
    rc = main([
        "simulate-clock", "--N", "16", "--beta", "1.5", "--gamma", "0.9",
        "--grid-points", "51", "--out", str(tmp_path),
    ])
    assert rc == 0
    lines = (tmp_path / "clock.csv").read_text().strip().splitlines()
    assert lines[0] == "t,bar,tilde"
    assert len(lines) == 52
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    assert np.all(np.diff(rows[:, 1]) >= 0.0)
    assert np.all(rows[:, 2] <= rows[:, 1] + 1e-12)
    meta = json.loads((tmp_path / "clock.json").read_text())
    assert meta["steps"] > 0
    assert meta["overflowed"] is False


def test_simulate_clock_step_budget(tmp_path):
    rc = main([
        "simulate-clock", "--N", "30", "--beta", "1.0", "--gamma", "1.0",
        "--out", str(tmp_path),
    ])
    assert rc == 3


def test_aging_feasible_preset(tmp_path, capsys):
    rc = main([
        "aging", "--N", "10", "--beta", "1.5", "--gamma", "1.125",
        "--t", "0.5", "--s", "0.5", "--replicas", "200",
        "--out", str(tmp_path),
    ])
    assert rc == 0
    assert "aging estimate=" in capsys.readouterr().out
    payload = json.loads((tmp_path / "aging.json").read_text())
    assert payload["mode"] == "rem"
    assert payload["alpha_used"] == pytest.approx(0.5)
    assert 0.0 <= payload["estimate"] <= 1.0
    assert not payload["non_conclusive"]


def test_aging_curve_artifact(tmp_path):
    rc = main([
        "aging", "--N", "10", "--beta", "1.5", "--gamma", "1.125",
        "--t", "0.5", "--s", "0.5", "--replicas", "100",
        "--curve-points", "3", "--curve-replicas", "100",
        "--out", str(tmp_path),
    ])
    assert rc == 0
    lines = (tmp_path / "aging_curve.csv").read_text().strip().splitlines()
    assert lines[0] == "ratio,t,s,epsilon,estimate,stderr,arcsine,excluded"
    assert len(lines) == 4


def test_aging_refuses_infeasible_preset(tmp_path, capsys):
    # alpha = 1/2 at beta = 3 needs ~1e10 steps per unit time; the work
    # guard must refuse it up front rather than hang
    rc = main([
        "aging", "--N", "20", "--beta", "3.0", "--alpha", "0.5",
        "--replicas", "20000", "--out", str(tmp_path),
    ])
    assert rc == 3
    assert "not desk-feasible" in capsys.readouterr().err
    assert not (tmp_path / "aging.json").exists()


def test_aging_gamma_alpha_exclusive(tmp_path):
    base = ["aging", "--N", "10", "--beta", "1.5", "--out", str(tmp_path)]
    assert main(base + ["--gamma", "1.0", "--alpha", "0.5"]) == 2
    assert main(base) == 2


def test_config_layering(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol": 1e-3, "grid_points": 2001}))
    out1 = tmp_path / "a"
    rc = main(["zeta", "--p", "2", "--config", str(cfg), "--out", str(out1)])
    assert rc == 0
    assert json.loads((out1 / "zeta.json").read_text())["tol"] == 1e-3
    # explicit flag beats the config layer
    out2 = tmp_path / "b"
    rc = main([
        "zeta", "--p", "2", "--config", str(cfg), "--tol", "1e-4",
        "--out", str(out2),
    ])
    assert rc == 0
    assert json.loads((out2 / "zeta.json").read_text())["tol"] == 1e-4


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol": 1e-3, "bogus_knob": 1}))
    rc = main(["zeta", "--p", "2", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"replicas": 2.5}, "config key 'replicas' takes int, got 2.5"),
        ({"replicas": True}, "config key 'replicas' takes int, got true"),
        ({"t": False}, "config key 't' takes float, got false"),
        ({"t": None}, "config key 't' takes float, got null"),
        ({"mode": "bogus"}, "config key 'mode' takes ['rem', 'pspin'], got \"bogus\""),
    ],
)
def test_config_values_must_fit_their_flags(tmp_path, capsys, doc, message):
    # a non-string config value skips argparse's type conversion, so it is
    # checked against its flag before any work starts
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    argv = ["aging", "--N", "8", "--beta", "1.0", "--gamma", "0.5",
            "--config", str(cfg), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_values_that_fit_are_taken(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol": 1, "grid_points": "2001", "out": str(tmp_path / "o")}))
    assert main(["zeta", "--p", "2", "--config", str(cfg)]) == 0
    assert json.loads((tmp_path / "o" / "zeta.json").read_text())["tol"] == 1


def test_required_flag_from_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 3, "tol": 1e-3}))
    assert main(["zeta", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert json.loads((tmp_path / "o" / "zeta.json").read_text())["p"] == 3
    # the flag still beats the config
    assert main(["zeta", "--p", "2", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert json.loads((tmp_path / "o" / "zeta.json").read_text())["p"] == 2


@pytest.mark.parametrize("doc", [None, {"omega": 0.7}, {"gamma": None}])
def test_required_flag_missing_from_flags_and_config(tmp_path, capsys, doc):
    argv = ["simulate-clock", "--N", "8", "--beta", "1.5", "--out", str(tmp_path / "o")]
    if doc is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        argv += ["--config", str(cfg)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "the following arguments are required: --gamma" in err
    assert not (tmp_path / "o").exists()


def test_config_must_be_object(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert main(["zeta", "--p", "2", "--config", str(cfg)]) == 2
    assert main(["zeta", "--p", "2", "--config", str(tmp_path / "nope.json")]) == 2


def test_subordinator_outputs(tmp_path):
    rc = main([
        "subordinator", "--alpha", "0.5", "--replicas", "2000",
        "--grid-points", "51", "--out", str(tmp_path),
    ])
    assert rc == 0
    path_lines = (tmp_path / "subordinator_path.csv").read_text().strip().splitlines()
    assert path_lines[0] == "t,value"
    assert len(path_lines) == 52
    values = [float(ln.split(",")[1]) for ln in path_lines[1:]]
    assert values == sorted(values)
    payload = json.loads((tmp_path / "range_miss.json").read_text())
    assert payload["arcsine"] == pytest.approx(0.5, abs=1e-12)
    assert abs(payload["estimate"] - 0.5) < 6 * payload["stderr"]


def test_skorokhod_demo(tmp_path):
    rc = main(["skorokhod-demo", "--n", "8", "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "skorokhod.json").read_text())
    assert payload["m1"] == pytest.approx(1 / 8, abs=1e-9)
    assert payload["j1"] == 0.5
    assert payload["w_prime_staircase"] == 0.0
    staircase = path_from_csv((tmp_path / "path_staircase.csv").read_text(), 2.0)
    assert staircase.n_jumps == 2
    assert main(["skorokhod-demo", "--n", "1", "--out", str(tmp_path)]) == 2


def test_ehrenfest_validate(tmp_path):
    rc = main(["ehrenfest-validate", "--N", "8", "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "ehrenfest.json").read_text())
    assert payload["max_abs_error"] <= 1e-10
    assert payload["no_backtrack_bound_ok"] is True
    assert payload["triples_checked"] == math.comb(9, 3)
    assert main(["ehrenfest-validate", "--N", "50", "--out", str(tmp_path)]) == 2


def test_repeat_runs_write_identical_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    argv = [
        "aging", "--N", "10", "--beta", "1.5", "--gamma", "1.125",
        "--t", "0.5", "--s", "0.5", "--replicas", "150", "--seed", "7",
    ]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert (a / "aging.json").read_bytes() == (b / "aging.json").read_bytes()

    c, d = tmp_path / "c", tmp_path / "d"
    argv = ["simulate-clock", "--N", "16", "--beta", "1.5", "--gamma", "0.9"]
    assert main(argv + ["--out", str(c)]) == 0
    assert main(argv + ["--out", str(d)]) == 0
    assert (c / "clock.csv").read_bytes() == (d / "clock.csv").read_bytes()


@pytest.mark.parametrize(
    "flag, text, message",
    [("--N-list", "16,x", "bad int list '16,x'"), ("--u", "0.5,y", "bad float list '0.5,y'")],
)
def test_block_laplace_names_a_bad_list(tmp_path, capsys, flag, text, message):
    args = ["block-laplace", "--beta", "1.0", "--gamma", "0.6", flag, text]
    assert main(args + ["--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
