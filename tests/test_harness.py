"""Config schema, CLI subcommands, determinism, exit-status contract."""

import contextlib
import dataclasses
import importlib.util
import io
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nefbandit
from nefbandit import cli, selfconcordance, tailbounds
from nefbandit.cli import (
    _emit,
    build_parser,
    dominance_report,
    main,
    rounds_to_csv,
    run_suite,
)
from nefbandit.config import build_instance, load_config, parse_config
from nefbandit.distributions import NefFamily, parse_distribution
from nefbandit.errors import ParseError
from nefbandit.selfconcordance import build_certificate
from nefbandit.tailbounds import run_tail_suite

DATA = Path(__file__).parent / "data"

MINIMAL = {"schema": 1, "distribution": {"kind": "exponential", "rate": 1.0}}

SMALL_RUN = {
    "schema": 1,
    "distribution": {"kind": "bernoulli", "p": 0.5},
    "arms": [[1.0, 0.0], [0.0, 1.0], [0.6, 0.64]],
    "theta_star": [0.4, -0.3],
    "delta": 0.1,
    "horizon": 40,
    "replicates": 1,
    "seed": 7,
}


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_minimal_config_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.delta == 0.05
    assert cfg.replicates == 1
    assert cfg.horizon == 100
    assert cfg.seed == 0 and cfg.workers == 1
    assert not cfg.has_instance


def test_config_rejects_unknown_fields_with_pointer():
    with pytest.raises(ParseError, match="unknown fields"):
        parse_config({**MINIMAL, "horizons": 10})
    with pytest.raises(ParseError, match="/distribution"):
        parse_config({"schema": 1, "distribution": {"kind": "exponential"}})
    with pytest.raises(ParseError, match="/delta"):
        parse_config({**MINIMAL, "delta": 1.5})


def test_config_rejects_tail_rate_below_upper_tilt():
    cfg = {**SMALL_RUN, "distribution": {"kind": "exponential", "rate": 1.0},
           "theta_star": [0.4, -0.3], "c1": 0.3}
    with pytest.raises(Exception, match="-c2 < S2 <= S1 < c1"):
        parse_config(cfg)


def test_config_requires_arms_and_theta_together():
    with pytest.raises(ParseError, match="together"):
        parse_config({**MINIMAL, "arms": [[1.0, 0.0]]})


def test_config_round_trips_bit_identically():
    cfg = parse_config(SMALL_RUN)
    again = parse_config(cfg.to_dict())
    assert cfg.serialize() == again.serialize()
    assert json.loads(cfg.serialize()) == cfg.to_dict()


def test_golden_config_snapshot():
    cfg = load_config(DATA / "golden_config.json")
    assert cfg.raw == {
        "schema": 1,
        "distribution": {"kind": "exponential", "rate": 1.0},
        "arms": {"circle": {"n": 10, "radius": 1.0}},
        "theta_star": [0.5, 0.0],
        "delta": 0.05,
        "horizon": 2000,
        "replicates": 50,
        "lambda": None,
        "seed": 20240,
        "workers": 1,
        "grid": {"lo": -0.5, "hi": 0.5, "n": 200},
        "out": None,
    }
    inst = build_instance(cfg)
    assert inst.n_arms == 10 and inst.d == 2
    assert inst.S1 == pytest.approx(0.5)


def test_circle_generator_validation():
    with pytest.raises(ParseError, match="circle"):
        parse_config({**SMALL_RUN, "arms": {"circle": {"n": 10}}})
    with pytest.raises(ParseError, match="radius"):
        parse_config({**SMALL_RUN, "arms": {"circle": {"n": 4, "radius": 1.5}}})


def test_config_rejects_negative_K(tmp_path, capsys):
    with pytest.raises(ParseError, match="/K"):
        parse_config({**SMALL_RUN, "K": -1})
    assert parse_config({**SMALL_RUN, "K": 0}).raw["K"] == 0
    rc = main(["bound", "--config", str(_write_cfg(tmp_path, {**SMALL_RUN, "K": -1}))])
    assert rc == 2
    captured = capsys.readouterr()
    assert "/K" in captured.err and captured.out == ""


def test_config_rejects_empty_grid():
    for n in (0, -3, 2.5):
        with pytest.raises(ParseError, match="/grid/n"):
            parse_config({**MINIMAL, "grid": {"n": n}})


@pytest.mark.parametrize("grid, pointer", [
    ({"lo": "x"}, "/grid/lo"), ({"hi": None}, "/grid/hi"), ({"lo": [1]}, "/grid/lo"),
    ({"lo": math.nan}, "/grid/lo"), ({"hi": -math.inf}, "/grid/hi"), ({"hi": True}, "/grid/hi"),
])
def test_config_rejects_a_grid_end_that_is_not_a_finite_number(grid, pointer):
    with pytest.raises(ParseError, match=re.escape(f"(at {pointer})")):
        parse_config({**MINIMAL, "grid": grid})


@pytest.mark.parametrize("grid, pointer", [
    ({"lo": -0.5, "hi": 0.95}, "/grid/hi"), ({"lo": -1.5, "hi": 0.2}, "/grid/lo"),
    ({"lo": 0.5, "hi": 0.2}, "/grid/lo"),  # reversed
])
def test_run_suite_grid_outside_the_tail_rates_is_a_parse_error(grid, pointer, tmp_path):
    # exponential(1): c1 = 0.9 and c2 = 1 by default, so tilts must lie in (-1, 0.9)
    cfg = parse_config({**MINIMAL, "grid": grid})
    with pytest.raises(ParseError, match=re.escape(f"(at {pointer})")):
        run_suite(cfg, tmp_path)


def test_load_config_missing_file():
    with pytest.raises(ParseError, match="does not exist"):
        load_config("/nonexistent/cfg.json")


# ---------------------------------------------------------------------------
# CLI subcommands
# ---------------------------------------------------------------------------

def _write_cfg(tmp_path, obj, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return p


def test_cli_verify_exponential_passes(tmp_path, capsys):
    report = tmp_path / "verify.json"
    rc = main(["verify", "--dist", '{"kind": "exponential", "rate": 1.0}',
               "--grid-n", "50", "--report", str(report)])
    assert rc == 0
    payload = json.loads(report.read_text())
    assert payload["ok"] and payload["violations"] == 0
    assert len(payload["points"]) == 50
    assert {"u", "ratio", "bound", "ok"} <= set(payload["points"][0])
    assert "c1" in payload["certificate"]


def test_cli_verify_fails_the_points_whose_bound_is_not_finite(capsys):
    # c2 = 709 puts the left tail constant, and the bound at every tilt but the last,
    # beyond float range; a point passes only on a finite bound
    rc = main(["verify", "--dist", '{"kind": "exponential", "rate": 1.0}', "--c2", "709",
               "--grid-n", "50"])
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert rc == 1 and payload["violations"] == 49 and not payload["ok"]
    assert payload["certificate"]["c0_left"] is None
    assert [p["ok"] for p in payload["points"]] == [p["bound"] is not None
                                                    for p in payload["points"]]
    first = payload["points"][0]
    assert captured.err == f"violation at u={first['u']}: bound inf is not finite\n"


def test_cli_verify_corrupted_certificate_fails(tmp_path, monkeypatch):
    import nefbandit.cli as cli_mod

    def corrupted(base, c1=None, c2=None):
        from nefbandit.selfconcordance import TailConstants
        cert = build_certificate(base, c1=c1, c2=c2)
        squashed = TailConstants(cert.tail.c1, 1e-6, cert.tail.c2, 1e-6)
        return dataclasses.replace(cert, tail=squashed, g_q_right=1e-9, g_q_left=1e-9)

    monkeypatch.setattr(cli_mod, "build_certificate", corrupted)
    report = tmp_path / "verify.json"
    rc = main(["verify", "--dist", '{"kind": "exponential", "rate": 1.0}',
               "--grid-n", "40", "--report", str(report)])
    assert rc == 1
    payload = json.loads(report.read_text())
    assert payload["violations"] > 0
    bad = [p for p in payload["points"] if not p["ok"]]
    assert bad and bad[0]["ratio"] > bad[0]["bound"]


def test_cli_tails_report(tmp_path):
    report = tmp_path / "tails.json"
    rc = main(["tails", "--dist", '{"kind": "laplace", "scale": 1.0}',
               "--report", str(report)])
    assert rc == 0
    payload = json.loads(report.read_text())
    assert payload["ok"]
    names = {c["name"] for c in payload["certificates"]}
    assert "mgf_cap_from_right_tail" in names
    assert "tilt_variance_floor" in names
    for c in payload["certificates"]:
        assert c["max_slack"] <= 1e-10


def test_cli_fit_on_csv(tmp_path, capsys):
    rng = np.random.Generator(np.random.Philox(key=[1, 2]))
    X = rng.standard_normal((50, 2))
    X /= np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1.0) * 1.01
    y = (rng.random(50) < 0.5).astype(float)
    rows = np.column_stack([X, y])
    data = tmp_path / "rows.csv"
    np.savetxt(data, rows, delimiter=",")
    rc = main(["fit", "--data", str(data), "--dist", '{"kind": "bernoulli", "p": 0.5}',
               "--lambda", "1.0"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["converged"] and out["gradient_norm"] <= 1e-8
    assert len(out["theta_hat"]) == 2


def test_cli_bandit_run_writes_artifacts(tmp_path):
    cfg = _write_cfg(tmp_path, SMALL_RUN)
    out = tmp_path / "out"
    rc = main(["bandit", "run", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    csv = (out / "rounds.csv").read_text()
    lines = csv.strip().split("\n")
    assert lines[0] == "t,arm,index,reward,inst_regret,cum_regret,exact_cover,relaxed_cover"
    assert len(lines) == 1 + SMALL_RUN["horizon"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["replicates"] == 1 and summary["aborted"] == 0
    assert 0.0 <= summary["coverage_rate"] <= 1.0
    assert {"term1", "term2", "term3", "total"} <= set(summary["bound"])


def test_cli_bandit_run_deterministic_bytes(tmp_path):
    cfg = _write_cfg(tmp_path, SMALL_RUN)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["bandit", "run", "--config", str(cfg), "--seed", "7",
                 "--out", str(out1)]) == 0
    assert main(["bandit", "run", "--config", str(cfg), "--seed", "7",
                 "--out", str(out2)]) == 0
    assert (out1 / "rounds.csv").read_bytes() == (out2 / "rounds.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
    out3 = tmp_path / "c"
    assert main(["bandit", "run", "--config", str(cfg), "--seed", "8",
                 "--out", str(out3)]) == 0
    assert (out1 / "rounds.csv").read_bytes() != (out3 / "rounds.csv").read_bytes()


def test_cli_bandit_run_multi_replicate_files(tmp_path):
    cfg = _write_cfg(tmp_path, {**SMALL_RUN, "replicates": 3, "horizon": 20})
    out = tmp_path / "out"
    rc = main(["bandit", "run", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    files = sorted(p.name for p in out.glob("rounds_rep*.csv"))
    assert files == ["rounds_rep000.csv", "rounds_rep001.csv", "rounds_rep002.csv"]


def test_cli_worker_pool_matches_serial(tmp_path):
    cfg_obj = {**SMALL_RUN, "replicates": 4, "horizon": 25}
    cfg = _write_cfg(tmp_path, cfg_obj)
    out1, out2 = tmp_path / "serial", tmp_path / "pool"
    assert main(["bandit", "run", "--config", str(cfg), "--out", str(out1),
                 "--workers", "1"]) == 0
    assert main(["bandit", "run", "--config", str(cfg), "--out", str(out2),
                 "--workers", "3"]) == 0
    for k in range(4):
        name = f"rounds_rep{k:03d}.csv"
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_workers_capped_at_cpu_count(tmp_path, monkeypatch):
    import nefbandit.cli as cli

    requested = []

    class InlinePool:
        # records the pool size and maps in-process: no worker is ever started
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    cfg = _write_cfg(tmp_path, {**SMALL_RUN, "replicates": 3, "horizon": 10})
    rc = main(["bandit", "run", "--config", str(cfg), "--out", str(tmp_path / "o"),
               "--workers", "64"])
    assert rc == 0 and requested == [2]
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)
    assert main(["coverage", "--config", str(cfg), "--workers", "64"]) == 0
    assert requested == [2]  # one usable core: the replicates run serially


@pytest.mark.parametrize("command", ["verify", "tails"])
@pytest.mark.parametrize("grid_n", ["0", "-3"])
def test_cli_empty_grid_is_a_usage_error(command, grid_n, capsys):
    rc = main([command, "--dist", '{"kind": "exponential", "rate": 1.0}', "--grid-n", grid_n])
    assert rc == 2
    captured = capsys.readouterr()
    assert "/grid-n" in captured.err and captured.out == ""


@pytest.mark.parametrize("flags, interval", [
    (["--grid-lo", "-0.3"], (-0.3, 0.8 * 0.9)),                 # default c1 = 0.9
    (["--grid-hi", "0.5", "--c2", "0.5"], (-0.8 * 0.5, 0.5)),  # given c2
])
def test_cli_tails_honours_a_lone_grid_bound(flags, interval, capsys):
    dist = {"kind": "exponential", "rate": 1.0}
    rc = main(["tails", "--dist", json.dumps(dist), "--grid-n", "5", *flags])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    c2 = 0.5 if "--c2" in flags else None
    expected = run_tail_suite(parse_distribution(dist), c2=c2, interval=interval, grid_n=5)
    assert payload["certificates"] == [c.as_dict() for c in expected]


@pytest.mark.parametrize("command, flags, pointer", [
    ("tails", ["--grid-lo", "0.9", "--grid-hi", "0.9"], "/grid-lo"),  # u = c1: every eps is 0
    ("tails", ["--grid-hi", "0.9"], "/grid-hi"),
    ("tails", ["--grid-hi", "0.95"], "/grid-hi"),
    ("tails", ["--grid-lo", "-1.0"], "/grid-lo"),
    ("verify", ["--grid-hi", "0.95"], "/grid-hi"),
    ("verify", ["--grid-lo", "-1.2", "--grid-hi", "0.5"], "/grid-lo"),
    ("verify", ["--grid-lo", "nan"], "/grid-lo"),
    ("verify", ["--grid-lo", "0.5", "--grid-hi", "0.2"], "/grid-lo"),  # reversed
    ("tails", ["--grid-lo", "0.5", "--grid-hi", "0.2"], "/grid-lo"),
])
def test_cli_tilt_range_outside_the_tail_rates_is_a_usage_error(command, flags, pointer, capsys):
    # exponential(1): c1 = 0.9 and c2 = 1 by default, so tilts must lie in (-1, 0.9)
    rc = main([command, "--dist", '{"kind": "exponential", "rate": 1.0}', *flags])
    assert rc == 2
    captured = capsys.readouterr()
    assert pointer in captured.err and captured.out == ""


EXPONENTIAL = {"kind": "exponential", "rate": 1.0}
GAUSSIAN = {"kind": "gaussian", "sigma": 1.0}


@pytest.mark.parametrize("command", ["verify", "tails"])
@pytest.mark.parametrize("dist, flag, pointer", [
    (EXPONENTIAL, "--c1=0", "/c1"), (EXPONENTIAL, "--c1=nan", "/c1"),
    (EXPONENTIAL, "--c1=1.5", "/c1"), (EXPONENTIAL, "--c2=-1", "/c2"),
    (GAUSSIAN, "--c1=inf", "/c1"), (GAUSSIAN, "--c2=inf", "/c2"),
    (GAUSSIAN, "--c1=40", "/c1"),  # its Chernoff scale exp(800) is not a float
], ids=lambda v: v["kind"] if isinstance(v, dict) else v)
def test_cli_bad_tail_rate_is_a_usage_error(command, dist, flag, pointer, capsys):
    rc = main([command, "--dist", json.dumps(dist), flag])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == "" and captured.err.endswith(f"(at {pointer})\n")


@pytest.mark.parametrize("flag, pointer", [
    ("--c1=1e-110", "/c1"), ("--c2=1e-110", "/c2"),  # G divides by c^3
    ("--c1=37.6", "/c1"),  # a scale C1 near 1e307 in the numerator of G
])
def test_verify_names_the_rate_that_overflows_the_correction(flag, pointer, capsys):
    rc = main(["verify", "--dist", json.dumps(GAUSSIAN), flag])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "overflow g_q_" in captured.err and captured.err.endswith(f"(at {pointer})\n")


def test_tails_of_a_bernoulli_tilt_past_float_p_fails_its_ratio_identity(capsys):
    # expit(0.8 * 100) rounds to 1: the tilt has no Bernoulli parameter to measure with
    rc = main(["tails", "--dist", '{"kind": "bernoulli", "p": 0.5}', "--c1=100"])
    certs = {c["name"]: c for c in json.loads(capsys.readouterr().out)["certificates"]}
    assert rc == 1 and certs["tilted_mgf_ratio_identity"]["max_slack"] is None
    assert not certs["tilted_mgf_ratio_identity"]["ok"]


@pytest.mark.parametrize("command", ["verify", "tails"])
def test_each_command_fits_the_tail_constants_once(command, monkeypatch, capsys):
    fit, calls = selfconcordance.fit_tail_constants, []

    def counted(*args, **kwargs):
        calls.append(args)
        return fit(*args, **kwargs)

    for module in (cli, selfconcordance, tailbounds):
        if hasattr(module, "fit_tail_constants"):
            monkeypatch.setattr(module, "fit_tail_constants", counted)
    assert main([command, "--dist", json.dumps(EXPONENTIAL), "--grid-n", "9"]) == 0
    assert len(calls) == 1


# the kinds a flag or grid fuzz runs on, and what each flag value may be
FUZZ_DISTS = [EXPONENTIAL, {"kind": "gamma", "shape": 2.0, "scale": 1.0},
              {"kind": "laplace", "scale": 1.0}, GAUSSIAN, {"kind": "bernoulli", "p": 0.5}]


def _fuzz_values(spec):
    """Absent, finite, 0, negative, infinite, NaN, or an end of the natural parameter interval."""
    lo, hi = parse_distribution(spec).mgf_domain
    return st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False), st.just(0.0),
                     st.floats(max_value=0.0, exclude_max=True, allow_infinity=False),
                     st.sampled_from([math.inf, -math.inf, math.nan, lo, hi]))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fuzzed_tilt_range_and_rate_flags_give_a_report_or_a_pointer(data):
    spec = data.draw(st.sampled_from(FUZZ_DISTS), label="dist")
    command = data.draw(st.sampled_from(["verify", "tails"]), label="command")
    flags = [f"--{name}={value!r}" for name in ("grid-lo", "grid-hi", "c1", "c2")
             if (value := data.draw(_fuzz_values(spec), label=name)) is not None]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([command, "--dist", json.dumps(spec), "--grid-n", "9", *flags])
    if rc == 2:
        assert out.getvalue() == ""
        assert re.search(r"\(at /(grid-lo|grid-hi|c1|c2)\)\n\Z", err.getvalue()), err.getvalue()
    else:
        assert rc in (0, 1) and json.loads(out.getvalue())["distribution"] == spec["kind"]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fuzzed_run_suite_grid_gives_reports_or_a_pointer(data):
    spec = data.draw(st.sampled_from(FUZZ_DISTS), label="dist")
    end = st.one_of(_fuzz_values(spec), st.sampled_from(["x", [1], True]))
    n = st.one_of(st.integers(-2, 12), st.sampled_from([2.5, "x", None, True]))
    grid = data.draw(st.fixed_dictionaries({}, optional={"lo": end, "hi": end, "n": n}))
    try:
        cfg = parse_config({"schema": 1, "distribution": spec, "grid": grid})
        with tempfile.TemporaryDirectory() as out:
            assert run_suite(cfg, out) in (0, 1)
            for name in ("verify.json", "tails.json"):
                assert json.loads(Path(out, name).read_text())["distribution"] == spec["kind"]
    except ParseError as exc:
        assert exc.pointer in ("/grid/lo", "/grid/hi", "/grid/n"), exc


def _run_fresh(script, *args):
    """``python -c script *args`` in a new interpreter that imports this package."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(Path(nefbandit.__file__).parent.parent), os.environ.get("PYTHONPATH")]))}
    env.pop("NEF_BANDIT_OUT", None)
    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, env=env, timeout=120)


def _fresh_process(argv):
    """Exit status, stdout and stderr of ``nef-bandit argv`` in a new interpreter."""
    done = _run_fresh("import sys; from nefbandit.cli import main; sys.exit(main(sys.argv[1:]))",
                      *argv)
    return done.returncode, done.stdout, done.stderr


def test_cached_parser_gives_fresh_process_outputs(capsys, monkeypatch):
    # one parser serves every call in a process; no option may carry over between calls
    monkeypatch.delenv("NEF_BANDIT_OUT", raising=False)
    dist = ["--dist", '{"kind": "laplace", "scale": 1.0}']
    calls = [["verify", *dist, "--grid-n", "9"],
             ["tails", *dist, "--grid-lo", "-0.3"],
             ["tails", *dist, "--grid-hi", "0.2", "--grid-n", "many"],  # argparse rejects it
             ["verify", *dist, "--grid-hi", "1.5"],                     # exit 2, /grid-hi
             ["tails", *dist]]
    for argv in calls:
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        out, err = capsys.readouterr()
        assert (rc, out, err) == _fresh_process(argv), argv
    assert build_parser() is build_parser()


def test_cli_tails_counterexample_is_a_finite_pass(capsys):
    rc = main(["tails", "--dist", '{"kind": "counterexample", "i_max": 24}'])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    for c in payload["certificates"]:
        assert c["ok"] is True and math.isfinite(c["max_slack"]), c


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_emit_writes_non_finite_floats_as_null(tmp_path):
    path = tmp_path / "out.json"
    _emit({"a": math.nan, "b": [1.5, math.inf, {"c": -math.inf}], "d": (np.float64("nan"), 2)},
          path)
    payload = json.loads(path.read_text(), parse_constant=_reject_constant)
    assert payload == {"a": None, "b": [1.5, None, {"c": None}], "d": [None, 2]}


def test_cli_fit_rejects_a_non_finite_reward(tmp_path, capsys):
    data = tmp_path / "rows.csv"
    data.write_text("0.5,0.0,1.0\n0.0,0.5,nan\n")
    rc = main(["fit", "--data", str(data), "--dist", '{"kind": "bernoulli", "p": 0.5}'])
    assert rc == 2
    captured = capsys.readouterr()
    assert "/data" in captured.err and captured.out == ""


def test_cli_out_env_override(tmp_path, monkeypatch):
    cfg = _write_cfg(tmp_path, {**SMALL_RUN, "horizon": 10})
    env_out = tmp_path / "env_out"
    monkeypatch.setenv("NEF_BANDIT_OUT", str(env_out))
    rc = main(["bandit", "run", "--config", str(cfg), "--out", str(tmp_path / "ignored")])
    assert rc == 0
    assert (env_out / "rounds.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_cli_bound_prints_terms(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, SMALL_RUN)
    rc = main(["bound", "--config", str(cfg)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["total"] == pytest.approx(out["term1"] + out["term2"] + out["term3"])
    rc2 = main(["bandit", "bound", "--config", str(cfg)])
    assert rc2 == 0
    assert json.loads(capsys.readouterr().out) == out


def test_cli_coverage_small(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {**SMALL_RUN, "replicates": 8, "horizon": 25})
    rc = main(["coverage", "--config", str(cfg)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["replicates"] == 8 and out["aborted"] == 0
    assert 0.0 <= out["coverage_rate"] <= 1.0


def test_commands_build_their_instance_once(tmp_path, monkeypatch):
    import nefbandit.config as config

    builds = []
    real = config.make_instance

    def counting(*args, **kwargs):
        builds.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(config, "make_instance", counting)
    cfg = _write_cfg(tmp_path, {**SMALL_RUN, "replicates": 2, "horizon": 5})
    with_override = ["coverage", "--config", str(cfg), "--replicates", "3"]
    for argv in (with_override, ["coverage", "--config", str(cfg)],
                 ["bandit", "run", "--config", str(cfg), "--out", str(tmp_path / "o")],
                 ["bound", "--config", str(cfg)]):
        builds.clear()
        assert main(argv) == 0
        assert len(builds) == 1, argv


@pytest.mark.parametrize("replicates", ["0", "-2"])
def test_cli_coverage_rejects_nonpositive_replicates(tmp_path, capsys, replicates):
    cfg = _write_cfg(tmp_path, SMALL_RUN)
    rc = main(["coverage", "--config", str(cfg), "--replicates", replicates])
    assert rc == 2
    captured = capsys.readouterr()
    assert "/replicates" in captured.err and captured.out == ""


@pytest.mark.parametrize("command", ["bound", "coverage"])
@pytest.mark.parametrize("field,value,pointer", [
    ("theta_star", [math.nan, -0.3], "/theta_star"),
    ("theta_star", [0.4, math.inf], "/theta_star"),
    ("arms", [[1.0, 0.0], [math.nan, 1.0], [0.6, 0.64]], "/arms"),
    ("arms", [[1.0, 0.0], [0.0, -math.inf], [0.6, 0.64]], "/arms"),
    ("theta_star", ["x", 0.1], "/theta_star"),
    ("theta_star", [[0.4], [-0.3, 0.1]], "/theta_star"),
])
def test_cli_non_finite_config_entry_is_a_usage_error(tmp_path, capsys, command, field, value,
                                                      pointer):
    cfg = _write_cfg(tmp_path, {**SMALL_RUN, field: value})  # json writes NaN/Infinity tokens
    rc = main([command, "--config", str(cfg)])
    assert rc == 2
    captured = capsys.readouterr()
    assert pointer in captured.err and captured.out == ""


def _config_command(command, cfg, out):
    """The argv of ``bound``, a 2-replicate ``coverage`` or ``bandit run`` on config ``cfg``."""
    return {"bound": ["bound", "--config", str(cfg)],
            "coverage": ["coverage", "--config", str(cfg), "--replicates", "2", "--workers", "1"],
            "bandit run": ["bandit", "run", "--config", str(cfg), "--out", str(out)]}[command]


@pytest.mark.parametrize("command", ["bound", "coverage", "bandit run"])
@pytest.mark.parametrize("field,value", [
    # not a number, or not a directory name
    ("S1", "x"), ("S1", [1.0]), ("S2", "x"), ("S2", [1.0]), ("S2", True),
    ("out", 5), ("out", ["a"]),
    # SMALL_RUN: ||theta_star|| = 0.5, x' theta_star in [-0.3, 0.4], S1 = -S2 = 0.5, c1 = c2 = 1
    ("L", 0.5), ("S0", 0.1), ("S1", 0.1), ("S2", 0.1), ("c1", 0.3), ("c2", 0.05),
    ("S1", -1.0), ("S2", 1.5), ("c1", 0.5), ("horizon", 2.0), ("seed", 2.0),
    # a constant, or one derived from it, beyond float range once squared
    ("S0", 1e308), ("L", 1e308), ("K", 1e308), ("S1", 1e308), ("S2", -1e308), ("L", 1e200),
    ("delta", 5e-324),
])
def test_cli_bad_config_field_exits_2_at_its_pointer(tmp_path, capsys, command, field, value):
    cfg = _write_cfg(tmp_path, {**SMALL_RUN, field: value})
    assert main(_config_command(command, cfg, tmp_path / "o")) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.endswith(f"(at /{field})\n"), captured.err


def test_cli_output_directory_that_cannot_be_made_is_a_usage_error(tmp_path, capsys):
    (tmp_path / "taken").write_text("")
    cfg = _write_cfg(tmp_path, {**SMALL_RUN, "out": str(tmp_path / "taken")})
    for command in ("coverage", "bandit run"):
        argv = _config_command(command, cfg, tmp_path / "taken" / "o")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.endswith("(at /out)\n"), captured.err


FUZZ_CONFIG_FIELDS = ["S0", "S1", "S2", "c1", "c2", "L", "K", "lambda", "delta", "horizon",
                      "seed", "out"]
# finite (small integers too, so integer fields can hold), 0, negative, +/-1e308, NaN and
# +/-inf (json writes the tokens Python reads back), strings, lists, booleans, null
_CONFIG_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.integers(-5, 60),
    st.sampled_from([0, 0.0]), st.floats(max_value=0.0, exclude_max=True, allow_infinity=False),
    st.sampled_from([1e308, -1e308, math.nan, math.inf, -math.inf, "x", "", "1.0", [1.0], ["a"],
                     [], True, False, None]))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fuzzed_config_gives_a_run_or_a_pointer(data):
    # any set of fields may be given (the rest are absent), so some configs hold and run
    given_fields = data.draw(st.lists(st.sampled_from(FUZZ_CONFIG_FIELDS), unique=True),
                             label="fields")
    fields = {name: data.draw(_CONFIG_VALUES, label=name) for name in given_fields}
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # a relative "out" lands here
        try:
            cfg = Path(tmp, "cfg.json")
            cfg.write_text(json.dumps({**SMALL_RUN, **fields}))
            for command in ("bound", "coverage", "bandit run"):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = main(_config_command(command, cfg, Path(tmp, "run")))
                assert rc in (0, 1, 2), (command, rc)
                if rc == 2:
                    assert out.getvalue() == "", command
                    assert re.search(rf"\(at /({'|'.join(FUZZ_CONFIG_FIELDS)})\)\n\Z",
                                     err.getvalue()), (command, err.getvalue())
        finally:
            os.chdir(home)


def test_fresh_process_runs_every_command_without_scipy_integrate(tmp_path):
    # nothing in the package integrates; distributions.integrate.quad still reaches the
    # real scipy.integrate.quad, which the benchmark tracer wraps
    cfg = _write_cfg(tmp_path, {**SMALL_RUN, "horizon": 10})
    script = (
        "import contextlib, io, json, sys\n"
        "from nefbandit import cli, distributions\n"
        "exp = json.dumps({'kind': 'exponential', 'rate': 1.0})\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['verify', '--dist', exp, '--grid-n', '20']),\n"
        "             cli.main(['tails', '--dist', exp, '--grid-n', '20']),\n"
        "             cli.main(['coverage', '--config', sys.argv[1], '--replicates', '1'])]\n"
        "loaded = 'scipy.integrate' in sys.modules\n"
        "print(json.dumps({'codes': codes, 'loaded': loaded,\n"
        "                  'quad': distributions.integrate.quad(lambda x: x, 0.0, 1.0)[0]}))\n")
    done = _run_fresh(script, str(cfg))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"codes": [0, 0, 0], "loaded": False, "quad": 0.5}


def test_cli_config_error_exit_code(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"schema": 1})
    rc = main(["bound", "--config", str(cfg)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_run_suite_exit_contract(tmp_path):
    cfg = parse_config({**SMALL_RUN, "horizon": 25})
    rc = run_suite(cfg, tmp_path / "suite")
    assert rc == 0
    names = {p.name for p in (tmp_path / "suite").iterdir()}
    assert {"verify.json", "tails.json", "rounds.csv", "summary.json"} <= names
    assert json.loads((tmp_path / "suite" / "verify.json").read_text())["ok"]


def test_rounds_csv_format_is_reprs():
    from nefbandit.bandit import RoundLog
    row = RoundLog(t=1, arm=2, index=0.125, reward=1.0, inst_regret=0.5,
                   cum_regret=0.5, exact_cover=True, relaxed_cover=False)
    text = rounds_to_csv([row])
    assert text.split("\n")[1] == "1,2,0.125,1.0,0.5,0.5,1,0"


def test_dominance_report_contains_certificate_constants():
    base = parse_distribution({"kind": "gamma", "shape": 2.0, "scale": 1.0})
    cert = build_certificate(base)
    fam = NefFamily(base, -0.8, 0.72)
    payload = dominance_report(base, fam, cert, 30)
    assert payload["ok"]
    for key in ("c1", "C1", "c2", "C2", "g_q_right", "g_q_left", "witness_right"):
        assert key in payload["certificate"]


def test_benchmark_tracer_names_exist_and_are_restored(monkeypatch):
    # perfbench/tracing.py wraps package names from outside; a deleted or renamed
    # name must fail here, not only under a traced benchmark run
    for info in pkgutil.iter_modules(nefbandit.__path__):
        importlib.import_module(f"nefbandit.{info.name}")
    path = Path(__file__).parent.parent / "perfbench" / "tracing.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = {n: m for n, m in sys.modules.items()
               if n == "nefbandit" or n.startswith("nefbandit.")}
    classes = [c for c in vars(nefbandit.distributions).values() if isinstance(c, type)]
    before = ({n: dict(vars(m)) for n, m in modules.items()},
              {c: dict(c.__dict__) for c in classes})
    with tracing.Tracer():
        for mod, fn in tracing.FUNCTIONS:
            traced = getattr(modules[f"nefbandit.{mod}"], fn)
            assert traced is not before[0][f"nefbandit.{mod}"][fn], f"{mod}.{fn}"
    after = ({n: dict(vars(m)) for n, m in modules.items()},
             {c: dict(c.__dict__) for c in classes})
    for snap_before, snap_after in zip(before, after):
        for owner, names in snap_before.items():
            assert snap_after[owner].keys() == names.keys(), owner
            assert all(snap_after[owner][k] is v for k, v in names.items()), owner
