"""Config schema, CLI subcommands, determinism, exit-status contract."""

import argparse
import ast
import collections
import concurrent.futures
import contextlib
import copy
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
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from nefbandit.bandit import RoundLog, RunResult
from nefbandit.config import build_instance, load_config, parse_config
from nefbandit.distributions import NefFamily, distribution_config, parse_distribution
from nefbandit.errors import ParseError
from nefbandit.selfconcordance import build_certificate
from nefbandit.tailbounds import run_tail_suite
from oracle import README_BASES

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
    assert cfg.instance is None


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
    again = parse_config(json.loads(json.dumps(cfg.raw)))
    assert again.raw == cfg.raw
    assert json.dumps(again.raw, sort_keys=True) == json.dumps(cfg.raw, sort_keys=True)


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


def test_cli_verify_reads_the_bernoulli_ratio_at_large_tilts(capsys):
    # |mu''|/mu' of Bernoulli(1/2) is tanh(|u|/2): 1 - 8.5e-18 at u = 40, not 0
    assert main(["verify", "--dist", '{"kind": "bernoulli", "p": 0.5}', "--c1", "100",
                 "--c2", "100", "--grid-lo", "-80", "--grid-hi", "80", "--grid-n", "9"]) == 0
    points = json.loads(capsys.readouterr().out)["points"]
    assert [pt["u"] for pt in points] == list(range(-80, 81, 20))
    for pt in points:
        assert pt["ratio"] == pytest.approx(abs(math.tanh(pt["u"] / 2)), abs=1e-12), pt


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


@pytest.mark.parametrize("lo, hi, outside", [(-0.01, 0.01, True), (-0.5, 5.0, True),
                                             (-5.0, 5.0, False)])
def test_cli_fit_reports_inner_products_outside_the_given_range(tmp_path, capsys, lo, hi,
                                                                outside):
    # three wins at one arm and two losses at the other: theta_hat leaves [-0.5, 0.5]
    X = np.array([[0.9, 0.0]] * 3 + [[0.0, 0.9]] * 2)
    data = tmp_path / "rows.csv"
    np.savetxt(data, np.column_stack([X, [1.0, 1.0, 1.0, 0.0, 0.0]]), delimiter=",")
    rc = main(["fit", "--data", str(data), "--dist", '{"kind": "bernoulli", "p": 0.5}',
               "--param-lo", str(lo), "--param-hi", str(hi)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    inner = X @ np.array(out["theta_hat"])
    assert out["inner_range"] == [float(inner.min()), float(inner.max())]
    assert out["outside_admissible"] is outside
    assert bool(inner.min() < lo or inner.max() > hi) is outside


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


def test_cli_bandit_run_reports_an_aborted_replicate(tmp_path, capsys, monkeypatch):
    # a replicate whose fit fails stops there; the command names the first reason and exits 1
    run = cli.run_replicates

    def aborting(*args, **kwargs):
        first, *rest = run(*args, **kwargs)
        cut = RunResult(RoundLog(*(c[:5] for c in first.columns)), aborted=True,
                        abort_reason="round 6: forced")
        return [cut, *rest]

    monkeypatch.setattr(cli, "run_replicates", aborting)
    cfg = _write_cfg(tmp_path, SMALL_RUN)
    assert main(["bandit", "run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "1 replicate(s) aborted; first: round 6: forced\n"
    assert len((tmp_path / "o" / "rounds.csv").read_text().splitlines()) == 1 + 5
    assert json.loads((tmp_path / "o" / "summary.json").read_text())["aborted"] == 1


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


class _InlinePool:
    """ProcessPoolExecutor stand-in: records each pool size in ``sizes`` and maps
    in-process, so no worker process is ever started."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_cli_workers_capped_at_cpu_count(tmp_path, monkeypatch):
    requested = []
    monkeypatch.setattr(_InlinePool, "sizes", requested)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    cfg = _write_cfg(tmp_path, {**SMALL_RUN, "replicates": 3, "horizon": 10})
    rc = main(["bandit", "run", "--config", str(cfg), "--out", str(tmp_path / "o"),
               "--workers", "64"])
    assert rc == 0 and requested == [2]
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)
    assert main(["coverage", "--config", str(cfg), "--workers", "64"]) == 0
    assert requested == [2]  # one usable core: the replicates run serially


@pytest.mark.parametrize("command", ["coverage", "bandit run"])
@pytest.mark.parametrize("workers", ["0", "-4"])
def test_cli_nonpositive_workers_flag_exits_2_at_its_pointer(tmp_path, capsys, command, workers):
    # the flag meets the rule of the config field it sets, as "workers": 0 in the file does
    cfg = _write_cfg(tmp_path, {**SMALL_RUN, "horizon": 5})
    argv = _config_command(command, cfg, tmp_path / "o") + ["--workers", workers]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.endswith("(at /workers)\n"), captured.err
    assert not (tmp_path / "o").exists()


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


@pytest.mark.parametrize("dist, pointer", [
    ('{"kind": "gaussian", "sigma": "x"}', "/distribution/sigma"),
    ('{"kind": "gaussian", "sigma": "1.0"}', "/distribution/sigma"),
    ('{"kind": "gaussian", "sigma": true}', "/distribution/sigma"),
    ('{"kind": "gaussian", "sigma": -1}', "/distribution/sigma"),
    ('{"kind": "counterexample", "i_max": 2.5}', "/distribution/i_max"),
    ('{"kind": "counterexample", "i_max": 1e400}', "/distribution/i_max"),
    ('{"kind": "counterexample", "i_max": NaN}', "/distribution/i_max"),
    ('{"kind": "counterexample", "i_max": 1}', "/distribution/i_max"),
    ('{"kind": "atoms", "atoms": [[0, 0.5, 7], [1, 0.5]]}', "/distribution/atoms/0"),
    ('{"kind": "atoms", "atoms": [[0, 0.5], [1]]}', "/distribution/atoms/1"),
    ('{"kind": "atoms", "atoms": [[0, "x"], [1, 0.5]]}', "/distribution/atoms/0/1"),
    ('{"kind": "atoms", "atoms": [[0, 0.5], [1, 0.6]]}', "/distribution/atoms"),
    ('{"kind": "atoms", "atoms": {"0": 1}}', "/distribution/atoms"),
    ('{"kind": "gamma", "shape": 2.0, "scale": Infinity}', "/distribution/scale"),
    ('{"kind": "gamma", "shape": 0, "scale": 1.0}', "/distribution/shape"),
    ('{"kind": "bernoulli", "p": 1}', "/distribution/p"),
    ('{"kind": ["gaussian"]}', "/distribution/kind"),
])
def test_cli_bad_distribution_value_exits_2_at_its_pointer(dist, pointer, capsys):
    rc = main(["verify", "--dist", dist, "--grid-n", "5"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == "", captured.err
    assert captured.err.endswith(f"(at {pointer})\n"), captured.err


@pytest.mark.parametrize("flag, pointer", [
    ("--c1=1e-110", "/c1"), ("--c2=1e-110", "/c2"),  # G divides by c^3
    ("--c1=37.6", "/c1"),  # a scale C1 near 1e307 in the numerator of G
])
def test_verify_names_the_rate_that_overflows_the_correction(flag, pointer, capsys):
    rc = main(["verify", "--dist", json.dumps(GAUSSIAN), flag])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "overflow g_q_" in captured.err and captured.err.endswith(f"(at {pointer})\n")


@pytest.mark.parametrize("p, flag", [(0.5, "--c1=46"), (0.5, "--c1=100"), (0.5, "--c1=1000"),
                                     (0.1, "--c2=1000")])
def test_tails_of_a_bernoulli_tilt_past_float_p_passes_every_certificate(p, flag, capsys):
    # expit(0.8 * 100) rounds to 1, so no Bernoulli parameter holds the tilt; the atom
    # kinds' log-domain series measures it all the same
    rc = main(["tails", "--dist", json.dumps({"kind": "bernoulli", "p": p}), flag])
    certs = json.loads(capsys.readouterr().out)["certificates"]
    assert rc == 0
    assert all(c["ok"] and math.isfinite(c["max_slack"]) for c in certs), certs


@pytest.mark.parametrize("c1", ["1e-170", "1e-300"])
def test_tails_at_a_tiny_right_rate_passes_every_certificate(c1, capsys):
    # lam^2 and (c1 - u)^2 underflow here; the caps take the ratios lam/c1 and c1/(c1 - u)
    rc = main(["tails", "--dist", json.dumps(GAUSSIAN), f"--c1={c1}"])
    certs = json.loads(capsys.readouterr().out)["certificates"]
    assert rc == 0
    assert all(c["ok"] and math.isfinite(c["max_slack"]) for c in certs), certs


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


@pytest.mark.parametrize("lam", ["nan", "inf", "0", "-1"])
def test_cli_fit_rejects_a_ridge_weight_that_is_not_finite_and_positive(tmp_path, capsys, lam):
    data = tmp_path / "rows.csv"
    data.write_text("0.5,0.0,1.0\n0.0,0.5,0.0\n")
    rc = main(["fit", "--data", str(data), "--dist", '{"kind": "bernoulli", "p": 0.5}',
               "--lambda", lam])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.endswith("(at /lambda)\n") and captured.out == "", captured.err


@pytest.mark.parametrize("rows", [
    "0.5,0.0,1.0\n0.0,0.5,nan\n", "0.3,x,2\n", "0.5,0.0,1.0\n0.0,1.0\n", "1.0\n0.0\n", None,
], ids=["non-finite", "non-numeric", "ragged", "no-arm-column", "missing"])
def test_cli_fit_rejects_data_it_cannot_read(tmp_path, capsys, rows):
    data = tmp_path / "rows.csv"
    if rows is not None:
        data.write_text(rows)
    rc = main(["fit", "--data", str(data), "--dist", '{"kind": "bernoulli", "p": 0.5}'])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.endswith("(at /data)\n") and captured.out == "", captured.err


def test_cli_out_env_override(tmp_path, monkeypatch):
    cfg = _write_cfg(tmp_path, {**SMALL_RUN, "horizon": 10})
    env_out = tmp_path / "env_out"
    monkeypatch.setenv("NEF_BANDIT_OUT", str(env_out))
    rc = main(["bandit", "run", "--config", str(cfg), "--out", str(tmp_path / "ignored")])
    assert rc == 0
    assert (env_out / "rounds.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_config_distribution_is_read_from_raw():
    cfg = parse_config(SMALL_RUN)
    assert cfg.distribution is cfg.raw["distribution"] == SMALL_RUN["distribution"]
    with pytest.raises(TypeError):
        type(cfg)(raw=cfg.raw, distribution={"kind": "gaussian", "sigma": 1.0})


def test_cli_bound_prints_terms(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, SMALL_RUN)
    rc = main(["bound", "--config", str(cfg)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["total"] == pytest.approx(out["term1"] + out["term2"] + out["term3"])
    rc2 = main(["bandit", "bound", "--config", str(cfg)])
    assert rc2 == 0
    assert json.loads(capsys.readouterr().out) == out


def test_cli_bound_writes_an_infinite_term_as_null(tmp_path, capsys):
    # mu'(750) underflows to 0.0, so kappa, term2 and the total are +inf
    cfg = _write_cfg(tmp_path, {"distribution": {"kind": "bernoulli", "p": 0.5},
                                "arms": [[1.0, 0.0], [0.0, 1.0]], "theta_star": [750.0, 0.0],
                                "horizon": 20})
    assert main(["bound", "--config", str(cfg)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kappa"] is out["term2"] is out["total"] is None
    assert out["mu_dot_star"] == out["term1"] == 0.0 and out["term3"] > 0.0


def test_cli_coverage_small(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {**SMALL_RUN, "replicates": 8, "horizon": 25})
    rc = main(["coverage", "--config", str(cfg)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["replicates"] == 8 and out["aborted"] == 0
    assert 0.0 <= out["coverage_rate"] <= 1.0


def test_coverage_commands_match_the_benchmark_reference(capsys):
    # the coverage twin of the golden sha256 check: each of the benchmark's 64 seed-0 commands
    # (10 replicates each, seeds 7..70) keeps its pinned covered/aborted counts
    reference = Path(__file__).parent.parent / "perfbench" / "reference.json"
    expected = json.loads(reference.read_text())["coverage"]
    assert len(expected) == 64
    for i in range(64):
        assert main(["coverage", "--config", str(DATA / "coverage_config.json"),
                     "--replicates", "10", "--seed", str(7 + i), "--workers", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert {"covered": report["covered"], "aborted": report["aborted"]} == expected[i], i


def test_cli_coverage_counts_an_overflowing_newton_trial_as_infeasible(tmp_path, capsys):
    # a reward near e^17 sends the first damped-Newton trials past float range in exp;
    # such a trial is shortened like one off the domain, with no RuntimeWarning
    cfg = _write_cfg(tmp_path, {"distribution": {"kind": "poisson", "nu": 1.0},
                                "arms": [[1.0, 0.0], [0.0, 1.0]], "theta_star": [17.0, 0.0],
                                "horizon": 3})
    assert main(["coverage", "--config", str(cfg)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["replicates"], out["covered"], out["aborted"]) == (1, 1, 0)


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


CIRCLE_RUN = {**SMALL_RUN, "arms": {"circle": {"n": 3, "radius": 0.8}}}
POISSON_400 = {"distribution": {"kind": "poisson", "nu": 1.0}, "arms": [[1.0, 0.0], [0.0, 1.0]],
               "theta_star": [400, 0]}


@pytest.mark.parametrize("patch, pointer", [
    ({"arms": {"circle": {"n": "x", "radius": 0.5}}}, "/arms/circle/n"),
    ({"arms": {"circle": {"n": 1e400, "radius": 0.5}}}, "/arms/circle/n"),
    ({"arms": {"circle": {"n": 2.7, "radius": 0.5}}}, "/arms/circle/n"),
    ({"arms": {"circle": {"n": True, "radius": 0.5}}}, "/arms/circle/n"),
    ({"arms": {"circle": {"n": 0, "radius": 0.5}}}, "/arms/circle/n"),
    ({"arms": {"circle": {"n": 4, "radius": "0.5"}}}, "/arms/circle/radius"),
    ({"arms": {"circle": {"n": 4, "radius": 1.5}}}, "/arms/circle/radius"),
    ({"arms": [["1", 0], [0, True]]}, "/arms/0/0"),
    ({"arms": [[1.0, 0.0], [0, True]]}, "/arms/1/1"),
    ({"theta_star": ["0.4", False]}, "/theta_star/0"),
    ({"theta_star": [0.4, False]}, "/theta_star/1"),
    ({"theta_star": 0.4}, "/theta_star"),
    ({"schema": True}, "/schema"), ({"schema": 1.0}, "/schema"), ({"schema": 2}, "/schema"),
    # L = e^400 squares beyond float range: it comes from the wider end of [S2, S1]
    (POISSON_400, "/S0"), ({**POISSON_400, "S0": 400}, "/S0"), ({**POISSON_400, "S1": 400}, "/S1"),
    ({"arms": {"circle": {"n": 3, "radius": 0.5}, "n": 3}}, "/arms"),  # a second generator key
    ({"arms": [[1.0, 0.0], [0.5]]}, "/arms"), ({"arms": 0.5}, "/arms"),  # ragged; no list
    ({"grid": [0.0, 1.0]}, "/grid"), ({"theta_star": [0.4, -0.3, 0.1]}, "/theta_star"),
    # a Poisson(1) arm at the tilt 22 has a tilted mean e^22 above 2^31
    ({"distribution": {"kind": "poisson", "nu": 1.0}, "theta_star": [22.0, 0.0]},
     "/distribution"),
    ({"distribution": "poisson"}, "/distribution"),
    ({"distribution": {"nu": 1.0}}, "/distribution"),  # no kind
    ({"distribution": {"kind": "atoms", "atoms": []}}, "/distribution/atoms"),
    # a tail rate that no tail of the base reaches
    ({"distribution": EXPONENTIAL, "c1": 5.0}, "/c1"),
    ({"distribution": {"kind": "laplace", "scale": 1.0}, "c2": 1.5}, "/c2"),
])
def test_cli_bad_nested_config_value_exits_2_at_its_pointer(tmp_path, capsys, patch, pointer):
    cfg = _write_cfg(tmp_path, {**SMALL_RUN, **patch})
    assert main(["bound", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.endswith(f"(at {pointer})\n"), captured.err


@pytest.mark.parametrize("patch, pointer", [  # 10**400 fails before anything is allocated
    ({"horizon": 10**400}, "/horizon"), ({"seed": 10**400}, "/seed"),
    ({"arms": {"circle": {"n": 10**400, "radius": 0.5}}}, "/arms/circle/n"),
    ({"distribution": {"kind": "counterexample", "i_max": 10**400}}, "/distribution/i_max"),
])
def test_cli_integer_beyond_float_range_exits_2_at_its_pointer(tmp_path, capsys, patch, pointer):
    cfg = _write_cfg(tmp_path, {**SMALL_RUN, **patch})  # json writes the integer digit for digit
    assert main(["bound", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.endswith(f"(at {pointer})\n"), captured.err


def test_cli_circle_beyond_numpy_index_range_exits_2_at_its_size(tmp_path, capsys):
    # 10**300 lies within float range, and numpy refused it with a bare ValueError
    cfg = _write_cfg(tmp_path, {**SMALL_RUN, "arms": {"circle": {"n": 10**300, "radius": 0.5}}})
    for command in ("bound", "coverage"):
        assert main(_config_command(command, cfg, tmp_path / "o")) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.endswith("(at /arms/circle/n)\n"), captured.err


def _config_command(command, cfg, out):
    """The argv of ``bound``, a 2-replicate ``coverage`` or ``bandit run`` on config ``cfg``."""
    return {"bound": ["bound", "--config", str(cfg)],
            "coverage": ["coverage", "--config", str(cfg), "--replicates", "2", "--workers", "1"],
            "bandit run": ["bandit", "run", "--config", str(cfg), "--out", str(out)]}[command]


@pytest.mark.parametrize("command", ["bound", "coverage", "bandit run"])
@pytest.mark.parametrize("field,value", [
    # not a number, or not a directory name
    ("S1", "x"), ("S1", [1.0]), ("S2", "x"), ("S2", [1.0]), ("S2", True),
    ("out", 5), ("out", ["a"]), ("out", ""),
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


@pytest.mark.parametrize("text, command, pointer", [
    ("[1, 2]", "bound", "/"), ("{", "bound", "/"),  # not an object; not JSON
    (json.dumps(SMALL_RUN), "bandit run", "/out"),  # no --out flag, config field or variable
] + [(json.dumps(MINIMAL), command, "/arms") for command in ("bound", "coverage", "bandit run")])
def test_cli_config_without_an_object_an_out_or_arms_exits_2_at_its_pointer(
        tmp_path, capsys, monkeypatch, text, command, pointer):
    monkeypatch.delenv(cli._OUT_ENV, raising=False)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    argv = _config_command(command, cfg, tmp_path / "o")
    if pointer == "/out":
        argv = argv[:-2]  # without its --out flag
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.endswith(f"(at {pointer})\n"), captured.err


@pytest.mark.parametrize("command", ["coverage", "bandit run"])
def test_cli_empty_out_flag_is_a_usage_error(tmp_path, capsys, command, monkeypatch):
    # "" names no directory: it must not fall back to the working directory
    cfg = _write_cfg(tmp_path, SMALL_RUN)
    monkeypatch.chdir(tmp_path)
    assert main([*command.split(), "--config", str(cfg), "--out", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.endswith("(at /out)\n"), captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


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


# SMALL_RUN's instance under kinds with a bounded domain (Exponential, Gamma) or
# fast-growing moments (Poisson) besides its own Bernoulli
FUZZ_RUN_DISTS = [SMALL_RUN["distribution"], EXPONENTIAL,
                  {"kind": "gamma", "shape": 2.0, "scale": 1.0}, {"kind": "poisson", "nu": 2.0}]
# run flag values: small, 0, negative, +/-2**40; --replicates 2**40 is left out, as it is a
# valid request for 2**40 replicates
_FLAG_VALUES = st.one_of(st.integers(-5, 3), st.sampled_from([2**40, -2**40]))
_RUN_FLAGS = st.fixed_dictionaries({}, optional={
    "--seed": _FLAG_VALUES, "--workers": _FLAG_VALUES,
    "--replicates": st.one_of(st.integers(-5, 3), st.just(-2**40))})


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fuzzed_config_gives_a_run_or_a_pointer(data):
    # any set of fields and run flags may be given (the rest are absent), so some configs
    # hold and run
    given_fields = data.draw(st.lists(st.sampled_from(FUZZ_CONFIG_FIELDS), unique=True),
                             label="fields")
    fields = {name: data.draw(_CONFIG_VALUES, label=name) for name in given_fields}
    dist = data.draw(st.sampled_from(FUZZ_RUN_DISTS), label="distribution")
    flags = data.draw(_RUN_FLAGS, label="flags")
    pointers = "|".join(FUZZ_CONFIG_FIELDS + ["workers", "replicates"])
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(_InlinePool, "sizes", [])
        mp.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
        mp.setattr(cli.os, "cpu_count", lambda: 4)  # a pool of up to 4, all in-process
        os.chdir(tmp)  # a relative "out" lands here
        try:
            cfg = Path(tmp, "cfg.json")
            cfg.write_text(json.dumps({**SMALL_RUN, "distribution": dist, **fields}))
            for command in ("bound", "coverage", "bandit run"):
                argv = _config_command(command, cfg, Path(tmp, "run"))
                if command != "bound":  # bandit run has no --replicates
                    argv += [x for flag, value in flags.items()
                             if command == "coverage" or flag != "--replicates"
                             for x in (flag, str(value))]
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = main(argv)
                assert rc in (0, 1, 2), (argv, rc)
                counts = [int(v) for f, v in zip(argv, argv[1:])
                          if f in ("--workers", "--replicates")]
                if min(counts, default=1) < 1:  # outside its field's rule: never run
                    assert rc == 2, argv
                if rc == 2:
                    assert out.getvalue() == "", argv
                    assert re.search(rf"\(at /({pointers})\)\n\Z", err.getvalue()), \
                        (argv, err.getvalue())
        finally:
            os.chdir(home)


_EDGE_SHARES = st.sampled_from([0.5, 0.9, 0.999, 1 - 1e-6, 1 - 1e-8])
_EDGE_SCALES = st.sampled_from([1e-6, 1e-3, 1.0, 1e3])


@st.composite
def _edge_runs(draw):
    """A valid 2-replicate, 20-round SMALL_RUN near its kind's domain end: x' theta_star up to
    a share 1 - 1e-8 of the upper end (rate for Exponential, 1/scale for Gamma), Poisson
    tilts up to 20 with draw means nu e^u up to 1e5, or Bernoulli with |theta| up to 40."""
    kind = draw(st.sampled_from(["exponential", "gamma", "poisson", "bernoulli"]))
    if kind == "bernoulli":
        dist = {"kind": kind, "p": draw(st.sampled_from([1e-6, 0.5, 1 - 1e-6]))}
        theta = draw(st.lists(st.floats(-40.0, 40.0), min_size=2, max_size=2))
    else:
        if kind == "poisson":
            dist = {"kind": kind, "nu": draw(_EDGE_SCALES)}
            reach = draw(st.floats(0.0, min(20.0, math.log(1e5 / dist["nu"]))))
        elif kind == "exponential":
            dist = {"kind": kind, "rate": draw(_EDGE_SCALES)}
            reach = draw(_EDGE_SHARES) * dist["rate"]
        else:
            dist = {"kind": kind, "shape": draw(_EDGE_SCALES), "scale": draw(_EDGE_SCALES)}
            reach = draw(_EDGE_SHARES) / dist["scale"]
        angle = draw(st.floats(0.0, 2.0 * math.pi))
        theta = [reach * math.cos(angle), reach * math.sin(angle)]
    return {**SMALL_RUN, "distribution": dist, "theta_star": theta, "horizon": 20,
            "replicates": 2, "seed": draw(st.integers(0, 3))}


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(config=_edge_runs())
def test_fuzzed_valid_run_near_its_domain_end_gives_a_coverage_report(config):
    # pyproject turns every RuntimeWarning into an error; the traced peak stays small
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp, "cfg.json")
        cfg.write_text(json.dumps(config))
        out, err = io.StringIO(), io.StringIO()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(["coverage", "--config", str(cfg)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert rc in (0, 1), (config, err.getvalue())
    report = json.loads(out.getvalue())
    assert report["replicates"] == 2 and (report["aborted"] > 0) == (rc == 1), report
    assert peak < 20e6, (config, peak)


# each spot below the top level that holds a number, with its config and whether the
# number rule asks for an integer there
_ATOMS_RUN = {**SMALL_RUN, "distribution": {"kind": "atoms", "atoms": [[0.0, 0.5], [1.0, 0.5]]}}
FUZZ_VALUE_SPOTS = [
    *(({**SMALL_RUN, "distribution": spec}, ("distribution", name), name == "i_max")
      for spec in [{"kind": "bernoulli", "p": 0.5}, GAUSSIAN, EXPONENTIAL,
                   {"kind": "poisson", "nu": 2.0}, {"kind": "laplace", "scale": 1.0},
                   {"kind": "gamma", "shape": 2.0, "scale": 1.0},
                   {"kind": "counterexample", "i_max": 24}]
      for name in spec if name != "kind"),
    (_ATOMS_RUN, ("distribution", "atoms", 1, 0), False),
    (_ATOMS_RUN, ("distribution", "atoms", 0, 1), False),
    (CIRCLE_RUN, ("arms", "circle", "n"), True), (CIRCLE_RUN, ("arms", "circle", "radius"), False),
    (SMALL_RUN, ("arms", 1, 0), False), (SMALL_RUN, ("theta_star", 1), False),
    (SMALL_RUN, ("schema",), True),
]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fuzzed_nested_config_value_gives_a_run_or_a_pointer(data):
    # one value of the top-level pool at one nested spot: a value outside the number rule
    # exits 2 at exactly that spot, and any other runs or exits 2 with a pointer
    config, path, integer = data.draw(st.sampled_from(FUZZ_VALUE_SPOTS), label="spot")
    value = data.draw(_CONFIG_VALUES, label="value")
    config = copy.deepcopy(config)
    holder = config
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    spot = "/" + "/".join(map(str, path))
    number = isinstance(value, int if integer else (int, float)) and \
        not isinstance(value, bool) and math.isfinite(value)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp, "cfg.json")
        cfg.write_text(json.dumps(config))
        for command in ("bound", "coverage"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(_config_command(command, cfg, Path(tmp, "run")))
            assert rc in (0, 1, 2), (config, rc)
            if rc == 2 or not number:
                pointer = re.search(r"\(at (/[^)]*)\)\n\Z", err.getvalue())
                assert rc == 2 and out.getvalue() == "" and pointer, (config, err.getvalue())
                assert pointer.group(1) == spot or number, (config, err.getvalue())


# arm sets and true parameters of any shape: no rows, rows of no coordinates, ragged rows, and
# theta_star of any length; coordinates keep every row inside the unit ball
_COORD = st.sampled_from([0.0, 0.3, -0.4, 0.5])


@st.composite
def _arm_set_shapes(draw):
    d, n = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    arms = [draw(st.lists(_COORD, min_size=d, max_size=d)) for _ in range(n)]
    if n > 1 and draw(st.booleans()):  # one row a coordinate short or long
        arms[-1] = arms[-1][:-1] if d and draw(st.booleans()) else arms[-1] + [0.0]
    size = draw(st.sampled_from([d, d, max(d - 1, 0), d + 1]))
    return arms, draw(st.lists(_COORD, min_size=size, max_size=size))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@example(shape=([], [0.4, -0.3])).via("no arms")
@example(shape=([[]], [])).via("one arm of dimension 0")
@example(shape=([[], []], [])).via("two arms of dimension 0")
@example(shape=([[0.6, 0.0], [0.3]], [0.4, -0.3])).via("ragged")
@example(shape=([[0.3], [0.6, 0.0]], [0.4])).via("ragged, short first row")
@example(shape=(SMALL_RUN["arms"], [])).via("theta_star of length 0")
@example(shape=(SMALL_RUN["arms"], [0.4])).via("theta_star of length d - 1")
@example(shape=(SMALL_RUN["arms"], [0.4, -0.3, 0.0])).via("theta_star of length d + 1")
@given(shape=_arm_set_shapes())
def test_fuzzed_arm_set_shape_gives_a_run_or_a_pointer(shape):
    # a shape the arm-set rule rejects exits 2 at /arms or /theta_star, never a traceback
    arms, theta = shape
    d = len(arms[0]) if arms else 0
    if not d or any(len(a) != d for a in arms):
        pointer = "/arms"
    else:
        pointer = "/theta_star" if len(theta) != d else None
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp, "cfg.json")
        cfg.write_text(json.dumps({**SMALL_RUN, "arms": arms, "theta_star": theta}))
        for command in ("bound", "coverage", "bandit run"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(_config_command(command, cfg, Path(tmp, "run")))
            assert rc in (0, 1, 2), (command, shape, rc)
            if pointer is not None or rc == 2:
                at = re.search(r"\(at (/[^)]*)\)\n\Z", err.getvalue())
                assert rc == 2 and out.getvalue() == "" and at, (command, err.getvalue())
                assert pointer in (None, at.group(1)), (command, shape, err.getvalue())


def test_cli_bound_on_an_arm_of_no_coordinates_exits_2_at_arms(tmp_path, capsys):
    # d = 0 would divide by zero in the run check's log term
    cfg = _write_cfg(tmp_path, {"distribution": EXPONENTIAL, "arms": [[]], "theta_star": []})
    assert main(["bound", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.endswith("(at /arms)\n"), captured.err


@pytest.mark.parametrize("command", ["bound", "coverage", "bandit run"])
def test_cli_a_ridge_weight_whose_radius_squares_past_float_range_exits_2_at_lambda(
        tmp_path, capsys, command):
    # gamma_T's 4 M d / sqrt(lambda) term is about 1e154, so gamma_T squared overflows
    cfg = _write_cfg(tmp_path, {**SMALL_RUN, "lambda": 1e-308})
    assert main(_config_command(command, cfg, tmp_path / "o")) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.endswith("(at /lambda)\n"), captured.err


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


README_SPECS = {spec["kind"]: spec for spec in map(distribution_config, README_BASES[:8])}
# the kinds whose closed forms call scipy.special (ndtr, pdtr, gammainc, ...)
SPECIAL_KINDS = {"gaussian", "poisson", "gamma"}
ROUND_LOOPS = ("golden", "coverage")


@pytest.mark.parametrize("case", [*ROUND_LOOPS, *README_SPECS])
def test_fresh_process_loads_scipy_special_only_for_the_kinds_that_call_it(case, tmp_path):
    if case == "golden":  # the golden instance (Exponential), shortened
        golden = json.loads((DATA / "golden_config.json").read_text())
        cfg = _write_cfg(tmp_path, {**golden, "horizon": 20, "replicates": 1})
        commands = [["bandit", "run", "--config", str(cfg), "--out", str(tmp_path / "run")]]
    elif case == "coverage":  # the coverage instance (Bernoulli), shortened
        coverage = json.loads((DATA / "coverage_config.json").read_text())
        cfg = _write_cfg(tmp_path, {**coverage, "horizon": 20, "replicates": 4})
        commands = [["coverage", "--config", str(cfg), "--workers", "1"]]
    else:
        spec = json.dumps(README_SPECS[case])
        commands = [[call, "--dist", spec, "--grid-n", "20"] for call in ("verify", "tails")]
    script = (
        "import contextlib, io, json, sys\n"
        "from nefbandit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps({'codes': codes, 'loaded': 'scipy.special' in sys.modules,\n"
        "                  'linalg': 'scipy.linalg' in sys.modules,\n"
        "                  'futures': 'concurrent.futures' in sys.modules\n"
        "                             and 'scipy' not in sys.modules}))\n")
    done = _run_fresh(script, json.dumps(commands))
    assert done.returncode == 0, done.stderr
    # scipy.linalg holds the posv of the fits, so only the round loop loads it; a serial
    # run starts no process pool, so concurrent.futures comes only with scipy (whose
    # numpy.testing import loads it)
    assert json.loads(done.stdout) == {"codes": [0] * len(commands),
                                       "loaded": case in SPECIAL_KINDS,
                                       "linalg": case in ROUND_LOOPS, "futures": False}


def _parser_options(parser, words=()):
    """{subcommand words: option strings} of every leaf parser under ``parser``."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {" ".join(words): {o for a in parser._actions for o in a.option_strings
                                  if o not in ("-h", "--help")}}
    return {key: opts for name, sub in subs[0].choices.items()
            for key, opts in _parser_options(sub, (*words, name)).items()}


def test_readme_cli_synopsis_lists_every_option_of_every_subcommand():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = re.search(r"^## CLI\n\n```\n(.*?)```", readme, re.S | re.M).group(1)
    synopsis = {}
    for line in block.splitlines():
        words = line.split()[1:]  # after "nef-bandit"
        n = next(i for i, w in enumerate(words) if w.startswith(("-", "[")))
        synopsis[" ".join(words[:n])] = set(re.findall(r"--[a-z][a-z0-9-]*", line))
    assert synopsis == _parser_options(build_parser())


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


def test_package_namespace_is_the_union_of_the_module_export_lists():
    modules = [module for info in pkgutil.iter_modules(nefbandit.__path__)
               if hasattr(module := importlib.import_module(f"nefbandit.{info.name}"), "__all__")]
    assert {m.__name__ for m in modules} >= {"nefbandit.bandit", "nefbandit.glm", "nefbandit.rng"}
    exported = [name for module in modules for name in module.__all__]
    assert len(set(exported)) == len(exported)  # no name is declared twice
    public = {name for name, value in vars(nefbandit).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(exported) == set(getattr(nefbandit, "__all__", ()))
    for module in modules:
        for name in module.__all__:
            assert getattr(nefbandit, name) is getattr(module, name), name


def test_every_private_name_of_the_package_is_read_somewhere():
    # each single-underscore name a module binds at top level or as a method appears in src/
    # once more than it is defined, so a refactor cannot leave a helper without a reader
    texts = [p.read_text() for p in sorted(Path(nefbandit.__file__).parent.glob("*.py"))]
    defined = collections.Counter()
    for tree in map(ast.parse, texts):
        for node in tree.body:
            body = node.body if isinstance(node, ast.ClassDef) else []
            defined.update(n.name for n in [node, *body]
                           if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(n.id for t in targets for n in ast.walk(t)
                               if isinstance(n, ast.Name))
    words = collections.Counter(w for text in texts for w in re.findall(r"\w+", text))
    private = {name: k for name, k in defined.items() if re.fullmatch(r"_[^_]\w*", name)}
    assert len(private) > 20
    assert [name for name, k in private.items() if words[name] <= k] == []
