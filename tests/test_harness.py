"""Config schema, CLI subcommands, determinism, exit-status contract."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from nefbandit.cli import (
    _emit,
    dominance_report,
    main,
    rounds_to_csv,
    run_suite,
)
from nefbandit.config import build_instance, load_config, parse_config
from nefbandit.distributions import NefFamily, parse_distribution
from nefbandit.errors import ParseError
from nefbandit.selfconcordance import build_certificate

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
])
def test_cli_non_finite_config_entry_is_a_usage_error(tmp_path, capsys, command, field, value,
                                                      pointer):
    cfg = _write_cfg(tmp_path, {**SMALL_RUN, field: value})  # json writes NaN/Infinity tokens
    rc = main([command, "--config", str(cfg)])
    assert rc == 2
    captured = capsys.readouterr()
    assert pointer in captured.err and captured.out == ""


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
