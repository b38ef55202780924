"""The verify report writer against json.dumps, and the --dist argument of every command."""

import dataclasses
import json
import math

import numpy as np
import pytest

from nefbandit import cli, selfconcordance
from nefbandit.cli import _emit, dominance_report, main, run_suite
from nefbandit.config import parse_config
from nefbandit.distributions import Gamma, NefFamily, Shifted, gamma_ratio, parse_distribution
from nefbandit.selfconcordance import TailConstants, build_certificate, stretch_bound
from nefbandit.tailbounds import run_tail_suite

from oracle import default_tail_rates, dominance_payload, strict_json

README_SPECS = [
    {"kind": "bernoulli", "p": 0.5}, {"kind": "gaussian", "sigma": 1.0},
    {"kind": "exponential", "rate": 1.0}, {"kind": "poisson", "nu": 2.0},
    {"kind": "laplace", "scale": 1.0}, {"kind": "gamma", "shape": 2.0, "scale": 1.0},
    {"kind": "atoms", "atoms": [[0.0, 0.5], [1.0, 0.5]]},
    {"kind": "counterexample", "i_max": 24},
]
OTHER_SPECS = [
    {"kind": "gamma", "shape": 0.5, "scale": 2.0}, {"kind": "laplace", "scale": 0.4},
    {"kind": "poisson", "nu": 0.3}, {"kind": "poisson", "nu": 10.0},
    {"kind": "bernoulli", "p": 0.1}, {"kind": "gaussian", "sigma": 2.5},
    {"kind": "atoms", "atoms": [[-1.0, 0.2], [0.5, 0.3], [2.0, 0.5]]},
]
FLAG_SETS = [
    [],
    ["--grid-n", "1"],
    ["--grid-lo", "-0.3", "--grid-hi", "0.25", "--grid-n", "37"],
    ["--c1", "0.4", "--c2", "0.35"],
]
# an inline object longer than a file name may be (255 bytes)
LONG_ATOMS = {"kind": "atoms", "atoms": [[0.1 * k, 0.025] for k in range(40)]}


def _spec_id(spec):
    return "-".join(str(v) for v in spec.values())[:40]


def _expected(spec, flags) -> dict:
    """The oracle report of ``verify --dist spec *flags``, its tilt range defaulted at 0.8
    of each tail rate as the CLI defaults it."""
    opts = dict(zip(flags[::2], flags[1::2]))
    base = parse_distribution(spec)
    d1, d2 = default_tail_rates(base)
    c1, c2 = float(opts.get("--c1", d1)), float(opts.get("--c2", d2))
    cert = build_certificate(base, c1=c1, c2=c2)
    return dominance_payload(base, cert, float(opts.get("--grid-lo", -0.8 * c2)),
                             float(opts.get("--grid-hi", 0.8 * c1)),
                             int(opts.get("--grid-n", 200)))


def _expected_tails(spec, flags) -> dict:
    """The oracle report of ``tails --dist spec *flags``: the suite's certificates on the
    tilt range defaulted at 0.8 of each tail rate."""
    opts = dict(zip(flags[::2], flags[1::2]))
    base = parse_distribution(spec)
    d1, d2 = default_tail_rates(base)
    c1, c2 = float(opts.get("--c1", d1)), float(opts.get("--c2", d2))
    interval = (float(opts.get("--grid-lo", -0.8 * c2)), float(opts.get("--grid-hi", 0.8 * c1)))
    certs = run_tail_suite(base, c1=c1, c2=c2, interval=interval,
                           grid_n=int(opts.get("--grid-n", 200)))
    return {"schema": 1, "distribution": base.kind, "certificates": [c.as_dict() for c in certs],
            "ok": all(c.ok for c in certs)}


def _assert_report_bytes(argv, expected, report, capsys):
    """``main(argv)`` writes the strict JSON of ``expected`` to stdout, and to ``report``
    with ``--report``, with the exit status of its verdict and nothing on stderr."""
    text = strict_json(expected)
    rc = 0 if expected["ok"] else 1
    assert main(argv) == rc
    out = capsys.readouterr()
    assert out.out == text and out.err == ""
    assert main([*argv, "--report", str(report)]) == rc
    assert report.read_bytes() == text.encode() and capsys.readouterr().out == ""


@pytest.mark.parametrize("flags", FLAG_SETS, ids=lambda f: " ".join(f) or "default")
@pytest.mark.parametrize("spec", README_SPECS + OTHER_SPECS, ids=_spec_id)
def test_verify_report_bytes_are_the_json_dumps_bytes(spec, flags, tmp_path, capsys):
    _assert_report_bytes(["verify", "--dist", json.dumps(spec), *flags], _expected(spec, flags),
                         tmp_path / "verify.json", capsys)


@pytest.mark.parametrize("flags", FLAG_SETS, ids=lambda f: " ".join(f) or "default")
@pytest.mark.parametrize("spec", README_SPECS + OTHER_SPECS, ids=_spec_id)
def test_tails_report_bytes_are_the_json_dumps_bytes(spec, flags, tmp_path, capsys):
    _assert_report_bytes(["tails", "--dist", json.dumps(spec), *flags],
                         _expected_tails(spec, flags), tmp_path / "tails.json", capsys)


@pytest.mark.parametrize("grid_n", [1, 200])
def test_library_report_of_a_shifted_gamma_is_the_json_dumps_report(grid_n, tmp_path):
    base = Shifted(Gamma(0.5, 2.0), -1.0)
    cert = build_certificate(base)
    lo, hi = -0.8 * cert.tail.c2, 0.8 * cert.tail.c1
    path = tmp_path / "verify.json"
    _emit(dominance_report(base, NefFamily(base, lo, hi), cert, grid_n), path)
    assert path.read_bytes() == strict_json(dominance_payload(base, cert, lo, hi, grid_n)).encode()


@pytest.mark.parametrize("grid", [None, {"lo": -0.5, "hi": 0.4, "n": 33}])
def test_run_suite_verify_json_is_the_json_dumps_report(grid, tmp_path):
    spec = {"kind": "gamma", "shape": 2.0, "scale": 1.0}
    cfg = parse_config({"schema": 1, "distribution": spec,
                        **({"grid": grid} if grid else {})})
    assert run_suite(cfg, tmp_path) == 0
    base = parse_distribution(spec)
    cert = build_certificate(base)
    grid = grid or {"lo": -0.8 * cert.tail.c2, "hi": 0.8 * cert.tail.c1, "n": 200}
    expected = dominance_payload(base, cert, grid["lo"], grid["hi"], grid["n"])
    assert (tmp_path / "verify.json").read_bytes() == strict_json(expected).encode()


@pytest.mark.parametrize("grid", [None, {"lo": -0.5, "hi": 0.4, "n": 33}])
def test_run_suite_tails_json_is_the_tails_command_report(grid, tmp_path, capsys):
    spec = {"kind": "gamma", "shape": 2.0, "scale": 1.0}
    cfg = parse_config({"schema": 1, "distribution": spec,
                        **({"grid": grid} if grid else {})})
    assert run_suite(cfg, tmp_path) == 0
    c1, c2 = default_tail_rates(parse_distribution(spec))
    grid = grid or {"lo": -0.8 * c2, "hi": 0.8 * c1, "n": 200}
    assert main(["tails", "--dist", json.dumps(spec), "--grid-lo", repr(grid["lo"]),
                 "--grid-hi", repr(grid["hi"]), "--grid-n", str(grid["n"])]) == 0
    assert (tmp_path / "tails.json").read_text() == capsys.readouterr().out


def test_non_finite_ratio_and_bound_are_written_as_null(monkeypatch, capsys):
    def ratio(dist, u):  # NaN at the third tilt
        r = gamma_ratio(dist, u)
        r[2] = math.nan
        return r

    def bound(cert, u):  # +inf at the fifth tilt, NaN at the seventh
        b = stretch_bound(cert, u)
        b[4], b[6] = math.inf, math.nan
        return b

    monkeypatch.setattr(selfconcordance, "gamma_ratio", ratio)
    monkeypatch.setattr(selfconcordance, "stretch_bound", bound)
    spec = {"kind": "exponential", "rate": 1.0}
    rc = main(["verify", "--dist", json.dumps(spec), "--grid-n", "9"])
    out = capsys.readouterr()
    base = parse_distribution(spec)
    cert = build_certificate(base)
    expected = dominance_payload(base, cert, -0.8 * cert.tail.c2, 0.8 * cert.tail.c1, 9,
                                 ratio=ratio, bound=bound)
    assert rc == 1 and out.out == strict_json(expected)
    assert [p["ok"] for p in expected["points"]] == [True] * 2 + [False] + [True] \
        + [False] + [True] + [False] + [True] * 2
    points = json.loads(out.out)["points"]
    assert points[2]["ratio"] is None and points[4]["bound"] is None
    assert points[6]["bound"] is None and points[4]["ok"] is False
    first = expected["points"][2]
    assert out.err == f"violation at u={first['u']}: ratio nan > bound {first['bound']}\n"


def test_corrupted_certificate_keeps_its_report_and_stderr_line(tmp_path, monkeypatch,
                                                                 capsys):
    def corrupted(base, c1=None, c2=None):
        cert = build_certificate(base, c1=c1, c2=c2)
        squashed = TailConstants(cert.tail.c1, 1e-6, cert.tail.c2, 1e-6)
        return dataclasses.replace(cert, tail=squashed, g_q_right=1e-9, g_q_left=1e-9)

    monkeypatch.setattr(cli, "build_certificate", corrupted)
    spec = {"kind": "exponential", "rate": 1.0}
    report = tmp_path / "verify.json"
    rc = main(["verify", "--dist", json.dumps(spec), "--grid-n", "40", "--report", str(report)])
    base = parse_distribution(spec)
    cert = corrupted(base)
    expected = dominance_payload(base, cert, -0.8 * cert.tail.c2, 0.8 * cert.tail.c1, 40)
    first = next(p for p in expected["points"] if not p["ok"])
    assert rc == 1 and expected["violations"] > 0
    assert report.read_bytes() == strict_json(expected).encode()
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"violation at u={first['u']}: ratio {first['ratio']} > "
                       f"bound {first['bound']}\n")


# ---------------------------------------------------------------------------
# --dist: a file or an inline JSON object, whatever its length
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command", ["verify", "tails"])
def test_long_inline_dist_parses_as_json(command, capsys):
    arg = json.dumps(LONG_ATOMS)
    assert len(arg) > 255
    rc = main([command, "--dist", arg, "--grid-n", "20"])
    out = capsys.readouterr()
    assert rc == 0, out.err
    assert json.loads(out.out)["distribution"] == "atoms"


def test_fit_takes_a_long_inline_dist(tmp_path, capsys):
    rng = np.random.Generator(np.random.Philox(key=[5, 6]))
    X = 0.5 * rng.random((30, 2))
    y = 0.1 * rng.integers(0, 40, 30)  # atom locations
    data = tmp_path / "rows.csv"
    np.savetxt(data, np.column_stack([X, y]), delimiter=",")
    rc = main(["fit", "--data", str(data), "--dist", json.dumps(LONG_ATOMS)])
    out = capsys.readouterr()
    assert rc == 0, out.err
    assert json.loads(out.out)["converged"] is True


@pytest.mark.parametrize("command", ["verify", "tails", "fit"])
def test_dist_from_a_file_reads_the_file(command, tmp_path, capsys):
    spec = tmp_path / "dist.json"
    spec.write_text(json.dumps(LONG_ATOMS))
    data = tmp_path / "rows.csv"
    data.write_text("0.5,0.0,1.0\n0.0,0.5,0.3\n")
    extra = ["--data", str(data)] if command == "fit" else ["--grid-n", "20"]
    assert main([command, "--dist", str(spec), *extra]) == 0
    from_file = capsys.readouterr().out
    assert main([command, "--dist", json.dumps(LONG_ATOMS), *extra]) == 0
    assert capsys.readouterr().out == from_file


@pytest.mark.parametrize("arg", ["not json", "x" * 400, "{" + " " * 300, "dir"],
                         ids=["short", "long", "long-unclosed", "directory"])
@pytest.mark.parametrize("command", ["verify", "tails", "fit"])
def test_dist_neither_file_nor_json_exits_2_with_pointer(command, arg, tmp_path, capsys):
    if arg == "dir":
        arg = str(tmp_path)
    extra = ["--data", str(tmp_path / "rows.csv")] if command == "fit" else []
    assert main([command, "--dist", arg, *extra]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "neither a file nor valid JSON" in out.err and "(at /distribution)" in out.err
