"""Command line interface: nef-bandit <verify|tails|fit|bandit|coverage|bound>.

Exit status contract: 0 means every inequality check passed and every
run completed; 1 means a violated check or an aborted run; 2 means the
invocation or configuration was invalid.  The output directory can be
forced with the NEF_BANDIT_OUT environment variable.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .bandit import GlbInstance, RunResult, run_replicates, theoretical_regret_bound
from .config import ExperimentConfig, build_instance, load_config
from .distributions import NefFamily, parse_distribution
from .errors import DomainError, InvalidArgumentError, NefBanditError, ParseError
from .glm import Dataset, fit_mle
from .selfconcordance import (DominanceReport, StretchCertificate, build_certificate,
                              tilt_range, verify_dominance)
from .tailbounds import TailCertificate, run_tail_suite

ROUNDS_HEADER = "t,arm,index,reward,inst_regret,cum_regret,exact_cover,relaxed_cover"
_OUT_ENV = "NEF_BANDIT_OUT"


def _load_dist(arg: str) -> dict:
    """Accept a path to a JSON file or an inline JSON object."""
    try:
        text = Path(arg).read_text()
    except OSError:  # no such file, or a name too long for one (a long inline object)
        text = arg
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"distribution argument is neither a file nor valid JSON: {exc}",
                         pointer="/distribution")


def _resolve_out(explicit: str | None, cfg_out=None) -> Path | None:
    env = os.environ.get(_OUT_ENV)
    chosen = env or explicit or cfg_out
    if chosen is None:
        return None
    out = Path(chosen)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # a file in the way, no permission, a NUL byte
        raise ParseError(f"cannot make the output directory {chosen!r}: {exc}", pointer="/out")
    return out


def _strict(obj):
    """The payload with every non-finite float as None, so it serialises as strict JSON."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return obj


def _emit(payload: dict, path: Path | None) -> None:
    """Write ``payload`` as indented, key-sorted strict JSON (non-finite floats as null).

    A ``DominanceReport`` under ``points`` is written from its columns, one f-string per
    point, in the bytes ``json.dumps`` gives the same points as dicts."""
    cols = payload.get("points")
    columnar = isinstance(cols, DominanceReport)
    text = json.dumps(_strict({**payload, "points": []} if columnar else payload), indent=2,
                      sort_keys=True, allow_nan=False) + "\n"
    if columnar:
        us, rs, bs = ([repr(x) if math.isfinite(x) else "null" for x in col]
                      for col in (cols.u, cols.ratio, cols.bound))
        points = ",\n".join(f'    {{\n      "bound": {b},\n      "ok": {"true" if ok else "false"},'
                             f'\n      "ratio": {r},\n      "u": {u}\n    }}'
                             for u, r, b, ok in zip(us, rs, bs, cols.ok))
        text = text.replace('\n  "points": []', f'\n  "points": [\n{points}\n  ]', 1)
    if path is None:
        sys.stdout.write(text)
    else:
        path.write_text(text)


def rounds_to_csv(rounds) -> str:
    lines = [ROUNDS_HEADER]
    for t, arm, index, reward, inst_regret, cum_regret, exact, relaxed in rounds:
        lines.append(f"{t},{arm},{index!r},{reward!r},{inst_regret!r},{cum_regret!r},"
                     f"{int(exact)},{int(relaxed)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# verify / tails
# ---------------------------------------------------------------------------

def dominance_report(base, family: NefFamily, cert: StretchCertificate,
                     grid_n: int) -> dict:
    """The verify report; its ``points`` stay the ``DominanceReport`` columns for ``_emit``."""
    report = verify_dominance(cert, family, grid_n=grid_n)
    return {
        "schema": 1,
        "distribution": base.kind,
        "grid": {"lo": family.param_lo, "hi": family.param_hi, "n": grid_n},
        "certificate": cert.constants_dict(),
        "points": report,
        "violations": report.violations,
        "ok": report.all_ok,
    }


def tails_report(base, certs: list[TailCertificate]) -> dict:
    """The tails report of the ``run_tail_suite`` certificates of ``base``."""
    return {"schema": 1, "distribution": base.kind,
            "certificates": [c.as_dict() for c in certs], "ok": all(c.ok for c in certs)}


def _base(ns):
    """Base distribution of a verify/tails command whose grid is nonempty."""
    if ns.grid_n < 1:
        raise ParseError(f"--grid-n must be a positive integer, got {ns.grid_n}",
                         pointer="/grid-n")
    return parse_distribution(_load_dist(ns.dist))


def cmd_verify(ns) -> int:
    base = _base(ns)
    cert = build_certificate(base, c1=ns.c1, c2=ns.c2)
    family = NefFamily(base, *tilt_range(cert.tail, ns.grid_lo, ns.grid_hi))
    payload = dominance_report(base, family, cert, ns.grid_n)
    _emit(payload, Path(ns.report) if ns.report else None)
    if not payload["ok"]:
        cols = payload["points"]
        j = cols.ok.index(False)
        u, ratio, bound = cols.u[j], cols.ratio[j], cols.bound[j]
        print(f"violation at u={u}: " + (f"ratio {ratio} > bound {bound}" if math.isfinite(bound)
                                          else f"bound {bound} is not finite"), file=sys.stderr)
    return 0 if payload["ok"] else 1


def cmd_tails(ns) -> int:
    base = _base(ns)
    payload = tails_report(base, run_tail_suite(base, c1=ns.c1, c2=ns.c2, grid_n=ns.grid_n,
                                                interval=(ns.grid_lo, ns.grid_hi)))
    _emit(payload, Path(ns.report) if ns.report else None)
    return 0 if payload["ok"] else 1


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def cmd_fit(ns) -> int:
    base = parse_distribution(_load_dist(ns.dist))
    rows = np.loadtxt(ns.data, delimiter=",", ndmin=2)
    if rows.shape[1] < 2:
        raise ParseError("fit data needs columns x1,...,xd,y", pointer="/data")
    X, y = rows[:, :-1], rows[:, -1]
    lo, hi = base.mgf_domain
    plo = ns.param_lo if ns.param_lo is not None else (0.9 * lo if math.isfinite(lo) else -1e9)
    phi = ns.param_hi if ns.param_hi is not None else (0.9 * hi if math.isfinite(hi) else 1e9)
    family = NefFamily(base, plo, phi)
    try:
        data = Dataset(X, y)
    except InvalidArgumentError as exc:
        raise ParseError(str(exc), pointer="/data")
    result = fit_mle(family, data, ns.lam)
    _emit({
        "theta_hat": result.theta_hat.tolist(),
        "gradient_norm": result.gradient_norm,
        "newton_iters": result.newton_iters,
        "converged": result.converged,
        "inner_range": [result.inner_lo, result.inner_hi],
        "outside_admissible": result.outside_admissible,
    }, None)
    return 0 if result.converged else 1


# ---------------------------------------------------------------------------
# bandit run / bound / coverage
# ---------------------------------------------------------------------------

def _run_replicates(cfg: ExperimentConfig, inst: GlbInstance, seed: int, workers: int,
                    replicates: int) -> list[RunResult]:
    """Run replicates 0..replicates-1 of one built instance in lockstep; with more than one
    usable worker (at most os.cpu_count()), each process runs a contiguous range."""
    run = functools.partial(run_replicates, inst, cfg.horizon, cfg.delta, seed,
                            lam_override=cfg.lam)
    workers = min(workers, os.cpu_count() or 1, replicates)
    if workers <= 1:
        return run(range(replicates))
    cuts = [replicates * w // workers for w in range(workers + 1)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = pool.map(run, [range(a, b) for a, b in zip(cuts, cuts[1:])])
        return [res for part in parts for res in part]


def _summary(cfg: ExperimentConfig, inst: GlbInstance, results: list[RunResult],
             seed: int) -> dict:
    finals = [r.cum_regret for r in results if not r.aborted]
    covered = sum(1 for r in results if not r.aborted and r.all_rounds_covered)
    aborted = sum(1 for r in results if r.aborted)
    qs = {}
    if finals:
        arr = np.asarray(finals)
        qs = {"min": float(arr.min()),
              "q25": float(np.quantile(arr, 0.25)),
              "median": float(np.quantile(arr, 0.5)),
              "q75": float(np.quantile(arr, 0.75)),
              "max": float(arr.max()),
              "mean": float(arr.mean())}
    bound = theoretical_regret_bound(inst, cfg.horizon, cfg.delta, lam=cfg.lam)
    return {
        "schema": 1,
        "horizon": cfg.horizon,
        "delta": cfg.delta,
        "seed": seed,
        "replicates": cfg.replicates,
        "aborted": aborted,
        "coverage_rate": covered / max(len(results) - aborted, 1),
        "final_regret": qs,
        "bound": bound.as_dict(),
    }


def _write_runs(out: Path, cfg: ExperimentConfig, seed: int, workers: int) -> list[RunResult]:
    """Run the replicates and write their rounds CSVs and summary.json into ``out``."""
    inst = build_instance(cfg)
    results = _run_replicates(cfg, inst, seed, workers, cfg.replicates)
    if cfg.replicates == 1:
        (out / "rounds.csv").write_text(rounds_to_csv(results[0].rounds))
    else:
        for k, res in enumerate(results):
            (out / f"rounds_rep{k:03d}.csv").write_text(rounds_to_csv(res.rounds))
    _emit(_summary(cfg, inst, results, seed), out / "summary.json")
    return results


def cmd_bandit_run(ns) -> int:
    cfg = load_config(ns.config)
    seed = ns.seed if ns.seed is not None else cfg.seed
    workers = ns.workers if ns.workers is not None else cfg.workers
    out = _resolve_out(ns.out, cfg.out)
    if out is None:
        raise ParseError("bandit run needs an output directory (--out, config field, "
                         f"or ${_OUT_ENV})", pointer="/out")
    results = _write_runs(out, cfg, seed, workers)
    aborted = [r.abort_reason for r in results if r.aborted]
    if aborted:
        print(f"{len(aborted)} replicate(s) aborted; first: {aborted[0]}", file=sys.stderr)
    return 1 if aborted else 0


def cmd_bound(ns) -> int:
    cfg = load_config(ns.config)
    inst = build_instance(cfg)
    bound = theoretical_regret_bound(inst, cfg.horizon, cfg.delta, lam=cfg.lam)
    _emit(bound.as_dict(), Path(ns.report) if ns.report else None)
    return 0


def cmd_coverage(ns) -> int:
    cfg = load_config(ns.config)
    replicates = ns.replicates if ns.replicates is not None else cfg.replicates
    if replicates < 1:
        raise ParseError(f"--replicates must be a positive integer, got {replicates}",
                         pointer="/replicates")
    seed = ns.seed if ns.seed is not None else cfg.seed
    workers = ns.workers if ns.workers is not None else cfg.workers
    results = _run_replicates(cfg, build_instance(cfg), seed, workers, replicates)
    aborted = sum(1 for r in results if r.aborted)
    done = [r for r in results if not r.aborted]
    covered = sum(1 for r in done if r.all_rounds_covered)
    payload = {
        "schema": 1,
        "replicates": replicates,
        "aborted": aborted,
        "covered": covered,
        "coverage_rate": covered / max(len(done), 1),
        "delta": cfg.delta,
        "horizon": cfg.horizon,
        "seed": seed,
    }
    out = _resolve_out(ns.out, cfg.out)
    _emit(payload, (out / "coverage.json") if out else None)
    return 1 if aborted else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_grid_flags(p):
    p.add_argument("--grid-lo", type=float, default=None)
    p.add_argument("--grid-hi", type=float, default=None)
    p.add_argument("--grid-n", type=int, default=200)
    p.add_argument("--c1", type=float, default=None)
    p.add_argument("--c2", type=float, default=None)
    p.add_argument("--report", default=None, help="write the JSON report here")


def _add_bound_parser(sub) -> None:
    """``bound``, registered both at the top level and as ``bandit bound``."""
    p = sub.add_parser("bound", help="print the three regret bound terms")
    p.add_argument("--config", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_bound)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``nef-bandit`` parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="nef-bandit",
                                     description="exponential-family bandit toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="stretch-bound dominance grid for one distribution")
    p.add_argument("--dist", required=True, help="distribution config (file or inline JSON)")
    _add_grid_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("tails", help="tail/MGF inequality certificates")
    p.add_argument("--dist", required=True)
    _add_grid_flags(p)
    p.set_defaults(func=cmd_tails)

    p = sub.add_parser("fit", help="fit the regularized estimator on csv rows x1,...,xd,y")
    p.add_argument("--data", required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--param-lo", type=float, default=None)
    p.add_argument("--param-hi", type=float, default=None)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("bandit", help="simulation commands")
    bsub = p.add_subparsers(dest="bandit_command", required=True)
    pr = bsub.add_parser("run", help="simulate replicates and write rounds.csv + summary.json")
    pr.add_argument("--config", required=True)
    pr.add_argument("--seed", type=int, default=None)
    pr.add_argument("--out", default=None)
    pr.add_argument("--workers", type=int, default=None)
    pr.set_defaults(func=cmd_bandit_run)
    _add_bound_parser(bsub)
    _add_bound_parser(sub)

    p = sub.add_parser("coverage", help="Monte-Carlo coverage of the exact confidence set")
    p.add_argument("--config", required=True)
    p.add_argument("--replicates", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=cmd_coverage)
    return parser


def run_suite(cfg: ExperimentConfig, out_dir) -> int:
    """Dispatch every applicable check for one config; 0 iff all pass.

    Writes the verify and tails reports on the config's grid as the commands do (a bad end
    is a ParseError at /grid/lo or /grid/hi), and when the config carries an instance also
    the bandit rounds, the coverage summary, and the bound terms.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    base = parse_distribution(cfg.distribution)
    cert = build_certificate(base)
    grid = cfg.grid or {}
    n = int(grid.get("n", 200))
    try:
        lo, hi = tilt_range(cert.tail, grid.get("lo"), grid.get("hi"))
    except DomainError as exc:
        raise ParseError(str(exc), pointer=f"/grid/{exc.name}") from exc
    verify = dominance_report(base, NefFamily(base, lo, hi), cert, n)
    _emit(verify, out / "verify.json")
    tails = tails_report(base, run_tail_suite(base, interval=(lo, hi), grid_n=n))
    _emit(tails, out / "tails.json")
    aborted = cfg.has_instance and any(
        r.aborted for r in _write_runs(out, cfg, cfg.seed, cfg.workers))
    return 0 if verify["ok"] and tails["ok"] and not aborted else 1


_FLAG_POINTERS = {"lo": "/grid-lo", "hi": "/grid-hi", "c1": "/c1", "c2": "/c2"}


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return ns.func(ns)
    except ParseError as exc:
        print(f"config error: {exc}", file=sys.stderr)
    except NefBanditError as exc:  # a named DomainError points at its verify/tails flag
        pointer = _FLAG_POINTERS.get(getattr(exc, "name", None))
        print(f"config error: {exc} (at {pointer})" if pointer else f"error: {exc}",
              file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
