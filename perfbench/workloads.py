"""The benchmark's workloads: what one op is, and how its output is checked.

Every workload calls the package through public module attributes
(``bandit.run_ofu_glb``, ``cli.main``, ...), looked up at call time, so the
tracer in ``tracing.py`` sees every call.

* ``golden``: replicates of ``tests/data/golden_config.json`` (Exponential
  rewards, 10-arm circle, d = 2, T = 2000) through ``bandit.run_ofu_glb``,
  each rendered by ``cli.rounds_to_csv``.  An op is one replicate.  The
  histories are long, so the GLM fit and the round loop do nearly all the
  work and set-up is negligible.
* ``coverage``: the ``nef-bandit coverage`` command, in-process through
  ``cli.main`` with ``--workers 1``, on ``tests/data/coverage_config.json``
  (Bernoulli, 3 arms, T = 200).  An op is one command over
  ``COVERAGE_BATCH`` replicates.  Histories are short, so per-round Python
  overhead and the per-replicate instance builds of ``config``/``cli`` weigh
  most.
* ``certify``: for each of the eight README distribution kinds, ``cli.main``
  ``verify`` and ``tails`` and ``bandit.make_instance`` on the golden arm
  set.  An op is one of these 24 calls.  It exercises ``distributions``
  (the quadrature moment paths too), ``selfconcordance`` and
  ``tailbounds`` and never enters the round loop, so it is the no-change
  control for ``glm``/``bandit`` work.

Inputs come from the benchmark seed ``s``: ``golden`` plays replicate
``i mod 50`` of experiment seed ``20240 + s`` as op ``i``; ``coverage`` runs
op ``i`` with command seed ``7 + 1000 s + (i mod 64)``; ``certify`` shuffles
the order of the 24 calls in each sweep.  Seed 0 reproduces the configs'
own seeds, and ``reference.json`` holds its outputs (see
``record_reference.py``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from pathlib import Path

from nefbandit import bandit, cli, config, distributions, selfconcordance

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_CONFIG = ROOT / "tests" / "data" / "golden_config.json"
COVERAGE_CONFIG = ROOT / "tests" / "data" / "coverage_config.json"
REFERENCE_PATH = HERE / "reference.json"

COVERAGE_BATCH = 10   # replicates per coverage command
COVERAGE_POOL = 64    # distinct command seeds per benchmark seed
WARMUP_HORIZON = 50   # rounds of the golden warm-up replicate

# Certify reports are compared with this tolerance; a JSON number that is
# not finite must match exactly (nan with nan, inf with inf).
REL_TOL = 1e-6
ABS_TOL = 1e-9

KINDS = [
    {"kind": "bernoulli", "p": 0.5},
    {"kind": "gaussian", "sigma": 1.0},
    {"kind": "exponential", "rate": 1.0},
    {"kind": "poisson", "nu": 2.0},
    {"kind": "laplace", "scale": 1.0},
    {"kind": "gamma", "shape": 2.0, "scale": 1.0},
    {"kind": "atoms", "atoms": [[0.0, 0.5], [1.0, 0.5]]},
    {"kind": "counterexample", "i_max": 24},
]
CERTIFY_CALLS = ("verify", "tails", "make_instance")
INSTANCE_FIELDS = ("S0", "S1", "S2", "L", "K", "M", "c1", "c2")


def _captured(argv: list[str]) -> tuple[int, str]:
    """Run ``cli.main`` in-process, returning its exit status and standard output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _same_number(a: float, b: float) -> bool:
    if math.isfinite(a) and math.isfinite(b):
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return repr(float(a)) == repr(float(b))


def _diff(ref, got, path: str, problems: list[str]) -> None:
    """Append a problem for every place where ``got`` departs from ``ref``."""
    numeric = (int, float)
    if isinstance(ref, numeric) and not isinstance(ref, bool):
        if not (isinstance(got, numeric) and not isinstance(got, bool)
                and _same_number(ref, got)):
            problems.append(f"{path}: expected {ref!r}, got {got!r}")
    elif isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            problems.append(f"{path}: expected keys {sorted(ref)}, got {got!r:.200}")
            return
        for key in ref:
            _diff(ref[key], got[key], f"{path}/{key}", problems)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            problems.append(f"{path}: expected a list of {len(ref)}, got {got!r:.200}")
            return
        for j, (r, g) in enumerate(zip(ref, got)):
            _diff(r, g, f"{path}/{j}", problems)
    elif ref != got:
        problems.append(f"{path}: expected {ref!r}, got {got!r}")


def compare_report(ref: dict, got: dict, path: str) -> tuple[list[str], int]:
    """Compare a verify/tails report; returns (problems, verdict changes).

    Each point (verify) or certificate (tails) whose ``ok`` differs from
    the reference is a verdict change, not a problem, and its numbers are
    not compared; the top-level ``ok``/``violations`` only repeat those.
    """
    problems: list[str] = []
    if not isinstance(got, dict):
        return [f"{path}: report is not a JSON object"], 0
    key = "points" if "points" in ref else "certificates"
    entries = got.get(key)
    if not isinstance(entries, list) or len(entries) != len(ref[key]):
        return [f"{path}/{key}: expected {len(ref[key])} entries"], 0
    changes = 0
    for j, (r, g) in enumerate(zip(ref[key], entries)):
        if not isinstance(g, dict) or g.get("ok") != r["ok"]:
            changes += 1
            continue
        _diff(r, g, f"{path}/{key}/{j}", problems)
    skip = {key, "ok", "violations"}
    _diff({k: v for k, v in ref.items() if k not in skip},
          {k: v for k, v in got.items() if k not in skip}, path, problems)
    return problems, changes


class Workload:
    """One workload: set-up, warm-up, ops, and the check of each op's output.

    ``setup`` is what ``setup_s`` times; ``prepare`` runs it once and keeps
    what the ops need.  ``check`` returns a list of problems, empty when the
    output is correct, and adds verdict changes to ``verdict_changes``.
    """

    name = ""
    rounds_per_op = 0
    sweep = 1        # a timed run ends on a multiple of this many ops
    traced_ops = 1   # ops in each pass of a traced run
    probe_rows = 1000  # array size of the speed probe (see run.SpeedProbe)

    def __init__(self, seed: int, reference: dict):
        self.seed = seed
        self.reference = reference
        self.verdict_changes = 0

    def setup(self):
        raise NotImplementedError

    def prepare(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> list[str]:
        raise NotImplementedError


class Golden(Workload):
    name = "golden"
    traced_ops = 2

    def setup(self):
        cfg = config.load_config(GOLDEN_CONFIG)
        return cfg, config.build_instance(cfg)

    def prepare(self) -> None:
        self.cfg, self.inst = self.setup()
        self.rounds_per_op = self.cfg.horizon

    def _replicate(self, horizon: int, k: int):
        res = bandit.run_ofu_glb(self.inst, horizon, self.cfg.delta,
                                 seed=self.cfg.seed + self.seed, replicate=k,
                                 lam_override=self.cfg.lam)
        return res, cli.rounds_to_csv(res.rounds)

    def warm_up(self) -> None:
        self._replicate(WARMUP_HORIZON, 0)

    def op(self, i: int):
        return self._replicate(self.cfg.horizon, i % self.cfg.replicates)

    def check(self, i: int, out) -> list[str]:
        res, text = out
        k = i % self.cfg.replicates
        if res.aborted:
            return [f"replicate {k} aborted: {res.abort_reason}"]
        if len(res.rounds) != self.cfg.horizon:
            return [f"replicate {k} has {len(res.rounds)} rounds, expected {self.cfg.horizon}"]
        cum = 0.0
        for r in res.rounds:
            cum += r.inst_regret
            if r.cum_regret != cum:
                return [f"replicate {k} round {r.t}: cum_regret {r.cum_regret!r} is not the "
                        f"running sum of inst_regret {cum!r}"]
        if self.seed == 0:
            digest = hashlib.sha256(text.encode()).hexdigest()
            if digest != self.reference["golden"][k]:
                return [f"replicate {k}: rounds.csv sha256 {digest} differs from the reference"]
        return []


class Coverage(Workload):
    name = "coverage"
    traced_ops = 2
    probe_rows = 100

    def setup(self):
        cfg = config.load_config(COVERAGE_CONFIG)
        return cfg, config.build_instance(cfg)

    def prepare(self) -> None:
        self.cfg, _ = self.setup()
        self.rounds_per_op = COVERAGE_BATCH * self.cfg.horizon

    def _command(self, replicates: int, seed: int):
        return _captured(["coverage", "--config", str(COVERAGE_CONFIG),
                          "--replicates", str(replicates), "--seed", str(seed),
                          "--workers", "1"])

    def warm_up(self) -> None:
        self._command(1, self.cfg.seed)

    def op(self, i: int):
        return self._command(COVERAGE_BATCH,
                             self.cfg.seed + 1000 * self.seed + i % COVERAGE_POOL)

    def check(self, i: int, out) -> list[str]:
        rc, text = out
        if rc != 0:
            return [f"command {i} exited with status {rc}"]
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            return [f"command {i} printed no JSON report: {exc}"]
        if payload.get("replicates") != COVERAGE_BATCH:
            return [f"command {i} ran {payload.get('replicates')!r} replicates"]
        if self.seed == 0:
            ref = self.reference["coverage"][i % COVERAGE_POOL]
            got = {"covered": payload.get("covered"), "aborted": payload.get("aborted")}
            if got != ref:
                return [f"command {i}: {got} differs from the reference {ref}"]
        return []


class Certify(Workload):
    name = "certify"
    sweep = traced_ops = len(KINDS) * len(CERTIFY_CALLS)

    def setup(self):
        bases = {}
        for spec in KINDS:
            base = distributions.parse_distribution(spec)
            selfconcordance.build_certificate(base)
            bases[spec["kind"]] = base
        return bases

    def prepare(self) -> None:
        self.bases = self.setup()
        golden = config.build_instance(config.load_config(GOLDEN_CONFIG))
        self.arms, self.theta_star = golden.arms, golden.theta_star
        self._calls = [(spec, call) for spec in KINDS for call in CERTIFY_CALLS]
        self._rng = random.Random(self.seed)
        self._plan: list[tuple[dict, str]] = []

    def _planned(self, i: int) -> tuple[dict, str]:
        while len(self._plan) <= i:
            sweep = list(self._calls)
            self._rng.shuffle(sweep)
            self._plan.extend(sweep)
        return self._plan[i]

    def run_call(self, spec: dict, call: str):
        if call == "make_instance":
            inst = bandit.make_instance(self.bases[spec["kind"]], self.arms, self.theta_star)
            return 0, {f: getattr(inst, f) for f in INSTANCE_FIELDS}
        return _captured([call, "--dist", json.dumps(spec)])

    def warm_up(self) -> None:
        for spec, call in self._calls:
            self.run_call(spec, call)

    def op(self, i: int):
        return self.run_call(*self._planned(i))

    def check(self, i: int, out) -> list[str]:
        spec, call = self._planned(i)
        where = f"{spec['kind']} {call}"
        ref = self.reference["certify"][spec["kind"]][call]
        rc, got = out
        if rc == 2:
            return [f"{where}: exited with status 2"]
        if call == "make_instance":
            problems: list[str] = []
            _diff(ref["report"], got, where, problems)
            return problems
        try:
            report = json.loads(got)
        except json.JSONDecodeError as exc:
            return [f"{where}: report is not JSON: {exc}"]
        problems, changes = compare_report(ref["report"], report, where)
        self.verdict_changes += changes + (rc != ref["rc"])
        return problems


WORKLOADS = {w.name: w for w in (Golden, Coverage, Certify)}


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())
