"""nefbandit benchmark: one workload per run, every metric printed with its unit.

Usage, from the repository root:

    python3 perfbench/run.py --workload golden|coverage|certify|all \\
        [--seed N] [--seconds S] [--trace 0|1]

The package is imported from ``src/`` of the checkout the script sits in;
without it the script exits with status 2 before printing a result.  The
run is single-process, with BLAS limited to one thread.

Each run prints three JSON lines: the environment block, the report (every
metric by name and unit, failures, and the warm-up policy), and last the
result ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` measures the end-to-end metrics with tracing off: after the
warm-up, ``setup_s`` is the median of ``SETUP_REPEATS`` set-ups, then ops
run back to back for ``--seconds`` seconds (``certify`` ends on a whole
sweep of its 24 calls), each timed alone and its output checked after its
timer stops.  The timed metrics are rescaled to a reference machine speed
measured by ``SpeedProbe`` between the timed intervals; the report also
gives them unscaled, as ``wall.*``.

``--trace 1`` gives the per-layer metrics.  It alternates an untraced and
a traced pass, each one set-up plus the workload's first ``traced_ops``
ops, for ``--seconds`` seconds and at least two traced passes.  The passes
are fixed so that their counts must repeat exactly: the run stops with an
error if two traced passes disagree on any count.  Self times are medians
over the traced passes; ``trace.overhead_ratio`` is traced wall time over
untraced wall time, minus 1.

``--workload all`` runs the three workloads one after another, each in
its own process, and merges their results under ``<workload>.<metric>``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# set before numpy is imported anywhere in this process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("NEF_BANDIT_OUT", None)   # the CLI would write reports there

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy import linalg  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 15
WARM_UP_POLICY = ("untimed before measuring: one set-up, then golden one 50-round replicate, "
                  "coverage one 1-replicate command, certify one full sweep of its 24 calls, "
                  "and with --trace 0 three speed probes; set-up is then timed on its own "
                  "as setup_s")
EVENT_COUNTS = ["glm.fit_mle.newton_iters", "glm.fit_mle.domain_fallbacks",
                "tailbounds.measured_tilted_mgf.nonfinite"]


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package() -> None:
    if not (SRC / "nefbandit" / "__init__.py").is_file():
        _fail(f"no package source at {SRC / 'nefbandit'}; run from a nefbandit checkout")
    sys.path.insert(0, str(SRC))
    import nefbandit
    if Path(nefbandit.__file__).resolve().parent != SRC / "nefbandit":
        _fail(f"imported nefbandit from {nefbandit.__file__}, not from {SRC}")


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    src = hashlib.sha256()
    for path in sorted((SRC / "nefbandit").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": _git_sha(),
        "src_sha256": src.hexdigest(),
        "loadavg_at_start": list(os.getloadavg()),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Runner:
    """Runs one workload's ops, times them and checks every output."""

    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.failures: list[str] = []

    def run_op(self, i: int):
        """Time op ``i``, then check it; returns its latency in nanoseconds."""
        self.attempted += 1
        t0 = time.perf_counter_ns()
        try:
            out = self.w.op(i)
        except Exception:
            elapsed = time.perf_counter_ns() - t0
            self.failures.append(f"op {i} raised:\n{traceback.format_exc()}")
            return elapsed
        elapsed = time.perf_counter_ns() - t0
        try:
            problems = self.w.check(i, out)
        except Exception:
            problems = [f"op {i} output could not be checked:\n{traceback.format_exc()}"]
        if problems:
            self.failures.append(f"op {i}: " + "; ".join(problems))
        return elapsed

    def timed_setup(self) -> int:
        t0 = time.perf_counter_ns()
        self.w.setup()
        return time.perf_counter_ns() - t0


def _probe_kernel(rows: int) -> None:
    """Fixed work shaped like the package's: damped Newton steps of a
    ``rows``-row Poisson GLM with 2x2 Cholesky solves, plus scalar math."""
    rng = np.random.default_rng(0)
    X = rng.random((rows, 2)) / 2.0
    y = rng.random(rows)
    theta = np.zeros(2)
    for _ in range(20_000 // (rows + 200)):
        mu = np.exp(X @ theta)
        grad = X.T @ (mu - y) + theta
        H = (X * mu[:, None]).T @ X + np.eye(2)
        theta = theta - 1e-2 * linalg.cho_solve(linalg.cho_factor(H, lower=True), grad)
    sum(math.exp(-k / 40.0) * k for k in range(2000))


class SpeedProbe:
    """Measures how fast the shared machine runs around each timed interval.

    The box this benchmark was tuned on switches between speed modes up to
    about 1.7x apart, each lasting seconds to tens of seconds; unscaled,
    that puts 15-30% between the medians of equal runs.  Bursts of the
    probe run between timed intervals, one probe per ``EVERY_NS`` of timed
    work, and an interval is rescaled by the reference probe time over the
    mean probe time of the bursts just before and just after it.  The probe
    never runs inside a timed interval.  Its arrays have the size of the
    workload's own (``Workload.probe_rows``), because small-array code
    slows down less than large-array code when the machine is busy.
    """

    # probe time per probe size, fast mode of a 2-vCPU x86-64 VM
    REFERENCE_S = {100: 0.0026, 1000: 0.00105}
    EVERY_NS = 150_000_000

    def __init__(self, rows: int):
        self.rows = rows
        for _ in range(3):
            _probe_kernel(rows)
        self.samples: list[int] = []
        self.bursts: list[float] = []   # mean probe time of each burst, ns
        self._owed = 0
        self.burst()

    def burst(self, k: int = 1) -> None:
        times = []
        for _ in range(k):
            t0 = time.perf_counter_ns()
            _probe_kernel(self.rows)
            times.append(time.perf_counter_ns() - t0)
        self.samples += times
        self.bursts.append(statistics.fmean(times))

    def after(self, busy_ns: int) -> None:
        """Probe in proportion to the timed work done since the last burst."""
        self._owed += busy_ns
        if self._owed >= self.EVERY_NS:
            k = self._owed // self.EVERY_NS
            self._owed -= k * self.EVERY_NS
            self.burst(k)

    def scaled(self, intervals: list[tuple[int, int]]) -> list[float]:
        """Seconds at reference speed for (burst index before, nanoseconds) pairs."""
        ref_ns = self.REFERENCE_S[self.rows] * 1e9
        return [ns / 1e9 * ref_ns / ((self.bursts[b] + self.bursts[b + 1]) / 2)
                for b, ns in intervals]


def measure(runner: Runner, seconds: float) -> dict:
    """End-to-end metrics, tracing off."""
    w = runner.w
    probe = SpeedProbe(w.probe_rows)
    setups = []
    for _ in range(SETUP_REPEATS):
        setups.append((len(probe.bursts) - 1, runner.timed_setup()))
        probe.burst()
    ops = []
    start = time.perf_counter()
    while len(ops) % w.sweep or not ops or time.perf_counter() - start < seconds:
        ops.append((len(probe.bursts) - 1, runner.run_op(len(ops))))
        probe.after(ops[-1][1])
    probe.burst()
    setup_s = probe.scaled(setups)
    op_s = probe.scaled(ops)
    wall_s = [ns / 1e9 for _, ns in ops]
    n = len(ops)
    report = {
        "setup_s": _metric(statistics.median(setup_s), "s"),
        "ops_per_s": _metric(n / sum(op_s), "ops/s"),
        "op_ms.p50": _metric(statistics.median(op_s) * 1e3, "ms"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "error_rate": _metric(len(runner.failures) / runner.attempted, "ratio"),
        "ops": _metric(n, "count"),
        "wall.setup_s": _metric(statistics.median(ns / 1e9 for _, ns in setups), "s"),
        "wall.ops_per_s": _metric(n / sum(wall_s), "ops/s"),
        "wall.op_ms.p50": _metric(statistics.median(wall_s) * 1e3, "ms"),
        "probe.ms.mean": _metric(statistics.fmean(probe.samples) / 1e6, "ms"),
        "probe.samples": _metric(len(probe.samples), "count"),
    }
    if w.rounds_per_op:
        report["rounds_per_s"] = _metric(n * w.rounds_per_op / sum(op_s), "rounds/s")
    # p90 only where at least ten ops lie beyond it
    if n >= 100:
        report["op_ms.p90"] = _metric(statistics.quantiles(op_s, n=10)[-1] * 1e3, "ms")
    if w.name == "certify":
        report["certify.verdict_changes"] = _metric(w.verdict_changes, "count")
    return report


def _pass(runner: Runner, tracer=None) -> int:
    """One set-up plus the workload's fixed traced ops; returns its timed nanoseconds."""
    with tracer if tracer is not None else contextlib.nullcontext():
        busy = runner.timed_setup()
        for i in range(runner.w.traced_ops):
            busy += runner.run_op(i)
    return busy


def measure_layers(runner: Runner, seconds: float) -> dict:
    """Per-layer metrics from alternating untraced and traced passes."""
    import tracing

    untraced, traced, totals, events = [], [], [], []
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < seconds:
        untraced.append(_pass(runner))
        tracer = tracing.Tracer()
        traced.append(_pass(runner, tracer))
        totals.append(tracer.layer_totals())
        events.append(tracer.events)
    counts = [({name: t["calls"] for name, t in tot.items()}, dict(ev))
              for tot, ev in zip(totals, events)]
    for j, c in enumerate(counts[1:], start=2):
        if c != counts[0]:
            raise RuntimeError(f"layer counts of traced pass {j} differ from pass 1: "
                               f"{c} != {counts[0]}")
    calls, ev = counts[0]
    report = {}
    for name in EVENT_COUNTS:
        report[name] = _metric(ev.get(name, 0), "count")
    attempts = calls.get("glm.fit_mle", 0)
    # fits returned / fits attempted; 1 where no fit was attempted, as nothing was wasted
    report["glm.fit_mle.useful_ratio"] = _metric(
        ev.get("glm.fit_mle.returned", 0) / attempts if attempts else 1.0, "ratio")
    report["glm.rows_per_call"] = _metric(
        ev["glm.rows"] / ev["glm.row_calls"] if ev.get("glm.row_calls") else 0.0, "rows")
    for name in tracing.SPAN_NAMES:
        self_ns = [tot.get(name, {"self_ns": 0})["self_ns"] for tot in totals]
        report[f"{name}.calls"] = _metric(calls.get(name, 0), "count")
        report[f"{name}.self_ms"] = _metric(statistics.median(self_ns) / 1e6, "ms")
        report[f"{name}.self_share"] = _metric(
            statistics.median(100.0 * s / t for s, t in zip(self_ns, traced)), "%")
    report["trace.overhead_ratio"] = _metric(sum(traced) / sum(untraced) - 1.0, "ratio")
    report["trace.passes"] = _metric(len(traced), "count")
    return report


def run_workload(args) -> int:
    _import_package()
    import workloads

    env = environment(args)
    print(json.dumps({"environment": env}), flush=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workloads.load_reference())
    runner = Runner(workload)
    workload.prepare()
    workload.warm_up()
    report = (measure_layers if args.trace else measure)(runner, args.seconds)
    print(json.dumps({"report": report, "warm_up": WARM_UP_POLICY,
                      "failures": runner.failures[:5]}), flush=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    result = {"correct": not runner.failures, "attempted": runner.attempted,
              "failed": len(runner.failures),
              "metrics": {name: report[name] for name in names}}
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, in turn; results merged by workload name."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in ("golden", "coverage", "certify"):
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
        status = max(status, proc.returncode)
    print(json.dumps(merged), flush=True)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["golden", "coverage", "certify", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
