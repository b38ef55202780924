"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Two checks are expected to fail against honest computation and are left
red rather than loosened:

* criterion 3 (mean clause): at u = 2^(i+1) the doubly exponential atom
  construction concentrates on the atoms 2^i and 2^(i+1) with mass
  ratio 4:1, so its tilted mean is exactly 1.2 * 2^i, outside the
  required window [1.24, 1.26] * 2^i.  The ratio clause (0.3 u vs the
  required 0.038 u) passes.
* criterion 7b: with the mandated radius schedule the optimistic bonus
  at T = 2000 is still an order of magnitude above the largest mean
  gap of the ten-arm instance, so the averaged regret ratio sits near
  0.97, not below 0.5.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from nefbandit.bandit import (
    elliptical_potential_check,
    run_replicates,
    self_bounding_check,
    theoretical_regret_bound,
)
from nefbandit.cli import main
from nefbandit.config import build_instance, load_config
from nefbandit.distributions import (
    Bernoulli,
    DiscreteAtoms,
    Exponential,
    Gamma,
    Gaussian,
    Laplace,
    NefFamily,
    gamma_ratio,
)
from nefbandit.glm import (
    Dataset,
    difference_quotient_matrix,
    fit_mle,
    full_gradient,
    gradient_map,
    hessian,
    loss,
)
from nefbandit.rng import replicate_stream
from nefbandit.selfconcordance import build_certificate, verify_dominance, verify_lower_bound
from nefbandit.tailbounds import run_tail_suite

pytestmark = pytest.mark.acceptance

DATA = Path(__file__).parent / "data"
MIX4 = DiscreteAtoms(((-2.0, 0.25), (-0.5, 0.25), (0.5, 0.25), (2.0, 0.25)))

DOMINANCE_CASES = [
    (Exponential(1.0), (-0.8, 0.72)),
    (Laplace(1.0), (-0.72, 0.72)),
    (Bernoulli(0.5), (-0.8, 0.8)),
    (Gamma(2.0, 1.0), (-0.8, 0.72)),
    (MIX4, (-0.8, 0.8)),
]


def _report(criterion: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}" + (f" -- {detail}" if detail else ""))
    return ok


# ---------------------------------------------------------------------------
# 1. closed-form ratio anchors
# ---------------------------------------------------------------------------

def test_criterion_1_closed_form_anchors():
    t0 = time.time()
    worst = 0.0

    grid = np.linspace(-2.0, 0.85, 200)
    for u in grid:
        got = gamma_ratio(Exponential(1.0), float(u))
        ref = 2.0 / (1.0 - u)
        worst = max(worst, abs(got - ref) / abs(ref))

    grid = np.linspace(-6.0, 6.0, 200)
    bern_bounded = True
    for u in grid:
        got = gamma_ratio(Bernoulli(0.5), float(u))
        ref = abs(1.0 - 2.0 / (1.0 + math.exp(-u)))
        if ref > 1e-12:
            worst = max(worst, abs(got - ref) / ref)
        bern_bounded &= got <= 1.0 + 1e-12

    grid = np.linspace(-0.85, 0.85, 200)
    for u in grid:
        got = gamma_ratio(Laplace(1.0), float(u))
        ref = 2 * abs(u) * (3 + u * u) / ((1 - u) * (1 + u) * (1 + u * u))
        if ref > 1e-12:
            worst = max(worst, abs(got - ref) / ref)

    elapsed = time.time() - t0
    ok = worst <= 1e-6 and bern_bounded and elapsed < 10.0
    assert _report("1", ok, f"max rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. stretch bound dominance
# ---------------------------------------------------------------------------

def test_criterion_2_dominance_grids():
    t0 = time.time()
    violations = 0
    for base, interval in DOMINANCE_CASES:
        cert = build_certificate(base)
        rep = verify_dominance(cert, NefFamily(base, *interval), grid_n=200)
        violations += rep.violations
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < 60.0
    assert _report("2", ok, f"{violations} violations over 5 x 200 points, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. linear-growth construction
# ---------------------------------------------------------------------------

def test_criterion_3_lower_bound_construction():
    t0 = time.time()
    reports = [verify_lower_bound(i) for i in (4, 6, 8)]
    elapsed = time.time() - t0
    detail = "; ".join(
        f"i={r.i}: mean={r.mean:.4g} (req [{r.mean_lo:.4g}, {r.mean_hi:.4g}]), "
        f"ratio={r.ratio:.4g} (req >= {r.ratio_threshold:.4g})" for r in reports)
    ok = all(r.passes for r in reports) and elapsed < 5.0
    _report("3", ok, detail + f", {elapsed:.1f}s")
    for r in reports:
        assert r.ratio_ok, f"ratio clause failed at i={r.i}"
        # the tilted mean is exactly 1.2 * 2^i (4:1 two-atom concentration);
        # the required window starts at 1.24 * 2^i, so this clause cannot hold
        assert r.mean_ok, (f"mean clause failed at i={r.i}: mean={r.mean}, "
                           f"required [{r.mean_lo}, {r.mean_hi}]")


# ---------------------------------------------------------------------------
# 4. tail inequality suite
# ---------------------------------------------------------------------------

def test_criterion_4_tail_inequality_suite():
    t0 = time.time()
    failures = []
    worst = -math.inf
    for base, interval in DOMINANCE_CASES:
        for cert in run_tail_suite(base, interval=interval):
            worst = max(worst, cert.max_slack)
            if not cert.ok:
                failures.append(f"{base.kind}:{cert.name}")
    elapsed = time.time() - t0
    ok = not failures and elapsed < 60.0
    assert _report("4", ok, f"max slack {worst:.2e}, {elapsed:.1f}s"
                   + (f", failing: {failures}" if failures else ""))


# ---------------------------------------------------------------------------
# 5. estimator correctness
# ---------------------------------------------------------------------------

def _fd_gradient(f, theta, h=1e-6):
    g = np.zeros_like(theta)
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = h
        g[i] = (f(theta + e) - f(theta - e)) / (2 * h)
    return g


def _fd_hessian(f, theta, h=1e-4):
    d = theta.size
    H = np.zeros((d, d))
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h
        for j in range(i, d):
            ej = np.zeros(d)
            ej[j] = h
            H[i, j] = H[j, i] = (f(theta + ei + ej) - f(theta + ei - ej)
                                 - f(theta - ei + ej) + f(theta - ei - ej)) / (4 * h * h)
    return H


def test_criterion_5_glm_correctness():
    t0 = time.time()
    families = [NefFamily(Bernoulli(0.5), -3.0, 3.0),
                NefFamily(Exponential(1.0), -0.5, 0.5),
                NefFamily(Gaussian(1.0), -5.0, 5.0)]
    worst_grad, worst_hess, worst_mvt = 0.0, 0.0, 0.0
    for trial in range(20):
        fam = families[trial % 3]
        rng = replicate_stream(900 + trial, 0)
        d, n = 2 + trial % 4, 15 + trial
        X = rng.standard_normal((n, d))
        X /= np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-9) * 1.01
        X *= rng.random((n, 1)) ** (1.0 / d)
        theta0 = 0.25 * rng.standard_normal(d) / math.sqrt(d)
        y = np.array([fam.base.sample_tilted(float(x @ theta0), rng) for x in X])
        data = Dataset(X, y)
        theta = 0.25 * rng.standard_normal(d) / math.sqrt(d)

        f = lambda th: loss(fam, data, 1.1, th)
        g = full_gradient(fam, data, 1.1, theta)
        H = hessian(fam, data, 1.1, theta)
        worst_grad = max(worst_grad, float(np.max(np.abs(g - _fd_gradient(f, theta))))
                         / (1.0 + float(np.max(np.abs(g)))))
        worst_hess = max(worst_hess, float(np.max(np.abs(H - _fd_hessian(f, theta))))
                         / (1.0 + float(np.max(np.abs(H)))))

        t2 = 0.25 * rng.standard_normal(d) / math.sqrt(d)
        G = difference_quotient_matrix(fam, data, 1.1, theta, t2)
        mvt = gradient_map(fam, data, 1.1, theta) - gradient_map(fam, data, 1.1, t2) \
            - G @ (theta - t2)
        worst_mvt = max(worst_mvt, float(np.linalg.norm(mvt)))

    # ridge closed form under the identity link
    fam = NefFamily(Gaussian(1.0), -5.0, 5.0)
    rng = replicate_stream(950, 0)
    X = rng.standard_normal((60, 3))
    X /= np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-9) * 1.01
    y = rng.standard_normal(60)
    res = fit_mle(fam, Dataset(X, y), 2.0)
    ridge = np.linalg.solve(2.0 * np.eye(3) + X.T @ X, X.T @ y)
    ridge_err = float(np.max(np.abs(res.theta_hat - ridge)))

    elapsed = time.time() - t0
    ok = worst_grad <= 1e-5 and worst_hess <= 1e-5 and worst_mvt <= 1e-8 \
        and ridge_err <= 1e-10
    assert _report("5", ok, f"grad {worst_grad:.1e}, hess {worst_hess:.1e}, "
                   f"mvt {worst_mvt:.1e}, ridge {ridge_err:.1e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. confidence coverage
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_6_coverage():
    t0 = time.time()
    cfg = load_config(DATA / "coverage_config.json")
    inst = build_instance(cfg)
    n_rep = cfg.replicates
    covered = 0
    for res in run_replicates(inst, cfg.horizon, cfg.delta, cfg.seed, range(n_rep)):
        assert not res.aborted
        covered += res.all_rounds_covered
    rate = covered / n_rep
    elapsed = time.time() - t0
    ok = rate >= 0.9 - 0.02 and elapsed < 600.0
    assert _report("6", ok, f"all-round coverage {rate:.4f} over {n_rep} replicates, "
                   f"{elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7. regret: bound dominance and sublinearity
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_7_regret():
    t0 = time.time()
    cfg = load_config(DATA / "golden_config.json")
    inst = build_instance(cfg)
    bound_total = theoretical_regret_bound(inst, cfg.horizon, cfg.delta).total
    r500, r2000, dominated, covered = [], [], 0, 0
    for res in run_replicates(inst, cfg.horizon, cfg.delta, cfg.seed, range(cfg.replicates)):
        assert not res.aborted
        r500.append(res.cum_regret_at(500))
        r2000.append(res.cum_regret)
        if res.all_rounds_covered:
            covered += 1
            dominated += res.cum_regret <= bound_total
    rate_2000 = float(np.mean(r2000)) / 2000.0
    rate_500 = float(np.mean(r500)) / 500.0
    ok_a = covered > 0 and dominated == covered
    ok_b = rate_2000 < 0.5 * rate_500
    elapsed = time.time() - t0
    _report("7a", ok_a, f"{dominated}/{covered} covered replicates under the bound "
            f"({bound_total:.3g}), {elapsed:.0f}s")
    _report("7b", ok_b, f"mean regret rate {rate_2000:.4f} at T=2000 vs "
            f"0.5 * {rate_500:.4f} at T=500")
    assert ok_a, "bound dominance failed on a covered replicate"
    # the bonus term c*gamma_T ~ 220 still exceeds every mean gap (<= 1.33)
    # at T = 2000, so the averaged rate ratio stays near 1, not below 0.5
    assert ok_b, f"sublinearity factor not met: {rate_2000:.4f} >= 0.5 * {rate_500:.4f}"


# ---------------------------------------------------------------------------
# 8. potential and self-bounding inequalities
# ---------------------------------------------------------------------------

def test_criterion_8_potential_and_self_bounding():
    t0 = time.time()
    epl_ok = True
    for trial in range(10):
        rng = replicate_stream(1700 + trial, 0)
        d = 2 + trial % 5
        lam = 0.5 + rng.random() * 3.0
        A = 0.5 + rng.random() * 2.0
        n = 10_000 if trial == 0 else 600
        v = rng.standard_normal((n, d))
        v *= (A * rng.random((n, 1)) ** 0.25) / np.linalg.norm(v, axis=1, keepdims=True)
        epl_ok &= elliptical_potential_check(v, lam, A)["ok"]

    sb_ok = True
    fams = [NefFamily(Bernoulli(0.5), -2.0, 2.0), NefFamily(Exponential(1.0), -0.5, 0.5)]
    for trial in range(10):
        fam = fams[trial % 2]
        rng = replicate_stream(1800 + trial, 0)
        lo, hi = fam.interval
        b = lo + (hi - lo) * (0.5 + 0.5 * rng.random())
        pts = lo + (b - lo) * rng.random(200)
        K = max(gamma_ratio(fam, float(u)) for u in np.linspace(lo, hi, 101))
        sb_ok &= self_bounding_check(fam, pts, float(b), K)["ok"]

    elapsed = time.time() - t0
    ok = epl_ok and sb_ok
    assert _report("8", ok, f"potential {epl_ok}, self-bounding {sb_ok}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 9. byte determinism
# ---------------------------------------------------------------------------

def test_criterion_9_byte_identical_runs(tmp_path):
    t0 = time.time()
    cfg_obj = {
        "schema": 1,
        "distribution": {"kind": "exponential", "rate": 1.0},
        "arms": {"circle": {"n": 10, "radius": 1.0}},
        "theta_star": [0.5, 0.0],
        "delta": 0.05,
        "horizon": 120,
        "replicates": 1,
        "seed": 7,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg_obj))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["bandit", "run", "--config", str(cfg_path), "--seed", "7",
                 "--out", str(out1)]) == 0
    assert main(["bandit", "run", "--config", str(cfg_path), "--seed", "7",
                 "--out", str(out2)]) == 0
    same = (out1 / "rounds.csv").read_bytes() == (out2 / "rounds.csv").read_bytes()
    elapsed = time.time() - t0
    assert _report("9", same, f"rounds.csv byte-identical, {elapsed:.1f}s")
