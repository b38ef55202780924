"""Tail/MGF certificates: Chernoff caps, tilted-tail caps, variance floor."""

import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from nefbandit import cli, tailbounds
from nefbandit.distributions import (
    Bernoulli,
    CounterexampleSubgaussian,
    DiscreteAtoms,
    Exponential,
    Gamma,
    Gaussian,
    Laplace,
    NefFamily,
    Poisson,
    Shifted,
    centered,
    distribution_config,
    gamma_ratio,
    mean_fn,
)
from nefbandit.bandit import elliptical_potential_check
from nefbandit.errors import DegenerateDistributionError, DomainError, InvalidArgumentError
from nefbandit.selfconcordance import (
    StretchCertificate,
    SubgaussianEnvelope,
    SupportWitness,
    TailConstants,
    build_certificate,
    find_support_witness,
    fit_tail_constants,
    g_q_value,
    stretch_supremum,
    tilt_range,
)
from nefbandit.tailbounds import (
    _cert,
    measured_tilted_mgf,
    mgf_from_tail_bound,
    run_tail_suite,
    tail_from_mgf,
    tilted_cgf_quadratic_bound,
    tilted_tail_bounds,
    variance_lower_bound,
)
from oracle import (README_BASES, default_tail_rates, logsumexp_tilted_mgf, moments,
                    ratio_block_slacks)

SUITE_BASES = [Exponential(1.0), Laplace(1.0), Bernoulli(0.5), Gamma(2.0, 1.0),
               DiscreteAtoms(((-2.0, 0.25), (-0.5, 0.25), (0.5, 0.25), (2.0, 0.25)))]


# ---------------------------------------------------------------------------
# MGF cap from the tail
# ---------------------------------------------------------------------------

def test_mgf_cap_reduces_to_one_at_zero():
    assert mgf_from_tail_bound(1.0, 3.0, 0.0) == 1.0


def test_mgf_cap_hand_arithmetic():
    assert mgf_from_tail_bound(1.0, 1.0, 0.5) == pytest.approx(1.5, abs=1e-15)


def test_mgf_cap_dominates_fitted_centered_exponential():
    cb = centered(Exponential(1.0))
    tc = fit_tail_constants(Exponential(1.0), 0.9, 1.0)
    for lam in np.linspace(0.1 * tc.c1, 0.8 * tc.c1, 15):
        m = math.exp(float(cb.log_mgf(lam)))
        assert m < mgf_from_tail_bound(tc.c1, tc.C1, float(lam))


def test_mgf_cap_domain_error():
    with pytest.raises(DomainError):
        mgf_from_tail_bound(1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# Chernoff direction
# ---------------------------------------------------------------------------

def test_tail_from_mgf_at_zero_threshold():
    # M(c) >= 1 >= P(Y >= 0) for a centered variable
    assert tail_from_mgf(1.3, 0.5, 0.0) == 1.3


def test_tail_from_mgf_centered_exponential():
    cb = centered(Exponential(1.0))
    m_half = math.exp(float(cb.log_mgf(0.5)))
    bound = tail_from_mgf(m_half, 0.5, 3.0)
    assert m_half == pytest.approx(2.0 * math.exp(-0.5), rel=1e-13)
    assert bound == pytest.approx(2.0 * math.exp(-2.0), rel=1e-13)
    assert bound >= math.exp(-4.0)  # exact tail P(X - 1 >= 3)


def test_tail_from_mgf_gaussian_cdf_oracle():
    bound = tail_from_mgf(math.exp(0.5), 1.0, 2.0)
    exact = 1.0 - float(special.ndtr(2.0))
    assert bound == pytest.approx(math.exp(-1.5), rel=1e-14)
    assert bound >= exact


def test_tail_from_mgf_rejects_bad_arguments():
    with pytest.raises(InvalidArgumentError):
        tail_from_mgf(math.inf, 1.0, 0.0)
    with pytest.raises(InvalidArgumentError):
        tail_from_mgf(1.0, 1.0, -1.0)


# ---------------------------------------------------------------------------
# Quadratic CGF cap
# ---------------------------------------------------------------------------

def test_quadratic_cap_zero_shift():
    fam = NefFamily(centered(Exponential(1.0)), -0.5, 0.5)
    r = tilted_cgf_quadratic_bound(fam, 0.25, 0.0, K=4.0)
    assert r["lhs"] == 0.0 and r["rhs"] == 0.0 and r["ok"]


def test_quadratic_cap_exponential_at_shift_extremes():
    base = Exponential(1.0)
    fam = NefFamily(base, -0.5, 0.5)
    cert = build_certificate(base)
    K = stretch_supremum(cert, fam)
    for s in (math.log(2.0) / K, -math.log(2.0) / K):
        r = tilted_cgf_quadratic_bound(fam, 0.25, s, K)
        assert r["ok"]


def test_quadratic_cap_bernoulli_exact_arithmetic():
    fam = NefFamily(Bernoulli(0.5), -1.0, 1.0)
    K = max(gamma_ratio(Bernoulli(0.5), u) for u in np.linspace(-1, 1, 101))
    assert math.log(2.0) / K > 0.69
    for s in np.linspace(-0.69, 0.69, 13):
        r = tilted_cgf_quadratic_bound(fam, 1.0, float(s), K)
        assert r["ok"]
        # closed form check of both sides
        lhs = math.log((1 + math.exp(1 + s)) / (1 + math.exp(1.0)))
        mu = 1 / (1 + math.exp(-1.0))
        assert r["lhs"] == pytest.approx(lhs, abs=1e-12)
        assert r["rhs"] == pytest.approx(s * mu + s * s * mu * (1 - mu), abs=1e-12)


def test_quadratic_cap_rejects_inadmissible_shift():
    fam = NefFamily(Exponential(1.0), -0.5, 0.5)
    with pytest.raises(DomainError):
        tilted_cgf_quadratic_bound(fam, 0.25, 0.6, K=4.0)  # u + s past the domain gap
    with pytest.raises(DomainError):
        tilted_cgf_quadratic_bound(fam, 0.25, -1.0, K=1.0)  # |s| > log 2 / K


# ---------------------------------------------------------------------------
# Tilted tail caps
# ---------------------------------------------------------------------------

def caps_hold(cb, out, u, t):
    """The kind's own tilted tails and mean sit under the caps, within the suite's slack."""
    slack = tailbounds.SLACK
    return (cb.tilted_upper_tail(u, t) <= out["upper_bound_right"] + slack
            and cb.tilted_lower_tail(u, t) <= out["upper_bound_left"] + slack
            and -slack <= mean_fn(cb, u) <= out["mean_bound"] + slack)


def test_tilted_tail_caps_trivial_point():
    cb = centered(Exponential(1.0))
    tc = fit_tail_constants(Exponential(1.0), 0.9, 1.0)
    out = tilted_tail_bounds(cb, tc, 0.0, 0.0)
    assert out["upper_bound_right"] >= 1.0
    assert caps_hold(cb, out, 0.0, 0.0)


def test_tilted_tail_cap_order_tight_for_exponential():
    # with the exact tail constants (c1 = rate, C1 = e^{-1}) the right cap
    # exceeds the true tilted tail by the constant factor e, uniformly in u, t
    cb = centered(Exponential(1.0))
    tc = TailConstants(c1=1.0, C1=math.exp(-1.0), c2=1.0, C2=1.0)
    for u in (0.0, 0.3, 0.6, 0.9):
        for t in (0.0, 0.5, 2.0, 5.0):
            out = tilted_tail_bounds(cb, tc, u, t)
            ratio = out["upper_bound_right"] / cb.tilted_upper_tail(u, t)
            assert ratio == pytest.approx(math.e, rel=1e-12)


def test_tilted_tail_caps_laplace_quadrature_oracle():
    cb = Laplace(1.0)
    tc = fit_tail_constants(cb, 0.9, 0.9)
    u = 0.4
    logm = float(cb.log_mgf(u))
    for t in (0.0, 1.0, 2.0, 4.0):
        dens = lambda y: math.exp(u * y - logm - abs(y)) / 2.0
        meas_r, _ = integrate.quad(dens, t, 300.0, limit=200)
        meas_l, _ = integrate.quad(dens, -200.0, -t, limit=200)
        out = tilted_tail_bounds(cb, tc, u, t)
        assert cb.tilted_upper_tail(u, t) == pytest.approx(meas_r, rel=1e-9, abs=1e-13)
        assert cb.tilted_lower_tail(u, t) == pytest.approx(meas_l, rel=1e-9, abs=1e-13)
        assert caps_hold(cb, out, u, t)


def test_tilted_tail_caps_decrease_in_t():
    cb = centered(Gamma(2.0, 1.0))
    tc = fit_tail_constants(cb, 0.9, 1.0)
    rights, lefts = [], []
    for t in np.linspace(0.0, 6.0, 13):
        out = tilted_tail_bounds(cb, tc, 0.5, float(t))
        rights.append(out["upper_bound_right"])
        lefts.append(out["upper_bound_left"])
    assert all(b <= a for a, b in zip(rights, rights[1:]))
    assert all(b <= a for a, b in zip(lefts, lefts[1:]))


def test_tilted_tail_caps_reject_bad_tilt():
    cb = centered(Exponential(1.0))
    tc = fit_tail_constants(Exponential(1.0), 0.9, 1.0)
    with pytest.raises(DomainError):
        tilted_tail_bounds(cb, tc, 0.95, 0.0)
    us, ts = np.linspace(0.0, 0.8, 5)[:, None], np.linspace(0.0, 4.0, 5)
    caps, caps_centered = (tilted_tail_bounds(b, tc, us, ts) for b in (Exponential(1.0), cb))
    for key, cap in caps.items():  # an uncentered base is centered first
        np.testing.assert_array_equal(cap, caps_centered[key])


# ---------------------------------------------------------------------------
# Variance floor
# ---------------------------------------------------------------------------

def test_variance_floor_at_zero_is_second_moment_restriction():
    cb = centered(Exponential(1.0))
    w = find_support_witness(cb)
    val = variance_lower_bound(cb, w, 0.0)
    assert val == pytest.approx(w.a**2 * w.eta, rel=1e-13)
    assert val <= moments(cb, 0.0).variance


@pytest.mark.parametrize("base", [Exponential(1.0), Gamma(2.0, 1.0), Poisson(2.0),
                                  DiscreteAtoms(((0.0, 0.5), (1.0, 0.5)))],
                         ids=lambda base: base.kind)
def test_variance_floor_of_an_uncentered_base_is_that_of_its_centered_form(base):
    cb = centered(base)
    w = find_support_witness(base)
    assert w == find_support_witness(cb)
    us = np.linspace(0.0, 0.5, 6)
    np.testing.assert_array_equal(variance_lower_bound(base, w, us),
                                  variance_lower_bound(cb, w, us))


def test_variance_floor_exponential_closed_form_variance():
    cb = centered(Exponential(1.0))
    w = find_support_witness(cb)
    bound, var = variance_lower_bound(cb, w, 0.3), float(cb.dmean_at(0.3))
    assert var == pytest.approx(1.0 / 0.7**2, rel=1e-12)
    assert var >= bound - tailbounds.SLACK


def test_variance_floor_bernoulli_exact_arithmetic():
    cb = centered(Bernoulli(0.5))
    w = find_support_witness(cb)
    bound, var = variance_lower_bound(cb, w, 2.0), float(cb.dmean_at(2.0))
    mu2 = 1 / (1 + math.exp(-2.0))
    assert var == pytest.approx(mu2 * (1 - mu2), rel=1e-12)
    assert bound == pytest.approx(0.125 * math.exp(-1.0) / math.cosh(1.0), rel=1e-12)
    assert var >= bound - tailbounds.SLACK


def test_variance_floor_rejects_negative_tilt():
    cb = centered(Exponential(1.0))
    w = find_support_witness(cb)
    with pytest.raises(DomainError):
        variance_lower_bound(cb, w, -0.1)


# ---------------------------------------------------------------------------
# Tilted MGF ratio identity and the full suite
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("base", SUITE_BASES, ids=lambda b: b.kind)
def test_tilted_mgf_ratio_identity(base):
    cb = centered(base)
    lo, hi = cb.mgf_domain
    for u in np.linspace(max(lo, -1.0) * 0.5, min(hi, 1.0) * 0.5, 5):
        eps = 0.2 * min(min(hi, 1.0) - u, u - max(lo, -1.0))
        for e in (eps, -eps):
            lhs = measured_tilted_mgf(cb, float(u), float(e))
            rhs = math.exp(float(cb.log_mgf(u + e)) - float(cb.log_mgf(u)))
            assert lhs == pytest.approx(rhs, abs=1e-10, rel=1e-10)


# the counterexample's far atoms need the log-domain series of the tilted MGF
@pytest.mark.parametrize("base", SUITE_BASES + [CounterexampleSubgaussian(24)],
                         ids=lambda b: b.kind)
def test_run_tail_suite_all_certificates_pass(base):
    certs = run_tail_suite(base)
    assert len(certs) >= 10
    for c in certs:
        assert c.ok, f"{c.name}: max slack {c.max_slack}"
        assert c.max_slack <= 1e-10


def test_run_tail_suite_rejects_an_empty_grid():
    for n in (0, -3):
        with pytest.raises(InvalidArgumentError, match="grid_n"):
            run_tail_suite(Exponential(1.0), grid_n=n)


@pytest.mark.parametrize("n", [2.5, np.float64(3.0), True])
def test_run_tail_suite_takes_a_count_of_grid_points(n):
    # True checked one point, labelled "True points"
    with pytest.raises(InvalidArgumentError, match="grid_n") as info:
        run_tail_suite(Exponential(1.0), grid_n=n)
    assert info.value.name == "grid_n"


def test_non_finite_slack_fails_its_certificate(monkeypatch):
    # a NaN measured after finite slacks must fail the certificate, not vanish in the max
    original = tailbounds._measured_grid

    def nan_after_three(*args):
        grid = original(*args)
        assert grid.shape == (7, 4) and np.isfinite(grid.flat[:3]).all()
        grid.flat[3] = math.nan
        return grid

    monkeypatch.setattr(tailbounds, "_measured_grid", nan_after_three)
    certs = {c.name: c for c in run_tail_suite(Exponential(1.0))}
    ident = certs["tilted_mgf_ratio_identity"]
    assert math.isnan(ident.max_slack)
    assert not ident.ok
    assert [n for n, c in certs.items() if not c.ok] == ["tilted_mgf_ratio_identity"]


@pytest.mark.parametrize("base", SUITE_BASES + [CounterexampleSubgaussian(24)],
                         ids=lambda b: b.kind)
def test_tail_suite_needs_no_quadrature(base, monkeypatch):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("the tail suite reached scipy.integrate.quad")

    monkeypatch.setattr(integrate, "quad", no_quadrature)
    certs = run_tail_suite(base)
    assert all(c.ok for c in certs)


def test_measured_tilted_mgf_is_nan_where_the_conjugate_has_no_float_rate():
    # the tilted Poisson(1) rate e^400 is past float range
    assert math.isnan(measured_tilted_mgf(Poisson(1.0), 400.0, 0.5))


def test_measured_tilted_mgf_of_laplace_is_infinite_past_its_domain():
    # Q_u of Laplace(1) has a finite MGF exactly on -(1 + u) < eps < 1 - u
    assert measured_tilted_mgf(Laplace(1.0), 0.5, 0.49) < math.inf
    assert measured_tilted_mgf(Laplace(1.0), 0.5, 0.5) == math.inf
    assert measured_tilted_mgf(Laplace(1.0), 0.5, -1.6) == math.inf


def suite_ratio_grid(cb):
    """The tail suite's 7 tilts by 4 shifts of the ratio identity, for a centered base."""
    tail = fit_tail_constants(cb)
    us = np.linspace(*tilt_range(tail), 7)[:, None]
    span = np.minimum(tail.c1 - np.maximum(us, 0.0), tail.c2 + np.minimum(us, 0.0))
    return us, np.array([-0.5, -0.25, 0.25, 0.5]) * span


def per_point_tilted_mgf(base, us, eps):
    """``measured_tilted_mgf`` taken one (u, eps) at a time over the broadcast grid."""
    us, eps = np.broadcast_arrays(us, eps)
    points = [measured_tilted_mgf(base, u, e) for u, e in zip(us.ravel().tolist(),
                                                              eps.ravel().tolist())]
    assert all(type(p) is float for p in points)
    return np.reshape(points, us.shape)


@pytest.mark.parametrize("base", SUITE_BASES + [CounterexampleSubgaussian(24),
                                                Shifted(Gamma(2.0, 1.0), 0.7)],
                         ids=lambda b: b.kind)
def test_measured_tilted_mgf_on_the_suite_grid_is_the_per_point_values(base):
    # the suite measures its whole 7 x 4 grid in one call: that must be the per-point values
    us, eps = suite_ratio_grid(centered(base))
    for b in (base, centered(base)):
        grid = measured_tilted_mgf(b, us, eps)
        assert grid.shape == (7, 4)
        np.testing.assert_array_equal(grid, per_point_tilted_mgf(b, us, eps))


def test_measured_tilted_mgf_grid_keeps_each_non_finite_point():
    # Laplace(1)'s Q_u has a finite MGF exactly on -(1 + u) < eps < 1 - u; the tilted
    # Poisson(1) rate e^400 is past float range
    us, eps = np.array([[0.0], [0.5]]), np.array([0.49, 0.5, -1.6])
    grid = measured_tilted_mgf(Laplace(1.0), us, eps)
    np.testing.assert_array_equal(np.isinf(grid), [[False, False, True], [False, True, True]])
    np.testing.assert_array_equal(grid, per_point_tilted_mgf(Laplace(1.0), us, eps))
    us, eps = np.array([[0.0], [400.0], [1.0]]), np.array([-0.5, 0.5])
    grid = measured_tilted_mgf(Poisson(1.0), us, eps)
    np.testing.assert_array_equal(np.isnan(grid), [[False, False], [True, True], [False, False]])
    np.testing.assert_array_equal(grid, per_point_tilted_mgf(Poisson(1.0), us, eps))


ATOM_BASES = [DiscreteAtoms(((0.0, 0.5), (1.0, 0.5))), SUITE_BASES[-1],
              DiscreteAtoms(((-1.0, 0.2), (0.5, 0.3), (3.0, 0.5))), CounterexampleSubgaussian(24)]


@pytest.mark.parametrize("base", ATOM_BASES, ids=lambda b: b.kind)
def test_atom_tilted_mgf_matches_scipy_logsumexp_on_the_suite_grid(base):
    # the suite's 7 tilts by 4 shifts, on the centered base it measures and on the raw one
    for b in (base, centered(base)):
        c1, c2 = default_tail_rates(b)
        for u in np.linspace(-0.8 * c2, 0.8 * c1, 7).tolist():
            for frac in (-0.5, -0.25, 0.25, 0.5):
                eps = frac * min(c1 - max(u, 0.0), c2 + min(u, 0.0))
                assert measured_tilted_mgf(b, u, eps) == pytest.approx(
                    logsumexp_tilted_mgf(b, u, eps), rel=1e-14, abs=0.0)


def test_counterexample_tilted_mgf_matches_scipy_logsumexp_at_large_tilts():
    # at u = ±2^(i+1) the tilt sits on atoms near 2^i; shifts of a few units over 2^i
    base = CounterexampleSubgaussian(24)
    for i in range(2, 16, 2):
        u = 2.0 ** (i + 1)
        for tilt in (u, -u):
            for eps in (-4.0 / u, -0.5 / u, 0.5 / u, 4.0 / u):
                got = measured_tilted_mgf(base, tilt, eps)
                assert math.isfinite(got)
                assert got == pytest.approx(logsumexp_tilted_mgf(base, tilt, eps),
                                            rel=1e-14, abs=0.0)


def assert_report_close(ref, got, path=""):
    """Every number of ``got`` within rel 1e-9 of ``ref``; everything else equal."""
    if isinstance(ref, dict):
        assert isinstance(got, dict) and set(got) == set(ref), path
        for key in ref:
            assert_report_close(ref[key], got[key], f"{path}/{key}")
    elif isinstance(ref, list):
        assert isinstance(got, list) and len(got) == len(ref), path
        for j, (r, g) in enumerate(zip(ref, got)):
            assert_report_close(r, g, f"{path}/{j}")
    elif isinstance(ref, float):
        assert got == pytest.approx(ref, rel=1e-9), path
    else:  # bool, str, int, None
        assert got == ref, path


@pytest.mark.parametrize("base", README_BASES[:8], ids=lambda b: b.kind)
def test_tails_report_matches_the_benchmark_reference(base, capsys, monkeypatch):
    # reads the tails reports the benchmark pins, so a tails drift shows without a
    # benchmark run, and at a tighter tolerance than its 1e-6
    reference = Path(__file__).parent.parent / "perfbench" / "reference.json"
    expected = json.loads(reference.read_text())["certify"][base.kind]["tails"]
    monkeypatch.delenv("NEF_BANDIT_OUT", raising=False)
    rc = cli.main(["tails", "--dist", json.dumps(distribution_config(base))])
    got = json.loads(capsys.readouterr().out)
    assert rc == expected["rc"]
    assert ([c["ok"] for c in got["certificates"]]
            == [c["ok"] for c in expected["report"]["certificates"]])
    assert_report_close(expected["report"], got)


@pytest.mark.parametrize("base", README_BASES, ids=lambda b: b.kind)
def test_ratio_block_on_the_grid_matches_the_per_point_loop(base):
    # the suite's last three certificates against the same points taken one at a time
    certs = {c.name: c for c in run_tail_suite(base)}
    for name, slacks in ratio_block_slacks(centered(base)).items():
        ref = _cert(name, "both", 0.0, 0.0, "", slacks)
        assert certs[name].ok == ref.ok, name
        assert certs[name].max_slack == pytest.approx(ref.max_slack, rel=0.0, abs=1e-12), name


def test_run_tail_suite_rejects_a_tilt_range_reaching_a_rate():
    # at u = c1 every shift of the ratio identity is 0: no tilt range may reach (-c2, c1)'s ends
    for interval in ((0.9, 0.9), (-0.3, 0.95), (-1.0, 0.5), (math.nan, 0.5)):
        with pytest.raises(DomainError, match=r"strictly inside \(-c2, c1\)"):
            run_tail_suite(Exponential(1.0), interval=interval)


@pytest.mark.parametrize("slacks", [[-1.0, math.nan, -2.0], [-1.0, math.inf], [-math.inf, -1.0]])
def test_certificate_with_a_non_finite_slack_fails(slacks):
    assert not _cert("c", "both", 0.0, 0.0, "grid", slacks).ok
    assert _cert("c", "both", 0.0, 0.0, "grid", [-1.0, -2.0]).ok


# ---------------------------------------------------------------------------
# Caps over grids
# ---------------------------------------------------------------------------

def assert_grid_is_pointwise(fn, *axes):
    """fn on the open grid of the axes equals fn called once per grid point."""
    points = np.vectorize(lambda *p: float(fn(*map(float, p))))(
        *np.meshgrid(*axes, indexing="ij"))
    whole = np.broadcast_to(fn(*np.ix_(*axes)), points.shape)
    np.testing.assert_allclose(whole, points, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("base", README_BASES, ids=lambda b: b.kind)
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(xs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
       ys=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
def test_caps_over_grids_are_the_per_point_values(base, xs, ys):
    # the suite calls each cap once on its whole grid: that must be the per-point caps
    cb = centered(base)
    c1, c2 = default_tail_rates(cb)
    tail = fit_tail_constants(cb, c1, c2)
    fam = NefFamily(cb, -0.8 * c2, 0.8 * c1)
    K = max(float(np.max(gamma_ratio(cb, np.linspace(*fam.interval, 65)))), 1e-9)
    s_lo, s_hi = tailbounds._admissible_shift_box(fam, K)
    w = find_support_witness(cb)
    xs, ys = np.array(xs), np.array(ys)
    us, ts = 0.9 * c1 * xs, 6.0 * ys  # 0 <= u < c1, t >= 0
    assert_grid_is_pointwise(lambda lam: mgf_from_tail_bound(c1, tail.C1, lam), 0.95 * c1 * xs)
    assert_grid_is_pointwise(lambda c, t: tail_from_mgf(1.5, c, t), 0.1 + xs, ts)
    for key in ("lhs", "rhs", "ok"):
        assert_grid_is_pointwise(lambda u, s: tilted_cgf_quadratic_bound(fam, u, s, K)[key],
                                 fam.param_lo + (fam.param_hi - fam.param_lo) * xs,
                                 s_lo + (s_hi - s_lo) * ys)
    for key in ("upper_bound_right", "upper_bound_left", "mean_bound"):
        assert_grid_is_pointwise(lambda u, t: tilted_tail_bounds(cb, tail, u, t)[key], us, ts)
    assert_grid_is_pointwise(lambda u: variance_lower_bound(cb, w, u), us)


def test_cap_checks_cover_every_grid_point():
    # one bad point anywhere in a grid fails the call, named in the error
    cb = centered(Exponential(1.0))
    tc = fit_tail_constants(Exponential(1.0), 0.9, 1.0)
    w = find_support_witness(cb)
    with pytest.raises(DomainError) as err:
        mgf_from_tail_bound(1.0, 1.0, np.array([0.0, 0.5, 1.0, 0.2]))
    assert err.value.value == 1.0
    with pytest.raises(InvalidArgumentError):
        tail_from_mgf(1.0, 1.0, np.array([0.0, -1.0]))
    with pytest.raises(DomainError):
        tilted_tail_bounds(cb, tc, np.array([[0.1], [0.95]]), np.array([0.0, 1.0]))
    with pytest.raises(InvalidArgumentError):
        tilted_tail_bounds(cb, tc, 0.1, np.array([0.0, math.nan, -1.0]))
    with pytest.raises(DomainError):
        variance_lower_bound(cb, w, np.array([0.0, 0.3, -0.1]))
    with pytest.raises(DomainError):  # inside u >= 0 but past the natural parameter interval
        variance_lower_bound(cb, w, np.array([0.0, 1.0]))
    with pytest.raises(InvalidArgumentError, match="empty"):
        variance_lower_bound(cb, w, np.array([]))
    fam = NefFamily(cb, -0.5, 0.5)
    with pytest.raises(DomainError):
        tilted_cgf_quadratic_bound(fam, np.array([0.25, 0.6]), 0.0, K=4.0)
    with pytest.raises(DomainError):
        tilted_cgf_quadratic_bound(fam, 0.25, np.array([0.0, 0.1, -1.0]), K=1.0)



def test_variance_lower_bound_rejects_a_point_mass():
    with pytest.raises(DegenerateDistributionError, match="non-degenerate"):
        variance_lower_bound(DiscreteAtoms(((2.0, 1.0),)), SupportWitness(0.1, 1.0, 0.5), 0.0)


@pytest.mark.parametrize("call, value, interval", [
    (lambda cb, w, tc: variance_lower_bound(cb, w, np.array([0.0, -0.1, -0.3])), -0.1,
     (0.0, math.inf)),
    (lambda cb, w, tc: variance_lower_bound(cb, w, np.array([0.0, math.nan])), math.nan,
     (0.0, math.inf)),
    (lambda cb, w, tc: tilted_tail_bounds(cb, tc, np.array([0.1, math.nan, 2.0]), 0.0), math.nan,
     (0.0, 0.9)),
    (lambda cb, w, tc: mgf_from_tail_bound(1.0, 1.0, np.array([0.5, -0.5, 2.0])), -0.5,
     (0.0, 1.0)),
], ids=["variance_first_below", "variance_nan", "tail_caps_nan", "mgf_cap"])
def test_each_cap_names_the_first_value_outside_its_interval(call, value, interval):
    cb = centered(Exponential(1.0))
    tc = fit_tail_constants(Exponential(1.0), 0.9, 1.0)
    with pytest.raises(DomainError) as err:
        call(cb, find_support_witness(cb), tc)
    assert err.value.value == value or math.isnan(err.value.value) and math.isnan(value)
    assert err.value.interval == interval


# ---------------------------------------------------------------------------
# the positive-and-finite rule of scalar constants
# ---------------------------------------------------------------------------

_WITNESS = SupportWitness(0.1, 1.0, 0.5)
_FAMILY = NefFamily(Exponential(1.0), -0.5, 0.5)
# each scalar constant held to the one rule, by the name its error carries, as a call of one
# value that 0.5 passes
POSITIVE_FINITE_CALLS = {
    "ridge weight": ("lambda", lambda v: elliptical_potential_check([[0.5]], v, 1.0)),
    "norm cap A": ("A", lambda v: elliptical_potential_check([[0.5]], 1.0, v)),
    "TailConstants": ("C2", lambda v: TailConstants(c1=1.0, C1=1.0, c2=1.0, C2=v)),
    "g_q_value": ("m2", lambda v: g_q_value(1.0, 1.0, 1.0, v, _WITNESS)),
    "SubgaussianEnvelope": ("sigma_proxy", lambda v: SubgaussianEnvelope(v, _WITNESS)),
    "StretchCertificate": ("g_q_left", lambda v: StretchCertificate(
        TailConstants(1.0, 1.0, 1.0, 1.0), _WITNESS, _WITNESS, 1.0, v, 1.0, 1.0)),
    "quadratic CGF cap K": ("K", lambda v: tilted_cgf_quadratic_bound(_FAMILY, 0.25, 0.0, v)),
    # an infinite rate would make the cap 1 and an infinite scale would make it inf
    "mgf cap c1": ("c1", lambda v: mgf_from_tail_bound(v, 1.0, 0.25)),
    "mgf cap C1": ("C1", lambda v: mgf_from_tail_bound(1.0, v, 0.25)),
}


@pytest.mark.parametrize("name, call", POSITIVE_FINITE_CALLS.values(), ids=POSITIVE_FINITE_CALLS)
def test_every_scalar_constant_is_finite_and_positive(name, call):
    # a stretch correction of inf is a DomainError naming a tail rate, not this rule
    bad = (0.0, -1.0, math.nan, -math.inf) + ((math.inf,) if name != "g_q_left" else ())
    for value in bad:
        with pytest.raises(InvalidArgumentError, match="must be finite and positive") as info:
            call(value)
        assert info.value.name == name, value
    call(0.5)


def _positive_and_finite_tests(tree: ast.AST):
    """Line of each ``x > 0 and isfinite(x)`` test in ``tree``, in either order and with
    ``0 < x`` or ``float(x)`` on the comparison side."""
    def bare(node):
        is_float = isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float"
        return ast.dump(node.args[0] if is_float else node)

    for node in ast.walk(tree):
        if not (isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And)):
            continue
        positive, finite = set(), set()
        for part in node.values:
            if isinstance(part, ast.Compare) and len(part.ops) == 1:
                left, right = part.left, part.comparators[0]
                zero = [isinstance(n, ast.Constant) and n.value == 0 for n in (left, right)]
                if isinstance(part.ops[0], ast.Gt) and zero[1]:
                    positive.add(bare(left))
                elif isinstance(part.ops[0], ast.Lt) and zero[0]:
                    positive.add(bare(right))
            elif isinstance(part, ast.Call) and getattr(part.func, "attr", None) == "isfinite":
                finite.add(bare(part.args[0]))
        if positive & finite:
            yield node.lineno


def test_the_positive_and_finite_rule_is_written_once():
    # errors.positive_finite holds the rule; a second copy anywhere in the package fails here
    for snippet in ("float(lam) > 0 and math.isfinite(lam)", "np.isfinite(v) and v > 0.0",
                    "not (0 < self.s and math.isfinite(self.s))"):
        assert list(_positive_and_finite_tests(ast.parse(snippet))), snippet
    copies = []
    for path in sorted(Path(tailbounds.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        helper = [range(f.lineno, f.end_lineno + 1) for f in ast.walk(tree)
                  if isinstance(f, ast.FunctionDef) and f.name == "positive_finite"]
        copies += [f"{path.name}:{line}" for line in _positive_and_finite_tests(tree)
                   if not any(line in lines for lines in helper)]
    assert copies == []


def _count_tests(tree: ast.AST):
    """Line of each ``isinstance(x, (int, np.integer))`` type test in ``tree``, in either order."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" \
                and len(node.args) == 2 and isinstance(node.args[1], ast.Tuple):
            kinds = {getattr(k, "id", None) or getattr(k, "attr", None) for k in node.args[1].elts}
            if {"int", "integer"} <= kinds:
                yield node.lineno


def _interval_blocks(tree: ast.AST):
    """Line of each mask of the entries outside an interval, ``x[~((lo <= x) & (x < hi))]``,
    and of each DomainError raised at the first such entry, ``value=float(bad[0])``."""
    for node in ast.walk(tree):
        test = node.slice.operand if isinstance(node, ast.Subscript) \
            and isinstance(node.slice, ast.UnaryOp) and isinstance(node.slice.op, ast.Invert) \
            else None
        if isinstance(test, ast.BinOp) and isinstance(test.op, ast.BitAnd) \
                and isinstance(test.left, ast.Compare) and isinstance(test.right, ast.Compare):
            yield node.lineno
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "DomainError":
            value = [k.value for k in node.keywords if k.arg == "value"]
            if any(isinstance(n, ast.Subscript) and getattr(n.slice, "value", None) == 0
                   for v in value for n in ast.walk(v)):
                yield node.lineno


@pytest.mark.parametrize("find, helper, snippets", [
    (_count_tests, "count",
     ["not isinstance(i, (int, np.integer)) or i < 4", "isinstance(n, (np.integer, int))"]),
    (_interval_blocks, "_inside",
     ["bad = lam[~((0.0 <= lam) & (lam < c1))]",
      "raise DomainError('x', value=float(bad[0]), interval=(0.0, c1))"]),
], ids=["count", "interval"])
def test_the_count_and_interval_rules_are_written_once(find, helper, snippets):
    # errors.count holds the integer test and tailbounds._inside the interval test; a second
    # copy anywhere in the package fails here
    for snippet in snippets:
        assert list(find(ast.parse(snippet))), snippet
    copies = []
    for path in sorted(Path(tailbounds.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = [range(f.lineno, f.end_lineno + 1) for f in ast.walk(tree)
                  if isinstance(f, ast.FunctionDef) and f.name == helper]
        copies += [f"{path.name}:{line}" for line in find(tree)
                   if not any(line in lines for lines in inside)]
    assert copies == []
