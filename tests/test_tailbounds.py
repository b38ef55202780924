"""Tail/MGF certificates: Chernoff caps, tilted-tail caps, variance floor."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from nefbandit import tailbounds
from nefbandit.distributions import (
    Bernoulli,
    CounterexampleSubgaussian,
    DiscreteAtoms,
    Exponential,
    Gamma,
    Gaussian,
    Laplace,
    NefFamily,
    centered,
    gamma_ratio,
    mean_fn,
)
from nefbandit.errors import DomainError, InvalidArgumentError
from nefbandit.selfconcordance import (
    SupportWitness,
    TailConstants,
    build_certificate,
    default_tail_rates,
    find_support_witness,
    fit_tail_constants,
    stretch_supremum,
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
from oracle import README_BASES, moments

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
    with pytest.raises(InvalidArgumentError):
        tilted_tail_bounds(Exponential(1.0), tc, 0.1, 0.0)  # not centered


# ---------------------------------------------------------------------------
# Variance floor
# ---------------------------------------------------------------------------

def test_variance_floor_at_zero_is_second_moment_restriction():
    cb = centered(Exponential(1.0))
    w = find_support_witness(cb)
    val = variance_lower_bound(cb, w, 0.0)
    assert val == pytest.approx(w.a**2 * w.eta, rel=1e-13)
    assert val <= moments(cb, 0.0).variance


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


def test_non_finite_slack_fails_its_certificate(monkeypatch):
    # a NaN measured after finite slacks must fail the certificate, not vanish in the max
    calls = []

    def nan_after_three(*args):
        calls.append(args)
        return measured_tilted_mgf(*args) if len(calls) <= 3 else math.nan

    monkeypatch.setattr(tailbounds, "measured_tilted_mgf", nan_after_three)
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


def test_measured_tilted_mgf_of_laplace_is_infinite_past_its_domain():
    # Q_u of Laplace(1) has a finite MGF exactly on -(1 + u) < eps < 1 - u
    assert measured_tilted_mgf(Laplace(1.0), 0.5, 0.49) < math.inf
    assert measured_tilted_mgf(Laplace(1.0), 0.5, 0.5) == math.inf
    assert measured_tilted_mgf(Laplace(1.0), 0.5, -1.6) == math.inf


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
