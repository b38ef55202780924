"""Exponential-family core: MGF/CGF closed forms, tilted moments, sampling."""

import dataclasses
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from nefbandit import distributions
from nefbandit.distributions import (
    BaseDistribution,
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
    cgf,
    distribution_config,
    gamma_ratio,
    mean_fn,
    mgf,
    parse_distribution,
    reflected,
    sample_tilted,
)
from nefbandit.errors import DomainError, InvalidArgumentError, ParseError, PrecisionError
from nefbandit.rng import replicate_stream
from oracle import README_BASES, moments

ALL_BASES = [
    Bernoulli(0.5),
    Bernoulli(0.2),
    Gaussian(1.0),
    Exponential(1.0),
    Poisson(2.0),
    Laplace(1.0),
    Gamma(2.0, 1.0),
    DiscreteAtoms(((-2.0, 0.25), (-0.5, 0.25), (0.5, 0.25), (2.0, 0.25))),
]


def param_id(base):
    """A test id from a base's config form, such as ``gaussian-sigma1.0``; an atom list
    counts its atoms."""
    cfg = distribution_config(base)
    return "-".join([cfg.pop("kind")] + [f"{k}{len(v) if isinstance(v, list) else v}"
                                         for k, v in cfg.items()])


def interior_grid(base, n=9, frac=0.6):
    """Evenly spaced tilts strictly inside the natural parameter interval."""
    lo, hi = base.mgf_domain
    lo = max(lo, -2.0) if not math.isfinite(lo) else lo
    hi = min(hi, 2.0) if not math.isfinite(hi) else hi
    c, r = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return np.linspace(c - frac * r, c + frac * r, n)


def tilted_total_mass(base, u):
    """Independent oracle: total mass of Q_u by quadrature / summation."""
    logm = float(base.log_mgf(u))
    if isinstance(base, Bernoulli):
        return float(np.exp(np.array([math.log1p(-base.p), math.log(base.p) + u]) - logm).sum())
    if isinstance(base, (DiscreteAtoms, CounterexampleSubgaussian)):
        locs, logw = base.log_atoms
        return float(np.exp(logw + u * locs - logm).sum())
    if isinstance(base, Poisson):
        ks = np.arange(0, 200)
        logpmf = ks * math.log(base.nu) - base.nu - [math.lgamma(k + 1) for k in ks]
        return float(np.exp(np.asarray(logpmf) + u * ks - logm).sum())
    if isinstance(base, Gaussian):
        f = lambda y: math.exp(u * y - logm) * math.exp(-0.5 * (y / base.sigma) ** 2) \
            / (base.sigma * math.sqrt(2 * math.pi))
        val, _ = integrate.quad(f, -40 * base.sigma + base.sigma**2 * u,
                                40 * base.sigma + base.sigma**2 * u, limit=200)
        return val
    if isinstance(base, Exponential):
        r = base.rate - u
        f = lambda y: math.exp(u * y - logm) * base.rate * math.exp(-base.rate * y)
        val, _ = integrate.quad(f, 0, 120 / r, limit=200)
        return val
    if isinstance(base, Laplace):
        s = base.scale
        f = lambda y: math.exp(u * y - logm) * math.exp(-abs(y) / s) / (2 * s)
        hi = 120 / (1 / s - u)
        lo = -120 / (1 / s + u)
        val, _ = integrate.quad(f, lo, hi, points=[0.0], limit=200)
        return val
    if isinstance(base, Gamma):
        th = base.scale / (1 - base.scale * u)
        f = lambda y: math.exp(u * y - logm) * math.exp(
            (base.shape - 1) * math.log(y) - y / base.scale
            - math.lgamma(base.shape) - base.shape * math.log(base.scale))
        val, _ = integrate.quad(f, 1e-300, th * (base.shape + 400), limit=200)
        return val
    raise AssertionError(base)


# ---------------------------------------------------------------------------
# mgf / cgf
# ---------------------------------------------------------------------------

def test_mgf_exponential_closed_form():
    assert mgf(Exponential(1.0), 0.5) == pytest.approx(2.0, abs=1e-14)


@pytest.mark.parametrize("base", ALL_BASES, ids=param_id)
def test_mgf_at_zero_is_one(base):
    assert mgf(base, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_mgf_laplace_matches_quadrature_oracle():
    # oracle: direct integral of exp(0.5 y) * exp(-|y|)/2 over [-80, 160];
    # the discarded tails integrate to e^{-80}/3 + e^{-120} < 1e-12
    f = lambda y: 0.5 * math.exp(-abs(y)) * math.exp(0.5 * y)
    oracle, err = integrate.quad(f, -80.0, 160.0, points=[0.0], limit=200)
    assert err < 1e-8
    assert mgf(Laplace(1.0), 0.5) == pytest.approx(oracle, rel=1e-10)
    assert oracle == pytest.approx(4.0 / 3.0, rel=1e-10)


def test_mgf_outside_domain_is_infinite():
    assert mgf(Exponential(1.0), 1.0) == math.inf
    assert mgf(Exponential(1.0), 2.5) == math.inf
    assert mgf(Laplace(2.0), -0.51) == math.inf


def test_mgf_rejects_non_finite_argument():
    with pytest.raises(InvalidArgumentError):
        mgf(Exponential(1.0), math.nan)
    with pytest.raises(InvalidArgumentError):
        mgf(Gaussian(1.0), math.inf)


def test_cgf_exponential_and_zero():
    assert cgf(Exponential(1.0), 0.5) == pytest.approx(math.log(2.0), abs=1e-14)
    for base in ALL_BASES:
        assert cgf(base, 0.0) == pytest.approx(0.0, abs=1e-14)


def test_cgf_poisson_series_oracle():
    # oracle: log sum_k exp(u k) nu^k e^{-nu} / k!, summed in log domain
    nu, u = 2.0, 1.0
    logs = [u * k + k * math.log(nu) - nu - math.lgamma(k + 1) for k in range(200)]
    peak = max(logs)
    oracle = peak + math.log(sum(math.exp(v - peak) for v in logs))
    assert cgf(Poisson(nu), u) == pytest.approx(oracle, rel=1e-13)
    assert oracle == pytest.approx(nu * (math.e - 1.0), rel=1e-12)


def test_cgf_domain_error_names_interval():
    with pytest.raises(DomainError) as ei:
        cgf(Exponential(2.0), 2.0)
    assert "(-inf, 2.0)" in str(ei.value)


def test_interior_of_an_unbounded_domain_keeps_a_margin_relative_to_its_finite_end():
    # Gamma(2, 1e10) has the domain (-inf, 1e-10): an absolute 1e-9 margin would drop u = 0
    tiny = Gamma(2.0, 1e10)
    assert tiny.interior == (-math.inf, 1e-10 - 1e-19)
    assert mean_fn(tiny, 0.0) == pytest.approx(2e10, rel=1e-15)
    for base in (Exponential(1.0), Gamma(2.0, 1.0), Shifted(Gamma(2.0, 1.0), -1.5)):
        assert base.interior == (-math.inf, 0.999999999)
    assert Laplace(1.0).interior == (-0.999999998, 0.999999998)  # a finite width, as before
    assert Gaussian(1.0).interior == (-math.inf, math.inf)


def test_boundary_guard_rejects_near_boundary_tilt():
    with pytest.raises(DomainError):
        cgf(Exponential(1.0), 1.0 - 1e-12)


# ---------------------------------------------------------------------------
# mean function and moments
# ---------------------------------------------------------------------------

def test_mean_exponential_and_bernoulli():
    assert mean_fn(Exponential(1.0), 0.5) == pytest.approx(2.0, abs=1e-13)
    assert mean_fn(Bernoulli(0.5), 0.0) == pytest.approx(0.5, abs=1e-14)


def test_mean_two_atom_tilt_arithmetic():
    # atoms at 0 and 1 with equal weight, tilted by ln 3:
    # weights become (0.5, 1.5)/2, so the mean is 1.5/2 = 0.75
    base = DiscreteAtoms(((0.0, 0.5), (1.0, 0.5)))
    assert mean_fn(base, math.log(3.0)) == pytest.approx(0.75, abs=1e-14)


@pytest.mark.parametrize("base", ALL_BASES, ids=param_id)
def test_mean_matches_cgf_finite_differences(base):
    h = 1e-5
    for u in interior_grid(base):
        fd = (cgf(base, u + h) - cgf(base, u - h)) / (2 * h)
        m = mean_fn(base, u)
        assert abs(m - fd) <= 1e-6 * (1 + abs(m))


@pytest.mark.parametrize("base", ALL_BASES, ids=param_id)
def test_variance_matches_cgf_second_difference(base):
    h = 1e-5
    for u in interior_grid(base):
        fd2 = (cgf(base, u + h) - 2 * cgf(base, u) + cgf(base, u - h)) / h**2
        v = moments(base, u).variance
        assert abs(v - fd2) <= 1e-4 * (1 + abs(v))


def test_moments_exponential_closed_forms():
    rep = moments(Exponential(1.0), 0.5)
    assert rep.variance == pytest.approx(4.0, rel=1e-12)
    assert rep.third_central == pytest.approx(16.0, rel=1e-12)
    assert rep.method == "analytic"


def test_moments_point_mass_degenerates_to_zero():
    rep = moments(DiscreteAtoms(((3.0, 1.0),)), 2.0)
    assert rep.variance == 0.0
    assert rep.third_central == 0.0
    assert gamma_ratio(DiscreteAtoms(((3.0, 1.0),)), 2.0) == 0.0
    np.testing.assert_array_equal(
        gamma_ratio(DiscreteAtoms(((3.0, 1.0),)), np.linspace(-2.0, 2.0, 5)), np.zeros(5))


def test_moments_laplace_quadrature_vs_closed_forms():
    u, lam = 0.3, 1.0
    rep = moments(Laplace(1.0), u)
    var_cf = 1.0 / (lam + u) ** 2 + 1.0 / (lam - u) ** 2
    third_cf = 2.0 / (lam - u) ** 3 - 2.0 / (lam + u) ** 3
    assert rep.method == "quadrature"
    assert rep.variance == pytest.approx(var_cf, rel=1e-8)
    assert rep.third_central == pytest.approx(third_cf, rel=1e-8)
    assert rep.abs_error_estimate < 1e-8


@pytest.mark.parametrize("base", ALL_BASES, ids=param_id)
def test_moment_report_internal_consistency(base):
    for u in interior_grid(base, n=5):
        rep = moments(base, u)
        assert rep.variance >= 0
        assert rep.third_absolute >= abs(rep.third_central) - 1e-12


@pytest.mark.parametrize("base", ALL_BASES, ids=param_id)
def test_tilted_distribution_normalises(base):
    for u in interior_grid(base, n=5):
        assert tilted_total_mass(base, u) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("base", ALL_BASES, ids=param_id)
def test_mean_function_is_nondecreasing(base):
    grid = interior_grid(base, n=25)
    means = [mean_fn(base, u) for u in grid]
    assert all(b - a >= -1e-12 for a, b in zip(means, means[1:]))


# ---------------------------------------------------------------------------
# gamma ratio
# ---------------------------------------------------------------------------

def test_gamma_ratio_exponential():
    assert gamma_ratio(Exponential(1.0), 0.5) == pytest.approx(4.0, rel=1e-12)


def test_gamma_ratio_bernoulli_bounded_by_one():
    base = Bernoulli(0.5)
    for u in np.linspace(-6, 6, 25):
        r = gamma_ratio(base, u)
        m = mean_fn(base, u)
        assert r == pytest.approx(abs(1 - 2 * m), rel=1e-10)
        assert r <= 1.0 + 1e-12


@pytest.mark.parametrize("p", [0.5, 0.2, 1e-3])
def test_bernoulli_moments_hold_their_precision_out_to_large_tilts(p):
    # z = u + logit p on |u| <= 700 and within 1e-300 of z = 0 on both sides, z = 0 too
    base = Bernoulli(p)
    logit = math.log(p) - math.log1p(-p)
    near = np.geomspace(1e-300, 1.0, 301)
    u = np.concatenate([np.linspace(-700.0, 700.0, 1401), near - logit, -near - logit, [-logit]])
    z = u + logit
    var = base.dmean_at(u)
    assert np.all(var > 0.0)
    # against the two-atom series, whose exponent log p + u itself rounds by 6e-14 at |u| = 700
    np.testing.assert_allclose(var, distributions._AtomMixin.dmean_at(base, u), rtol=1e-13, atol=0)
    np.testing.assert_allclose(np.abs(base.d2mean_at(u) / var), np.tanh(np.abs(z) / 2),
                               rtol=1e-12, atol=0)
    # psi = log1p(p expm1(u)) loses no precision anywhere; the closed form sums terms as large
    # as log(1 - p), so its error is taken relative to that near psi's zero at u = 0
    psi = np.log1p(p * np.expm1(u))
    assert np.all(np.abs(base.log_mgf(u) - psi) <= 1e-14 * np.maximum(np.abs(psi), -math.log1p(-p)))
    # the logistic taken in long double: exp, 1 + e and the quotient each round (float64 expit
    # is itself up to 2.3 ulp from it), so 1 ulp of float64 expit is not a bound
    exact = special.expit(z.astype(np.longdouble)).astype(float)
    assert np.all(np.abs(base.mean_at(u) - exact) <= 2.5 * np.spacing(exact))


def test_gamma_moments_of_a_huge_scale_come_from_the_tilted_scale():
    # scale^3 leaves float range, but the tilted scale 1e120 / (1 + 1e120 |u|) does not
    base = Gamma(2.0, 1e120)
    assert gamma_ratio(base, -1.0) == pytest.approx(2.0, rel=1e-12)
    assert base.dmean_at(0.0) == pytest.approx(2e240, rel=1e-12)
    assert base.d2mean_at(0.0) == math.inf  # the third moment itself is beyond float range


def test_gamma_ratio_laplace_closed_form():
    lam, u = 1.0, 0.5
    expected = 2 * abs(u) * (3 * lam**2 + u**2) / ((lam - u) * (lam + u) * (lam**2 + u**2))
    assert gamma_ratio(Laplace(1.0), u) == pytest.approx(expected, rel=1e-6)


# ---------------------------------------------------------------------------
# closed-form ratio path over whole tilt grids
# ---------------------------------------------------------------------------

CLOSED_FORM_BASES = ALL_BASES + [
    CounterexampleSubgaussian(24),
    Shifted(Laplace(0.5), 1.5),
    Shifted(DiscreteAtoms(((0.0, 0.3), (1.0, 0.7))), -0.7),
]
ATOM_BASES = [DiscreteAtoms(((-2.0, 0.1), (0.0, 0.6), (3.5, 0.3))),
              DiscreteAtoms(((5.0, 1.0),)), CounterexampleSubgaussian(24)]


def _kind_id(base):
    return base.kind if not isinstance(base, Shifted) else f"shifted-{base.base.kind}"


@pytest.mark.parametrize("base", CLOSED_FORM_BASES, ids=_kind_id)
def test_gamma_ratio_grid_equals_scalar_calls_bitwise(base):
    us = interior_grid(base, n=41, frac=0.9)
    grid = gamma_ratio(base, us)
    assert isinstance(grid, np.ndarray) and grid.shape == us.shape
    scalars = [gamma_ratio(base, float(u)) for u in us]
    assert all(type(r) is float for r in scalars)
    np.testing.assert_array_equal(grid, scalars)
    np.testing.assert_array_equal(gamma_ratio(base, us.reshape(-1, 1)), np.c_[scalars])


@pytest.mark.parametrize("base", CLOSED_FORM_BASES + ATOM_BASES, ids=_kind_id)
def test_moment_pair_is_mu_prime_and_mu_double_prime_bitwise(base):
    # suprema and gamma_ratio read the pair: it must be the two methods' own values
    us = interior_grid(base, n=41, frac=0.9)
    for u in (us, us.reshape(-1, 1), float(us[7])):
        var, third = base._dmeans(u)
        np.testing.assert_array_equal(var, base.dmean_at(u))
        np.testing.assert_array_equal(third, base.d2mean_at(u))
        assert np.shape(var) == np.shape(third) == np.shape(u)


CURVE_BASES = {**{_kind_id(b): b for b in README_BASES},
               "shifted-exponential": Shifted(Exponential(2.0), 0.75),
               "centered-exponential": centered(Exponential(1.0)),
               "centered-bernoulli": centered(Bernoulli(0.2)),
               "reflected-bernoulli": reflected(Bernoulli(0.3)),
               "reflected-shifted-laplace": reflected(Shifted(Laplace(0.5), 1.5))}


@pytest.mark.parametrize("base", CURVE_BASES.values(), ids=CURVE_BASES)
def test_curve_is_log_mgf_mean_and_variance_bitwise(base):
    # every Newton point reads its loss, gradient and Hessian weights from one _curve call
    lo, hi = (u if math.isfinite(u) else math.copysign(40.0, u) for u in base.interior)
    grid = np.linspace(lo, hi, 12)
    for u in (lo, hi, float(grid[5]), np.asarray(grid[5]), grid, grid.reshape(3, 4)):
        for got, method in zip(base._curve(u), (base.log_mgf, base.mean_at, base.dmean_at)):
            want = method(u)
            assert np.shape(got) == np.shape(want) == np.shape(u), (method.__name__, u)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (method.__name__, u)


@pytest.mark.parametrize("base", ATOM_BASES, ids=lambda b: f"{b.kind}{len(b.log_atoms[0])}")
@pytest.mark.parametrize("method", ["log_mgf", "mean_at", "dmean_at", "d2mean_at"])
def test_atom_methods_over_a_grid_equal_per_tilt_values(base, method):
    us = np.linspace(-3.0, 3.0, 25)
    grid = getattr(base, method)(us)
    assert grid.shape == us.shape
    np.testing.assert_array_equal(grid, [getattr(base, method)(float(u)) for u in us])
    np.testing.assert_array_equal(getattr(base, method)(us.reshape(5, 5)), grid.reshape(5, 5))


@pytest.mark.parametrize("base", CLOSED_FORM_BASES, ids=_kind_id)
def test_closed_form_variance_and_third_moment_match_moment_reports(base):
    us = interior_grid(base, n=9)
    reps = [moments(base, float(u)) for u in us]
    np.testing.assert_allclose(base.dmean_at(us), [r.variance for r in reps],
                               rtol=1e-8, atol=1e-12)
    np.testing.assert_allclose(base.d2mean_at(us), [r.third_central for r in reps],
                               rtol=1e-8, atol=1e-12)


@pytest.mark.parametrize("bad,err", [
    (1.0, DomainError), (1.5, DomainError), (math.nan, InvalidArgumentError),
    (-math.inf, InvalidArgumentError)])
def test_gamma_ratio_rejects_any_bad_tilt_in_a_grid(bad, err):
    us = np.array([-0.5, 0.0, bad, 0.25])
    with pytest.raises(err):
        gamma_ratio(Exponential(1.0), us)
    with pytest.raises(err):
        gamma_ratio(NefFamily(Exponential(1.0), -0.5, 0.5), us.reshape(2, 2))


def test_an_empty_tilt_grid_is_an_invalid_argument():
    with pytest.raises(InvalidArgumentError, match="empty"):
        gamma_ratio(Exponential(1.0), np.array([]))


def test_log_atoms_is_read_only():
    locs, logw = DiscreteAtoms(((0.0, 0.25), (2.0, 0.75))).log_atoms
    np.testing.assert_array_equal(locs, [0.0, 2.0])
    np.testing.assert_allclose(np.exp(logw), [0.25, 0.75], rtol=1e-15)
    with pytest.raises(ValueError):
        locs[0] = 1.0


# ---------------------------------------------------------------------------
# structural invariants: tilt composition, shift, reflection
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("base,u,s", [
    (Exponential(1.0), 0.3, 0.4),
    (Exponential(2.0), -1.0, 0.5),
    (Poisson(2.0), 0.2, -0.7),
    (Bernoulli(0.3), 1.0, -2.0),
    (Gamma(2.0, 1.0), 0.4, -0.9),
    (Gaussian(1.5), 0.8, -0.3),
    (DiscreteAtoms(((-1.0, 0.5), (2.0, 0.5))), 0.6, -0.2),
])
def test_tilt_composition(base, u, s):
    # re-tilting Q_u by s lands on Q_{u+s}
    retilted = base.tilted(u)
    assert float(retilted.mean_at(s)) == pytest.approx(mean_fn(base, u + s), abs=1e-10)
    assert float(retilted.log_mgf(s)) == pytest.approx(cgf(base, u + s) - cgf(base, u), abs=1e-10)


@pytest.mark.parametrize("base", ALL_BASES, ids=param_id)
@pytest.mark.parametrize("c", [-3.0, 0.7])
def test_gamma_ratio_shift_invariance(base, c):
    shifted = Shifted(base, c)
    for u in interior_grid(base, n=5):
        assert gamma_ratio(shifted, u) == pytest.approx(gamma_ratio(base, u), rel=1e-9, abs=1e-12)
        assert mean_fn(shifted, u) == pytest.approx(mean_fn(base, u) + c, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("base", [
    Bernoulli(0.3),
    Laplace(1.0),
    Gaussian(2.0),
    DiscreteAtoms(((-2.0, 0.2), (0.5, 0.5), (3.0, 0.3))),
])
def test_gamma_ratio_reflection(base):
    refl = reflected(base)
    for u in interior_grid(base, n=5):
        assert gamma_ratio(refl, -u) == pytest.approx(gamma_ratio(base, u), rel=1e-9, abs=1e-12)


def test_centered_base_has_zero_mean():
    for base in ALL_BASES:
        assert mean_fn(centered(base), 0.0) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("size", [2.5, np.float64(3.0), True, -1, "4"])
def test_sample_tilted_takes_a_count_of_draws(size):
    with pytest.raises(InvalidArgumentError, match="size") as info:
        sample_tilted(Exponential(1.0), 0.5, replicate_stream(0, 0), size=size)
    assert info.value.name == "size"
    assert sample_tilted(Exponential(1.0), 0.5, replicate_stream(0, 0), size=np.int64(0)).shape \
        == (0,)


@pytest.mark.parametrize("call, name", [
    (lambda: Exponential(1.0).require_interior(math.nan), "u"),
    (lambda: Exponential(1.0).require_interior(np.array([0.1, -math.inf])), "u"),
    (lambda: mgf(Exponential(1.0), math.nan), "u"),
    (lambda: Shifted(Exponential(1.0), math.inf), "offset"),
], ids=["require_interior", "require_interior_array", "mgf", "shifted_offset"])
def test_a_value_that_is_not_finite_is_an_argument_error_named_by_its_argument(call, name):
    with pytest.raises(InvalidArgumentError, match="infs or NaNs") as info:
        call()
    assert info.value.name == name


def test_sample_tilted_exponential_clt_band():
    rng = replicate_stream(11, 0)
    draws = sample_tilted(Exponential(1.0), 0.5, rng, size=1_000_000)
    # mean 2, variance 4: three-sigma band for the sample mean
    assert abs(draws.mean() - 2.0) < 3 * math.sqrt(4.0 / 1e6)


def test_sample_tilted_bernoulli_support_and_mean():
    rng = replicate_stream(12, 0)
    draws = sample_tilted(Bernoulli(0.5), 0.0, rng, size=1_000_000)
    assert set(np.unique(draws)) <= {0.0, 1.0}
    assert abs(draws.mean() - 0.5) < 3 * 0.5 / 1000.0


def _poisson_draw_on_the_full_table(nu, u, p):
    """The least k whose tilted cdf reaches p, on the table of every count 0..kmax."""
    m = nu * math.exp(u)
    kmax = int(m + 40.0 * math.sqrt(m) + 60.0)
    return np.minimum(np.searchsorted(special.pdtr(np.arange(kmax + 1), m), p), kmax)


@pytest.mark.parametrize("nu", [1.0, 2.0])
@pytest.mark.parametrize("u", [-5.0, 0.0, 3.0, 10.0])
def test_poisson_draw_on_its_table_around_the_mean_is_the_full_table_draw(nu, u):
    p = np.concatenate([replicate_stream(5, 0).random(20_000), [1e-300, 0.5, 1.0 - 1e-16]])
    got = Poisson(nu).tilted_inverse_cdf(np.full(p.shape, u), p)
    np.testing.assert_array_equal(got, _poisson_draw_on_the_full_table(nu, u, p))


def test_poisson_draw_at_a_large_mean_holds_a_small_table():
    rng = replicate_stream(5, 0)
    tracemalloc.start()
    try:
        sample_tilted(Poisson(1.0), 16.0, rng)  # mean 8.9e6: the full table held 144 MB
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6, peak
    with pytest.raises(PrecisionError):  # nu e^u beyond float range
        sample_tilted(Poisson(1.0), 800.0, rng)


def test_sample_tilted_poisson_variance_band():
    rng = replicate_stream(13, 0)
    base = Poisson(2.0)
    draws = sample_tilted(base, 0.2, rng, size=1_000_000)
    rep = moments(base, 0.2)
    m = rep.variance  # tilted Poisson: variance equals the tilted rate
    assert m == pytest.approx(2.0 * math.exp(0.2), rel=1e-12)
    # var(sample variance) ≈ (mu4 - sigma^4)/n with mu4 = m + 3 m^2
    sd = math.sqrt((m + 3 * m**2 - m**2) / 1e6)
    assert abs(draws.var() - m) < 3 * sd


@pytest.mark.parametrize("base", ALL_BASES, ids=param_id)
def test_sample_tilted_deterministic_given_stream(base):
    u = float(interior_grid(base, n=3)[1])
    a = sample_tilted(base, u, replicate_stream(99, 4), size=64)
    b = sample_tilted(base, u, replicate_stream(99, 4), size=64)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("base", ALL_BASES, ids=param_id)
def test_sample_tilted_agrees_with_mean(base):
    u = float(interior_grid(base, n=3)[1])
    rng = replicate_stream(7, 1)
    draws = sample_tilted(base, u, rng, size=200_000)
    rep = moments(base, u)
    sd = math.sqrt(rep.variance / draws.size)
    assert abs(draws.mean() - rep.mean) < 4 * sd + 1e-9


SAMPLER_BASES = README_BASES
DRAW_BASES = SAMPLER_BASES + [
    Poisson(10.0), Laplace(0.4), Shifted(Gamma(0.5, 2.0), -1.0),
    DiscreteAtoms(tuple((0.25 * i - 5.0, 0.025) for i in range(40))),
]
DRAW_IDS = [b.kind for b in SAMPLER_BASES] + ["poisson10", "laplace0.4", "shifted-gamma0.5",
                                              "atoms40"]


@pytest.mark.parametrize("base", DRAW_BASES, ids=DRAW_IDS)
def test_tilted_inverse_cdf_over_arrays_is_the_per_draw_sampler(base):
    # the round loop draws a round of replicates, each at its own arm's tilt, in one
    # call: every draw, of a vector or a matrix of tilts, must keep the bits of the
    # one-draw path
    for shape in ((20_000,), (3, 4)):
        n = math.prod(shape)
        tilts = interior_grid(base, n=5)[replicate_stream(3, 1).integers(0, 5, n)].reshape(shape)
        draws = base.tilted_inverse_cdf(tilts, replicate_stream(3, 0).random(n).reshape(shape))
        assert draws.shape == shape
        rng = replicate_stream(3, 0)
        assert np.array_equal(draws.ravel(), [sample_tilted(base, u, rng) for u in tilts.ravel()])


def _extreme_tilts(base):
    """Both interior ends where finite, and -40 and 40 where admissible."""
    lo, hi = base.interior
    return [u for u in (lo, hi, -40.0, 40.0) if math.isfinite(u) and lo <= u <= hi]


@pytest.mark.parametrize("scale", [0.4, 1.0, 3.0])
def test_laplace_tilted_masses_sum_to_one_at_the_interior_ends(scale):
    # near a domain end 1/scale + u (or 1/scale - u) cancels; the two masses of the tilted
    # density, its upper tail at -inf, still sum to 1
    base = Laplace(scale)
    for u in base.interior:
        assert abs(float(base.tilted_upper_tail(u, -math.inf)) - 1.0) <= 4 * np.spacing(1.0)


@pytest.mark.parametrize("base", DRAW_BASES, ids=DRAW_IDS)
def test_tilted_inverse_cdf_at_extreme_tilts_and_uniforms_is_finite_and_monotone(base):
    # Bernoulli draws 1 below its tilted mean, so its draw is nonincreasing in p; every other
    # kind's is nondecreasing; a Poisson tilted mean above 2^31 is a PrecisionError
    p = np.array([1e-300, 0.5, 1.0 - 1e-16])
    sign = -1.0 if isinstance(base, Bernoulli) else 1.0
    for u in _extreme_tilts(base):
        if isinstance(base, Poisson) and base.nu * math.exp(u) > 2.0**31:
            with pytest.raises(PrecisionError):
                base.tilted_inverse_cdf(np.full(p.shape, u), p)
            continue
        draws = base.tilted_inverse_cdf(np.full(p.shape, u), p)
        assert np.isfinite(draws).all(), (u, draws)
        assert (np.diff(sign * draws) >= 0).all(), (u, draws)


@pytest.mark.parametrize("nu", [2.0, 10.0])
def test_poisson_draw_just_above_its_largest_mean_is_a_precision_error(nu):
    u = np.nextafter(math.log(2.0**31 / nu), math.inf)
    with pytest.raises(PrecisionError, match="too large"):
        Poisson(nu).tilted_inverse_cdf(np.array([u]), np.array([0.5]))


# off every cumulative mass of the discrete kinds below: there the atom kinds' draw
# meets its rounded weights (see the exact-mass Bernoulli test below)
QUANTILE_LEVELS = np.array([1e-4, 0.013, 0.1, 0.27, 0.49, 0.51, 0.73, 0.9, 0.987, 0.9999])


@pytest.mark.parametrize("base", SAMPLER_BASES, ids=lambda b: b.kind)
def test_quantiles_agree_with_the_kinds_own_tails(base):
    # quantile: F(q) >= p > F(q-); upper quantile: Q(Y >= q) >= p > Q(Y > q),
    # with F(y) = 1 - Q(Y > y) and F(y-) = Q(Y < y) read off the u = 0 tails
    below = lambda y: base.tilted_lower_tail(0.0, -y)  # Q(Y < y)
    above = lambda y: base.tilted_upper_tail(0.0, y)   # Q(Y > y)
    qs, uqs = base.quantile(QUANTILE_LEVELS), base.upper_quantile(QUANTILE_LEVELS)
    assert qs.shape == uqs.shape == QUANTILE_LEVELS.shape
    for p, q, uq in zip(QUANTILE_LEVELS.tolist(), qs.tolist(), uqs.tolist()):
        if isinstance(base, (Bernoulli, Poisson, DiscreteAtoms, CounterexampleSubgaussian)):
            assert 1.0 - above(q) >= p > below(q), (p, q)
            assert 1.0 - below(uq) >= p > above(uq), (p, uq)
        else:
            assert 1.0 - above(q) == pytest.approx(p, rel=1e-9, abs=1e-13)
            assert above(uq) == pytest.approx(p, rel=1e-9, abs=1e-13)


@pytest.mark.parametrize("p", [0.5, 0.3, 0.1])
def test_bernoulli_quantiles_at_its_exact_masses(p):
    # F(0) = 1 - p and Q(Y >= 1) = p: the quantile at 1 - p is 0 and the upper quantile
    # at p is 1, as for the same law held as two atoms; one ulp past either mass moves them
    base, atoms = Bernoulli(p), DiscreteAtoms(((0.0, 1.0 - p), (1.0, p)))
    assert base.quantile(np.array([1.0 - p, np.nextafter(1.0 - p, 2.0)])).tolist() == [0.0, 1.0]
    assert base.upper_quantile(np.array([p, np.nextafter(p, 2.0)])).tolist() == [1.0, 0.0]
    assert base.upper_quantile(np.array([p])) == atoms.upper_quantile(np.array([p]))


@pytest.mark.parametrize("p", [0.5, 0.3, 0.1, 1e-6])
def test_bernoulli_tails_are_the_logistic_masses_at_any_tilt(p):
    # Q_u(Y = 1) = expit(u + logit p) and Q_u(Y = 0) = expit(-(u + logit p)), held in the
    # log domain: a tiny mass at a large tilt keeps its digits instead of reading 0
    base, us = Bernoulli(p), np.linspace(-700.0, 700.0, 2801)
    z = us + math.log(p / (1.0 - p))
    for got, want in ((base.tilted_upper_tail(us, 0.5), special.expit(z)),
                      (base.tilted_lower_tail(us, -0.5), special.expit(-z))):
        keep = want > 1e-290
        np.testing.assert_allclose(got[keep], want[keep], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("u", [40.0, 1e300, -math.inf])
def test_bernoulli_tilted_past_float_range_names_the_tilt(u):
    # the tilted mean rounds to 1 (or 0): the error names u, never the p the caller did
    # not pass, and stays an InvalidArgumentError, which the tail suite's grid skips
    with pytest.raises(InvalidArgumentError, match="tilted by u=.* rounds to [01]") as info:
        Bernoulli(0.5).tilted(u)
    assert info.value.name == "u"
    assert Bernoulli(0.5).tilted(-40.0).p == pytest.approx(math.exp(-40.0), rel=1e-12)


def test_atom_central_moments_beyond_float_range_raise_no_warning():
    # RuntimeWarnings are errors under this suite: a third moment past float range is inf,
    # as a value and not a warning
    beyond = DiscreteAtoms(((0.0, 0.99), (1e105, 0.01)))
    assert beyond.dmean_at(0.0) == pytest.approx(0.99 * 0.01 * 1e210, rel=1e-12)
    assert beyond.d2mean_at(0.0) == math.inf and gamma_ratio(beyond, 0.0) == math.inf


@pytest.mark.parametrize("atoms, third", [
    (((0.0, 0.5), (1e110, 0.5)), 0.0),
    (((0.0, 0.99), (1e103, 0.01)), 0.99 * 0.01 * 0.98 * 1e103 * 1e103 * 1e103),
    (((3.0, 1.0),), 0.0),
], ids=["symmetric", "skewed", "one-atom"])
def test_atom_third_moment_is_finite_where_its_cubes_overflow(atoms, third):
    # two atoms with masses q, 1 - q at distance L: mu'' = q (1 - q) (1 - 2q) L^3, finite
    # although the cube (L/2)^3 or (0.99 L)^3 alone leaves float range; one atom: mu'' = 0
    base = DiscreteAtoms(atoms)
    assert base.d2mean_at(0.0) == pytest.approx(third, rel=1e-12)
    assert math.isfinite(gamma_ratio(base, 0.0))


@pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_atom_quantiles_at_an_exact_cumulative_mass(p):
    # F(0) = 1 - p: the quantile at 1 - p is the atom 0 whatever exp(log w) rounds to, as
    # for Bernoulli(p); well past the mass it is the next atom
    atoms = DiscreteAtoms(((0.0, 1.0 - p), (1.0, p)))
    levels = np.array([1.0 - p, 1.0 - p + 1e-12])
    assert atoms.quantile(levels).tolist() == Bernoulli(p).quantile(levels).tolist() == [0.0, 1.0]


@pytest.mark.parametrize("base", SAMPLER_BASES, ids=lambda b: b.kind)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
       ts=st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=5))
def test_tails_and_interval_masses_over_grids_are_the_per_point_values(base, fracs, ts):
    # one call over a (tilt x threshold) grid, or over every (lo, hi) pair, gives what a
    # call per point gives
    lo, hi = interior_grid(base, n=2, frac=0.9)
    us, ts = lo + (hi - lo) * np.array(fracs)[:, None], np.array(ts)
    for fn, u_s in ((base.tilted_upper_tail, us), (base.tilted_lower_tail, us),
                    (base.interval_mass, ts[:, None])):
        grid = fn(u_s, ts)
        assert grid.shape == (len(u_s), len(ts))
        points = [[float(fn(float(u), float(t))) for t in ts] for u in u_s[:, 0]]
        np.testing.assert_allclose(grid, points, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("base", SAMPLER_BASES, ids=lambda b: b.kind)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(frac=st.floats(0.0, 1.0))
def test_closed_form_derivatives_match_central_differences(base, frac):
    # mu' and mu'' of every kind are their own closed forms: check each against a
    # central difference of the one below it, anywhere on the interior grid
    lo, hi = interior_grid(base, n=2, frac=0.9)
    u, h = lo + frac * (hi - lo), 1e-5
    for fn, deriv in ((base.mean_at, base.dmean_at), (base.dmean_at, base.d2mean_at)):
        fd = (float(fn(u + h)) - float(fn(u - h))) / (2.0 * h)
        exact = float(deriv(u))
        assert abs(fd - exact) <= 1e-6 * (1.0 + abs(exact))


def test_replicate_stream_block_is_the_single_draws():
    # a replicate draws its T uniforms as one block: the same numbers, in order
    for k in range(200):
        rng = replicate_stream(2024, k)
        singles = [rng.random() for _ in range(333)]
        assert replicate_stream(2024, k).random(333).tolist() == singles


KIND_METHODS = ("tilted_inverse_cdf", "tilted_upper_tail", "tilted_lower_tail", "log_mgf",
                "mean_at", "dmean_at", "d2mean_at")
KINDS = [c for c in vars(distributions).values()
         if isinstance(c, type) and issubclass(c, BaseDistribution) and c is not BaseDistribution]


@pytest.mark.parametrize("kind", KINDS, ids=lambda c: c.__name__)
def test_every_kind_defines_its_own_draw_tails_and_moments(kind):
    # the base class holds none of these, and no kind keeps a second draw protocol
    for name in KIND_METHODS:
        owner = next((c for c in kind.__mro__ if name in vars(c)), None)
        assert owner not in (None, BaseDistribution), (kind.__name__, name)
    assert not any("_draw" in vars(c) for c in kind.__mro__), kind.__name__


# ---------------------------------------------------------------------------
# family wrapper and config schema
# ---------------------------------------------------------------------------

def test_family_requires_interval_inside_domain():
    with pytest.raises(DomainError):
        NefFamily(Exponential(1.0), -0.5, 1.0)
    fam = NefFamily(Exponential(1.0), -0.5, 0.5)
    assert fam.interval == (-0.5, 0.5)


def test_family_range_needs_lo_at_most_hi():
    with pytest.raises(InvalidArgumentError, match="must not exceed"):
        NefFamily(Exponential(1.0), 0.5, -0.5)


def test_kinds_without_a_closed_tilt_or_reflection_say_so():
    with pytest.raises(InvalidArgumentError, match="no closed tilted form"):
        Laplace(1.0).tilted(0.1)
    with pytest.raises(InvalidArgumentError, match="not representable"):
        reflected(Exponential(1.0))


def test_parse_distribution_round_trip():
    for base in ALL_BASES + [CounterexampleSubgaussian(8)]:
        cfg = distribution_config(base)
        assert json.loads(json.dumps(cfg)) == cfg  # JSON values: lists, not tuples
        again = parse_distribution(cfg)
        assert distribution_config(again) == cfg


def test_readme_distribution_configs_round_trip_and_name_every_kind():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = re.search(r"## Distribution configs\n\n```json\n(.*?)```", readme, re.S).group(1)
    specs = [json.loads(line) for line in block.splitlines()]
    assert sorted(s["kind"] for s in specs) == sorted(distributions._KINDS)
    for spec in specs:
        assert distribution_config(parse_distribution(spec)) == spec


def test_kind_is_a_class_constant_not_a_constructor_argument():
    with pytest.raises(TypeError):
        Gaussian(1.0, "poisson")
    for cls in KINDS:
        assert "kind" not in {f.name for f in dataclasses.fields(cls)}, cls
    assert Gaussian(1.0).kind == "gaussian" and Shifted(Gaussian(1.0), 1.0).kind == "shifted"
    with pytest.raises(InvalidArgumentError, match="no config form"):
        distribution_config(Shifted(Gaussian(1.0), 1.0))


@pytest.mark.parametrize("make", [Gaussian, Exponential, Poisson, Laplace,
                                  lambda v: Gamma(v, 1.0), lambda v: Gamma(2.0, v)])
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, 1e155, 1e-309])
def test_positive_parameters_have_a_finite_square_and_reciprocal(make, value):
    # the moments take the square and the reciprocal: 1e155 ** 2 and 1 / 1e-309 overflow
    with pytest.raises(InvalidArgumentError, match="must be positive"):
        make(value)


def test_parse_distribution_rejects_unknown_fields():
    with pytest.raises(ParseError, match="unknown fields"):
        parse_distribution({"kind": "exponential", "rate": 1.0, "scale": 2.0})
    with pytest.raises(ParseError, match="unknown distribution kind"):
        parse_distribution({"kind": "weibull", "rate": 1.0})
    with pytest.raises(ParseError, match="missing"):
        parse_distribution({"kind": "gamma", "shape": 2.0})


def test_atom_weights_must_sum_to_one():
    with pytest.raises(InvalidArgumentError):
        DiscreteAtoms(((0.0, 0.5), (1.0, 0.6)))
    with pytest.raises(InvalidArgumentError):
        DiscreteAtoms(((0.0, -0.1), (1.0, 1.1)))


def test_exponential_lower_tail_skips_the_branch_it_discards():
    # at a far negative tilt, expm1 of (rate - u) * t overflows for t >= 0, where the tail is 0
    t = np.array([-0.5, 0.0, 3.0])
    got = Exponential(1.0).tilted_lower_tail(-800.0, t)
    np.testing.assert_array_equal(got, [-math.expm1(801.0 * -0.5), 0.0, 0.0])
