"""Stretch certificates: tail fitting, witness search, bound evaluation."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

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
    centered,
    gamma_ratio,
    mean_fn,
    parse_distribution,
    reflected,
)
from nefbandit.errors import (
    DegenerateDistributionError,
    DomainError,
    InvalidArgumentError,
    PrecisionError,
)
from nefbandit.selfconcordance import (
    _WITNESS_A_LEVELS,
    _WITNESS_B_LEVELS,
    SubgaussianEnvelope,
    SupportWitness,
    build_certificate,
    find_support_witness,
    fit_tail_constants,
    g_q_value,
    stretch_bound,
    stretch_supremum,
    verify_dominance,
    verify_lower_bound,
    witness_mass,
)
from oracle import README_BASES, moments

MIX4 = DiscreteAtoms(((-2.0, 0.25), (-0.5, 0.25), (0.5, 0.25), (2.0, 0.25)))


# ---------------------------------------------------------------------------
# tail constants
# ---------------------------------------------------------------------------

def test_fit_tail_constants_exponential_right_scale():
    tc = fit_tail_constants(Exponential(1.0), 0.5, 10.0)
    assert tc.C1 == pytest.approx(2.0 * math.exp(-0.5), rel=1e-13)


def test_fit_tail_constants_bound_centered_exponential_tails():
    tc = fit_tail_constants(Exponential(1.0), 0.5, 10.0)
    for t in np.linspace(0.0, 6.0, 31):
        right_exact = math.exp(-(1.0 + t))          # P(X - 1 >= t)
        left_exact = 1.0 - math.exp(-(1.0 - t)) if t < 1.0 else 0.0  # P(1 - X >= t)
        assert right_exact <= tc.C1 * math.exp(-tc.c1 * t) + 1e-15
        assert left_exact <= tc.C2 * math.exp(-tc.c2 * t) + 1e-15


def test_fit_tail_constants_symmetric_base_matches_sides():
    tc = fit_tail_constants(Laplace(1.0), 0.7, 0.7)
    assert tc.C1 == pytest.approx(tc.C2, rel=1e-14)


def test_fit_tail_constants_gaussian_quadrature_oracle():
    tc = fit_tail_constants(Gaussian(1.0), 1.0, 1.0)
    oracle, _ = integrate.quad(
        lambda y: math.exp(y) * math.exp(-0.5 * y * y) / math.sqrt(2 * math.pi), -40, 41)
    assert tc.C1 == pytest.approx(math.exp(0.5), rel=1e-13)
    assert tc.C2 == pytest.approx(oracle, rel=1e-10)


def test_fit_tail_constants_rejects_out_of_domain_rate():
    with pytest.raises(DomainError):
        fit_tail_constants(Exponential(1.0), 1.0, 1.0)


def test_default_tail_rates():
    for base, rates in ((Exponential(1.0), (0.9, 1.0)), (Laplace(2.0), (0.45, 0.45)),
                        (Bernoulli(0.5), (1.0, 1.0))):
        tc = fit_tail_constants(base)
        assert (tc.c1, tc.c2) == rates


# ---------------------------------------------------------------------------
# support witness
# ---------------------------------------------------------------------------

def test_witness_mass_exponential_cdf_arithmetic():
    # centered Exp(1): mass of [-1, -0.5] is P(X in [0, 0.5]) = 1 - e^{-1/2}
    assert witness_mass(Exponential(1.0), 0.5, 1.0) == pytest.approx(
        1.0 - math.exp(-0.5), abs=1e-14)


def test_witness_mass_laplace_cdf_arithmetic():
    expected = (math.exp(-0.25) - math.exp(-1.0)) / 2.0
    assert witness_mass(Laplace(1.0), 0.25, 1.0) == pytest.approx(expected, abs=1e-14)


def test_find_support_witness_bernoulli_atom():
    w = find_support_witness(Bernoulli(0.5))
    assert (w.a, w.b, w.eta) == (0.5, 0.5, 0.5)


@pytest.mark.parametrize("base", [Exponential(1.0), Laplace(1.0), Gamma(2.0, 1.0),
                                  Gaussian(1.0), MIX4, Bernoulli(0.3)])
@pytest.mark.parametrize("side", ["below", "above"])
def test_find_support_witness_mass_is_measured(base, side):
    w = find_support_witness(base, side=side)
    assert 0 < w.a <= w.b
    assert witness_mass(base, w.a, w.b, side) == pytest.approx(w.eta, abs=1e-9)


def _count_atom_means(monkeypatch) -> list:
    calls = []
    mean_at = DiscreteAtoms.mean_at

    def counting(self, u):
        calls.append(u)
        return mean_at(self, u)

    monkeypatch.setattr(DiscreteAtoms, "mean_at", counting)
    return calls


@pytest.mark.parametrize("side", ["below", "above"])
def test_find_support_witness_takes_the_mean_once_per_scan(side, monkeypatch):
    calls = _count_atom_means(monkeypatch)
    w = find_support_witness(MIX4, side=side)
    assert len(calls) == 1
    assert witness_mass(MIX4, w.a, w.b, side) == w.eta


def test_build_certificate_centers_its_base_at_most_twice(monkeypatch):
    # once for the tail constants, once for both witness scans
    calls = _count_atom_means(monkeypatch)
    build_certificate(MIX4)
    assert len(calls) <= 2


def _loop_witness(base, side):
    """The witness scan as a plain loop: one witness_mass call per (a, b) pair of the scan's
    level grid, a-major, the first of the smallest b among scores >= (1 - 1e-3) max."""
    cb, below = centered(base), side == "below"
    beta = cb.tilted_lower_tail(0.0, 0.0) if below else cb.tilted_upper_tail(0.0, 0.0)

    def distance(level):  # from the mean toward the side's tail, at mass level * beta
        p = np.array([level * beta])
        return float((-cb.quantile(p) if below else cb.upper_quantile(p))[0])

    end = -cb.support_bounds[0] if below else cb.support_bounds[1]
    bs = [b for b in [end] + list(map(distance, _WITNESS_B_LEVELS)) if math.isfinite(b)]
    a_s = [a for a in map(distance, _WITNESS_A_LEVELS) if a > 0]
    scored = []
    for a in a_s:
        for b in bs:
            eta = float(witness_mass(base, a, b, side))
            if b >= a and eta > 1e-12:
                scored.append((a * a * eta, SupportWitness(a, b, eta)))
    top = max(score for score, _ in scored)
    return min((w for score, w in scored if score >= (1 - 1e-3) * top), key=lambda w: w.b)


def _assert_scans_match_the_loop(base):
    cert = build_certificate(base)
    for side, w in (("below", cert.witness), ("above", cert.witness_left)):
        assert find_support_witness(base, side) == w == _loop_witness(base, side), side


@pytest.mark.parametrize("base", README_BASES, ids=lambda b: b.kind)
def test_witness_scan_equals_a_plain_loop_over_its_grid(base):
    _assert_scans_match_the_loop(base)


def _normalized_atoms(pairs):
    total = sum(w for _, w in pairs)
    return DiscreteAtoms(tuple((loc / 2.0, w / total) for loc, w in pairs))


KIND_DRAWS = {
    "bernoulli": st.floats(0.01, 0.99).map(Bernoulli),
    "gaussian": st.floats(0.05, 20.0).map(Gaussian),
    "exponential": st.floats(0.05, 20.0).map(Exponential),
    "poisson": st.floats(0.05, 50.0).map(Poisson),
    "laplace": st.floats(0.05, 20.0).map(Laplace),
    "gamma": st.builds(Gamma, st.floats(0.2, 20.0), st.floats(0.05, 20.0)),
    "atoms": st.lists(st.tuples(st.integers(-20, 20), st.floats(0.05, 1.0)), min_size=2,
                      max_size=5, unique_by=lambda pair: pair[0]).map(_normalized_atoms),
    "counterexample": st.integers(2, 30).map(CounterexampleSubgaussian),
}


@pytest.mark.parametrize("kind", KIND_DRAWS)
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_witness_scan_equals_a_plain_loop_on_drawn_parameters(kind, data):
    _assert_scans_match_the_loop(data.draw(KIND_DRAWS[kind], label=kind))


def test_find_support_witness_degenerate_base_errors():
    with pytest.raises(DegenerateDistributionError):
        find_support_witness(DiscreteAtoms(((3.0, 1.0),)))


def test_find_support_witness_needs_a_known_side():
    with pytest.raises(InvalidArgumentError, match="'below' or 'above'"):
        find_support_witness(Exponential(1.0), side="left")


@pytest.mark.parametrize("a, b, eta", [(0.0, 1.0, 0.5), (2.0, 1.0, 0.5), (0.1, math.inf, 0.5),
                                       (0.1, 1.0, 0.0), (0.1, 1.0, 1.5), (0.1, 1.0, math.nan)])
def test_support_witness_needs_0_lt_a_le_b_finite_and_eta_in_0_1(a, b, eta):
    with pytest.raises(InvalidArgumentError, match="witness"):
        SupportWitness(a, b, eta)


@pytest.mark.parametrize("g_q", [0.0, -1.0, math.nan])
def test_stretch_certificate_needs_positive_corrections(g_q):
    cert = build_certificate(Exponential(1.0))
    for name in ("g_q_right", "g_q_left"):
        with pytest.raises(InvalidArgumentError, match=name) as info:
            dataclasses.replace(cert, **{name: g_q})
        assert info.value.name == name


# ---------------------------------------------------------------------------
# polynomial correction
# ---------------------------------------------------------------------------

def _g_reference(M1, M2, m1, m2, a, b, eta):
    # independent re-implementation, different grouping of the three terms
    t1 = 204.0 * math.exp(-3.0) / (m1 * M1) ** 3
    t2 = (b / M1) ** 2 * (6.0 * math.exp(-3.0) / (m1 * M1))
    t3 = M2 * (81.0 + 9.0 * (m1 * b) ** 2) / m2**3
    return b + b / 2.0 + (t1 + t2 + t3) / (eta * a**2)


def test_g_q_value_hand_checkable_point():
    w = SupportWitness(1.0, 1.0, 1.0)
    expected = 91.5 + 210.0 / math.e**3
    assert g_q_value(1.0, 1.0, 1.0, 1.0, w) == pytest.approx(expected, rel=1e-14)
    assert g_q_value(1.0, 1.0, 1.0, 1.0, w) == pytest.approx(101.9553, abs=5e-4)


def test_g_q_value_deterministic():
    w = SupportWitness(0.4, 1.3, 0.2)
    v1 = g_q_value(2.0, 3.0, 0.7, 1.1, w)
    v2 = g_q_value(2.0, 3.0, 0.7, 1.1, w)
    assert v1 == v2


def test_g_q_value_double_entry_oracle():
    # constants fitted for Exponential(1) with rates (0.5, 10)
    M = 2.0 * math.exp(-0.5)
    w = SupportWitness(0.5, 1.0, 1.0 - math.exp(-0.5))
    got = g_q_value(M, M, 0.5, 10.0, w)
    ref = _g_reference(M, M, 0.5, 10.0, w.a, w.b, w.eta)
    assert got == pytest.approx(ref, rel=1e-12)


README_KINDS = [
    {"kind": "bernoulli", "p": 0.5}, {"kind": "gaussian", "sigma": 1.0},
    {"kind": "exponential", "rate": 1.0}, {"kind": "poisson", "nu": 2.0},
    {"kind": "laplace", "scale": 1.0}, {"kind": "gamma", "shape": 2.0, "scale": 1.0},
    {"kind": "atoms", "atoms": [[0.0, 0.5], [1.0, 0.5]]},
    {"kind": "counterexample", "i_max": 24},
]


def _assert_close(ref, got, path=""):
    if isinstance(ref, dict):
        assert set(got) == set(ref), path
        for key in ref:
            _assert_close(ref[key], got[key], f"{path}/{key}")
    else:
        assert got == pytest.approx(ref, rel=1e-9), path


@pytest.mark.parametrize("spec", README_KINDS, ids=lambda s: s["kind"])
def test_certificate_constants_match_the_benchmark_reference(spec):
    # reads the verify reports the benchmark pins, so a witness drift shows without a
    # benchmark run, and at a tighter tolerance than its 1e-6
    reference = Path(__file__).parent.parent / "perfbench" / "reference.json"
    verify = json.loads(reference.read_text())["certify"][spec["kind"]]["verify"]
    expected = verify["report"]["certificate"]
    _assert_close(expected, build_certificate(parse_distribution(spec)).constants_dict())


# ---------------------------------------------------------------------------
# stretch bound
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("base", [Exponential(1.0), Laplace(1.0), MIX4, Bernoulli(0.3)])
def test_certificate_constants_regenerate_exactly(base):
    cert = build_certificate(base)
    tc = cert.tail
    assert g_q_value(tc.C1, tc.C2, tc.c1, tc.c2, cert.witness) == cert.g_q_right
    assert g_q_value(tc.C2, tc.C1, tc.c2, tc.c1, cert.witness_left) == cert.g_q_left
    assert cert.c0_right == tc.C1 * tc.c1 * math.e
    assert cert.c0_left == tc.C2 * tc.c2 * math.e


def test_stretch_bound_at_zero_closed_form():
    cert = build_certificate(Exponential(1.0))
    c1, C1 = cert.tail.c1, cert.tail.C1
    assert stretch_bound(cert, 0.0) == pytest.approx(
        3.0 * math.e * C1 / c1 + cert.g_q_right, rel=1e-14)


def test_stretch_bound_dominates_exponential_ratio_pointwise():
    cert = build_certificate(Exponential(1.0))
    assert stretch_bound(cert, 0.25) >= gamma_ratio(Exponential(1.0), 0.25)
    assert gamma_ratio(Exponential(1.0), 0.25) == pytest.approx(2.0 / 0.75, rel=1e-12)


def test_stretch_bound_dominates_laplace_ratio_on_grid():
    base = Laplace(1.0)
    cert = build_certificate(base, c1=0.95, c2=0.95)
    for u in np.linspace(-0.9, 0.9, 37):
        bound = stretch_bound(cert, float(u))
        ratio = gamma_ratio(base, float(u))
        lam = 1.0
        closed = 2 * abs(u) * (3 * lam**2 + u**2) / ((lam - u) * (lam + u) * (lam**2 + u**2))
        assert ratio == pytest.approx(closed, rel=1e-6, abs=1e-9)
        assert bound >= ratio


def test_stretch_bound_domain_error():
    cert = build_certificate(Exponential(1.0))
    with pytest.raises(DomainError):
        stretch_bound(cert, cert.tail.c1)
    with pytest.raises(DomainError):
        stretch_bound(cert, -cert.tail.c2 - 0.1)


@pytest.mark.parametrize("base", README_BASES, ids=lambda b: b.kind)
def test_stretch_bound_over_a_grid_is_the_per_point_bound(base):
    # verify takes the bound of its whole grid in one call: a float gives a float, an
    # array an array of the per-point bounds, on both branches
    cert = build_certificate(base)
    us = np.linspace(-0.99 * cert.tail.c2, 0.99 * cert.tail.c1, 41).reshape(41, 1)
    whole = stretch_bound(cert, us)
    assert isinstance(whole, np.ndarray) and whole.shape == (41, 1)
    points = [stretch_bound(cert, u) for u in us.ravel().tolist()]
    assert all(type(b) is float for b in points)
    np.testing.assert_allclose(whole.ravel(), points, rtol=1e-15, atol=0.0)


def test_stretch_bound_checks_every_grid_point():
    cert = build_certificate(Exponential(1.0))
    for bad in (cert.tail.c1, -cert.tail.c2, math.inf):
        with pytest.raises(DomainError) as err:
            stretch_bound(cert, np.array([0.0, 0.3, bad, -0.2]))
        assert err.value.value == bad
    with pytest.raises(DomainError):
        stretch_bound(cert, np.array([[0.1], [math.nan]]))


@pytest.mark.parametrize("base", [Exponential(1.0), Laplace(1.0), MIX4, Bernoulli(0.4)])
def test_stretch_bound_branch_monotonicity(base):
    cert = build_certificate(base)
    c1, c2 = cert.tail.c1, cert.tail.c2
    # u = 0 itself evaluates on the nonnegative branch, so the negative-side
    # grid stays strictly below zero
    right = [stretch_bound(cert, u) for u in np.linspace(0.0, 0.95 * c1, 40)]
    left = [stretch_bound(cert, u) for u in np.linspace(-0.95 * c2, 0.0, 40, endpoint=False)]
    assert all(b - a >= -1e-11 * abs(a) for a, b in zip(right, right[1:]))
    assert all(b - a <= 1e-11 * abs(a) for a, b in zip(left, left[1:]))


@pytest.mark.parametrize("base", [Laplace(1.0), MIX4,
                                  DiscreteAtoms(((-3.0, 0.2), (0.5, 0.5), (1.0, 0.3)))])
def test_certificate_reflection_consistency(base):
    cert = build_certificate(base)
    cert_r = build_certificate(reflected(base))
    for u in [-0.6, -0.2, 0.3, 0.7]:
        u = u * min(cert.tail.c1, cert.tail.c2)
        assert stretch_bound(cert_r, -u) == pytest.approx(stretch_bound(cert, u), rel=1e-12)


def test_stretch_supremum_endpoint_rule():
    cert = build_certificate(Exponential(1.0))
    fam = NefFamily(Exponential(1.0), -0.5, 0.5)
    sup = stretch_supremum(cert, fam)
    dense = max(stretch_bound(cert, float(u)) for u in np.linspace(-0.5, 0.5, 2001))
    assert sup == pytest.approx(dense, rel=1e-12)
    assert stretch_supremum(cert, (0.0, 0.0)) == stretch_bound(cert, 0.0)


def test_stretch_supremum_symmetric_interval():
    cert = build_certificate(Laplace(1.0))
    assert stretch_bound(cert, 0.4) == pytest.approx(stretch_bound(cert, -0.4), rel=1e-12)
    assert stretch_supremum(cert, (-0.4, 0.4)) == pytest.approx(stretch_bound(cert, 0.4), rel=1e-12)


def test_stretch_supremum_requires_interval_inside():
    cert = build_certificate(Exponential(1.0))
    with pytest.raises(DomainError):
        stretch_supremum(cert, (-0.5, cert.tail.c1))


@pytest.mark.parametrize("base,interval", [
    (Exponential(1.0), (-0.8, 0.72)),
    (Laplace(1.0), (-0.72, 0.72)),
    (MIX4, (-0.8, 0.8)),
])
def test_verify_dominance_no_violations(base, interval):
    cert = build_certificate(base)
    fam = NefFamily(base, *interval)
    report = verify_dominance(cert, fam, grid_n=50)
    assert report.all_ok
    assert len(report.u) == len(report.ratio) == len(report.bound) == len(report.ok) == 50


def test_verify_dominance_rejects_an_empty_grid():
    base = Exponential(1.0)
    cert = build_certificate(base)
    for n in (0, -3):
        with pytest.raises(InvalidArgumentError, match="grid_n"):
            verify_dominance(cert, NefFamily(base, -0.5, 0.5), grid_n=n)


@pytest.mark.parametrize("n", [2.5, np.float64(3.0), True, "9"])
def test_verify_dominance_takes_a_count_of_grid_points(n):
    base = Exponential(1.0)
    with pytest.raises(InvalidArgumentError, match="grid_n") as info:
        verify_dominance(build_certificate(base), NefFamily(base, -0.5, 0.5), grid_n=n)
    assert info.value.name == "grid_n"


@pytest.mark.parametrize("i, i_max, name", [(4, 24.7, "i_max"), (4, np.float64(30.0), "i_max"),
                                             (4, 23, "i_max"), (True, None, "i"), (4.0, None, "i"),
                                             (5, None, "i")])
def test_verify_lower_bound_takes_counts(i, i_max, name):
    # a float truncation is refused, not rounded down (24.7 ran with i_max 24)
    with pytest.raises(InvalidArgumentError) as info:
        verify_lower_bound(i, i_max)
    assert info.value.name == name
    assert verify_lower_bound(4, np.int64(25)).i_max == 25


@pytest.mark.parametrize("i_max", [2.5, True, np.float64(3.0), 1])
def test_counterexample_takes_a_count_of_atoms(i_max):
    with pytest.raises(InvalidArgumentError, match="i_max") as info:
        CounterexampleSubgaussian(i_max)
    assert info.value.name == "i_max"


def _no_quadrature(*args, **kwargs):
    raise AssertionError("the ratio path reached scipy.integrate.quad")


@pytest.mark.parametrize("base", [Laplace(1.0), Gamma(2.0, 1.0), MIX4], ids=lambda b: b.kind)
def test_verify_dominance_uses_closed_forms_only(base, monkeypatch):
    cert = build_certificate(base)
    fam = NefFamily(base, -0.8 * cert.tail.c2, 0.8 * cert.tail.c1)
    expected = [gamma_ratio(base, float(u)) for u in np.linspace(*fam.interval, 200)]
    monkeypatch.setattr(integrate, "quad", _no_quadrature)
    report = verify_dominance(cert, fam)
    assert report.all_ok
    assert report.ratio == expected


# ---------------------------------------------------------------------------
# subgaussian envelope
# ---------------------------------------------------------------------------

def test_subgaussian_envelope_gaussian_ratio_is_zero():
    base = Gaussian(1.0)
    w = find_support_witness(base)
    for u in np.linspace(-5, 5, 11):
        assert gamma_ratio(base, u) == pytest.approx(0.0, abs=1e-12)
        assert SubgaussianEnvelope(1.0, w).value(u) > 0


def test_subgaussian_envelope_dominates_bernoulli():
    base = Bernoulli(0.5)
    w = find_support_witness(base)
    for u in np.linspace(-10, 10, 81):
        env = SubgaussianEnvelope(0.5, w).value(u)  # range 1 => 1/2-subgaussian
        assert env >= gamma_ratio(base, u)
        assert gamma_ratio(base, u) <= 1.0 + 1e-12


def test_subgaussian_envelope_dominates_three_atom_ratio():
    base = DiscreteAtoms(((-1.0, 1 / 3), (0.0, 1 / 3), (1.0, 1 / 3)))
    w = find_support_witness(base)
    env = SubgaussianEnvelope(1.0, w)
    for u in np.linspace(-8, 8, 65):
        assert env.value(u) >= gamma_ratio(base, u)
    assert "interpretation" in env.note
    with pytest.raises(TypeError):  # a class constant, not a constructor argument
        type(env)(env.sigma_proxy, w, note="tight")


@pytest.mark.parametrize("name", ["slope", "intercept"])
def test_subgaussian_envelope_computes_its_slope_and_intercept(name):
    w = find_support_witness(Bernoulli(0.5))
    env = SubgaussianEnvelope(0.5, w)
    assert env.value(0.0) == env.intercept and env.value(-1.0) == env.slope + env.intercept
    with pytest.raises(TypeError, match=name):  # derived, not a constructor argument
        SubgaussianEnvelope(0.5, w, **{name: getattr(env, name)})


def test_subgaussian_envelope_rejects_bad_proxy():
    w = SupportWitness(0.5, 0.5, 0.5)
    with pytest.raises(InvalidArgumentError):
        SubgaussianEnvelope(0.0, w)


# ---------------------------------------------------------------------------
# counterexample construction
# ---------------------------------------------------------------------------

def test_counterexample_three_atoms_weight_ratios():
    base = CounterexampleSubgaussian(3)
    locs, logw = base.log_atoms
    assert list(locs) == [2.0, 4.0, 8.0]
    w = np.exp(logw)
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    raw = np.array([0.25 * math.exp(-3.0), math.exp(-16.0), 0.25 * math.exp(-48.0)])
    np.testing.assert_allclose(w, raw / raw.sum(), rtol=1e-13)


def test_counterexample_tilt_ratio_is_one_quarter():
    i = 4
    base = CounterexampleSubgaussian(i + 20)
    u = 2.0 ** (i + 1)
    q = base._tilted_weights(u)
    ks = np.arange(1, i + 21)
    qi = q[ks == i][0]
    qi1 = q[ks == i + 1][0]
    assert qi1 / qi == pytest.approx(0.25, rel=1e-13)


def test_counterexample_truncation_stability():
    # atoms past i+1 carry doubly exponentially small tilted mass
    def ratio(i_max):
        rep = moments(CounterexampleSubgaussian(i_max), 32.0)
        return abs(rep.third_central) / rep.variance

    assert ratio(5) == pytest.approx(ratio(24), abs=1e-10)


def test_verify_lower_bound_reports():
    rep = verify_lower_bound(4)
    assert rep.u == 32.0
    # the tilt concentrates the mass on atoms 2^i and 2^{i+1} at ratio 4:1,
    # so the tilted mean is exactly (0.8 + 0.4) * 2^i = 1.2 * 2^i
    assert rep.mean == pytest.approx(1.2 * 2**4, rel=1e-12)
    assert rep.ratio == pytest.approx(0.3 * rep.u, rel=1e-10)
    assert rep.ratio_ok  # 0.3 u clears the 0.038 u threshold
    assert rep.ratio >= 1.216


def test_verify_lower_bound_large_indices_stay_finite():
    for i in (6, 8):
        rep = verify_lower_bound(i)
        assert math.isfinite(rep.mean) and math.isfinite(rep.ratio)
        assert rep.ratio_ok


def test_verify_lower_bound_fails_loud_past_float64_resolution():
    # the log-weights are about u^2 = 4^(i+1): from i = 16 their float64 spacing
    # drifts the ratio (0.27 relative at i = 26), and from i = 28 it reads 0.0
    assert verify_lower_bound(14).ratio_ok
    for i in (16, 28):
        with pytest.raises(PrecisionError, match=f"i = {i}"):
            verify_lower_bound(i)


def test_verify_lower_bound_argument_validation():
    with pytest.raises(InvalidArgumentError):
        verify_lower_bound(5)
    with pytest.raises(InvalidArgumentError):
        verify_lower_bound(2)
    with pytest.raises(InvalidArgumentError):
        verify_lower_bound(4, i_max=8)
