"""Loss/gradient/Hessian identities and the damped Newton fitter."""

import collections
import dataclasses
import math
import warnings
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg

from nefbandit.bandit import (
    ConfidenceState,
    elliptical_potential_check,
    exact_membership,
    make_instance,
)
from nefbandit.distributions import (
    BaseDistribution,
    Bernoulli,
    Exponential,
    Gaussian,
    NefFamily,
    gamma_ratio,
    sample_tilted,
)
from nefbandit.errors import DomainError, InvalidArgumentError, NefBanditError, OptimizationError
from nefbandit.glm import (
    Dataset,
    FitResult,
    _cholesky_solves,
    _fit_stack,
    _gradient_maps,
    _hessians,
    _losses,
    cholesky_solve,
    difference_quotient_matrix,
    fit_mle,
    full_gradient,
    gradient_map,
    hessian,
    loss,
)
from nefbandit.rng import replicate_stream
from oracle import README_BASES

BERN = NefFamily(Bernoulli(0.5), -3.0, 3.0)
EXP = NefFamily(Exponential(1.0), -0.5, 0.5)
GAUSS = NefFamily(Gaussian(1.0), -5.0, 5.0)


def ball_points(rng, n, d, radius=1.0):
    v = rng.standard_normal((n, d))
    v /= np.maximum(np.linalg.norm(v, axis=1, keepdims=True), 1e-12)
    r = radius * rng.random((n, 1)) ** (1.0 / d)
    return v * r


def random_instance(seed, family, n=30, d=4, theta_scale=0.3):
    rng = replicate_stream(seed, 0)
    X = ball_points(rng, n, d)
    theta_true = theta_scale * rng.standard_normal(d) / math.sqrt(d)
    y = np.array([sample_tilted(family, float(x @ theta_true), rng) for x in X])
    return Dataset(X, y), theta_true


def numeric_gradient(f, theta, h=1e-6):
    g = np.zeros_like(theta)
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = h
        g[i] = (f(theta + e) - f(theta - e)) / (2 * h)
    return g


def numeric_hessian(f, theta, h=1e-4):
    d = theta.size
    H = np.zeros((d, d))
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h
        for j in range(i, d):
            ej = np.zeros(d)
            ej[j] = h
            H[i, j] = (f(theta + ei + ej) - f(theta + ei - ej)
                       - f(theta - ei + ej) + f(theta - ei - ej)) / (4 * h * h)
            H[j, i] = H[i, j]
    return H


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def test_loss_empty_dataset_is_ridge_term():
    data = Dataset(np.zeros((0, 3)), np.zeros(0))
    theta = np.array([1.0, -2.0, 0.5])
    assert loss(BERN, data, 2.0, theta) == pytest.approx(float(theta @ theta), abs=1e-15)


def test_loss_single_bernoulli_row_at_origin():
    data = Dataset(np.array([[1.0, 0.0]]), np.array([1.0]))
    assert loss(BERN, data, 1.0, np.zeros(2)) == pytest.approx(0.0, abs=1e-15)


def test_loss_double_entry_summation_oracle():
    data, _ = random_instance(21, EXP, n=3, d=2)
    rng = replicate_stream(22, 0)
    theta = 0.3 * rng.standard_normal(2)
    expected = 0.75 * 0.5 * float(theta @ theta)
    lam = 0.75
    expected = 0.5 * lam * float(theta @ theta)
    for x, y in zip(data.arms, data.rewards):
        u = float(x @ theta)
        expected += math.log(1.0 / (1.0 - u)) - y * u
    assert loss(EXP, data, lam, theta) == pytest.approx(expected, abs=1e-12)


def test_loss_identifies_out_of_domain_row():
    data = Dataset(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 2.0]))
    with pytest.raises(DomainError, match="row 1"):
        loss(EXP, data, 1.0, np.array([0.0, 1.5]))


def test_loss_convexity_on_random_segments():
    data, _ = random_instance(23, BERN, n=25, d=3)
    rng = replicate_stream(24, 0)
    for _ in range(25):
        a = rng.standard_normal(3)
        b = rng.standard_normal(3)
        t = rng.random()
        mix = loss(BERN, data, 1.0, t * a + (1 - t) * b)
        assert mix <= t * loss(BERN, data, 1.0, a) + (1 - t) * loss(BERN, data, 1.0, b) + 1e-10


# ---------------------------------------------------------------------------
# gradient map and Hessian
# ---------------------------------------------------------------------------

def test_gradient_map_empty_data():
    data = Dataset(np.zeros((0, 2)), np.zeros(0))
    theta = np.array([0.3, -0.4])
    np.testing.assert_allclose(gradient_map(BERN, data, 2.0, theta), 2.0 * theta)


def test_gradient_map_centered_base_at_origin():
    rng = replicate_stream(25, 0)
    data = Dataset(ball_points(rng, 10, 3), np.zeros(10))
    np.testing.assert_allclose(gradient_map(GAUSS, data, 1.0, np.zeros(3)), np.zeros(3),
                               atol=1e-14)


@pytest.mark.parametrize("family,seed", [(BERN, 31), (EXP, 32), (GAUSS, 33)])
def test_full_gradient_matches_finite_differences(family, seed):
    data, _ = random_instance(seed, family, n=20, d=4)
    rng = replicate_stream(seed, 1)
    theta = 0.2 * rng.standard_normal(4)
    g = full_gradient(family, data, 1.3, theta)
    g_fd = numeric_gradient(lambda th: loss(family, data, 1.3, th), theta)
    np.testing.assert_allclose(g, g_fd, rtol=1e-6, atol=1e-8)
    corr = gradient_map(family, data, 1.3, theta) - data.arms.T @ data.rewards
    np.testing.assert_allclose(g, corr, rtol=1e-13, atol=1e-14)


def test_hessian_empty_data_is_ridge_identity():
    data = Dataset(np.zeros((0, 3)), np.zeros(0))
    np.testing.assert_allclose(hessian(BERN, data, 2.5, np.zeros(3)), 2.5 * np.eye(3))


def test_hessian_single_exponential_row_closed_form():
    data = Dataset(np.array([[1.0, 0.0]]), np.array([0.3]))
    H = hessian(EXP, data, 1.0, np.array([0.5, 0.0]))
    expected = np.eye(2)
    expected[0, 0] += 4.0  # variance of the tilt at 1/2 is (1 - 1/2)^{-2}
    np.testing.assert_allclose(H, expected, rtol=1e-13)


@pytest.mark.parametrize("family,seed", [(BERN, 41), (EXP, 42)])
def test_hessian_matches_finite_differences(family, seed):
    data, _ = random_instance(seed, family, n=15, d=3)
    rng = replicate_stream(seed, 1)
    theta = 0.2 * rng.standard_normal(3)
    H = hessian(family, data, 1.0, theta)
    H_fd = numeric_hessian(lambda th: loss(family, data, 1.0, th), theta)
    np.testing.assert_allclose(H, H_fd, rtol=1e-5, atol=1e-6)
    assert np.min(np.linalg.eigvalsh(H)) >= 1.0 - 1e-12


# ---------------------------------------------------------------------------
# difference quotient matrix
# ---------------------------------------------------------------------------

def test_difference_quotient_coincident_equals_hessian():
    data, _ = random_instance(51, BERN, n=12, d=3)
    theta = np.array([0.1, -0.2, 0.3])
    G = difference_quotient_matrix(BERN, data, 1.0, theta, theta)
    np.testing.assert_allclose(G, hessian(BERN, data, 1.0, theta), rtol=1e-12)


def test_difference_quotient_exponential_secant_value():
    data = Dataset(np.array([[1.0]]), np.array([0.0]))
    fam = NefFamily(Exponential(1.0), -0.7, 0.7)
    G = difference_quotient_matrix(fam, data, 1.0, np.array([0.2]), np.array([0.6]))
    # (mu(0.2) - mu(0.6)) / (0.2 - 0.6) = (1.25 - 2.5) / (-0.4)
    assert G[0, 0] == pytest.approx(1.0 + 3.125, rel=1e-13)


@pytest.mark.parametrize("family,seed", [(BERN, 61), (EXP, 62), (GAUSS, 63)])
def test_mean_value_identity(family, seed):
    data, _ = random_instance(seed, family, n=18, d=4)
    rng = replicate_stream(seed, 2)
    t1 = 0.25 * rng.standard_normal(4)
    t2 = 0.25 * rng.standard_normal(4)
    G = difference_quotient_matrix(family, data, 1.0, t1, t2)
    lhs = gradient_map(family, data, 1.0, t1) - gradient_map(family, data, 1.0, t2)
    rhs = G @ (t1 - t2)
    assert np.linalg.norm(lhs - rhs) <= 1e-8


@pytest.mark.parametrize("base", README_BASES, ids=lambda b: b.kind)
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), frac=st.floats(0.05, 0.9))
def test_gradient_and_secant_map_hold_for_every_kind(base, seed, frac):
    # grad L against central differences of L, and g(t1) - g(t2) = G(t1, t2)(t1 - t2),
    # with every inner product a fraction frac of the way to the domain's edge (or to 1)
    lo, hi = base.mgf_domain
    r = frac * min(-lo, hi, 1.0)
    fam = NefFamily(base, -r, r)
    rng = replicate_stream(seed, 0)
    data = Dataset(ball_points(rng, 12, 3), sample_tilted(base, 0.0, rng, 12))
    t1, t2 = r * ball_points(rng, 2, 3)
    g = full_gradient(fam, data, 1.0, t1)
    g_fd = numeric_gradient(lambda th: loss(fam, data, 1.0, th), t1)
    np.testing.assert_allclose(g, g_fd, rtol=1e-6, atol=1e-7)
    G = difference_quotient_matrix(fam, data, 1.0, t1, t2)
    gap = gradient_map(fam, data, 1.0, t1) - gradient_map(fam, data, 1.0, t2)
    np.testing.assert_allclose(gap, G @ (t1 - t2), rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------------
# smoothness and ordering consequences of a bounded stretch ratio
# ---------------------------------------------------------------------------

def sup_ratio(family, lo, hi):
    return max(gamma_ratio(family, float(u)) for u in np.linspace(lo, hi, 101))


@pytest.mark.parametrize("family", [BERN, EXP])
def test_variance_smoothness_in_the_tilt(family):
    lo, hi = family.interval
    K = sup_ratio(family, lo, hi)
    grid = np.linspace(lo, hi, 21)
    for u in grid:
        for v in grid:
            du = float(family.base.dmean_at(u))
            dv = float(family.base.dmean_at(v))
            assert dv <= du * math.exp(K * abs(u - v)) * (1 + 1e-9)


@pytest.mark.parametrize("family", [BERN, EXP])
def test_secant_weight_remainder_floor(family):
    lo, hi = family.interval
    K = sup_ratio(family, lo, hi)
    grid = np.linspace(lo, hi, 15)
    for u in grid:
        for v in grid:
            mu_u = float(family.base.mean_at(u))
            mu_v = float(family.base.mean_at(v))
            alpha = (mu_u - mu_v) / (u - v) if abs(u - v) > 1e-12 else float(
                family.base.dmean_at(u))
            floor = float(family.base.dmean_at(u)) / (1 + K * abs(u - v))
            assert alpha >= floor - 1e-9


def test_secant_matrix_dominates_scaled_hessian():
    fam = NefFamily(Bernoulli(0.5), -0.6, 0.6)
    K = sup_ratio(fam, -0.6, 0.6)
    scale = 1.0 / (1.0 + 2.0 * K * (0.6 - (-0.6)))
    rng = replicate_stream(71, 0)
    for trial in range(10):
        X = ball_points(rng, 20, 3)
        data = Dataset(X, np.zeros(20))
        t1 = 0.6 * rng.standard_normal(3) / math.sqrt(3)
        t2 = 0.6 * rng.standard_normal(3) / math.sqrt(3)
        t1 /= max(1.0, np.linalg.norm(t1) / 0.6)
        t2 /= max(1.0, np.linalg.norm(t2) / 0.6)
        G = difference_quotient_matrix(fam, data, 1.0, t1, t2)
        H = hessian(fam, data, 1.0, t1)
        assert np.min(np.linalg.eigvalsh(G - scale * H)) >= -1e-9


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def test_fit_empty_data_returns_origin():
    data = Dataset(np.zeros((0, 4)), np.zeros(0))
    res = fit_mle(BERN, data, 1.0, init=np.ones(4))
    np.testing.assert_allclose(res.theta_hat, np.zeros(4))
    assert res.converged


# each R = 1 call on a (0, 3) history and a 2-vector theta
EMPTY_HISTORY_CALLS = {
    "loss": lambda data, th: loss(BERN, data, 1.0, th),
    "gradient_map": lambda data, th: gradient_map(BERN, data, 1.0, th),
    "full_gradient": lambda data, th: full_gradient(BERN, data, 1.0, th),
    "hessian": lambda data, th: hessian(BERN, data, 1.0, th),
    "fit_mle": lambda data, th: fit_mle(BERN, data, 1.0, init=th),
    "difference_quotient_matrix":
        lambda data, th: difference_quotient_matrix(BERN, data, 1.0, th, np.ones(5)),
}


@pytest.mark.parametrize("call", EMPTY_HISTORY_CALLS.values(), ids=EMPTY_HISTORY_CALLS)
def test_an_empty_history_still_checks_the_dimension_of_theta(call):
    # a (0, d) history is a history of dimension d: no call may answer for another d
    with pytest.raises(InvalidArgumentError, match=r"theta has dim 2, data has dim 3"):
        call(Dataset(np.zeros((0, 3)), np.zeros(0)), np.ones(2))


# each public call that takes a ridge weight, on two rows at theta = 0
RIDGE_CALLS = {
    "loss": lambda data, lam: loss(BERN, data, lam, np.zeros(2)),
    "gradient_map": lambda data, lam: gradient_map(BERN, data, lam, np.zeros(2)),
    "full_gradient": lambda data, lam: full_gradient(BERN, data, lam, np.zeros(2)),
    "hessian": lambda data, lam: hessian(BERN, data, lam, np.zeros(2)),
    "fit_mle": lambda data, lam: fit_mle(BERN, data, lam),
    "difference_quotient_matrix":
        lambda data, lam: difference_quotient_matrix(BERN, data, lam, np.zeros(2), np.ones(2)),
}


@pytest.mark.parametrize("call", RIDGE_CALLS.values(), ids=RIDGE_CALLS)
def test_ridge_weight_must_be_finite_and_positive(call):
    data = Dataset(np.array([[0.6, 0.0], [0.0, 0.8]]), np.array([1.0, 0.0]))
    for lam in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(InvalidArgumentError, match="ridge weight") as info:
            call(data, lam)
        assert info.value.name == "lambda"
    call(data, 0.5)


def test_fit_result_converged_is_read_from_the_gradient_norm():
    res = fit_mle(BERN, Dataset(np.array([[0.6, 0.0]]), np.array([1.0])), 1.0)
    assert res.converged is (res.gradient_norm <= 1e-8) is True
    fields = {f.name: getattr(res, f.name) for f in dataclasses.fields(res)}
    with pytest.raises(TypeError, match="'converged'"):
        FitResult(**{**fields, "converged": True})
    assert not FitResult(**{**fields, "gradient_norm": 1e-3}).converged


@pytest.mark.parametrize("arms", [[], np.zeros((2, 0)), np.zeros((0, 0))])
def test_a_dataset_needs_a_dimension(arms):
    with pytest.raises(InvalidArgumentError, match=r"\(0, d\)"):
        Dataset(arms, np.zeros(len(arms)))
    assert Dataset(np.zeros((0, 2)), []).d == 2  # a length-0 history keeps its dimension


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from([0, 1, 3]), d=st.integers(1, 3), d_theta=st.integers(1, 3),
       d_theta2=st.integers(1, 3), family=st.sampled_from([BERN, EXP]),
       seed=st.integers(0, 2**16))
def test_the_one_replicate_calls_raise_only_package_errors(n, d, d_theta, d_theta2, family,
                                                            seed):
    # errors.py: public functions never raise a bare ValueError (InvalidArgumentError is one)
    rng = replicate_stream(seed, 0)
    data = Dataset(ball_points(rng, n, d), rng.random(n))
    theta, theta2 = 0.4 * rng.standard_normal(d_theta), 0.4 * rng.standard_normal(d_theta2)
    inst = make_instance(family.base, np.eye(2), np.array([0.2, -0.1]), S0=0.9)
    state = ConfidenceState(theta_hat=np.zeros(d), hessian_at_hat=np.eye(d),
                            gradient_map_at_hat=np.zeros(d), lambda_T=1.0, gamma_t=1.0)
    calls = [lambda: loss(family, data, 1.0, theta),
             lambda: gradient_map(family, data, 1.0, theta),
             lambda: full_gradient(family, data, 1.0, theta),
             lambda: hessian(family, data, 1.0, theta),
             lambda: fit_mle(family, data, 1.0, init=theta),
             lambda: difference_quotient_matrix(family, data, 1.0, theta, theta2),
             lambda: exact_membership(inst, state, data, theta),
             lambda: elliptical_potential_check(data.arms, 1.0, 1.0)]
    for call in calls:
        try:
            call()
        except Exception as exc:
            assert isinstance(exc, NefBanditError), repr(exc)


def test_fit_gaussian_matches_ridge_closed_form():
    data, _ = random_instance(81, GAUSS, n=40, d=3)
    lam = 1.7
    res = fit_mle(GAUSS, data, lam)
    X, y = data.arms, data.rewards
    ridge = np.linalg.solve(lam * np.eye(3) + X.T @ X, X.T @ y)
    np.testing.assert_allclose(res.theta_hat, ridge, atol=1e-10)
    assert res.converged


def test_fit_bernoulli_converges_and_minimizes():
    data, _ = random_instance(82, BERN, n=200, d=3)
    res = fit_mle(BERN, data, 1.0)
    assert res.converged and res.gradient_norm <= 1e-8
    f_hat = loss(BERN, data, 1.0, res.theta_hat)
    rng = replicate_stream(83, 0)
    for _ in range(100):
        perturbed = res.theta_hat + 0.1 * rng.standard_normal(3)
        assert f_hat <= loss(BERN, data, 1.0, perturbed) + 1e-12


def test_fit_exponential_respects_domain_guard():
    # rewards with large means pull inner products toward the boundary at 1
    rng = replicate_stream(84, 0)
    X = np.vstack([np.eye(2), ball_points(rng, 30, 2, radius=0.9)])
    y = np.concatenate([[8.0, 9.0], 1.0 + rng.random(30)])
    data = Dataset(X, y)
    fam = NefFamily(Exponential(1.0), -0.9, 0.9)
    res = fit_mle(fam, data, 0.5)
    assert res.converged
    assert res.inner_hi < 1.0
    assert isinstance(res.outside_admissible, bool)


class _CliffExponential(Exponential):
    """Exponential(rate) whose mu' overflows to inf above the tilt 0.3, where its loss and mean
    stay finite; below it, every method has Exponential's bits."""

    _curve = BaseDistribution._curve  # the three methods, so the stub's mu' is the one read

    def dmean_at(self, u):
        u = np.asarray(u, dtype=float)
        return super().dmean_at(u) * np.exp(np.where(u > 0.3, 1e3, 0.0))


def test_fit_shortens_a_trial_whose_curvature_weights_are_not_finite():
    # from the origin the full Newton step lands at 0.3465, past the cliff at 0.3, with a
    # lower loss; the optimum 1 - 1/1.35 = 0.259 lies below it
    data = Dataset(np.ones((100, 1)), np.full(100, 1.35))
    res = fit_mle(NefFamily(_CliffExponential(1.0), -0.5, 0.5), data, 1.0)
    ref = fit_mle(NefFamily(Exponential(1.0), -0.5, 0.5), data, 1.0)
    assert res.converged and np.isfinite(res.hessian_at_hat).all()
    assert res.inner_hi < 0.3
    assert res.theta_hat == pytest.approx(ref.theta_hat, abs=1e-12)


def test_fit_starts_at_the_origin_when_mu_prime_overflows_at_its_start():
    # the start lies inside the guard, 1e-156 below the rate, where mu' = 1/gap^2 overflows:
    # one rule judges it infeasible, as it would a trial, and the fit begins at the origin
    family = NefFamily(Exponential(1e-150), -1e-150, 5e-151)
    data = Dataset(np.ones((5, 1)), np.full(5, 2e150))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = fit_mle(family, data, 1.0, init=np.array([1e-150 - 1e-156]))
    ref = fit_mle(family, data, 1.0)
    assert res.converged and res.theta_hat[0] == pytest.approx(5e-151, rel=1e-12)
    assert np.array_equal(res.theta_hat, ref.theta_hat) and res.newton_iters == ref.newton_iters


def test_fit_stack_restarts_only_the_replicate_whose_start_has_infinite_curvature():
    # replicate 1 starts at 0.35, past the cliff at 0.3 where mu' is inf; replicate 0 at 0.1
    family = NefFamily(_CliffExponential(1.0), -0.5, 0.5)
    X, y, init = np.ones((2, 100, 1)), np.full((2, 100), 1.35), np.array([[0.1], [0.35]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fits = _fit_stack(family, X, y, 1.0, np.eye(1), init)
    assert fits.fallback == [False, True] and fits.errors == {}
    for r, start in enumerate((init[0], None)):
        ref = fit_mle(family, Dataset(X[r], y[r]), 1.0, init=start)
        assert np.array_equal(fits.theta[r], ref.theta_hat)
        assert np.array_equal(fits.H[r], ref.hessian_at_hat)
        assert (fits.gnorm[r], fits.iters[r]) == (ref.gradient_norm, ref.newton_iters)


class _WalledGaussian(Gaussian):
    """N(u, 1) whose loss term is +inf from u = 1 on, while its mean map knows no wall."""

    def log_mgf(self, u):
        u = np.asarray(u, dtype=float)
        return np.where(u < 1.0, super().log_mgf(u), np.inf)


def test_fit_mle_raises_the_optimization_error_of_its_fit():
    # the optimum 20 n / (n + lam) = 10 lies past the wall: the fit creeps up to it until
    # no step length keeps the loss finite
    data = Dataset(np.ones((1, 1)), np.array([20.0]))
    with pytest.raises(OptimizationError, match="no domain-feasible descent step found"):
        fit_mle(NefFamily(_WalledGaussian(1.0), -0.5, 0.5), data, 1.0)


class _MeanOverflowGaussian(Gaussian):
    """N(u, 1) whose mean overflows from u = 0.2 on, while its loss and mu' stay finite."""

    def _curve(self, u):
        log_m, mean, w = super()._curve(u)
        return log_m, np.where(u < 0.2, mean, np.inf), w


def test_fit_rejects_a_trial_whose_gradient_is_not_finite():
    # the full Newton step lands on the optimum 0.25, where the loss and the curvature
    # weight are finite but the gradient is not: the trial is infeasible and shortened,
    # so the fit stays below 0.2 and never hands the solve a non-finite gradient
    data = Dataset(np.ones((1, 1)), np.array([0.5]))
    family = NefFamily(_MeanOverflowGaussian(1.0), -0.5, 0.5)
    fits = _fit_stack(family, data.arms[None], data.rewards[None], 1.0, np.eye(1), np.zeros((1, 1)))
    assert fits.errors == {} and not fits.fallback[0] and fits.iters[0] > 1
    assert 0.0 < fits.theta[0, 0] < 0.2 and math.isfinite(fits.gnorm[0])
    assert np.isfinite(fits.g).all() and np.isfinite(fits.H).all()
    # the same rule at the start: an overflowing gradient there falls back to the origin
    start = _fit_stack(family, data.arms[None], data.rewards[None], 1.0, np.eye(1),
                       np.full((1, 1), 0.3))
    assert start.fallback == [True] and start.theta[0, 0] == fits.theta[0, 0]


@pytest.mark.parametrize("family", [EXP, BERN], ids=["exponential", "bernoulli"])
def test_fit_stack_evaluates_each_point_by_one_curve_call(family, monkeypatch):
    # each evaluated point passes the domain guard once; its log-MGF, means and curvature
    # weights, for the loss, the gradient and every Hessian, come from one _curve call
    import nefbandit.glm as glm

    cls, calls, depth = type(family.base), collections.Counter(), [0]

    def counting(name):
        real = getattr(cls, name)

        def counted(self, u):
            if not depth[0]:  # a method called by _curve itself is part of that call
                calls[name] += 1
            depth[0] += 1
            try:
                return real(self, u)
            finally:
                depth[0] -= 1
        return counted

    for name in ("_curve", "log_mgf", "mean_at", "dmean_at"):
        monkeypatch.setattr(cls, name, counting(name))
    real_outside, points = glm._outside, []

    def outside(guard, inner):
        points.append(len(inner))
        return real_outside(guard, inner)

    monkeypatch.setattr(glm, "_outside", outside)
    rng = replicate_stream(92, 0)
    X = ball_points(rng, 3 * 40, 2).reshape(3, 40, 2)
    y = rng.exponential(2.5, (3, 40)) if family is EXP else (rng.random((3, 40)) < 0.8) * 1.0
    init = np.zeros((3, 2))
    init[1] = [5.0, 5.0]  # infeasible for Exponential(1), which then evaluates the origin too
    fits = _fit_stack(family, X, y, 1.0, np.eye(2), init)
    assert fits.errors == {} and len(points) > max(fits.iters)
    assert calls == {"_curve": len(points)}


def test_fit_infeasible_init_raises():
    data = Dataset(np.array([[1.0, 0.0]]), np.array([1.0]))
    with pytest.raises(DomainError):
        fit_mle(EXP, data, 1.0, init=np.array([2.0, 0.0]))


def test_fit_warm_start_is_fast():
    data, _ = random_instance(85, BERN, n=150, d=3)
    res = fit_mle(BERN, data, 1.0)
    warm = fit_mle(BERN, data, 1.0, init=res.theta_hat)
    assert warm.newton_iters <= 1


@pytest.mark.parametrize("family,seed", [(EXP, 86), (BERN, 87)])
def test_fit_returns_hessian_and_gradient_map_at_theta_hat(family, seed):
    data, _ = random_instance(seed, family, n=120, d=3)
    for init in (None, np.full(3, 0.05)):
        res = fit_mle(family, data, 1.5, init=init)
        assert res.converged
        assert np.array_equal(res.hessian_at_hat, hessian(family, data, 1.5, res.theta_hat))
        assert np.array_equal(res.gradient_map_at_hat,
                              gradient_map(family, data, 1.5, res.theta_hat))
    empty = Dataset(np.zeros((0, 3)), np.zeros(0))
    res = fit_mle(family, empty, 1.5)
    assert np.array_equal(res.hessian_at_hat, hessian(family, empty, 1.5, res.theta_hat))
    assert np.array_equal(res.gradient_map_at_hat, gradient_map(family, empty, 1.5, res.theta_hat))


def test_cholesky_solve_matches_scipy_bit_for_bit():
    rng = replicate_stream(88, 0)
    for d in (1, 2, 3, 5):
        A = rng.standard_normal((d, d))
        H = A @ A.T + 0.1 * np.eye(d)
        H[0, -1] += 1e-3  # the upper triangle is never read
        for b in (rng.standard_normal(d), rng.standard_normal((d, 4)),
                  np.asfortranarray(rng.standard_normal((4, d))).T):
            expected = linalg.cho_solve(linalg.cho_factor(H, lower=True), b)
            assert np.array_equal(cholesky_solve(H, b), expected)


@pytest.mark.parametrize("R", [1, 3])
def test_stacked_kernels_match_the_two_dimensional_calls_bit_for_bit(R):
    # the lockstep engine rests on this: slice r of every stacked kernel has the
    # bits of the one-replicate 2-D expression, whatever R
    rng = replicate_stream(89, R)
    n, d, lam = 41, 3, 1.5
    X = 0.5 * ball_points(rng, R * 60, d).reshape(R, 60, d)[:, :n]  # a history prefix
    y = rng.exponential(1.0, (R, 60))[:, :n]
    theta = 0.3 * rng.standard_normal((R, d))
    lam_eye = lam * np.eye(d)
    inner = np.matvec(X, theta)
    log_m, mean, w_all = EXP.base._curve(inner)
    g = _gradient_maps(X, lam, theta, mean)
    H = _hessians(X, lam_eye, w_all)
    f = _losses(y, lam, theta, inner, log_m)
    rhs = rng.standard_normal((R, d, 4))
    sol, shared = np.empty_like(rhs), np.empty_like(rhs)
    assert _cholesky_solves(H, rhs, sol) == {}
    assert _cholesky_solves(H, rhs[:1], shared) == {}
    for r in range(R):
        Xr, yr, th = X[r], y[r], theta[r]
        inner_r = Xr @ th
        assert np.array_equal(inner[r], inner_r)
        assert np.array_equal(np.vecmat(y, X)[r], Xr.T @ yr)
        assert np.vecdot(theta, theta)[r] == float(th @ th)
        mu, w = EXP.base.mean_at(inner_r), EXP.base.dmean_at(inner_r)
        assert np.array_equal(g[r], lam * th + Xr.T @ mu)
        assert np.array_equal(H[r], lam_eye + (Xr * w[:, None]).T @ Xr)
        psi = EXP.base.log_mgf(inner_r)
        assert f[r] == 0.5 * lam * float(th @ th) + float(np.sum(psi - yr * inner_r))
        cho = linalg.cho_factor(H[r], lower=True)
        assert np.array_equal(sol[r], linalg.cho_solve(cho, rhs[r]))
        assert np.array_equal(shared[r], linalg.cho_solve(cho, rhs[0]))


@pytest.mark.parametrize("R", [1, 3])
def test_stacked_fit_rows_are_the_one_replicate_fits(R):
    rng = replicate_stream(90, R)
    n, d, lam = 50, 2, 1.0
    X = ball_points(rng, R * n, d).reshape(R, n, d)
    y = rng.exponential(1.5, (R, n))
    init = np.zeros((R, d))
    init[-1] = [5.0, 5.0]  # infeasible for Exponential(1): that replicate starts at the origin
    fits = _fit_stack(EXP, X, y, lam, lam * np.eye(d), init)
    assert fits.fallback == [False] * (R - 1) + [True] and fits.errors == {}
    for r in range(R):
        data = Dataset(X[r], y[r])
        with pytest.raises(DomainError) if fits.fallback[r] else nullcontext():
            fit_mle(EXP, data, lam, init=init[r])
        ref = fit_mle(EXP, data, lam) if fits.fallback[r] else fit_mle(EXP, data, lam, init=init[r])
        assert np.array_equal(fits.theta[r], ref.theta_hat)
        assert np.array_equal(fits.H[r], ref.hessian_at_hat)
        assert np.array_equal(fits.g[r], ref.gradient_map_at_hat)
        assert (fits.gnorm[r], fits.iters[r]) == (ref.gradient_norm, ref.newton_iters)


def _fit_bytes(fits):
    return (fits.theta.tobytes(), fits.g.tobytes(), fits.H.tobytes(), fits.gnorm, fits.iters,
            fits.fallback, {r: str(exc) for r, exc in fits.errors.items()})


@pytest.mark.parametrize("family", [EXP, BERN], ids=["exponential", "bernoulli"])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("R", [1, 2, 17])
def test_fit_stack_on_strided_history_prefixes_is_the_fit_on_contiguous_copies(family, d, R):
    # the round loop hands the fit [:, :n] prefixes of its (R, T, d) buffers; their bytes
    # must be those of the fit on contiguous copies, an infeasible start included
    rng = replicate_stream(93, 10 * R + d)
    T, n, lam = 60, 41, 1.5
    X = ball_points(rng, R * T, d).reshape(R, T, d)[:, :n]
    y = (rng.exponential(2.5, (R, T)) if family is EXP else (rng.random((R, T)) < 0.7) * 1.0)
    y = y[:, :n]
    init = 0.05 * rng.standard_normal((R, d))
    init[-1] = 1e200  # infeasible for either kind: its loss overflows
    assert X.flags.c_contiguous == y.flags.c_contiguous == (R == 1)
    strided = _fit_stack(family, X, y, lam, lam * np.eye(d), init)
    contiguous = _fit_stack(family, X.copy(), y.copy(), lam, lam * np.eye(d), init)
    assert strided.fallback[-1] and strided.errors == {}
    assert _fit_bytes(strided) == _fit_bytes(contiguous)


def test_cholesky_solves_fail_only_the_replicate_not_positive_definite():
    rng = replicate_stream(91, 0)
    H = np.stack([A @ A.T + 0.1 * np.eye(3) for A in rng.standard_normal((3, 3, 3))])
    H[1] = np.diag([1.0, -2.0, 1.0])
    for rhs in (rng.standard_normal((3, 3)), rng.standard_normal((3, 3, 4))):
        sol = np.full_like(rhs, 7.0)
        failed = _cholesky_solves(H, rhs, sol)
        assert list(failed) == [1] and isinstance(failed[1], linalg.LinAlgError)
        assert (sol[1] == 7.0).all()  # a failed replicate's output is left alone
        for r in (0, 2):
            assert np.array_equal(sol[r], linalg.cho_solve(linalg.cho_factor(H[r], lower=True),
                                                           rhs[r]))


def _scaled_spd(rng, R, d):
    """R positive definite d x d matrices, each scaled by a power of ten in [1e-5, 1e5], with
    junk in the upper triangle, which is never read."""
    A = rng.standard_normal((R, d, d))
    scale = 10.0 ** rng.uniform(-5, 5, (R, 1, 1))
    H = scale * (A @ A.mT + 10.0 ** rng.uniform(-3, 0, (R, 1, 1)) * np.eye(d))
    H[:, 0, 1:] += 1.0
    return H


def _with_zeros(rng, shape, zero):
    """Entries of magnitude 1e-5 to 1e5, about a fifth of them ``zero`` (0.0 or -0.0)."""
    b = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-5, 5, shape)
    b[rng.random(shape) < 0.2] = zero
    return b


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("R", [2, 15, 16, 17, 40])
def test_batched_cholesky_solves_are_the_one_replicate_calls_bit_for_bit(d, R, monkeypatch):
    # d <= 2 solves go in block-diagonal chunks of _CHUNK replicates; each block must keep
    # the bits of its own call, the sign of every zero included (d = 3 is solved one by one)
    import nefbandit.glm as glm

    calls = []
    real = glm._posv()
    monkeypatch.setattr(glm, "_posv", lambda: lambda *a, **k: calls.append(1) or real(*a, **k))
    rng = replicate_stream(92, 10 * R + d)
    H = _scaled_spd(rng, R, d)
    for zero in (0.0, -0.0):
        for shape in ((1, d, 4), (R, d), (R, d, 3)):
            B = _with_zeros(rng, shape, zero)
            out = np.empty((R, *shape[1:]))
            calls.clear()
            assert _cholesky_solves(H, B, out) == {}
            assert len(calls) == (-(-R // glm._CHUNK) if d <= 2 else R)
            for r in range(R):
                Br = B[0] if shape[0] == 1 else B[r]
                alone = np.empty((1, *shape[1:]))
                assert _cholesky_solves(H[r:r + 1], Br[None], alone) == {}
                assert np.array_equal(out[r], alone[0])
                assert np.array_equal(np.signbit(out[r]), np.signbit(alone[0]))
                if not np.signbit(Br).any():
                    assert np.array_equal(out[r], linalg.cho_solve(
                        linalg.cho_factor(H[r], lower=True), Br))


def test_cholesky_solve_reads_a_negative_zero_right_hand_side_as_positive_zero():
    H = np.array([[2.0, 0.5], [0.5, 1.0]])
    assert np.array_equal(np.signbit(cholesky_solve(H, np.array([-0.0, -0.0]))), [False, False])
    assert np.array_equal(np.signbit(cholesky_solve(np.eye(1), np.array([-0.0]))), [False])


def test_batched_cholesky_solves_fail_only_the_replicate_not_positive_definite():
    # the d = 2 twin: the bad replicate sits mid-way through the first chunk, a second
    # chunk follows, and the first chunk's other replicates are solved one by one
    from nefbandit.glm import _CHUNK

    rng = replicate_stream(93, 0)
    R, bad = _CHUNK + 4, _CHUNK // 2
    H = _scaled_spd(rng, R, 2)
    H[bad] = np.diag([1.0, -2.0])
    for rhs in (rng.standard_normal((R, 2)), rng.standard_normal((R, 2, 4)),
                rng.standard_normal((1, 2, 4))):
        sol = np.full((R, *rhs.shape[1:]), 7.0)
        failed = _cholesky_solves(H, rhs, sol)
        assert list(failed) == [bad] and isinstance(failed[bad], linalg.LinAlgError)
        assert "2-th leading minor" in str(failed[bad])
        assert (sol[bad] == 7.0).all()  # a failed replicate's output is left alone
        for r in set(range(R)) - {bad}:
            assert np.array_equal(sol[r], linalg.cho_solve(linalg.cho_factor(H[r], lower=True),
                                                           rhs[0] if len(rhs) == 1 else rhs[r]))


def test_cholesky_solve_errors():
    with pytest.raises(linalg.LinAlgError):
        cholesky_solve(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2))
    with pytest.raises(ValueError):
        cholesky_solve(np.array([[1.0, 0.0], [0.0, np.nan]]), np.ones(2))
    with pytest.raises(ValueError):
        cholesky_solve(np.eye(2), np.array([1.0, np.inf]))


@pytest.mark.parametrize("H, b", [(np.array([[1.0, 0.0], [0.0, np.nan]]), np.ones(2)),
                                  (np.eye(2), np.array([1.0, np.inf]))])
def test_cholesky_solve_of_non_finite_input_is_a_package_error(H, b):
    with pytest.raises(NefBanditError, match="infs or NaNs"):
        cholesky_solve(H, b)


@pytest.mark.parametrize("call, name", [
    (lambda: Dataset(np.array([[0.5, math.nan]]), np.array([1.0])), "arms"),
    (lambda: Dataset(np.array([[0.5, 0.0]]), np.array([math.inf])), "rewards"),
    (lambda: cholesky_solve(np.array([[1.0, 0.0], [0.0, math.nan]]), np.ones(2)), "H"),
    (lambda: cholesky_solve(np.eye(2), np.array([1.0, math.inf])), "b"),
], ids=["arms", "rewards", "H", "b"])
def test_a_non_finite_array_is_an_argument_error_named_by_its_argument(call, name):
    with pytest.raises(InvalidArgumentError, match=f"{name} must not contain infs or NaNs") \
            as info:
        call()
    assert info.value.name == name


def test_dataset_validation():
    with pytest.raises(InvalidArgumentError):
        Dataset(np.array([[1.5, 0.0]]), np.array([1.0]))
    with pytest.raises(InvalidArgumentError):
        Dataset(np.array([[0.5, 0.0]]), np.array([1.0, 2.0]))
    for arms, rewards in (([[0.5, 0.0]], [math.nan]), ([[0.5, 0.0]], [math.inf]),
                          ([[0.5, math.nan]], [1.0]), ([[-math.inf, 0.0]], [1.0])):
        with pytest.raises(InvalidArgumentError, match="finite"):
            Dataset(np.array(arms), np.array(rewards))
