"""Instance construction, confidence machinery, the round loop, bound terms."""

import collections
import hashlib
import json
import math
import dataclasses
import pickle
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from nefbandit.bandit import (
    ConfidenceState,
    FitCounts,
    GlbInstance,
    _exact_norms_sq,
    _optimistic_indices,
    _radii,
    confidence_radius,
    elliptical_potential_check,
    exact_membership,
    make_instance,
    optimistic_choice,
    regularizer_schedule,
    relaxed_membership,
    run_ofu_glb,
    run_replicates,
    self_bounding_check,
    theoretical_regret_bound,
)
from nefbandit.cli import rounds_to_csv
from nefbandit.distributions import (
    Bernoulli,
    DiscreteAtoms,
    Exponential,
    Gamma,
    Gaussian,
    Laplace,
    NefFamily,
    Poisson,
    gamma_ratio,
    parse_distribution,
)
from nefbandit.errors import ConfigError, DomainError, InvalidArgumentError, NefBanditError
from nefbandit.config import build_instance, load_config
from nefbandit.glm import Dataset, fit_mle, gradient_map, hessian
from nefbandit.rng import replicate_stream
from nefbandit.selfconcordance import fit_tail_constants

ARMS3 = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.64]])
THETA3 = np.array([0.4, -0.3])


def bern_instance():
    return make_instance(Bernoulli(0.5), ARMS3, THETA3)


def circle_arms(n=10):
    ang = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    return np.stack([np.cos(ang), np.sin(ang)], axis=1)


def exp_instance():
    # ten unit arms; x' theta_star spans [-0.5, 0.5]
    return make_instance(Exponential(1.0), circle_arms(), np.array([0.5, 0.0]))


# ---------------------------------------------------------------------------
# instance construction
# ---------------------------------------------------------------------------

def test_make_instance_default_constants():
    inst = bern_instance()
    assert inst.S0 == pytest.approx(0.5)
    assert inst.S1 == pytest.approx(0.5) and inst.S2 == pytest.approx(-0.5)
    assert inst.K == pytest.approx(math.tanh(0.25), rel=1e-6)  # sup |1 - 2 mu| on the range
    assert inst.L == 1.0  # variance sup is 1/4 but the cap is floored at 1
    assert inst.M == pytest.approx(2.0)  # 1/(c1 - S1) dominates K/log 2


def test_make_instance_exponential_constants():
    inst = exp_instance()
    assert inst.c1 == pytest.approx(0.75)  # midpoint of S1 = 0.5 and the boundary 1
    assert inst.K == pytest.approx(4.0, rel=1e-9)
    assert inst.L == pytest.approx(4.0, rel=1e-12)
    assert inst.M == pytest.approx(4.0 / math.log(2.0), rel=1e-9)
    assert inst.diameter_factor == pytest.approx(1.0 + 2.0 * 4.0, rel=1e-9)


def test_instance_validation_errors():
    with pytest.raises(ConfigError, match="unit ball"):
        make_instance(Bernoulli(0.5), np.array([[1.5, 0.0]]), np.array([0.1, 0.0]))
    with pytest.raises(ConfigError, match="S0"):
        make_instance(Bernoulli(0.5), ARMS3, THETA3, S0=0.1)
    with pytest.raises(ConfigError, match="-c2 < S2 <= S1 < c1"):
        make_instance(Exponential(1.0), ARMS3, THETA3, c1=0.4)
    with pytest.raises(ConfigError, match="variance supremum"):
        make_instance(Exponential(1.0), ARMS3, THETA3, L=1.0)
    with pytest.raises(TypeError, match="M"):  # M is the instance's floor, not an argument
        inst = exp_instance()
        GlbInstance(arms=inst.arms, theta_star=inst.theta_star, family=inst.family,
                    S0=inst.S0, L=inst.L, K=inst.K, M=1.0, c1=inst.c1, c2=inst.c2)
    for K in (-1.0, math.nan):
        with pytest.raises(ConfigError, match="K must be nonnegative"):
            make_instance(Bernoulli(0.5), ARMS3, THETA3, K=K)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_instance_rejects_a_coordinate_that_is_not_finite(bad):
    # a NaN coordinate passes every comparison check, so the instance checks finiteness
    base = Exponential(1.0)
    consts = dict(S0=0.5, L=4.0, K=10.0, c1=0.75, c2=1.0)
    for arms, theta, name in ((np.array([[1.0, 0.0], [bad, 0.0]]), np.array([0.5, 0.0]), "arms"),
                              (np.eye(2), np.array([bad, 0.0]), "theta_star")):
        with pytest.raises(ConfigError, match="not finite") as info:
            GlbInstance(arms=arms, theta_star=theta, family=NefFamily(base, -0.5, 0.5), **consts)
        assert info.value.name == name
        for kwargs in ({"S0": 0.5}, {}):
            with pytest.raises(ConfigError, match="not finite") as info:
                make_instance(base, arms, theta, **kwargs)
            assert info.value.name == name


@pytest.mark.parametrize("base, kwargs, name", [
    (Bernoulli(0.5), {"S0": 0.1}, "S0"),
    (Bernoulli(0.5), {"S1": 0.1}, "S1"),  # below x' theta_star = 0.4
    (Bernoulli(0.5), {"S2": 0.1}, "S2"),  # above x' theta_star = -0.3
    (Bernoulli(0.5), {"S1": -1.0}, "S1"),  # below the derived S2 = -0.5
    (Bernoulli(0.5), {"c1": 0.3}, "c1"),
    (Bernoulli(0.5), {"c2": 0.05}, "c2"),
    (Bernoulli(0.5), {"L": 0.5}, "L"),
    (Bernoulli(0.5), {"K": -1.0}, "K"),
    (Bernoulli(0.5), {"K": 1.7e308}, "K"),  # M = K / log 2 overflows
    (Bernoulli(0.5), {"S0": 1e308}, "S0"),  # the derived [S2, S1] is wider than float range
    (Bernoulli(0.5), {"S1": 1.5e308}, "S1"),  # the derived c1 = 1.25 S1 overflows
    (Exponential(1.0), {"S1": 1.5}, "S1"),  # beyond the natural parameter interval
    (Exponential(1.0), {"S0": 1.5}, "S0"),  # so is the derived S1
    (Poisson(2.0), {"S0": 710.0}, "S0"),  # mu' = 2 e^u overflows on [S2, S1]: L and K
    # inside the domain, past the interior: the family's own check, renamed
    (Exponential(1.0), {"S1": 1 - 1e-10, "c1": 1 - 1e-11}, "S1"),
    (Laplace(1.0), {"S2": -1 + 1e-10, "c2": 1 - 1e-11}, "S2"),
    # a tail rate no tail of the base reaches: Exponential(1) decays at rate 1 to the right
    (Exponential(1.0), {"c1": 5.0}, "c1"), (Exponential(1.0), {"c1": 1.0}, "c1"),
    (Laplace(1.0), {"c2": 1.5}, "c2"), (Laplace(1.0), {"c1": 1.0}, "c1"),
    (Gamma(2.0, 1.0), {"c1": 2.0}, "c1"),
])
def test_make_instance_errors_name_the_argument_at_fault(base, kwargs, name):
    with pytest.raises(ConfigError) as info:
        make_instance(base, ARMS3, THETA3, **kwargs)
    assert info.value.name == name, info.value


README_KINDS = [
    {"kind": "bernoulli", "p": 0.5}, {"kind": "gaussian", "sigma": 1.0},
    {"kind": "exponential", "rate": 1.0}, {"kind": "poisson", "nu": 2.0},
    {"kind": "laplace", "scale": 1.0}, {"kind": "gamma", "shape": 2.0, "scale": 1.0},
    {"kind": "atoms", "atoms": [[0.0, 0.5], [1.0, 0.5]]},
    {"kind": "counterexample", "i_max": 24},
]


@pytest.mark.parametrize("spec", README_KINDS, ids=lambda s: s["kind"])
def test_make_instance_K_from_closed_forms_only(spec, monkeypatch):
    base = parse_distribution(spec)

    def no_quadrature(*args, **kwargs):
        raise AssertionError("make_instance reached scipy.integrate.quad")

    monkeypatch.setattr(integrate, "quad", no_quadrature)
    inst = make_instance(base, circle_arms(), np.array([0.5, 0.0]))
    assert inst.K == max(gamma_ratio(base, float(u)) for u in np.linspace(inst.S2, inst.S1, 513))


@pytest.mark.parametrize("spec", README_KINDS, ids=lambda s: s["kind"])
def test_make_instance_evaluates_the_variance_grid_once(spec, monkeypatch):
    # L, K and GlbInstance's check of L all read one (mu', mu'') evaluation on the 513-point grid
    base = parse_distribution(spec)
    original, shapes = type(base)._dmeans, []

    def counted(self, u):
        shapes.append(np.shape(u))
        return original(self, u)

    monkeypatch.setattr(type(base), "_dmeans", counted)
    inst = make_instance(base, circle_arms(), np.array([0.5, 0.0]))
    assert shapes == [(513,)]
    grid = np.linspace(inst.S2, inst.S1, 513)
    assert inst.L == max(1.0, float(np.max(original(base, grid)[0])))


def test_glb_instance_built_directly_checks_L_against_the_variance_grid():
    inst = exp_instance()  # mu' = 1/(1 - u)^2 reaches 4 at S1 = 0.5
    fields = {f.name: getattr(inst, f.name) for f in dataclasses.fields(inst)}
    assert GlbInstance(**fields).L == inst.L == pytest.approx(4.0, rel=1e-12)
    with pytest.raises(ConfigError, match="below the variance supremum 4 on"):
        GlbInstance(**{**fields, "L": 2.0})
    with pytest.raises(ConfigError, match="below the variance supremum"):
        dataclasses.replace(inst, L=3.9)


def poisson_fields():
    # mu' = e^u on [S2, S1] = [-3, 3]: the variance supremum is e^3 = 20.09
    inst = make_instance(Poisson(1.0), np.eye(2), np.array([3.0, 0.0]))
    return {f.name: getattr(inst, f.name) for f in dataclasses.fields(inst)}


def test_glb_instance_takes_no_argument_in_place_of_its_L_check():
    with pytest.raises(TypeError, match="variance_sup"):
        GlbInstance(**poisson_fields(), variance_sup=0.0)


def test_glb_instance_checks_L_against_the_family_supremum_it_was_built_with(monkeypatch):
    fields = poisson_fields()
    family = fields["family"]
    var_sup, ratio_sup = family.suprema
    assert var_sup == pytest.approx(math.exp(3.0), rel=1e-12) == fields["L"]
    assert ratio_sup == fields["K"] == 1.0
    # the family's cached grid values are the ones read: no second mu' evaluation
    monkeypatch.setattr(Poisson, "dmean_at", lambda self, u: pytest.fail("mu' evaluated again"))
    for L in (1.0, 20.0, 0.99 * var_sup):
        with pytest.raises(ConfigError, match="below the variance supremum 20.0855") as info:
            GlbInstance(**{**fields, "L": L})
        assert info.value.name == "L"
    assert GlbInstance(**{**fields, "L": var_sup}).L == var_sup


def test_glb_instance_M_is_its_floor_not_an_argument():
    inst = exp_instance()  # K / log 2 = 4 / log 2 is the largest floor
    fields = {f.name: getattr(inst, f.name) for f in dataclasses.fields(inst)}
    with pytest.raises(TypeError, match="'M'"):
        GlbInstance(**{**fields, "M": inst.M})
    wider = dataclasses.replace(inst, K=2 * inst.K)
    assert wider.M == max(8.0 / math.log(2.0), 1.0 / (inst.c1 - inst.S1),
                          1.0 / (inst.c2 + inst.S2)) > inst.M


@pytest.mark.parametrize("lo, hi, name", [(-0.01, 0.01, "S1"), (-3.0, 2.5, "S1"),
                                          (0.5, 3.0, "S2")])
def test_glb_instance_takes_its_tilt_range_from_the_family(lo, hi, name):
    # x' theta_star is 0 and 3 on the two arms; [S2, S1] is the family's range
    fields = poisson_fields()
    inst = GlbInstance(**fields)
    assert (inst.S2, inst.S1) == fields["family"].interval == (-3.0, 3.0)
    for end in ("S1", "S2"):
        with pytest.raises(TypeError, match=f"'{end}'"):
            GlbInstance(**{**fields, end: 3.0})
    with pytest.raises(ConfigError, match=r"x' theta_star must lie in \[S2, S1\]") as info:
        GlbInstance(**{**fields, "family": NefFamily(Poisson(1.0), lo, hi)})
    assert info.value.name == name


# ---------------------------------------------------------------------------
# schedule and radius
# ---------------------------------------------------------------------------

def test_regularizer_schedule_frozen_value():
    # d=2, M=2, S0=1, L=1, T=100, delta=0.05:
    # (2 d M / S0) log(max(e sqrt(1 + T L / d), 1/delta)) = 8 log 20,
    # since e sqrt(51) = 19.41 < 20
    arms = 0.5 * circle_arms(8)
    inst = make_instance(Bernoulli(0.5), arms, np.array([1.0, 0.0]))
    assert (inst.d, inst.M, inst.S0, inst.L) == (2, 2.0, 1.0, 1.0)
    assert regularizer_schedule(inst, 100, 0.05) == pytest.approx(8.0 * math.log(20.0),
                                                                  rel=1e-12)


def test_regularizer_schedule_clamps_at_one():
    arms = 0.5 * circle_arms(8)
    inst = make_instance(Bernoulli(0.5), arms, np.array([1.0, 0.0]))
    small = GlbInstance(arms=inst.arms, theta_star=inst.theta_star, family=inst.family,
                        S0=inst.S0, L=inst.L, K=inst.K, c1=inst.c1, c2=inst.c2)
    # with a huge S0 the prefactor collapses and the clamp at 1 engages
    big_s0 = make_instance(Bernoulli(0.5), 0.05 * circle_arms(8), np.array([40.0, 0.0]),
                           S0=40.0)
    assert regularizer_schedule(big_s0, 1, 1.0) == 1.0
    assert regularizer_schedule(small, 100, 0.05) > 1.0


def test_regularizer_schedule_monotonicity():
    inst = bern_instance()
    vals_T = [regularizer_schedule(inst, T, 0.05) for T in (10, 100, 1000, 10000)]
    assert all(b >= a for a, b in zip(vals_T, vals_T[1:]))
    vals_d = [regularizer_schedule(inst, 100, dl) for dl in (0.5, 0.1, 0.02, 1e-4)]
    assert all(b >= a for a, b in zip(vals_d, vals_d[1:]))


def test_confidence_radius_formula_and_monotonicity():
    inst = bern_instance()
    T, delta = 200, 0.1
    lam = regularizer_schedule(inst, T, delta)
    for t in (1, 50, 200):
        expected = math.sqrt(lam) * (0.5 / inst.M + inst.S0) \
            + (4.0 * inst.M * inst.d / math.sqrt(lam)) \
            * math.log(max(math.e * math.sqrt(1 + t * inst.L / inst.d), 1 / delta))
        assert confidence_radius(inst, t, T, delta) == pytest.approx(expected, rel=1e-13)
    gammas = [confidence_radius(inst, t, T, delta) for t in range(1, 201, 10)]
    assert all(b >= a for a, b in zip(gammas, gammas[1:]))
    assert gammas[-1] <= confidence_radius(inst, T, T, delta)


@pytest.mark.parametrize("name, lam", [("golden_config.json", None),
                                       ("coverage_config.json", None),
                                       ("coverage_config.json", 2.5)],
                         ids=["golden", "coverage", "lam_override"])
def test_the_round_loop_radii_are_confidence_radius_bit_for_bit(name, lam):
    # run_replicates takes every round's gamma_t from _radii, whose t-independent factors
    # are computed once per run; each must be confidence_radius's float, bit for bit
    cfg = load_config(Path(__file__).parent / "data" / name)
    inst, T = build_instance(cfg), cfg.horizon
    assert cfg.lam is None
    radii = _radii(inst, T, cfg.delta, lam, range(1, T + 1))
    assert len(radii) == T
    for t, gamma in enumerate(radii, start=1):
        assert gamma.hex() == confidence_radius(inst, t, T, cfg.delta, lam=lam).hex(), t


# ---------------------------------------------------------------------------
# membership and arm choice
# ---------------------------------------------------------------------------

def _state(inst, lam, gamma, theta_hat=None, H=None):
    d = inst.d
    theta_hat = np.zeros(d) if theta_hat is None else theta_hat
    # the gradient map at theta_hat on empty data is lam * theta_hat
    return ConfidenceState(theta_hat=theta_hat,
                           hessian_at_hat=lam * np.eye(d) if H is None else H,
                           gradient_map_at_hat=lam * theta_hat,
                           lambda_T=lam, gamma_t=gamma)


def test_exact_membership_center_and_empty_data():
    inst = bern_instance()
    data = Dataset(np.zeros((0, 2)), np.zeros(0))
    lam = 4.0
    state = _state(inst, lam, gamma=1.0)
    assert exact_membership(inst, state, data, np.zeros(2))
    # no data: the norm reduces to sqrt(lam) ||theta - theta_hat||
    theta = np.array([0.3, 0.1])
    expected_norm = math.sqrt(lam) * np.linalg.norm(theta)
    assert exact_membership(inst, state, data, theta) == (expected_norm <= 1.0)
    wide = _state(inst, lam, gamma=expected_norm + 1e-9)
    assert exact_membership(inst, wide, data, theta)


def test_exact_membership_rejects_theta_outside_ball():
    inst = bern_instance()
    data = Dataset(np.zeros((0, 2)), np.zeros(0))
    state = _state(inst, 4.0, gamma=100.0)
    assert not exact_membership(inst, state, data, np.array([3.0, 0.0]))


def _weighted_rows(seed, R):
    rng = replicate_stream(seed, R)
    inst = exp_instance()
    theta = 0.5 * rng.random() * np.array([0.6, -0.8])
    counts = rng.integers(0, 40, (R, inst.n_arms)).astype(float)
    counts[:, 3] = 0.0  # an arm never played
    return inst, theta, counts, 3.0 * rng.standard_normal((R, inst.d))


def _kernel(inst, lam, theta, counts, g_hat):
    u = inst.arms @ theta
    base = inst.family.base
    g = lam * theta + np.vecmat(counts * base.mean_at(u), inst.arms)
    H = lam * np.eye(inst.d) + np.matmul(inst.arms.T * (counts * base.dmean_at(u))[:, None, :],
                                         inst.arms)
    return _exact_norms_sq(g, H, g_hat)


def test_exact_norms_sq_slices_are_the_one_replicate_calls():
    inst, theta, counts, g_hat = _weighted_rows(61, 3)
    q = _kernel(inst, 2.5, theta, counts, g_hat)
    for r in range(3):
        assert q[r] == _kernel(inst, 2.5, theta, counts[r:r + 1], g_hat[r:r + 1])[0]


def test_exact_membership_checks_the_dimension_before_the_norm():
    # a wrong-dimension theta outside the S0 ball is an error, not a point outside C_t
    inst = bern_instance()
    data = Dataset(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(InvalidArgumentError, match="theta has dim 5"):
        exact_membership(inst, _state(inst, 4.0, gamma=100.0), data, np.ones(5))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(dims=st.tuples(*[st.integers(1, 3)] * 4), n=st.sampled_from([0, 3]),
       seed=st.integers(0, 2**16))
def test_the_one_replicate_bandit_calls_check_every_dimension(dims, n, seed):
    # theta, theta_hat, the Hessian and the gradient map each of dimension 1, 2 or 3 against
    # a d = 2 instance: each call returns only when all four are 2, else raises a package error
    d_theta, d_hat, d_hess, d_grad = dims
    rng = replicate_stream(seed, 0)
    inst = bern_instance()
    data = Dataset(0.5 * rng.random((n, 2)), rng.random(n))
    state = ConfidenceState(theta_hat=0.1 * rng.random(d_hat), hessian_at_hat=np.eye(d_hess),
                            gradient_map_at_hat=rng.random(d_grad), lambda_T=1.0,
                            gamma_t=1.0)
    theta = 0.3 * rng.random(d_theta)
    state_ok = (d_hat, d_hess, d_grad) == (2, 2, 2)
    calls = [(lambda: optimistic_choice(inst, state), state_ok),
             (lambda: relaxed_membership(inst, state, theta), state_ok and d_theta == 2),
             (lambda: exact_membership(inst, state, data, theta), state_ok and d_theta == 2)]
    for call, valid in calls:
        try:
            call()
        except NefBanditError:
            assert not valid
        else:
            assert valid


def test_exact_membership_from_counts_agrees_with_the_row_sums():
    # the per-arm form reorders the sums of the row form, so it agrees to rounding
    lam = 2.5
    inst, theta, counts, g_hat = _weighted_rows(62, 4)
    base = inst.family.base
    q = _kernel(inst, lam, theta, counts, g_hat)
    for r in range(4):
        X = np.repeat(inst.arms, counts[r].astype(int), axis=0)
        X = X[replicate_stream(63, r).permutation(len(X))]  # a history with repeated rows
        u = X @ theta
        w = lam * theta + X.T @ base.mean_at(u) - g_hat[r]
        H = lam * np.eye(inst.d) + (X * base.dmean_at(u)[:, None]).T @ X
        direct = float(w @ np.linalg.solve(H, w))
        assert q[r] == pytest.approx(direct, rel=1e-10)
        data = Dataset(X, np.ones(len(X)))
        for scale, inside in ((1 + 1e-9, True), (1 - 1e-9, False)):
            state = ConfidenceState(theta_hat=np.zeros(inst.d),
                                    hessian_at_hat=H, gradient_map_at_hat=g_hat[r],
                                    lambda_T=lam, gamma_t=math.sqrt(direct * scale))
            assert exact_membership(inst, state, data, theta) is inside


def test_exact_membership_names_the_data_row_off_the_domain():
    inst = make_instance(Exponential(1.0), circle_arms(), np.array([0.5, 0.0]), S0=2.0,
                         S1=0.5, S2=-0.5)
    data = Dataset(inst.arms[[3, 0, 0, 3]], np.ones(4))
    state = _state(inst, 2.0, gamma=1.0)
    with pytest.raises(DomainError, match="row 1 leaves"):
        exact_membership(inst, state, data, np.array([1.5, 0.0]))


@pytest.mark.parametrize("gamma, lam", [(0.0, 1.0), (-1.0, 2.0), (math.nan, 2.0), (1.0, 0.5)])
def test_confidence_state_needs_a_positive_radius_and_lambda_at_least_one(gamma, lam):
    with pytest.raises(InvalidArgumentError, match="need gamma_t > 0 and lambda_T >= 1"):
        ConfidenceState(theta_hat=np.zeros(2), hessian_at_hat=np.eye(2),
                        gradient_map_at_hat=np.zeros(2), lambda_T=lam, gamma_t=gamma)


@pytest.mark.parametrize("field", ["theta_hat", "hessian_at_hat", "gradient_map_at_hat"])
@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
def test_confidence_state_rejects_an_array_that_is_not_finite_by_its_field(field, value):
    arrays = {"theta_hat": np.zeros(2), "hessian_at_hat": np.eye(2),
              "gradient_map_at_hat": np.zeros(2)}
    arrays[field].flat[-1] = value
    with pytest.raises(InvalidArgumentError, match=f"{field} must not contain infs or NaNs") \
            as info:
        ConfidenceState(**arrays, lambda_T=1.0, gamma_t=1.0)
    assert info.value.name == field


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
def test_optimistic_choice_on_a_hessian_that_is_not_finite_is_an_argument_error(value):
    inst = bern_instance()
    H = 2.0 * np.eye(2)
    H[1, 0] = value
    with pytest.raises(InvalidArgumentError, match="infs or NaNs"):
        optimistic_choice(inst, _state(inst, 2.0, gamma=1.0, H=H))


def test_array_records_compare_and_hash_by_identity():
    inst = make_instance(Poisson(1.0), ARMS3, THETA3)
    data = Dataset(ARMS3, [0.0, 2.0, 1.0])
    fit = fit_mle(inst.family, data, 2.0)
    state = ConfidenceState(theta_hat=fit.theta_hat, hessian_at_hat=fit.hessian_at_hat,
                            gradient_map_at_hat=fit.gradient_map_at_hat, lambda_T=2.0,
                            gamma_t=1.0)
    for record in (inst, state, data, fit):
        twin = pickle.loads(pickle.dumps(record))
        assert record == record and record != twin
        assert hash(record) == hash(record)


def test_optimistic_choice_single_arm():
    inst = make_instance(Bernoulli(0.5), np.array([[0.4, 0.2]]), THETA3)
    arm, value = optimistic_choice(inst, _state(inst, 2.0, gamma=1.0))
    assert arm == 0


def test_optimistic_choice_cold_start_prefers_long_arms():
    arms = np.array([[0.3, 0.0], [0.0, 0.9], [0.5, 0.5]])
    inst = make_instance(Bernoulli(0.5), arms, np.array([0.0, 0.1]))
    lam, gamma = 3.0, 2.0
    arm, value = optimistic_choice(inst, _state(inst, lam, gamma))
    assert arm == 1  # max Euclidean norm wins when H = lam I and theta_hat = 0
    assert value == pytest.approx(inst.diameter_factor * gamma * 0.9 / math.sqrt(lam),
                                  rel=1e-12)


def test_optimistic_choice_exploit_term_breaks_symmetry():
    arms = np.eye(2)
    inst = make_instance(Bernoulli(0.5), arms, np.array([0.2, 0.1]), S0=4.0)
    state = _state(inst, 2.0, gamma=1.0, theta_hat=np.array([3.0, 0.0]))
    arm, _ = optimistic_choice(inst, state)
    assert arm == 0


TIED_ARMS = np.array([[0.0, 1.0], [1.0, 0.0], [0.6, 0.64], [1.0, 0.0]])  # arm 3 repeats arm 1


@pytest.mark.parametrize("base", [Bernoulli(0.5), Exponential(1.0)], ids=lambda b: b.kind)
def test_an_exact_index_tie_goes_to_the_lowest_arm(base):
    # arms 1 and 3 are the same best arm: their indices tie bit for bit, and the
    # lowest-index rule, part of the rounds.csv byte contract, never plays arm 3
    inst = make_instance(base, TIED_ARMS, THETA3)
    rng = replicate_stream(71, 0)
    theta_hat = THETA3 + 0.05 * rng.standard_normal((20, 2))
    A = rng.standard_normal((20, 2, 2))
    H = A @ A.mT + 2.0 * np.eye(2)
    idx = _optimistic_indices(theta_hat, H, inst.diameter_factor * 0.1, inst.arms,
                              inst.arms.T[None])
    assert idx[:, 1].tobytes() == idx[:, 3].tobytes()
    assert (idx.argmax(axis=1) == 1).all()
    for r in range(20):
        state = _state(inst, 2.0, gamma=0.1, theta_hat=theta_hat[r], H=H[r])
        assert optimistic_choice(inst, state) == (1, float(idx[r, 1]))
    runs = run_replicates(inst, 200, 0.1, 0, range(20))
    assert not any(res.aborted for res in runs)
    arms_played = np.array([[r.arm for r in res.rounds] for res in runs])
    assert (arms_played == 1).any() and not (arms_played == 3).any()


# Properties over random per-arm data on the benchmark's two instances.  Hypothesis
# draws the plays of each arm (at most T - 1 in all) and a seed; each reward is the
# model's draw at x_a' theta_star from one uniform of that seed's stream.
PROPERTY_CONFIGS = ["golden_config.json", "coverage_config.json"]
_PROPERTY_INSTANCES = {}


def _property_instance(name):
    if name not in _PROPERTY_INSTANCES:
        cfg = load_config(Path(__file__).parent / "data" / name)
        _PROPERTY_INSTANCES[name] = cfg, build_instance(cfg)
    return _PROPERTY_INSTANCES[name]


def _per_arm_fit(name, draw):
    """A drawn history of the named instance and the confidence state fitted on it."""
    cfg, inst = _property_instance(name)
    most = (cfg.horizon - 1) // inst.n_arms
    counts = draw(st.lists(st.integers(0, most), min_size=inst.n_arms, max_size=inst.n_arms))
    X = np.repeat(inst.arms, counts, axis=0)
    uniforms = replicate_stream(draw(st.integers(0, 2**32 - 1))).random(len(X))
    data = Dataset(X, inst.family.base.tilted_inverse_cdf(X @ inst.theta_star, uniforms))
    lam, t = regularizer_schedule(inst, cfg.horizon, cfg.delta), len(X) + 1
    fit = fit_mle(inst.family, data, lam)
    state = ConfidenceState(theta_hat=fit.theta_hat, hessian_at_hat=fit.hessian_at_hat,
                            gradient_map_at_hat=fit.gradient_map_at_hat, lambda_T=lam,
                            gamma_t=confidence_radius(inst, t, cfg.horizon, cfg.delta, lam=lam))
    return inst, data, state


@pytest.mark.parametrize("name", PROPERTY_CONFIGS)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(draw=st.data())
def test_theta_hat_lies_in_its_own_exact_set(name, draw):
    inst, data, state = _per_arm_fit(name, draw.draw)
    if np.linalg.norm(state.theta_hat) <= inst.S0:
        assert exact_membership(inst, state, data, state.theta_hat)


@pytest.mark.parametrize("name", PROPERTY_CONFIGS)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(draw=st.data())
def test_relaxed_set_contains_the_exact_set_in_the_ball(name, draw):
    # theta = (1 - s) theta_hat + s v for v anywhere in the S0 ball: s = 1 reaches the
    # whole ball, small s the neighbourhood of theta_hat where the exact set lives
    inst, data, state = _per_arm_fit(name, draw.draw)
    assert inst.d == 2
    for angle, radius, s in draw.draw(st.lists(
            st.tuples(st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
            min_size=1, max_size=50)):
        v = inst.S0 * radius * np.array([math.cos(angle), math.sin(angle)])
        theta = (1.0 - s) * state.theta_hat + s * v
        if np.linalg.norm(theta) <= inst.S0 and exact_membership(inst, state, data, theta):
            assert relaxed_membership(inst, state, theta)


def test_relaxed_contains_exact_on_logged_rounds():
    inst = bern_instance()
    res = run_ofu_glb(inst, 80, 0.1, seed=3)
    assert not res.aborted
    for r in res.rounds:
        assert (not r.exact_cover) or r.relaxed_cover


def test_exact_set_pairs_obey_diameter_cap():
    inst = bern_instance()
    T, delta = 40, 0.1
    lam = regularizer_schedule(inst, T, delta)
    res = run_ofu_glb(inst, T, delta, seed=9)
    X = np.array([inst.arms[r.arm] for r in res.rounds])
    y = np.array([r.reward for r in res.rounds])
    data = Dataset(X, y)
    from nefbandit.glm import fit_mle, hessian
    fit = fit_mle(inst.family, data, lam)
    gamma = confidence_radius(inst, T, T, delta)
    state = ConfidenceState(theta_hat=fit.theta_hat, hessian_at_hat=fit.hessian_at_hat,
                            gradient_map_at_hat=fit.gradient_map_at_hat, lambda_T=lam, gamma_t=gamma)
    rng = replicate_stream(77, 0)
    members = []
    for _ in range(200):
        v = rng.standard_normal(2)
        theta = inst.S0 * rng.random() ** 0.5 * v / np.linalg.norm(v)
        if exact_membership(inst, state, data, theta):
            members.append(theta)
    assert len(members) >= 2
    cap = 2.0 * inst.diameter_factor * gamma + 1e-8
    for i in range(len(members)):
        Hi = hessian(inst.family, data, lam, members[i])
        for j in range(i + 1, len(members)):
            gap = members[i] - members[j]
            assert math.sqrt(float(gap @ Hi @ gap)) <= cap


# ---------------------------------------------------------------------------
# round loop
# ---------------------------------------------------------------------------

def test_run_deterministic_given_seed():
    inst = bern_instance()
    a = run_ofu_glb(inst, 60, 0.1, seed=11, replicate=2)
    b = run_ofu_glb(inst, 60, 0.1, seed=11, replicate=2)
    assert a == b
    c = run_ofu_glb(inst, 60, 0.1, seed=11, replicate=3)
    assert a != c


def test_run_zero_regret_when_all_arms_share_the_mean():
    inst = make_instance(Gaussian(1.0), circle_arms(6), np.zeros(2))
    res = run_ofu_glb(inst, 50, 0.1, seed=2)
    assert res.cum_regret == 0.0
    assert all(r.inst_regret == 0.0 for r in res.rounds)


def test_run_point_mass_rewards_short_circuit():
    inst = make_instance(DiscreteAtoms(((2.0, 1.0),)), circle_arms(5), np.array([0.3, 0.1]))
    assert inst.K == 0.0
    res = run_ofu_glb(inst, 30, 0.1, seed=4)
    assert not res.aborted
    assert res.cum_regret == 0.0
    assert all(r.reward == 2.0 for r in res.rounds)
    assert all(r.exact_cover and r.relaxed_cover for r in res.rounds)


def test_run_cumulative_regret_is_nondecreasing():
    inst = exp_instance()
    res = run_ofu_glb(inst, 150, 0.05, seed=5)
    cums = [r.cum_regret for r in res.rounds]
    assert all(b >= a - 1e-12 for a, b in zip(cums, cums[1:]))
    assert [r.t for r in res.rounds] == list(range(1, 151))


@pytest.mark.slow
def test_run_exponential_regret_curve_flattens():
    # the average per-round regret over 2000 rounds sits below the average
    # over the first 500, averaged across three replicates
    inst = exp_instance()
    r500, r2000 = 0.0, 0.0
    for k in range(3):
        res = run_ofu_glb(inst, 2000, 0.05, seed=2024, replicate=k)
        assert res.all_rounds_covered
        r500 += res.rounds[499].cum_regret
        r2000 += res.cum_regret
    assert r2000 / 2000.0 < r500 / 500.0


@pytest.mark.slow
def test_golden_replicate_zero_is_pinned():
    # pins every float of the round loop: any change to the fit, the
    # Cholesky solves or the order of a floating-point sum moves these
    from nefbandit.config import build_instance, load_config
    cfg = load_config(Path(__file__).parent / "data" / "golden_config.json")
    res = run_ofu_glb(build_instance(cfg), cfg.horizon, cfg.delta, seed=cfg.seed,
                      replicate=0, lam_override=cfg.lam)
    assert cfg.seed == 20240 and cfg.horizon == 2000 and not res.aborted
    counts = np.bincount([r.arm for r in res.rounds], minlength=10)
    assert counts.tolist() == [3, 594, 574, 0, 0, 0, 0, 0, 20, 809]
    assert res.cum_regret == 935.4130886010116


@pytest.mark.slow
def test_golden_rounds_csv_match_the_benchmark_reference():
    # reads the benchmark's pinned sha256 values, so byte drift shows without a benchmark run
    from nefbandit.config import build_instance, load_config
    tests = Path(__file__).parent
    expected = json.loads((tests.parent / "perfbench" / "reference.json").read_text())["golden"]
    cfg = load_config(tests / "data" / "golden_config.json")
    inst, picked = build_instance(cfg), [0, 7, 49]
    batch = run_replicates(inst, cfg.horizon, cfg.delta, cfg.seed, picked, cfg.lam)
    for k, together in zip(picked, batch):
        alone = run_ofu_glb(inst, cfg.horizon, cfg.delta, seed=cfg.seed, replicate=k,
                            lam_override=cfg.lam)
        for res in (alone, together):
            assert hashlib.sha256(rounds_to_csv(res.rounds).encode()).hexdigest() == expected[k]


# ---------------------------------------------------------------------------
# lockstep replicates: every replicate's bytes are independent of its batch
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Walled(Gaussian):
    """N(u, 1) whose loss term is +inf from u = 1 on while its mean map knows no wall,
    and whose draw is 20 for its lowest 2% of uniforms: the fit then creeps up to the
    wall until no step length stays finite, so that replicate aborts mid-run."""

    def log_mgf(self, u):
        u = np.asarray(u, dtype=float)
        return np.where(u < 1.0, super().log_mgf(u), np.inf)

    def tilted_inverse_cdf(self, u, p):  # one uniform per reward, as every kind
        return np.where(p < 0.02, 20.0, super().tilted_inverse_cdf(u, p))


@dataclass(frozen=True)
class _Heavy(Exponential):
    """Exponential whose draw is 100 for its lowest 30% of uniforms: warm starts leave
    the domain."""

    def tilted_inverse_cdf(self, u, p):
        return np.where(p < 0.3, 100.0, super().tilted_inverse_cdf(u, p))


BATCH_CASES = {
    "bernoulli": (Bernoulli(0.5), ARMS3, THETA3),
    "gaussian": (Gaussian(1.0), circle_arms(6), [0.3, 0.2]),
    "exponential": (Exponential(1.0), circle_arms(), [0.5, 0.0]),
    "poisson": (Poisson(2.0), 0.8 * circle_arms(5), [0.2, 0.4]),
    "gamma": (Gamma(2.0, 1.0), circle_arms(7), [0.25, -0.1]),
    "atoms": (DiscreteAtoms(((0.0, 0.3), (1.0, 0.5), (2.5, 0.2))), circle_arms(4), [0.5, 0.5]),
    "point_mass": (DiscreteAtoms(((2.0, 1.0),)), circle_arms(5), [0.3, 0.1]),
}


def _assert_batch_invariant(inst, T, seed, lam=None, replicates=range(5)):
    batch = run_replicates(inst, T, 0.1, seed, replicates, lam_override=lam)
    for k, res in zip(replicates, batch):
        alone = run_ofu_glb(inst, T, 0.1, seed=seed, replicate=k, lam_override=lam)
        assert rounds_to_csv(res.rounds) == rounds_to_csv(alone.rounds)
        assert res == alone
    return batch


@pytest.mark.parametrize("kind", sorted(BATCH_CASES))
def test_run_replicates_matches_replicate_by_replicate_runs(kind):
    base, arms, theta = BATCH_CASES[kind]
    batch = _assert_batch_invariant(make_instance(base, arms, np.array(theta)), 60, 3)
    assert all(len(r.rounds) == 60 and not r.aborted for r in batch)


ZERO_ARMS = np.array([[1.0, -0.0], [0.0, 0.0], [-0.6, 0.64], [-0.0, -1.0]])


@pytest.mark.parametrize("base", [Bernoulli(0.5), Exponential(1.0)], ids=lambda b: b.kind)
@pytest.mark.parametrize("arms, theta", [(ZERO_ARMS, [0.4, -0.3]),
                                         (np.array([[1.0], [-0.0], [0.0], [-0.7]]), [0.3])],
                         ids=["d2", "d1"])
def test_run_replicates_across_a_solve_chunk_edge_with_signed_zero_arms(base, arms, theta):
    # 17 replicates cross the edge of the 16-replicate block-diagonal solves
    batch = _assert_batch_invariant(make_instance(base, arms, np.array(theta)), 40, 5,
                                    replicates=range(17))
    assert all(len(r.rounds) == 40 and not r.aborted for r in batch)


@pytest.mark.slow
def test_golden_replicate_zero_diagnostics_alone_and_in_a_batch_of_17():
    cfg = load_config(Path(__file__).parent / "data" / "golden_config.json")
    inst, pinned = build_instance(cfg), FitCounts({0: 1, 1: 4, 2: 1795, 3: 200}, 0)
    alone = run_ofu_glb(inst, cfg.horizon, cfg.delta, seed=cfg.seed, lam_override=cfg.lam)
    batch = run_replicates(inst, cfg.horizon, cfg.delta, cfg.seed, range(17), cfg.lam)
    assert not alone.aborted and not any(r.aborted for r in batch)
    assert alone.diagnostics == batch[0].diagnostics == pinned
    assert all(sum(r.diagnostics.newton_iters.values()) == cfg.horizon for r in batch)


# 12-round runs (seed 1, lam 1) through the damped-Newton branches that no benchmark workload
# reaches: shortened steps and aborts (_Walled), and starts that fall back to the origin (_Heavy)
STEP_CASES = {
    "aborted": (_Walled(1.0), [[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]], [0.2, 0.1], 0.5, range(8)),
    "fallback": (_Heavy(1.0), circle_arms(8), [0.3, 0.1], None, range(6)),
}


@pytest.mark.parametrize("case", sorted(STEP_CASES))
def test_diagnostics_count_the_fits_of_the_logged_rounds(case, monkeypatch):
    # each logged round's fit, by its Newton iterations and fallback, in any batch; neither
    # equality nor rounds.csv reads the record
    base, arms, theta, S0, replicates = STEP_CASES[case]
    inst, calls = make_instance(base, arms, theta, S0=S0), _recorded_fits(monkeypatch)
    batch = run_replicates(inst, 12, 0.1, 1, replicates, lam_override=1.0)
    iters, fell_back = [collections.Counter() for _ in batch], [0] * len(batch)
    live = list(range(len(batch)))
    for n, (*_, fits) in enumerate(calls):
        for i, k in enumerate(live):
            if n < len(batch[k].rounds):
                iters[k][fits.iters[i]] += 1
                fell_back[k] += fits.fallback[i]
        live = [k for i, k in enumerate(live) if i not in fits.errors]
    assert any(r.aborted for r in batch) == (case == "aborted")
    assert (sum(fell_back) > 0) == (case == "fallback")
    for k, res in enumerate(batch):
        alone = run_ofu_glb(inst, 12, 0.1, seed=1, replicate=k, lam_override=1.0)
        assert res.diagnostics == alone.diagnostics == FitCounts(dict(iters[k]), fell_back[k])
        assert list(res.diagnostics.newton_iters) == sorted(iters[k])
        assert dataclasses.replace(res, diagnostics=None) == res


# each replicate's rounds.csv sha256 (first 16 hex digits), abort reason and FitCounts
STEP_PINS = {
    "aborted": [
        ("4baabba6a2dba3c4", "", FitCounts({0: 1, 1: 11}, 0)),
        ("9c38f0b5073d44b3", "round 12: no domain-feasible descent step found",
         FitCounts({0: 1, 1: 3, 60: 7}, 0)),
        ("4c08861ca59bd09b", "round 6: no domain-feasible descent step found",
         FitCounts({0: 1, 1: 4}, 0)),
        ("9cf70e68298048bf", "round 5: no domain-feasible descent step found",
         FitCounts({0: 1, 1: 3}, 0)),
        ("98365c2e7092e6cd", "round 10: no domain-feasible descent step found",
         FitCounts({0: 1, 1: 8}, 0)),
        ("91d5a5f34a0181a8", "", FitCounts({0: 1, 1: 11}, 0)),
        ("4b46109ae190e294", "", FitCounts({0: 1, 1: 11}, 0)),
        ("cb59f12f55b7c8fb", "round 4: no domain-feasible descent step found",
         FitCounts({0: 1, 1: 2}, 0)),
    ],
    "fallback": [
        ("dde0f179504df38a", "", FitCounts({0: 1, 3: 1, 4: 1, 5: 3, 6: 3, 7: 1, 8: 1, 9: 1}, 1)),
        ("e54f4ba240ed156c", "", FitCounts({0: 1, 2: 1, 3: 4, 4: 3, 6: 1, 7: 2}, 0)),
        ("8c6ed83c38a70ea6", "", FitCounts({0: 1, 4: 6, 5: 3, 7: 1, 10: 1}, 0)),
        ("4e9a4dc6fa7e682d", "", FitCounts({0: 1, 2: 1, 3: 4, 4: 2, 7: 1, 8: 2, 13: 1}, 1)),
        ("724485a5204d95cd", "", FitCounts({0: 1, 3: 2, 4: 3, 5: 3, 6: 3}, 0)),
        ("6bcf810db7c324cf", "", FitCounts({0: 1, 3: 3, 4: 3, 5: 2, 7: 1, 8: 1, 9: 1}, 1)),
    ],
}


@pytest.mark.parametrize("case", sorted(STEP_CASES))
def test_shortened_steps_aborts_and_fallbacks_keep_their_pinned_bytes(case):
    base, arms, theta, S0, replicates = STEP_CASES[case]
    inst = make_instance(base, arms, theta, S0=S0)
    batch = run_replicates(inst, 12, 0.1, 1, replicates, lam_override=1.0)
    for k, res in enumerate(batch):
        alone = run_ofu_glb(inst, 12, 0.1, seed=1, replicate=k, lam_override=1.0)
        for run in (res, alone):
            digest = hashlib.sha256(rounds_to_csv(run.rounds).encode()).hexdigest()[:16]
            assert (digest, run.abort_reason, run.diagnostics) == STEP_PINS[case][k], k


def test_no_descent_failures_keep_their_pinned_diagnostics(monkeypatch):
    # by replicate, in a batch and alone: the round and OptimizationError.diagnostics
    base, arms, theta, S0, replicates = STEP_CASES["aborted"]
    inst, calls = make_instance(base, arms, theta, S0=S0), _recorded_fits(monkeypatch)
    run_replicates(inst, 12, 0.1, 1, replicates, lam_override=1.0)
    failed = _fit_failures(calls, len(replicates))
    assert failed == {
        1: (12, {"iter": 0, "gradient_norm": 19.97178273254052,
                 "theta": [0.3568731843990632, 0.9823451117007024],
                 "step": [3.147177186306532, -0.11920043317085195]}),
        2: (6, {"iter": 27, "gradient_norm": 17.675408791025486,
                "theta": [0.9999999999999999, -0.6514672604503747],
                "step": [4.4188521977563715, -7.401486830834379e-17]}),
        3: (5, {"iter": 24, "gradient_norm": 16.668845114666585,
                "theta": [0.9999999999999996, -0.38483015909744117],
                "step": [5.093258229481456, -0.92604695081481]}),
        4: (10, {"iter": 27, "gradient_norm": 17.43398291296454,
                 "theta": [0.9999999999999998, 0.2177225883018822],
                 "step": [2.905663818827424, -0.0]}),
        7: (4, {"iter": 20, "gradient_norm": 18.615177256871913,
                "theta": [0.9999999999999999, -0.8778003341617372],
                "step": [6.205059085623972, -2.2204460492503126e-16]}),
    }
    for k in failed:
        calls.clear()
        run_ofu_glb(inst, 12, 0.1, seed=1, replicate=k, lam_override=1.0)
        assert _fit_failures(calls, 1) == {0: failed[k]}


def test_run_replicates_abort_keeps_its_reason_and_spares_the_others():
    inst = make_instance(_Walled(1.0), np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]]),
                         np.array([0.2, 0.1]), S0=0.5)
    batch = _assert_batch_invariant(inst, 12, 1, lam=1.0, replicates=range(8))
    assert [(k, len(r.rounds), r.abort_reason) for k, r in enumerate(batch) if r.aborted] == [
        (1, 11, "round 12: no domain-feasible descent step found"),
        (2, 5, "round 6: no domain-feasible descent step found"),
        (3, 4, "round 5: no domain-feasible descent step found"),
        (4, 9, "round 10: no domain-feasible descent step found"),
        (7, 3, "round 4: no domain-feasible descent step found")]
    spared = [0, 5, 6]
    survivors = run_replicates(inst, 12, 0.1, 1, spared, lam_override=1.0)
    assert [rounds_to_csv(r.rounds) for r in survivors] == \
        [rounds_to_csv(batch[k].rounds) for k in spared]


def test_run_replicates_hessian_factorization_failure_aborts_only_its_replicate(monkeypatch):
    import nefbandit.glm as glm

    inst = make_instance(Exponential(1.0), circle_arms(), np.array([0.5, 0.0]))
    clean = run_replicates(inst, 12, 0.1, 3, range(3))
    real = glm._hessians

    def broken(X, lam_eye, w):
        H = real(X, lam_eye, w)
        if X.shape[:2] == (3, 5):  # round 6 of all three: replicate 1's Hessian is not PD
            H[1] = -H[1]
        return H

    monkeypatch.setattr(glm, "_hessians", broken)
    calls = _recorded_fits(monkeypatch)
    batch = run_replicates(inst, 12, 0.1, 3, range(3))
    assert batch[1].aborted and batch[1].abort_reason.startswith(
        "round 6: Hessian factorization failed")
    assert batch[1].rounds == clean[1].rounds[:5]
    assert [batch[0], batch[2]] == [clean[0], clean[2]]
    assert _fit_failures(calls, 3) == {
        1: (6, {"iter": 0, "theta": [0.023929361496221633, 0.004520270202996619]})}


def test_a_replicate_whose_hessian_does_not_factor_takes_no_newton_iteration(monkeypatch):
    # the failed replicate leaves that iteration's line search: its own point is not
    # evaluated again, accepted and counted as an iteration
    import nefbandit.glm as glm

    real = glm._hessians

    def broken(X, lam_eye, w):
        H = real(X, lam_eye, w)
        if X.shape[:2] == (3, 5):  # round 6 of all three: replicate 1's Hessian is not PD
            H[1] = -H[1]
        return H

    monkeypatch.setattr(glm, "_hessians", broken)
    calls = _recorded_fits(monkeypatch)
    run_replicates(exp_instance(), 12, 0.1, 3, range(3))
    failed = [(fits.iters[i], exc.diagnostics["iter"]) for *_, fits in calls
              for i, exc in fits.errors.items()]
    assert failed == [(0, 0)]


def test_run_replicates_warm_start_falls_back_per_replicate(monkeypatch):
    import nefbandit.bandit as bandit

    fell_back = []
    real = bandit._fit_stack

    def recording(*args):
        fits = real(*args)
        fell_back.append(sum(fits.fallback))
        return fits

    monkeypatch.setattr(bandit, "_fit_stack", recording)
    inst = make_instance(_Heavy(1.0), circle_arms(8), np.array([0.3, 0.1]))
    _assert_batch_invariant(inst, 60, 4, lam=1.0, replicates=range(6))
    assert sum(fell_back) > 0


def _recorded_fits(monkeypatch):
    """The (rows, rewards, ridge weight, fit) of each ``_fit_stack`` call, in call order."""
    import nefbandit.bandit as bandit

    calls = []
    real = bandit._fit_stack

    def recording(family, X, y, lam, lam_eye, init):
        fits = real(family, X, y, lam, lam_eye, init)
        calls.append((X.copy(), y.copy(), lam, fits))
        return fits

    monkeypatch.setattr(bandit, "_fit_stack", recording)
    return calls


def _fit_failures(calls, R: int) -> dict:
    """{replicate: (round, OptimizationError.diagnostics)} of the failed fits among the
    ``_recorded_fits`` calls of one run of R replicates."""
    live, failed = list(range(R)), {}
    for n, (*_, fits) in enumerate(calls):
        failed.update({live[i]: (n + 1, exc.diagnostics) for i, exc in fits.errors.items()})
        live = [k for i, k in enumerate(live) if i not in fits.errors]
    return failed


VERDICT_CASES = {
    "exponential": (Exponential(1.0), circle_arms(), [0.5, 0.0], None, range(3)),
    "bernoulli": (Bernoulli(0.5), ARMS3, THETA3, None, range(3)),
    "poisson": (Poisson(2.0), 0.8 * circle_arms(5), [0.2, 0.4], None, range(3)),
    "atoms": (DiscreteAtoms(((0.0, 0.3), (1.0, 0.5), (2.5, 0.2))), circle_arms(4), [0.5, 0.5],
              None, range(3)),
    # replicates 1 to 4 abort, at rounds 12, 6, 5 and 10 (see the abort test)
    "aborted": (_Walled(1.0), np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]]), [0.2, 0.1], 1.0,
                range(5)),
}


@pytest.mark.parametrize("case", sorted(VERDICT_CASES))
def test_logged_cover_verdicts_are_the_per_round_membership_verdicts(case, monkeypatch):
    # each logged verdict is the public membership test on that round's fit and the history
    # before the round; the pass's statistic is ||g - g_hat||^2 in H^-1 from the public g and
    # H at theta_star on that history (the round's own play not counted)
    import nefbandit.bandit as bandit

    base, arms, theta, lam, replicates = VERDICT_CASES[case]
    inst = make_instance(base, arms, np.array(theta), S0=0.5 if lam else None)
    calls, stats = _recorded_fits(monkeypatch), []
    real = bandit._exact_norms_sq

    def recording(g, H, g_hat):
        stats.append(real(g, H, g_hat))
        return stats[-1]

    monkeypatch.setattr(bandit, "_exact_norms_sq", recording)
    batch = run_replicates(inst, 12, 0.1, 1, replicates, lam_override=lam)
    q = stats[0]  # the pass over every (replicate, round)
    live, checked = list(range(len(batch))), 0
    for n, (X, y, lam_n, fits) in enumerate(calls):
        gamma = confidence_radius(inst, n + 1, 12, 0.1, lam=lam_n)
        for i, k in enumerate(live):
            if i in fits.errors:
                continue
            state = ConfidenceState(fits.theta[i], fits.H[i], fits.g[i], lam_n, gamma)
            data, logged = Dataset(X[i], y[i]), batch[k].rounds[n]
            assert logged.exact_cover == exact_membership(inst, state, data, inst.theta_star)
            assert logged.relaxed_cover == relaxed_membership(inst, state, inst.theta_star)
            w = gradient_map(inst.family, data, lam_n, inst.theta_star) - fits.g[i]
            H = hessian(inst.family, data, lam_n, inst.theta_star)
            assert q[k, n] == pytest.approx(w @ np.linalg.solve(H, w), rel=1e-9), (k, n)
            checked += 1
        live = [k for i, k in enumerate(live) if i not in fits.errors]
    assert checked == sum(len(r.rounds) for r in batch)
    assert any(r.aborted for r in batch) == (case == "aborted")


def test_the_fit_reads_contiguous_stacks_in_a_coverage_run(monkeypatch):
    # the round loop's history prefixes are strided; the fit copies them once, so every
    # Hessian and curve evaluation of a 10-replicate coverage run gets C-contiguous arrays
    import nefbandit.glm as glm

    cfg = load_config(Path(__file__).parent / "data" / "coverage_config.json")
    inst, seen = build_instance(cfg), collections.Counter()
    real_hessians, real_curve = glm._hessians, Bernoulli._curve

    def check(name, *args):
        arrays = [a for a in args if isinstance(a, np.ndarray)]
        seen[name] += 1
        assert arrays and all(a.flags.c_contiguous for a in arrays), name

    def hessians(X, lam_eye, w):
        check("_hessians", X, lam_eye, w)
        return real_hessians(X, lam_eye, w)

    def curve(self, u):
        check("_curve", u)
        return real_curve(self, u)

    monkeypatch.setattr(glm, "_hessians", hessians)
    monkeypatch.setattr(Bernoulli, "_curve", curve)
    batch = run_replicates(inst, cfg.horizon, cfg.delta, cfg.seed, range(10))
    assert all(len(r.rounds) == cfg.horizon for r in batch)
    assert seen["_hessians"] > cfg.horizon and seen["_curve"] > cfg.horizon


@pytest.mark.parametrize("field, at, value", [
    ("g", (1, 0), math.nan),      # compares False against every radius
    ("H", (1, 0, 0), math.nan),   # a NaN pivot: the index solve gives NaN indices
    ("H", (1, 0, 1), math.nan),   # upper triangle, which the solve never reads
    ("H", (1, 1, 1), math.inf),   # an inf pivot factors, with a meaningless index
    ("theta", (1, 0), math.nan),  # the index is NaN and the next fit starts at the origin
], ids=["nan_gradient_map", "nan_diagonal", "nan_upper", "inf_diagonal", "nan_theta"])
def test_run_replicates_rejects_a_fit_that_is_not_finite(field, at, value, monkeypatch):
    # the round loop does not check its fits; the pass after it does, so a non-finite
    # estimate, gradient map or Hessian raises instead of logging a False verdict
    import nefbandit.bandit as bandit

    real = bandit._fit_stack
    rounds = []

    def poisoned(*args):
        fits = real(*args)
        rounds.append(None)
        if len(rounds) == 7:
            getattr(fits, field)[at] = value  # replicate 1, round 7
        return fits

    monkeypatch.setattr(bandit, "_fit_stack", poisoned)
    with pytest.raises(InvalidArgumentError, match="infs or NaNs"):
        run_replicates(exp_instance(), 12, 0.1, 3, range(3))


# ---------------------------------------------------------------------------
# bound terms
# ---------------------------------------------------------------------------

def test_bound_zero_stretch_collapses_second_order_terms():
    inst = make_instance(DiscreteAtoms(((2.0, 1.0),)), circle_arms(5), np.array([0.3, 0.1]))
    b = theoretical_regret_bound(inst, 100, 0.1)
    assert inst.K == 0.0 and b.c == 1.0
    assert b.term2 == 0.0 and b.term3 == 0.0
    assert b.total == b.term1


def test_bound_concrete_instance_and_term_formulas():
    inst = exp_instance()
    T, delta = 500, 0.05
    b = theoretical_regret_bound(inst, T, delta)
    lam, g = b.lambda_T, b.gamma_T
    c = 1.0 + 2.0 * inst.K * (inst.S1 - inst.S2)
    lg = math.log(1.0 + inst.L * T / (inst.d * lam))
    assert b.c == pytest.approx(c)
    assert b.mu_dot_star == pytest.approx(4.0, rel=1e-9)
    assert b.kappa == pytest.approx(0.25, rel=1e-9)
    assert b.term1 == pytest.approx(
        8 * c * g * math.sqrt(inst.d * 4.0 * (1 + inst.L / lam) * lg * T), rel=1e-12)
    assert b.term2 == pytest.approx(
        8 * c**2 * g**2 * inst.L**2 * inst.K * 0.25 * math.log(lam + T / inst.d), rel=1e-12)
    assert b.term3 == pytest.approx(
        32 * c**2 * g**2 * inst.K * inst.d * (1 + inst.L / lam) * lg, rel=1e-12)
    assert b.total == pytest.approx(b.term1 + b.term2 + b.term3)


def test_bound_of_a_best_arm_whose_variance_underflows_is_infinite():
    # mu'(750) = e^-750 / (1 + e^-750)^2 is 0.0 in float for Bernoulli(0.5): kappa = 1/mu' is
    # +inf, and so are the kappa-weighted term2 and the total, with K > 0 as with K = 0
    inst = make_instance(Bernoulli(0.5), np.eye(2), np.array([750.0, 0.0]))
    b = theoretical_regret_bound(inst, 20, 0.05)
    assert inst.K > 0.0 and b.mu_dot_star == 0.0
    assert b.kappa == b.term2 == b.total == math.inf
    assert math.isfinite(b.term1) and math.isfinite(b.term3)


def test_bound_squares_beyond_float_range_are_infinite():
    # L * L is +inf, where L**2 raised OverflowError
    inst = make_instance(Bernoulli(0.5), ARMS3, THETA3, L=1e200)
    b = theoretical_regret_bound(inst, 40, 0.1)
    assert b.term2 == b.total == math.inf and math.isfinite(b.term1)


def test_bound_total_nondecreasing_in_horizon():
    inst = exp_instance()
    totals = [theoretical_regret_bound(inst, T, 0.05).total for T in (50, 200, 1000, 5000)]
    assert all(b >= a for a, b in zip(totals, totals[1:]))


def test_bound_dominates_covered_short_run():
    inst = exp_instance()
    res = run_ofu_glb(inst, 300, 0.05, seed=21)
    if res.all_rounds_covered:
        assert res.cum_regret <= theoretical_regret_bound(inst, 300, 0.05).total


# ---------------------------------------------------------------------------
# elliptical potential and self-bounding checks
# ---------------------------------------------------------------------------

def test_elliptical_potential_empty():
    out = elliptical_potential_check(np.zeros((0, 3)), 1.0, 1.0)
    assert out["lhs"] == 0.0 and out["rhs"] == 0.0 and out["ok"]


@pytest.mark.parametrize("vectors", [[], [[]], np.zeros((3, 0))])
def test_elliptical_potential_needs_a_dimension(vectors):
    with pytest.raises(InvalidArgumentError, match=r"\(0, d\)"):
        elliptical_potential_check(vectors, 1.0, 1.0)


RIDGE_CALLS = {
    "confidence_radius": lambda lam: confidence_radius(bern_instance(), 5, 10, 0.1, lam=lam),
    "theoretical_regret_bound": lambda lam: theoretical_regret_bound(bern_instance(), 10, 0.1,
                                                                     lam=lam),
    "elliptical_potential_check": lambda lam: elliptical_potential_check(np.eye(2), lam, 1.0),
    # checked before the first fit: a warning from the fit would fail the test
    "run_ofu_glb": lambda lam: run_ofu_glb(bern_instance(), 5, 0.1, lam_override=lam),
}


@pytest.mark.parametrize("call", RIDGE_CALLS.values(), ids=RIDGE_CALLS)
def test_ridge_weight_must_be_finite_and_positive(call):
    for lam in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(InvalidArgumentError, match="ridge weight") as info:
            call(lam)
        assert info.value.name == "lambda"
    call(0.5)


DELTA_CALLS = {
    "confidence_radius": lambda inst, delta: confidence_radius(inst, 3, 5, delta, lam=1.0),
    "run_replicates": lambda inst, delta: run_replicates(inst, 5, delta, 0, [0],
                                                         lam_override=1.0),
}


@pytest.mark.parametrize("delta", [0.0, -1.0, 2.0, math.nan])
@pytest.mark.parametrize("call", DELTA_CALLS.values(), ids=DELTA_CALLS)
def test_an_explicit_ridge_weight_still_needs_delta_in_0_1(call, delta):
    # regularizer_schedule's rule holds when lam is given and the schedule is skipped
    inst = make_instance(Bernoulli(0.5), np.eye(2), np.array([0.4, -0.3]))
    with pytest.raises(InvalidArgumentError, match="delta") as info:
        call(inst, delta)
    assert info.value.name == "delta"
    call(inst, 1.0)


RUN_LENGTH_CALLS = {
    "regularizer_schedule": lambda inst, T: regularizer_schedule(inst, T, 0.1),
    "theoretical_regret_bound": lambda inst, T: theoretical_regret_bound(inst, T, 0.1, lam=1.0),
    "run_replicates": lambda inst, T: run_replicates(inst, T, 0.05, 0, [0], lam_override=1.0),
}


@pytest.mark.parametrize("T", [0, -3, 2.5, math.nan, "5"])
@pytest.mark.parametrize("call", RUN_LENGTH_CALLS.values(), ids=RUN_LENGTH_CALLS)
def test_every_run_length_is_an_integer_at_least_one(call, T):
    # one rule for T, with or without an explicit ridge weight, checked before any draw
    inst = bern_instance()
    with pytest.raises(InvalidArgumentError, match="integer T >= 1") as info:
        call(inst, T)
    assert info.value.name == "T"
    call(inst, np.int64(3))


def test_confidence_radius_needs_t_in_1_to_T():
    inst = bern_instance()
    for t, T in ((0, 5), (6, 5), (-1, 5)):
        with pytest.raises(InvalidArgumentError, match="1 <= t <= T"):
            confidence_radius(inst, t, T, 0.1)
    with pytest.raises(InvalidArgumentError, match="integer T") as info:
        confidence_radius(inst, 1, 2.5, 0.1, lam=1.0)
    assert info.value.name == "T"


@pytest.mark.parametrize("t", [1.5, 0, 6, np.float64(2.0)])
def test_confidence_radius_takes_t_by_the_run_length_rule(t):
    # the integer rule of T, applied to t, with t <= T
    with pytest.raises(InvalidArgumentError, match="integer t with 1 <= t <= T") as info:
        confidence_radius(bern_instance(), t, 5, 0.1)
    assert info.value.name == "t"
    assert confidence_radius(bern_instance(), np.int64(5), 5, 0.1) \
        == confidence_radius(bern_instance(), 5, 5, 0.1)


def test_replicate_stream_needs_an_integer_seed_and_a_nonnegative_replicate():
    for seed in (1.5, "7", True):
        with pytest.raises(InvalidArgumentError, match="seed must be an integer"):
            replicate_stream(seed, 0)
    for replicate in (-1, 1.0):
        with pytest.raises(InvalidArgumentError, match="replicate index"):
            replicate_stream(0, replicate)


@pytest.mark.parametrize("call", RUN_LENGTH_CALLS.values(), ids=RUN_LENGTH_CALLS)
def test_a_bool_run_length_is_not_a_count(call):
    with pytest.raises(InvalidArgumentError, match="integer T >= 1") as info:
        call(bern_instance(), True)
    assert info.value.name == "T"


@pytest.mark.parametrize("call, name", [
    (lambda: confidence_radius(bern_instance(), True, 5, 0.1), "t"),
    (lambda: replicate_stream(0, True), "replicate"),
    (lambda: replicate_stream(True, 0), "seed"),
    (lambda: replicate_stream(0, np.float64(1.0)), "replicate"),
], ids=["t", "replicate", "seed", "float_replicate"])
def test_a_bool_or_float_count_is_an_argument_error_named_by_its_argument(call, name):
    with pytest.raises(InvalidArgumentError) as info:
        call()
    assert info.value.name == name


def test_self_bounding_rejects_an_endpoint_outside_the_range():
    fam = NefFamily(Bernoulli(0.5), -2.0, 2.0)
    for b in (2.5, -3.0, math.nan):
        with pytest.raises(DomainError, match="endpoint"):
            self_bounding_check(fam, [-2.0], b, K=1.0)


SQUARE = [[1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("arms, theta, name", [
    (np.zeros((0, 2)), [0.5, 0.0], "arms"), ([], [0.5, 0.0], "arms"), ([[]], [], "arms"),
    ([[], []], [], "arms"), (np.zeros((2, 2, 1)), [0.5, 0.0], "arms"),
    (SQUARE, [0.5, 0.0, 0.0], "theta_star"), (SQUARE, [0.5], "theta_star"),
    (SQUARE, [], "theta_star"), (SQUARE, [[0.5, 0.0], [0.0, 0.0]], "theta_star"),
])
def test_the_arm_set_rule_names_arms_or_theta_star(arms, theta, name):
    # at least one arm, d >= 1 and theta_star of dimension d, for either constructor
    with pytest.raises(ConfigError, match=r"n, d >= 1") as info:
        make_instance(Exponential(1.0), arms, theta)
    assert info.value.name == name
    with pytest.raises(ConfigError, match=r"n, d >= 1") as info:
        GlbInstance(arms=arms, theta_star=theta, family=NefFamily(Exponential(1.0), -0.5, 0.5),
                    S0=1.0, L=4.0, K=3.0, c1=0.75, c2=1.0)
    assert info.value.name == name


@pytest.mark.parametrize("arms, theta, name", [
    ([[1, 0], [0]], [0.5, 0], "arms"), ([[1.0, 0.0], [0.0, 1.0]], [[0.5], [0.0, 1.0]], "theta_star"),
    ([[1, 0], [0]], [[0.5], [0.0, 1.0]], "arms"),
])
def test_ragged_arms_or_theta_star_is_a_config_error(arms, theta, name):
    # numpy rejects a ragged nested list with a bare ValueError; the arm-set rule names it
    with pytest.raises(ConfigError, match="rectangular") as info:
        make_instance(Exponential(1.0), arms, theta)
    assert info.value.name == name
    with pytest.raises(ConfigError, match="rectangular") as info:
        GlbInstance(arms=arms, theta_star=theta, family=NefFamily(Exponential(1.0), -0.5, 0.5),
                    S0=1.0, L=4.0, K=3.0, c1=0.75, c2=1.0)
    assert info.value.name == name


@pytest.mark.parametrize("base, name", [(Exponential(1.0), "c1"), (Gamma(2.0, 1.0), "c1"),
                                        (Laplace(1.0), "c1"), (Laplace(1.0), "c2")])
def test_a_tail_rate_lies_in_the_interior_as_fit_tail_constants_asks(base, name):
    # a rate past the interior but inside the MGF domain: fit_tail_constants rejects it, and
    # so does make_instance; at the interior's end both accept it
    (lo, hi), (domain_lo, domain_hi) = base.interior, base.mgf_domain
    end, past = {"c1": (hi, (hi + domain_hi) / 2), "c2": (-lo, -(lo + domain_lo) / 2)}[name]
    for rate in (past, float(np.nextafter(end, math.inf))):
        with pytest.raises(ConfigError) as info:
            make_instance(base, SQUARE, [0.5, 0.0], **{name: rate})
        assert info.value.name == name, rate
        with pytest.raises(DomainError) as info:
            fit_tail_constants(base, **{name: rate})
        assert info.value.name == name, rate
    make_instance(base, SQUARE, [0.5, 0.0], **{name: end})
    fit_tail_constants(base, **{name: end})


def test_exponential_rate_a_hair_below_the_domain_end_is_rejected_at_c1():
    with pytest.raises(ConfigError) as info:
        make_instance(Exponential(1.0), SQUARE, [0.5, 0.0], c1=1 - 1e-12)
    assert info.value.name == "c1"


def test_elliptical_potential_single_step_arithmetic():
    out = elliptical_potential_check(np.array([[1.0]]), 1.0, 1.0)
    assert out["lhs"] == pytest.approx(1.0, rel=1e-14)
    assert out["rhs"] == pytest.approx(2.0 * math.log(2.0), rel=1e-14)
    assert out["ok"]


def test_elliptical_potential_brute_force_recursion():
    rng = replicate_stream(31, 0)
    v = rng.standard_normal((10_000, 5))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    out = elliptical_potential_check(v, 1.0, 1.0)
    # independent oracle: direct inverse at a few prefixes
    for n in (1, 17, 333):
        V = np.eye(5)
        lhs = 0.0
        for a in v[:n]:
            lhs += float(a @ np.linalg.solve(V, a))
            V += np.outer(a, a)
        sub = elliptical_potential_check(v[:n], 1.0, 1.0)
        assert sub["lhs"] == pytest.approx(lhs, rel=1e-9)
    assert out["ok"]


def test_elliptical_potential_rejects_norm_violation():
    with pytest.raises(InvalidArgumentError):
        elliptical_potential_check(np.array([[2.0, 0.0]]), 1.0, 1.0)


def test_elliptical_potential_norm_cap_must_be_finite_and_positive():
    # NaN passes a bare A <= 0 check and inf makes the right side infinite
    for A in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(InvalidArgumentError, match="norm cap A") as info:
            elliptical_potential_check(np.eye(2), 1.0, A)
        assert info.value.name == "A"


def test_self_bounding_equality_at_endpoint():
    fam = NefFamily(Exponential(1.0), -0.5, 0.5)
    out = self_bounding_check(fam, [0.5, 0.5, 0.5], 0.5, K=4.0)
    assert out["lhs"] == pytest.approx(out["rhs"], rel=1e-13)
    assert out["ok"]


def test_self_bounding_exponential_grid():
    fam = NefFamily(Exponential(1.0), -0.5, 0.5)
    pts = np.linspace(-0.5, 0.5, 41)
    K = max(gamma_ratio(fam, float(u)) for u in pts)
    out = self_bounding_check(fam, pts, 0.5, K)
    assert out["ok"]


def test_self_bounding_bernoulli_random_points():
    fam = NefFamily(Bernoulli(0.5), -2.0, 2.0)
    rng = replicate_stream(41, 0)
    pts = -2.0 + 4.0 * rng.random(100)
    K = max(gamma_ratio(fam, float(u)) for u in np.linspace(-2, 2, 201))
    out = self_bounding_check(fam, pts, 2.0, K)
    assert out["ok"]


def test_self_bounding_rejects_point_past_endpoint():
    fam = NefFamily(Bernoulli(0.5), -2.0, 2.0)
    with pytest.raises(DomainError):
        self_bounding_check(fam, [0.0, 1.5], 1.0, K=1.0)
