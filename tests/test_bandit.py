"""Instance construction, confidence machinery, the round loop, bound terms."""

import hashlib
import json
import math
import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from nefbandit.bandit import (
    ConfidenceState,
    GlbInstance,
    _exact_norms_sq,
    _optimistic_indices,
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
    NefFamily,
    Poisson,
    gamma_ratio,
    parse_distribution,
)
from nefbandit.errors import ConfigError, DomainError, InvalidArgumentError
from nefbandit.config import build_instance, load_config
from nefbandit.glm import Dataset, fit_mle
from nefbandit.rng import replicate_stream

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
    with pytest.raises(ConfigError, match="M >="):
        inst = exp_instance()
        GlbInstance(arms=inst.arms, theta_star=inst.theta_star, family=inst.family,
                    S0=inst.S0, S1=inst.S1, S2=inst.S2, L=inst.L, K=inst.K,
                    M=1.0, c1=inst.c1, c2=inst.c2)
    for K in (-1.0, math.nan):
        with pytest.raises(ConfigError, match="K must be nonnegative"):
            make_instance(Bernoulli(0.5), ARMS3, THETA3, K=K)


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
    # L, K and GlbInstance's check of L all read one mu' evaluation on the 513-point grid
    base = parse_distribution(spec)
    original, shapes = type(base).dmean_at, []

    def counted(self, u):
        shapes.append(np.shape(u))
        return original(self, u)

    monkeypatch.setattr(type(base), "dmean_at", counted)
    inst = make_instance(base, circle_arms(), np.array([0.5, 0.0]))
    assert shapes == [(513,)]
    grid = np.linspace(inst.S2, inst.S1, 513)
    assert inst.L == max(1.0, float(np.max(original(base, grid))))


def test_glb_instance_built_directly_checks_L_against_the_variance_grid():
    inst = exp_instance()  # mu' = 1/(1 - u)^2 reaches 4 at S1 = 0.5
    fields = {f.name: getattr(inst, f.name) for f in dataclasses.fields(inst)}
    assert GlbInstance(**fields).L == inst.L == pytest.approx(4.0, rel=1e-12)
    with pytest.raises(ConfigError, match="below the variance supremum 4 on"):
        GlbInstance(**{**fields, "L": 2.0})
    with pytest.raises(ConfigError, match="below the variance supremum"):
        dataclasses.replace(inst, L=3.9)


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
                        S0=inst.S0, S1=inst.S1, S2=inst.S2, L=inst.L, K=inst.K,
                        M=inst.M, c1=inst.c1, c2=inst.c2)
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


# ---------------------------------------------------------------------------
# membership and arm choice
# ---------------------------------------------------------------------------

def _state(inst, t, lam, gamma, theta_hat=None, H=None):
    d = inst.d
    theta_hat = np.zeros(d) if theta_hat is None else theta_hat
    # the gradient map at theta_hat on empty data is lam * theta_hat
    return ConfidenceState(t=t, theta_hat=theta_hat,
                           hessian_at_hat=lam * np.eye(d) if H is None else H,
                           gradient_map_at_hat=lam * theta_hat,
                           lambda_T=lam, gamma_t=gamma, delta=0.1)


def test_exact_membership_center_and_empty_data():
    inst = bern_instance()
    data = Dataset(np.zeros((0, 2)), np.zeros(0))
    lam = 4.0
    state = _state(inst, 1, lam, gamma=1.0)
    assert exact_membership(inst, state, data, np.zeros(2))
    # no data: the norm reduces to sqrt(lam) ||theta - theta_hat||
    theta = np.array([0.3, 0.1])
    expected_norm = math.sqrt(lam) * np.linalg.norm(theta)
    assert exact_membership(inst, state, data, theta) == (expected_norm <= 1.0)
    wide = _state(inst, 1, lam, gamma=expected_norm + 1e-9)
    assert exact_membership(inst, wide, data, theta)


def test_exact_membership_rejects_theta_outside_ball():
    inst = bern_instance()
    data = Dataset(np.zeros((0, 2)), np.zeros(0))
    state = _state(inst, 1, 4.0, gamma=100.0)
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
    return _exact_norms_sq(inst.arms, counts, base.mean_at(u), base.dmean_at(u), lam,
                           lam * np.eye(inst.d), theta, g_hat)


def test_exact_norms_sq_slices_are_the_one_replicate_calls():
    inst, theta, counts, g_hat = _weighted_rows(61, 3)
    q = _kernel(inst, 2.5, theta, counts, g_hat)
    for r in range(3):
        assert q[r] == _kernel(inst, 2.5, theta, counts[r:r + 1], g_hat[r:r + 1])[0]


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
            state = ConfidenceState(t=len(X) + 1, theta_hat=np.zeros(inst.d),
                                    hessian_at_hat=H, gradient_map_at_hat=g_hat[r],
                                    lambda_T=lam, gamma_t=math.sqrt(direct * scale), delta=0.1)
            assert exact_membership(inst, state, data, theta) is inside


def test_exact_membership_names_the_data_row_off_the_domain():
    inst = make_instance(Exponential(1.0), circle_arms(), np.array([0.5, 0.0]), S0=2.0,
                         S1=0.5, S2=-0.5)
    data = Dataset(inst.arms[[3, 0, 0, 3]], np.ones(4))
    state = _state(inst, 5, 2.0, gamma=1.0)
    with pytest.raises(DomainError, match="row 1 leaves"):
        exact_membership(inst, state, data, np.array([1.5, 0.0]))


def test_optimistic_choice_single_arm():
    inst = make_instance(Bernoulli(0.5), np.array([[0.4, 0.2]]), THETA3)
    arm, value = optimistic_choice(inst, _state(inst, 1, 2.0, gamma=1.0))
    assert arm == 0


def test_optimistic_choice_cold_start_prefers_long_arms():
    arms = np.array([[0.3, 0.0], [0.0, 0.9], [0.5, 0.5]])
    inst = make_instance(Bernoulli(0.5), arms, np.array([0.0, 0.1]))
    lam, gamma = 3.0, 2.0
    arm, value = optimistic_choice(inst, _state(inst, 1, lam, gamma))
    assert arm == 1  # max Euclidean norm wins when H = lam I and theta_hat = 0
    assert value == pytest.approx(inst.diameter_factor * gamma * 0.9 / math.sqrt(lam),
                                  rel=1e-12)


def test_optimistic_choice_exploit_term_breaks_symmetry():
    arms = np.eye(2)
    inst = make_instance(Bernoulli(0.5), arms, np.array([0.2, 0.1]), S0=4.0)
    state = _state(inst, 3, 2.0, gamma=1.0, theta_hat=np.array([3.0, 0.0]))
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
    idx = _optimistic_indices(inst, theta_hat, H, 0.1)
    assert idx[:, 1].tobytes() == idx[:, 3].tobytes()
    assert (idx.argmax(axis=1) == 1).all()
    for r in range(20):
        state = _state(inst, 5, 2.0, gamma=0.1, theta_hat=theta_hat[r], H=H[r])
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
    state = ConfidenceState(t=t, theta_hat=fit.theta_hat, hessian_at_hat=fit.hessian_at_hat,
                            gradient_map_at_hat=fit.gradient_map_at_hat, lambda_T=lam,
                            gamma_t=confidence_radius(inst, t, cfg.horizon, cfg.delta, lam=lam),
                            delta=cfg.delta)
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
    state = ConfidenceState(t=T, theta_hat=fit.theta_hat, hessian_at_hat=fit.hessian_at_hat,
                            gradient_map_at_hat=fit.gradient_map_at_hat, lambda_T=lam, gamma_t=gamma, delta=delta)
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
        r500 += res.cum_regret_at(500)
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
