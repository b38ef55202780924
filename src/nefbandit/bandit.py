"""Optimistic arm selection with gradient-map confidence sets.

Each round refits the ridge-regularized estimator on the data so far,
builds the confidence set

    C_t = { theta : ||theta|| <= S0,
            ||g_t(theta) - g_t(theta_hat)||_{H_t(theta)^{-1}} <= gamma_t },

and plays the arm maximizing the closed-form optimistic index

    x' theta_hat + c * gamma_t * ||x||_{H_t(theta_hat)^{-1}},
    c = 1 + 2 K (S1 - S2).

The index maximizes x' theta over the ellipsoid
E_t = { ||theta - theta_hat||_{H_t(theta_hat)} <= c gamma_t }, which
contains C_t (one-sided secant/Hessian comparison), so optimism over
the exact set is preserved.  The exact set itself is only evaluated for
coverage logging, after the round loop.

The family owns the tilt range [S2, S1] and measures mu' and |mu''|/mu' on
it once (``NefFamily.suprema``): L's check and the L and K defaults read those
values.  K defaults to the measured ratio supremum: any stretch-function
supremum is admissible in the radius formulas and the smallest one gives the
least conservative algorithm; a certificate supremum can be passed instead.
``_named_by`` is the one rule for the argument that a failed check names.

``run_replicates`` plays R replicates in lockstep as one array program over
(R, T, d) histories, each replicate with its own stream, fit and abort; each
kernel of its round loop gives every replicate the bits of its one-replicate
BLAS/LAPACK call (the d <= 2 Cholesky solves batch block-diagonally, see
``glm._cholesky_solves``), so a replicate's bytes do not depend on its batch, and
one stacked pass after the loop gives the cover verdicts, which no choice reads.
``run_ofu_glb`` is R = 1.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .distributions import BaseDistribution, NefFamily, _freeze
from .errors import ConfigError, DomainError, InvalidArgumentError, positive_finite
from .glm import (_cholesky_solves, _finite, _fit_stack, _gradient_maps, _hessians,
                  _inner_products, _ridge_weight, _rows)
from .rng import replicate_stream

__all__ = [
    "GlbInstance",
    "ConfidenceState",
    "RoundLog",
    "FitCounts",
    "RunResult",
    "RegretBound",
    "make_instance",
    "regularizer_schedule",
    "confidence_radius",
    "exact_membership",
    "relaxed_membership",
    "optimistic_choice",
    "run_ofu_glb",
    "run_replicates",
    "theoretical_regret_bound",
    "elliptical_potential_check",
    "self_bounding_check",
]


def _wider_end(S1: float, S2: float) -> str:
    return "S1" if abs(S1) >= abs(S2) else "S2"


def _check_range(S2: float, S1: float, c1: float, c2: float, base: BaseDistribution) -> None:
    """lo <= -c2 < S2 and S1 < c1 <= hi for (lo, hi) the base's ``interior`` (the end rule of
    ``fit_tail_constants``) and S1 - S2 finite, S2 <= S1 being the family's, or a ConfigError
    naming the constant of the first failed step (the wider end for the width)."""
    lo, hi = base.interior
    for ok, name in ((lo <= -c2 < S2, "c2"), (S1 < c1 <= hi, "c1"),
                     (math.isfinite(S1 - S2), _wider_end(S1, S2))):
        if not ok:
            raise ConfigError(f"admissible range must satisfy -c2 < S2 <= S1 < c1 with S1 - S2 "
                              f"finite and -c2, c1 in the base's interior [{lo}, {hi}], got "
                              f"S2={S2}, S1={S1}, c1={c1}, c2={c2}", name=name)


def _m_terms(K: float, S1: float, S2: float, c1: float, c2: float) -> dict[str, float]:
    """The three floors of M, by the constant that sets each; M is their max."""
    return {"K": K / math.log(2.0), "c1": 1.0 / (c1 - S1), "c2": 1.0 / (c2 + S2)}


def _floats(value, name: str) -> np.ndarray:
    """``value`` as a float array, or a ConfigError named ``name`` (ragged rows, say)."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} is not a rectangular array of numbers: {exc}",
                          name=name) from exc


def _arms_and_theta(arms, theta_star) -> tuple[np.ndarray, np.ndarray]:
    """Arms as (n, d) rows with n, d >= 1 and theta_star as a d-vector, all finite (NaN passes
    every comparison), or a ConfigError named ``arms`` or ``theta_star``: the arm-set rule."""
    arms = np.atleast_2d(_floats(arms, "arms"))
    theta_star = _floats(theta_star, "theta_star").ravel()
    if arms.ndim != 2 or not arms.size or theta_star.size != arms.shape[1]:
        raise ConfigError(f"need (n, d) arms with n, d >= 1 and theta_star of dim d, got shapes "
                          f"{arms.shape} and {theta_star.shape}",
                          name="theta_star" if arms.ndim == 2 and arms.size else "arms")
    for name, value in (("arms", arms), ("theta_star", theta_star)):
        if not np.isfinite(value).all():
            raise ConfigError(f"{name} has a coordinate that is not finite", name=name)
    return arms, theta_star


def _named_by(name, given, S1: float, S2: float, K: float, c1: float, c2: float):
    """The argument that a failure of constant ``name`` names: ``name`` itself if given;
    else S1 and S2 come from S0, c1 from S1, c2 from S2, L and K from the wider end of
    [S2, S1], and M from the constant that sets its largest floor."""
    if name == "M":
        floors = _m_terms(K, S1, S2, c1, c2)
        name = max(floors, key=floors.get)
    wide = _wider_end(S1, S2)
    up = {"S1": "S0", "S2": "S0", "c1": "S1", "c2": "S2", "L": wide, "K": wide}
    while name not in given and name in up:
        name = up[name]
    return name


@dataclass(frozen=True, eq=False)
class GlbInstance:
    """Arm set, true parameter, reward family, and the algorithm constants.

    Invariants: the arm-set rule of ``_arms_and_theta``, arms in the closed unit ball,
    every x' theta_star inside [S2, S1], -c2 < S2 <= S1 < c1 with the tail tilts -c2 and
    c1 in the base's interior, L at least 1 and at least the family's
    variance supremum, K >= 0, and every constant finite, M too.  S1 and S2
    are not arguments: they are the family's tilt range.  Nor is M: it is its floor
    max(K / log 2, 1/(c1 - S1), 1/(c2 + S2)).  A ConfigError's ``name`` is the
    constant (or ``arms`` or ``theta_star``) that fails.
    """

    arms: np.ndarray
    theta_star: np.ndarray
    family: NefFamily
    S0: float
    L: float
    K: float
    c1: float
    c2: float

    def __post_init__(self):
        arms, theta = _arms_and_theta(self.arms, self.theta_star)
        norms = np.linalg.norm(arms, axis=1)
        if norms.max() > 1.0 + 1e-12:
            raise ConfigError(f"arms must lie in the closed unit ball; max norm {norms.max():.6g}",
                              name="arms")
        if np.linalg.norm(theta) > self.S0 + 1e-12:
            raise ConfigError(f"the true parameter has norm {np.linalg.norm(theta):.6g} > "
                              f"S0={self.S0}", name="S0")
        _check_range(self.S2, self.S1, self.c1, self.c2, self.family.base)
        inner = arms @ theta
        if inner.min() < self.S2 - 1e-12 or inner.max() > self.S1 + 1e-12:
            raise ConfigError("x' theta_star must lie in [S2, S1] for every arm",
                              name="S2" if inner.min() < self.S2 - 1e-12 else "S1")
        if self.L < 1.0:
            raise ConfigError(f"variance cap L must be at least 1, got {self.L}", name="L")
        if not self.K >= 0.0:
            raise ConfigError(f"stretch constant K must be nonnegative, got {self.K}", name="K")
        for name in ("S0", "S1", "S2", "c1", "c2", "L", "K", "M"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name}={getattr(self, name)} is not finite", name=name)
        sup = self.family.suprema[0]
        if not self.L >= sup * (1 - 1e-9):  # a NaN supremum fails too
            raise ConfigError(f"L={self.L} is below the variance supremum {sup:.6g} on [S2, S1]",
                              name="L")
        _freeze(self, arms=arms, theta_star=theta)

    S1 = property(lambda self: self.family.param_hi, doc="the family's upper tilt end")
    S2 = property(lambda self: self.family.param_lo, doc="the family's lower tilt end")

    @cached_property
    def M(self) -> float:
        """max(K / log 2, 1/(c1 - S1), 1/(c2 + S2)), the floor the radius needs."""
        return max(_m_terms(self.K, self.S1, self.S2, self.c1, self.c2).values())

    @property
    def d(self) -> int:
        return self.arms.shape[1]

    @property
    def n_arms(self) -> int:
        return self.arms.shape[0]

    @property
    def diameter_factor(self) -> float:
        """c = 1 + 2 K (S1 - S2): exact-to-ellipsoid inflation."""
        return 1.0 + 2.0 * self.K * (self.S1 - self.S2)

    def best_arm(self) -> tuple[int, float]:
        means = np.asarray(self.family.base.mean_at(self.arms @ self.theta_star), dtype=float)
        idx = int(np.argmax(means))
        return idx, float(means[idx])


@np.errstate(over="ignore", invalid="ignore")  # GlbInstance rejects inf and NaN
def make_instance(base: BaseDistribution, arms, theta_star, S0: float | None = None,
                  S1: float | None = None, S2: float | None = None,
                  c1: float | None = None, c2: float | None = None,
                  L: float | None = None, K: float | None = None) -> GlbInstance:
    """Derive the missing constants for a well-posed instance.

    Defaults: S0 = ||theta_star||; S1/S2 = +/- S0 * max arm norm; tail
    rates halfway from the tilt range to a finite domain endpoint
    (c1 = (S1 + hi)/2, c2 = -(S2 + lo)/2) and max(1, 1.25 |S|) on infinite
    sides; L and K as the family's grid suprema of mu' and |mu''|/mu' on
    [S2, S1]; M, a property of the instance, is its floor.

    A failed check raises a ConfigError whose ``name`` is the argument at fault,
    by ``_named_by``: a derived constant names the argument it comes from.
    """
    arms, theta_star = _arms_and_theta(arms, theta_star)  # checked before S0 is derived from them
    given = {name for name, value in (("S1", S1), ("S2", S2), ("c1", c1), ("c2", c2),
                                      ("L", L), ("K", K)) if value is not None}
    if S0 is None:
        S0 = float(np.linalg.norm(theta_star)) or 1.0
    reach = float(np.max(np.linalg.norm(arms, axis=1))) * S0
    S1 = reach if S1 is None else float(S1)
    S2 = -reach if S2 is None else float(S2)
    lo, hi = base.mgf_domain
    if c1 is None:
        c1 = 0.5 * (S1 + hi) if math.isfinite(hi) else max(1.0, 1.25 * abs(S1))
    if c2 is None:
        c2 = 0.5 * (-S2 - lo) if math.isfinite(lo) else max(1.0, 1.25 * abs(S2))
    try:
        if not S2 <= S1:
            raise ConfigError(f"need S2 <= S1, got S2={S2}, S1={S1}",
                              name="S2" if "S2" in given else "S1")
        try:
            family = NefFamily(base, S2, S1)
        except DomainError as exc:
            raise ConfigError(str(exc), name="S2" if S2 < base.interior[0] else "S1") from exc
        var_sup, ratio_sup = family.suprema
        K = ratio_sup if K is None else K
        L = max(1.0, var_sup) if L is None else L
        return GlbInstance(arms=arms, theta_star=theta_star, family=family, S0=float(S0),
                           L=float(L), K=float(K), c1=float(c1), c2=float(c2))
    except ConfigError as exc:
        exc.name = _named_by(exc.name, given, S1, S2, K, c1, c2)
        raise


# ---------------------------------------------------------------------------
# Confidence machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ConfidenceState:
    theta_hat: np.ndarray
    hessian_at_hat: np.ndarray
    gradient_map_at_hat: np.ndarray
    lambda_T: float
    gamma_t: float

    def __post_init__(self):
        if not (self.gamma_t > 0 and self.lambda_T >= 1.0):
            raise InvalidArgumentError(
                f"need gamma_t > 0 and lambda_T >= 1, got {self.gamma_t}, {self.lambda_T}")
        for name in ("theta_hat", "hessian_at_hat", "gradient_map_at_hat"):
            _finite(getattr(self, name), name=name)


def _log_term(L: float, d: int, t: int, delta: float) -> float:
    return math.log(max(math.e * math.sqrt(1.0 + t * L / d), 1.0 / delta))


def _not_a_count(value) -> bool:
    """The run-length rule's integer test: True unless ``value`` is an integer >= 1."""
    return not isinstance(value, (int, np.integer)) or value < 1


def regularizer_schedule(inst: GlbInstance, T: int, delta: float) -> float:
    """lambda_T = 1 v (2 d M / S0) log(e sqrt(1 + T L / d) v 1/delta), once T and delta pass
    the run-length rule: T an integer >= 1 and 0 < delta <= 1 (NaN fails), else an
    InvalidArgumentError named ``T`` or ``delta``."""
    bad_T = _not_a_count(T)
    if bad_T or not 0.0 < delta <= 1.0:
        raise InvalidArgumentError(f"need an integer T >= 1 and delta in (0, 1], got T={T!r}, "
                                   f"delta={delta}", name="T" if bad_T else "delta")
    return max(1.0, (2.0 * inst.d * inst.M / inst.S0) * _log_term(inst.L, inst.d, T, delta))


def _radii(inst: GlbInstance, T: int, delta: float, lam: float | None, ts=None) -> list[float]:
    """gamma_t for each t in ts (default 1, ..., T), its two t-independent factors computed
    once, after regularizer_schedule's run-length rule (also when lam is given), the same
    integer rule on each t with t <= T (an InvalidArgumentError named ``t``) and the
    ridge-weight rule of a given lam."""
    lam_T = regularizer_schedule(inst, T, delta)
    for t in ts or ():
        if _not_a_count(t) or t > T:
            raise InvalidArgumentError(f"need an integer t with 1 <= t <= T, got t={t!r}, T={T}",
                                       name="t")
    root = math.sqrt(lam_T if lam is None else _ridge_weight(lam))
    head, scale, d = root * (0.5 / inst.M + inst.S0), 4.0 * inst.M * inst.d / root, inst.d
    return [head + scale * _log_term(inst.L, d, t, delta)
            for t in (range(1, T + 1) if ts is None else ts)]


def confidence_radius(inst: GlbInstance, t: int, T: int, delta: float,
                      lam: float | None = None) -> float:
    """gamma_t = sqrt(lam)(1/(2M) + S0) + (4 M d / sqrt(lam)) log(e sqrt(1 + t L/d) v 1/delta)."""
    return _radii(inst, T, delta, lam, (t,))[0]


# Stacked forms, a leading axis per replicate (and round); the public functions are R = 1 calls.

def _exact_norms_sq(g, H, g_hat):
    """||g - g_hat||^2 in H^{-1}, g and H the gradient map and Hessian at theta, by one batched
    solve; an entry that is not finite is an InvalidArgumentError, never a False verdict."""
    w = g - g_hat
    _finite(w, H)
    return np.vecdot(w, np.linalg.solve(H, w[..., None])[..., 0])


def _relaxed_norms_sq(theta, theta_hat, H):
    """||theta - theta_hat||^2 in H, stacked over the leading axes."""
    gap = theta - theta_hat
    return np.vecdot(np.vecmat(gap, H), gap)


def _optimistic_indices(theta_hat, H, c_gamma: float, arms, arms_t) -> np.ndarray:
    """x' theta_hat + c_gamma ||x||_{H^-1} per replicate (row) and arm; arms_t = arms.T[None]."""
    sol_t = np.empty((len(H), *arms.shape))  # replicate r's posv solution, transposed
    for exc in _cholesky_solves(H, arms_t, sol_t.mT).values():
        raise exc
    bonus_sq = np.einsum("ij,rij->ri", arms, sol_t)
    return np.matvec(arms, theta_hat) + c_gamma * np.sqrt(np.maximum(bonus_sq, 0.0))


def _in_dimension(inst: GlbInstance, state: ConfidenceState, theta=None):
    """theta, flattened, once it and the state's estimate, Hessian and gradient map all
    have the instance's dimension d; InvalidArgumentError otherwise."""
    d = inst.d
    shapes = {"theta_hat": (d,), "hessian_at_hat": (d, d), "gradient_map_at_hat": (d,)}
    for name, shape in shapes.items():
        got = np.shape(getattr(state, name))
        if got != shape:
            raise InvalidArgumentError(f"state {name} has shape {got}, the instance needs {shape}")
    if theta is not None:
        theta = np.asarray(theta, dtype=float).ravel()
        if theta.size != d:
            raise InvalidArgumentError(f"theta has dim {theta.size}, the instance has dim {d}")
    return theta


def exact_membership(inst: GlbInstance, state: ConfidenceState, data, theta) -> bool:
    """theta in C_t: the gradient-map gap measured in the inverse Hessian at theta."""
    theta = _in_dimension(inst, state, theta)
    if np.linalg.norm(theta) > inst.S0 + 1e-12:
        return False
    theta, inner = _inner_products(inst.family, data, theta, op="exact_membership")
    X, lam, base = data.arms[None], state.lambda_T, inst.family.base
    q = _exact_norms_sq(_gradient_maps(X, lam, theta, base.mean_at(inner)),
                        _hessians(X, lam * np.eye(inst.d), base.dmean_at(inner)),
                        state.gradient_map_at_hat[None])
    return float(q[0]) <= state.gamma_t * state.gamma_t


def relaxed_membership(inst: GlbInstance, state: ConfidenceState, theta) -> bool:
    """theta in E_t: Hessian-at-estimate ellipsoid of radius c gamma_t."""
    q = _relaxed_norms_sq(_in_dimension(inst, state, theta)[None], state.theta_hat[None],
                          state.hessian_at_hat[None])
    r = inst.diameter_factor * state.gamma_t
    return float(q[0]) <= r * r


def optimistic_choice(inst: GlbInstance, state: ConfidenceState) -> tuple[int, float]:
    """Arm with the largest optimistic index; ties go to the lowest index."""
    _in_dimension(inst, state)
    idx_vals = _optimistic_indices(state.theta_hat[None], state.hessian_at_hat[None],
                                   inst.diameter_factor * state.gamma_t, inst.arms,
                                   inst.arms.T[None])[0]
    best = int(np.argmax(idx_vals))
    return best, float(idx_vals[best])


# ---------------------------------------------------------------------------
# The round loop
# ---------------------------------------------------------------------------

class FitCounts(NamedTuple):
    """A replicate's fits over its logged rounds: how many took each number of Newton
    iterations, and how many began at the origin because their warm start was infeasible."""
    newton_iters: dict[int, int]
    fallbacks: int


class RoundLog(NamedTuple):
    t: int
    arm: int
    index: float
    reward: float
    inst_regret: float
    cum_regret: float
    exact_cover: bool
    relaxed_cover: bool


@dataclass(frozen=True, eq=False)
class RunResult:
    """One replicate's run: ``columns``, a RoundLog of (n,) arrays (n = T unless it aborted),
    and ``rounds``, its rows, built when first read; equal when rows and abort fields are.
    ``diagnostics``, the FitCounts of its n fits, is neither compared nor written out."""

    columns: RoundLog
    aborted: bool = False
    abort_reason: str = ""
    diagnostics: FitCounts | None = None

    @cached_property
    def rounds(self) -> tuple[RoundLog, ...]:
        return tuple(map(RoundLog, *(c.tolist() for c in self.columns)))

    @property
    def cum_regret(self) -> float:
        return float(self.columns.cum_regret[-1]) if len(self.columns.t) else 0.0

    @property
    def all_rounds_covered(self) -> bool:
        return bool(self.columns.exact_cover.all())

    def __eq__(self, other):
        return isinstance(other, RunResult) and (self.rounds, self.aborted, self.abort_reason) \
            == (other.rounds, other.aborted, other.abort_reason)


def run_ofu_glb(inst: GlbInstance, T: int, delta: float, seed: int = 0,
                replicate: int = 0, lam_override: float | None = None) -> RunResult:
    """Play T rounds; returns per-round logs, deterministic given (seed, replicate)."""
    return run_replicates(inst, T, delta, seed, [replicate], lam_override)[0]


def run_replicates(inst: GlbInstance, T: int, delta: float, seed: int, replicates,
                   lam_override: float | None = None) -> list[RunResult]:
    """Play T rounds of every listed replicate in lockstep, as one array program.

    Result k is a pure function of (seed, replicates[k]): each replicate draws from
    its own stream and keeps its own fit, so it gets the same bytes in any batch.
    A replicate whose fit fails stops there with the reason ``round t: ...``; its
    diagnostics count the fits of the rounds it logged.
    """
    lam = (regularizer_schedule(inst, T, delta) if lam_override is None
           else _ridge_weight(lam_override))
    gammas = np.array(_radii(inst, T, delta, lam))  # T checked before the first draw
    streams = [replicate_stream(seed, k).random(T) for k in replicates]  # a uniform per round
    R = len(streams)
    uniforms = np.array(streams).reshape(R, T).T.copy()  # row n: round n + 1, contiguous
    family, base, arms, d = inst.family, inst.family.base, inst.arms, inst.d
    _, star_mean = inst.best_arm()
    arm_inner = arms @ inst.theta_star
    arm_mu, arm_dmu = base.mean_at(arm_inner), base.dmean_at(arm_inner)
    lam_eye, arms_t = lam * np.eye(d), arms.T[None]
    arm_col, index_col, reward_col = np.zeros((3, R, T))  # per replicate and round
    cg = inst.diameter_factor * gammas  # c gamma_t: the index's and E_t's radius
    # each round's fit, for the cover pass: estimate, gradient map and Hessian
    thetas, g_hats, Hs = np.zeros((R, T, d)), np.zeros((R, T, d)), np.zeros((R, T, d, d))
    counts = np.zeros((2, R, T), dtype=int)  # each fit's Newton iterations and fallback flag
    played = np.full(R, T)  # rounds logged: a replicate's columns end there
    reasons: dict[int, str] = {}  # abort reasons by replicate position
    live = np.arange(R)  # positions of the replicates still running
    X, y = np.zeros((R, T, d)), np.zeros((R, T))
    theta, at, rows = np.zeros((R, d)), slice(None), np.arange(R)  # estimates, live rows
    for t in range(1, T + 1):
        n = t - 1
        fit = _fit_stack(family, X[:, :n], y[:, :n], lam, lam_eye, theta)
        theta, H, g_hat, fit_counts = fit.theta, fit.H, fit.g, (fit.iters, fit.fallback)
        if fit.errors:
            reasons.update({int(live[i]): f"round {t}: {exc}" for i, exc in fit.errors.items()})
            played[live[list(fit.errors)]] = n
            keep = [i not in fit.errors for i in range(len(live))]
            live, X, y, theta, H, g_hat = (a[keep] for a in (live, X, y, theta, H, g_hat))
            fit_counts = np.array(fit_counts)[:, keep]
            if not live.size:
                break
            at, rows = live, np.arange(len(live))
        idx_vals = _optimistic_indices(theta, H, cg[n], arms, arms_t)
        thetas[at, n], g_hats[at, n], Hs[at, n], counts[:, at, n] = theta, g_hat, H, fit_counts
        chosen = idx_vals.argmax(axis=1)
        arm_col[at, n] = chosen
        index_col[at, n] = idx_vals[rows, chosen]
        y[:, n] = reward_col[at, n] = base.tilted_inverse_cdf(arm_inner[chosen], uniforms[n, at])
        X[:, n] = arms[chosen]
    arm_col = arm_col.astype(int)

    def before(per_arm):  # each round's sum of the per-play terms of the rounds before it
        return np.cumsum(np.insert(per_arm[arm_col[:, :-1]], 0, 0.0, axis=1), axis=1)

    _finite(thetas, Hs)  # the fits' outputs, unchecked in the loop, before any verdict
    # at theta_star: g = lam theta + sum_a n_a mu_a x_a, H = lam I + sum_a n_a mu'_a x_a x_a'
    q = _exact_norms_sq(lam * inst.theta_star + before(arm_mu[:, None] * arms),
                        lam_eye + before(arm_dmu[:, None, None] * arms[:, :, None] * arms[:, None]),
                        g_hats)
    regret_col = (star_mean - arm_mu)[arm_col]
    cols = (arm_col, index_col, reward_col, regret_col,
            np.cumsum(regret_col, axis=1) + 0.0,  # a running sum from 0.0 never reads -0.0
            q <= gammas * gammas, _relaxed_norms_sq(inst.theta_star, thetas, Hs) <= cg * cg)
    t_col = np.arange(1, T + 1)
    return [RunResult(RoundLog(t_col[:n], *(c[k, :n] for c in cols)), aborted=k in reasons,
                      abort_reason=reasons.get(k, ""),
                      diagnostics=FitCounts(dict(sorted(Counter(iters[:n].tolist()).items())),
                                            int(fell_back[:n].sum())))
            for k, (n, iters, fell_back) in enumerate(zip(played.tolist(), *counts))]


# ---------------------------------------------------------------------------
# Theoretical bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegretBound:
    term1: float
    term2: float
    term3: float
    gamma_T: float
    lambda_T: float
    c: float
    K: float
    kappa: float
    mu_dot_star: float

    @property
    def total(self) -> float:
        return self.term1 + self.term2 + self.term3

    def as_dict(self) -> dict:
        return {**asdict(self), "total": self.total}


def theoretical_regret_bound(inst: GlbInstance, T: int, delta: float,
                             lam: float | None = None) -> RegretBound:
    """Three-term regret cap with the exact printed constants.

    term1 = 8 c gamma_T sqrt(d mu'(x*' th*) (1 + L/lam) log(1 + LT/(d lam)) T)
    term2 = 8 c^2 gamma_T^2 L^2 K kappa log(lam + T/d)
    term3 = 32 c^2 gamma_T^2 K d (1 + L/lam) log(1 + LT/(d lam))

    with c = 1 + 2 K (S1 - S2) and kappa the inverse variance at the
    best arm.  A zero stretch supremum zeroes the second-order terms.
    """
    lam = regularizer_schedule(inst, T, delta) if lam is None else _ridge_weight(lam)
    gamma_T = _radii(inst, T, delta, lam, (T,))[0]
    star_idx, _ = inst.best_arm()
    mu_dot_star = float(inst.family.base.dmean_at(float(inst.arms[star_idx] @ inst.theta_star)))
    c = inst.diameter_factor
    d, L, K = inst.d, inst.L, inst.K
    log_growth = math.log(1.0 + L * T / (d * lam))
    term1 = 8.0 * c * gamma_T * math.sqrt(d * mu_dot_star * (1.0 + L / lam) * log_growth * T)
    kappa = math.inf if mu_dot_star == 0.0 else 1.0 / mu_dot_star
    if K == 0.0:
        term2 = 0.0
        term3 = 0.0
    else:
        term2 = 8.0 * (c * c) * (gamma_T * gamma_T) * (L * L) * K * kappa * math.log(lam + T / d)
        term3 = 32.0 * (c * c) * (gamma_T * gamma_T) * K * d * (1.0 + L / lam) * log_growth
    return RegretBound(term1=term1, term2=term2, term3=term3, gamma_T=gamma_T,
                       lambda_T=lam, c=c, K=K, kappa=kappa, mu_dot_star=mu_dot_star)


# ---------------------------------------------------------------------------
# Auxiliary inequality checks
# ---------------------------------------------------------------------------

def elliptical_potential_check(vectors, lam: float, A: float) -> dict:
    """sum_t ||a_t||^2 over inv(V_{t-1}) against 2 d max(1, A^2/lam) log(1 + n A^2/(d lam))."""
    vectors = _rows(vectors, "vectors")
    n, d = vectors.shape
    lam, A = _ridge_weight(lam), positive_finite(A, "A", "norm cap A")
    if np.linalg.norm(vectors, axis=1).max(initial=0.0) > A + 1e-12:
        raise InvalidArgumentError(f"every vector must have norm at most A={A}")
    V_inv = np.eye(d) / lam
    lhs = 0.0
    for a in vectors:
        Va = V_inv @ a
        lhs += float(a @ Va)
        V_inv -= np.outer(Va, Va) / (1.0 + float(a @ Va))  # rank-one update
    rhs = 2.0 * d * max(1.0, A * A / lam) * math.log(1.0 + n * A * A / (d * lam))
    return {"lhs": lhs, "rhs": rhs, "ok": bool(lhs <= rhs + 1e-9)}


def self_bounding_check(family: NefFamily, grid_points, endpoint_b: float, K: float) -> dict:
    """sum mu'(a_t) against n mu'(b) + K sum (mu(b) - mu(a_t)) for a_t <= b."""
    pts = np.asarray(grid_points, dtype=float).ravel()
    lo, hi = family.interval
    if not lo <= endpoint_b <= hi:
        raise DomainError("endpoint must lie in the admissible range", value=endpoint_b,
                          interval=(lo, hi))
    if pts.size and (pts.min() < lo - 1e-12 or pts.max() > endpoint_b + 1e-12):
        raise DomainError("grid points must lie in [param_lo, endpoint_b]",
                          value=float(pts.min() if pts.min() < lo else pts.max()),
                          interval=(lo, endpoint_b))
    base = family.base
    lhs = float(np.sum(base.dmean_at(pts)))
    mu_b = float(base.mean_at(endpoint_b))
    rhs = pts.size * float(base.dmean_at(endpoint_b)) \
        + K * float(np.sum(mu_b - np.asarray(base.mean_at(pts), dtype=float)))
    return {"lhs": lhs, "rhs": rhs, "ok": bool(lhs <= rhs + 1e-9)}
