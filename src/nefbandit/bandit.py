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
coverage logging.

K defaults to the supremum of the measured ratio |mu''|/mu' over the
admissible tilt range: any stretch-function supremum is admissible in
the radius formulas and the smallest one gives the least conservative
algorithm; a certificate supremum can be passed instead.

``run_replicates`` plays R replicates in lockstep as one array program over
(R, T, d) histories, each replicate with its own stream, fit and abort; each
stacked kernel makes the one-replicate BLAS/LAPACK call per replicate, so a
replicate's bytes do not depend on its batch.  ``run_ofu_glb`` is R = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distributions import BaseDistribution, NefFamily, gamma_ratio
from .errors import ConfigError, DomainError, InvalidArgumentError
from .glm import _cholesky_solves, _fit_stack, _gradient_maps, _hessians, _inner_products
from .rng import replicate_stream

__all__ = [
    "GlbInstance",
    "ConfidenceState",
    "RoundLog",
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

_GRID = 513


@dataclass(frozen=True)
class GlbInstance:
    """Arm set, true parameter, reward family, and the algorithm constants.

    Invariants: arms in the closed unit ball, every x' theta_star inside
    [S2, S1] strictly inside the natural parameter interval with
    -c2 < S2 <= S1 < c1, L at least the variance supremum on [S2, S1]
    and at least 1, K >= 0, and M >= max(K / log 2, 1/(c1 - S1), 1/(c2 + S2)).
    """

    arms: np.ndarray
    theta_star: np.ndarray
    family: NefFamily
    S0: float
    S1: float
    S2: float
    L: float
    K: float
    M: float
    c1: float
    c2: float

    def __post_init__(self):
        arms = np.atleast_2d(np.asarray(self.arms, dtype=float))
        theta = np.asarray(self.theta_star, dtype=float).ravel()
        if arms.shape[0] == 0:
            raise ConfigError("arm set must be nonempty")
        norms = np.linalg.norm(arms, axis=1)
        if norms.max() > 1.0 + 1e-12:
            raise ConfigError(f"arms must lie in the closed unit ball; max norm {norms.max():.6g}")
        if np.linalg.norm(theta) > self.S0 + 1e-12:
            raise ConfigError(f"the true parameter has norm {np.linalg.norm(theta):.6g} > S0={self.S0}")
        if not (-self.c2 < self.S2 <= self.S1 < self.c1):
            raise ConfigError(f"admissible range must satisfy -c2 < S2 <= S1 < c1, got "
                              f"S2={self.S2}, S1={self.S1}, c1={self.c1}, c2={self.c2}")
        inner = arms @ theta
        if inner.min() < self.S2 - 1e-12 or inner.max() > self.S1 + 1e-12:
            raise ConfigError("x' theta_star must lie in [S2, S1] for every arm")
        if self.L < 1.0:
            raise ConfigError(f"variance cap L must be at least 1, got {self.L}")
        if not self.K >= 0.0:
            raise ConfigError(f"stretch constant K must be nonnegative, got {self.K}")
        grid_sup = float(np.max(self.family.base.dmean_at(np.linspace(self.S2, self.S1, _GRID))))
        if self.L < grid_sup * (1 - 1e-9):
            raise ConfigError(f"L={self.L} is below the variance supremum {grid_sup:.6g} on [S2, S1]")
        m_floor = max(self.K / math.log(2.0), 1.0 / (self.c1 - self.S1),
                      1.0 / (self.c2 + self.S2))
        if self.M < m_floor * (1 - 1e-9):
            raise ConfigError(f"M={self.M} violates M >= max(K/log 2, 1/(c1-S1), 1/(c2+S2)) "
                              f"= {m_floor:.6g}")
        arms = arms.copy()
        theta = theta.copy()
        arms.flags.writeable = False
        theta.flags.writeable = False
        object.__setattr__(self, "arms", arms)
        object.__setattr__(self, "theta_star", theta)

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


def make_instance(base: BaseDistribution, arms, theta_star, S0: float | None = None,
                  S1: float | None = None, S2: float | None = None,
                  c1: float | None = None, c2: float | None = None,
                  L: float | None = None, K: float | None = None) -> GlbInstance:
    """Derive the missing constants for a well-posed instance.

    Defaults: S0 = ||theta_star||; S1/S2 = +/- S0 * max arm norm; tail
    rates at 90% of the distance to a finite domain endpoint and
    max(1, 1.25 |S|) on infinite sides; L and K as grid suprema of mu'
    and |mu''|/mu' on [S2, S1]; M at its floor.
    """
    arms = np.atleast_2d(np.asarray(arms, dtype=float))
    theta_star = np.asarray(theta_star, dtype=float).ravel()
    if S0 is None:
        S0 = float(np.linalg.norm(theta_star))
        if S0 == 0.0:
            S0 = 1.0
    reach = float(np.max(np.linalg.norm(arms, axis=1))) * S0
    S1 = reach if S1 is None else float(S1)
    S2 = -reach if S2 is None else float(S2)
    lo, hi = base.mgf_domain
    if c1 is None:
        c1 = 0.5 * (S1 + hi) if math.isfinite(hi) else max(1.0, 1.25 * abs(S1))
    if c2 is None:
        c2 = 0.5 * (-S2 - lo) if math.isfinite(lo) else max(1.0, 1.25 * abs(S2))
    family = NefFamily(base, S2, S1)
    grid = np.linspace(S2, S1, _GRID)
    if L is None:
        L = max(1.0, float(np.max(base.dmean_at(grid))))
    if K is None:
        K = float(np.max(gamma_ratio(family, grid)))
    M = max(K / math.log(2.0), 1.0 / (c1 - S1), 1.0 / (c2 + S2))
    return GlbInstance(arms=arms, theta_star=theta_star, family=family, S0=float(S0),
                       S1=S1, S2=S2, L=float(L), K=float(K), M=float(M),
                       c1=float(c1), c2=float(c2))


# ---------------------------------------------------------------------------
# Confidence machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConfidenceState:
    t: int
    theta_hat: np.ndarray
    hessian_at_hat: np.ndarray
    gradient_map_at_hat: np.ndarray
    lambda_T: float
    gamma_t: float
    delta: float

    def __post_init__(self):
        if not (self.gamma_t > 0 and self.lambda_T >= 1.0):
            raise InvalidArgumentError(
                f"need gamma_t > 0 and lambda_T >= 1, got {self.gamma_t}, {self.lambda_T}")
        if not 0.0 < self.delta <= 1.0:
            raise InvalidArgumentError(f"delta must lie in (0, 1], got {self.delta}")


def _log_term(L: float, d: int, t: int, delta: float) -> float:
    return math.log(max(math.e * math.sqrt(1.0 + t * L / d), 1.0 / delta))


def regularizer_schedule(inst: GlbInstance, T: int, delta: float) -> float:
    """lambda_T = 1 v (2 d M / S0) log(e sqrt(1 + T L / d) v 1/delta)."""
    if T < 1 or not 0.0 < delta <= 1.0:
        raise InvalidArgumentError(f"need T >= 1 and delta in (0, 1], got T={T}, delta={delta}")
    return max(1.0, (2.0 * inst.d * inst.M / inst.S0) * _log_term(inst.L, inst.d, T, delta))


def confidence_radius(inst: GlbInstance, t: int, T: int, delta: float,
                      lam: float | None = None) -> float:
    """gamma_t = sqrt(lam)(1/(2M) + S0) + (4 M d / sqrt(lam)) log(e sqrt(1 + t L/d) v 1/delta)."""
    if not 1 <= t <= T:
        raise InvalidArgumentError(f"need 1 <= t <= T, got t={t}, T={T}")
    lam = regularizer_schedule(inst, T, delta) if lam is None else float(lam)
    root = math.sqrt(lam)
    return root * (0.5 / inst.M + inst.S0) + (4.0 * inst.M * inst.d / root) \
        * _log_term(inst.L, inst.d, t, delta)


# Stacked forms: row r of theta_hat (R, d), H (R, d, d), g_hat (R, d) and the
# history X (R, n, d) belongs to replicate r; the public functions are their R = 1 calls.

def _exact_norms_sq(family: NefFamily, X, lam: float, lam_eye, theta, inner, g_hat):
    """||g(theta) - g_hat||^2 in the inverse Hessian at theta, per replicate."""
    w = _gradient_maps(family, X, lam, theta, inner) - g_hat
    sol = np.empty_like(w)
    for exc in _cholesky_solves(_hessians(family, X, lam_eye, inner), w, sol).values():
        raise exc
    return np.vecdot(w, sol)


def _relaxed_norms_sq(theta, theta_hat, H):
    """||theta - theta_hat||^2 in H, per replicate."""
    gap = theta - theta_hat
    return np.vecdot(np.vecmat(gap, H), gap)


def _optimistic_indices(inst: GlbInstance, theta_hat, H, gamma: float) -> np.ndarray:
    """x' theta_hat + c gamma ||x||_{H^-1} for every replicate (row) and arm (column)."""
    sol_t = np.empty((len(H), inst.n_arms, inst.d))  # replicate r's potrs solution, transposed
    for exc in _cholesky_solves(H, inst.arms.T[None], sol_t.mT).values():
        raise exc
    bonus_sq = np.einsum("ij,rij->ri", inst.arms, sol_t)
    return np.matvec(inst.arms, theta_hat) \
        + inst.diameter_factor * gamma * np.sqrt(np.maximum(bonus_sq, 0.0))


def exact_membership(inst: GlbInstance, state: ConfidenceState, data, theta) -> bool:
    """theta in C_t: the gradient-map gap measured in the inverse Hessian at theta."""
    theta = np.asarray(theta, dtype=float).ravel()
    if np.linalg.norm(theta) > inst.S0 + 1e-12:
        return False
    theta, inner = _inner_products(inst.family, data, theta, op="exact_membership")
    lam = state.lambda_T
    q = _exact_norms_sq(inst.family, data.arms[None], lam, lam * np.eye(theta.shape[1]),
                        theta, inner, state.gradient_map_at_hat[None])
    return float(q[0]) <= state.gamma_t**2


def relaxed_membership(inst: GlbInstance, state: ConfidenceState, theta) -> bool:
    """theta in E_t: Hessian-at-estimate ellipsoid of radius c gamma_t."""
    q = _relaxed_norms_sq(np.asarray(theta, dtype=float).reshape(1, -1),
                          state.theta_hat[None], state.hessian_at_hat[None])
    r = inst.diameter_factor * state.gamma_t
    return float(q[0]) <= r * r


def optimistic_choice(inst: GlbInstance, state: ConfidenceState) -> tuple[int, float]:
    """Arm with the largest optimistic index; ties go to the lowest index."""
    idx_vals = _optimistic_indices(inst, state.theta_hat[None], state.hessian_at_hat[None],
                                   state.gamma_t)[0]
    best = int(np.argmax(idx_vals))
    return best, float(idx_vals[best])


# ---------------------------------------------------------------------------
# The round loop
# ---------------------------------------------------------------------------

class RoundLog(NamedTuple):
    t: int
    arm: int
    index: float
    reward: float
    inst_regret: float
    cum_regret: float
    exact_cover: bool
    relaxed_cover: bool


@dataclass(frozen=True)
class RunResult:
    rounds: tuple[RoundLog, ...]
    aborted: bool = False
    abort_reason: str = ""

    @property
    def cum_regret(self) -> float:
        return self.rounds[-1].cum_regret if self.rounds else 0.0

    @property
    def all_rounds_covered(self) -> bool:
        return all(r.exact_cover for r in self.rounds)

    def cum_regret_at(self, t: int) -> float:
        return self.rounds[t - 1].cum_regret


def run_ofu_glb(inst: GlbInstance, T: int, delta: float, seed: int = 0,
                replicate: int = 0, lam_override: float | None = None) -> RunResult:
    """Play T rounds; returns per-round logs, deterministic given (seed, replicate)."""
    return run_replicates(inst, T, delta, seed, [replicate], lam_override)[0]


def run_replicates(inst: GlbInstance, T: int, delta: float, seed: int, replicates,
                   lam_override: float | None = None) -> list[RunResult]:
    """Play T rounds of every listed replicate in lockstep, as one array program.

    Result k is a pure function of (seed, replicates[k]): each replicate draws from
    its own stream and keeps its own fit, so it gets the same bytes in any batch.
    A replicate whose fit fails stops there with the reason ``round t: ...``.
    """
    rngs = [replicate_stream(seed, k) for k in replicates]
    lam = regularizer_schedule(inst, T, delta) if lam_override is None else float(lam_override)
    family, arms, d = inst.family, inst.arms, inst.d
    _, star_mean = inst.best_arm()
    arm_inner = arms @ inst.theta_star
    arm_means, arm_inner = family.base.mean_at(arm_inner).tolist(), arm_inner.tolist()
    lam_eye = lam * np.eye(d)
    R = len(rngs)
    logs: list[list] = [[] for _ in range(R)]  # RoundLog fields after t, a tuple per round
    reasons: dict[int, str] = {}  # abort reasons by replicate position
    live = list(range(R))  # positions of the replicates still running
    X, y = np.zeros((R, T, d)), np.zeros((R, T))
    theta, cum = np.zeros((R, d)), [0.0] * R
    star = np.repeat(inst.theta_star[None], R, axis=0)
    for t in range(1, T + 1):
        n = t - 1
        fit = _fit_stack(family, X[:, :n], y[:, :n], lam, lam_eye, theta)
        theta, H, g_hat = fit.theta, fit.H, fit.g
        if fit.errors:
            reasons.update({live[i]: f"round {t}: {exc}" for i, exc in fit.errors.items()})
            keep = [i not in fit.errors for i in range(len(live))]
            live, rngs, cum = ([v for v, k in zip(a, keep) if k] for a in (live, rngs, cum))
            X, y, theta, H, g_hat, star = (a[keep] for a in (X, y, theta, H, g_hat, star))
            if not live:
                break
        Xn = X[:, :n]
        gamma = confidence_radius(inst, t, T, delta, lam=lam)
        idx_vals = _optimistic_indices(inst, theta, H, gamma)
        r = inst.diameter_factor * gamma
        exact = _exact_norms_sq(family, Xn, lam, lam_eye, star, np.matvec(Xn, star), g_hat)
        relaxed = _relaxed_norms_sq(star, theta, H)
        chosen = idx_vals.argmax(axis=1).tolist()
        rewards = []
        for i, (k, a, vals, rng, ex, rel) in enumerate(zip(
                live, chosen, idx_vals.tolist(), rngs, (exact <= gamma**2).tolist(),
                (relaxed <= r * r).tolist())):
            reward = float(family.base.sample_tilted(arm_inner[a], rng))
            inst_regret = star_mean - arm_means[a]
            cum[i] += inst_regret
            logs[k].append((a, vals[a], reward, inst_regret, cum[i], ex, rel))
            rewards.append(reward)
        X[:, n] = arms[chosen]
        y[:, n] = rewards
    return [RunResult(rounds=tuple(RoundLog(t, *row) for t, row in enumerate(log, 1)),
                      aborted=k in reasons, abort_reason=reasons.get(k, ""))
            for k, log in enumerate(logs)]


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
        return {"term1": self.term1, "term2": self.term2, "term3": self.term3,
                "total": self.total, "gamma_T": self.gamma_T, "lambda_T": self.lambda_T,
                "c": self.c, "K": self.K, "kappa": self.kappa,
                "mu_dot_star": self.mu_dot_star}


def theoretical_regret_bound(inst: GlbInstance, T: int, delta: float,
                             lam: float | None = None) -> RegretBound:
    """Three-term regret cap with the exact printed constants.

    term1 = 8 c gamma_T sqrt(d mu'(x*' th*) (1 + L/lam) log(1 + LT/(d lam)) T)
    term2 = 8 c^2 gamma_T^2 L^2 K kappa log(lam + T/d)
    term3 = 32 c^2 gamma_T^2 K d (1 + L/lam) log(1 + LT/(d lam))

    with c = 1 + 2 K (S1 - S2) and kappa the inverse variance at the
    best arm.  A zero stretch supremum zeroes the second-order terms.
    """
    lam = regularizer_schedule(inst, T, delta) if lam is None else float(lam)
    gamma_T = confidence_radius(inst, T, T, delta, lam=lam)
    star_idx, _ = inst.best_arm()
    mu_dot_star = float(inst.family.base.dmean_at(float(inst.arms[star_idx] @ inst.theta_star)))
    c = inst.diameter_factor
    d, L, K = inst.d, inst.L, inst.K
    log_growth = math.log(1.0 + L * T / (d * lam))
    term1 = 8.0 * c * gamma_T * math.sqrt(d * mu_dot_star * (1.0 + L / lam) * log_growth * T)
    if K == 0.0:
        term2 = 0.0
        term3 = 0.0
        kappa = math.inf if mu_dot_star == 0.0 else 1.0 / mu_dot_star
    else:
        kappa = 1.0 / mu_dot_star
        term2 = 8.0 * c**2 * gamma_T**2 * L**2 * K * kappa * math.log(lam + T / d)
        term3 = 32.0 * c**2 * gamma_T**2 * K * d * (1.0 + L / lam) * log_growth
    return RegretBound(term1=term1, term2=term2, term3=term3, gamma_T=gamma_T,
                       lambda_T=lam, c=c, K=K, kappa=kappa, mu_dot_star=mu_dot_star)


# ---------------------------------------------------------------------------
# Auxiliary inequality checks
# ---------------------------------------------------------------------------

def elliptical_potential_check(vectors, lam: float, A: float) -> dict:
    """sum_t ||a_t||^2 over inv(V_{t-1}) against 2 d max(1, A^2/lam) log(1 + n A^2/(d lam))."""
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
    n, d = vectors.shape if vectors.size else (0, 1)
    if lam <= 0 or A <= 0:
        raise InvalidArgumentError(f"need lam > 0 and A > 0, got {lam}, {A}")
    if n and np.max(np.linalg.norm(vectors, axis=1)) > A + 1e-12:
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
