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
from dataclasses import InitVar, dataclass
from typing import NamedTuple

import numpy as np

from .distributions import BaseDistribution, NefFamily, _freeze, _ratio_given_variance
from .errors import ConfigError, DomainError, InvalidArgumentError
from .glm import _cholesky_solves, _fit_stack, _inner_products
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


def _check_range(S2: float, S1: float, c1: float, c2: float) -> None:
    """-c2 < S2 <= S1 < c1, or a ConfigError naming the constant of the first failed step."""
    for ok, name in ((-c2 < S2, "c2"), (S2 <= S1, "S2"), (S1 < c1, "c1")):
        if not ok:
            raise ConfigError(f"admissible range must satisfy -c2 < S2 <= S1 < c1, got "
                              f"S2={S2}, S1={S1}, c1={c1}, c2={c2}", name=name)


def _m_terms(K: float, S1: float, S2: float, c1: float, c2: float) -> dict[str, float]:
    """The three floors of M, by the constant that sets each; M >= their max."""
    return {"K": K / math.log(2.0), "c1": 1.0 / (c1 - S1), "c2": 1.0 / (c2 + S2)}


@dataclass(frozen=True)
class GlbInstance:
    """Arm set, true parameter, reward family, and the algorithm constants.

    Invariants: arms in the closed unit ball, every x' theta_star inside
    [S2, S1] strictly inside the natural parameter interval with
    -c2 < S2 <= S1 < c1, L at least the variance supremum on [S2, S1]
    and at least 1, K >= 0, every constant finite, and
    M >= max(K / log 2, 1/(c1 - S1), 1/(c2 + S2)).  A ConfigError's ``name`` is
    the constant (or ``arms``) that fails.
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
    variance_sup: InitVar[float | None] = None  # max of mu' on L's check grid, if known

    def __post_init__(self, variance_sup):
        arms = np.atleast_2d(np.asarray(self.arms, dtype=float))
        theta = np.asarray(self.theta_star, dtype=float).ravel()
        if arms.shape[0] == 0:
            raise ConfigError("arm set must be nonempty", name="arms")
        norms = np.linalg.norm(arms, axis=1)
        if norms.max() > 1.0 + 1e-12:
            raise ConfigError(f"arms must lie in the closed unit ball; max norm {norms.max():.6g}",
                              name="arms")
        if np.linalg.norm(theta) > self.S0 + 1e-12:
            raise ConfigError(f"the true parameter has norm {np.linalg.norm(theta):.6g} > "
                              f"S0={self.S0}", name="S0")
        _check_range(self.S2, self.S1, self.c1, self.c2)
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
        sup = variance_sup if variance_sup is not None else \
            float(np.max(self.family.base.dmean_at(np.linspace(self.S2, self.S1, _GRID))))
        if not self.L >= sup * (1 - 1e-9):  # a NaN supremum fails too
            raise ConfigError(f"L={self.L} is below the variance supremum {sup:.6g} on [S2, S1]",
                              name="L")
        m_floor = max(_m_terms(self.K, self.S1, self.S2, self.c1, self.c2).values())
        if self.M < m_floor * (1 - 1e-9):
            raise ConfigError(f"M={self.M} violates M >= max(K/log 2, 1/(c1-S1), 1/(c2+S2)) "
                              f"= {m_floor:.6g}", name="M")
        _freeze(self, arms=arms, theta_star=theta)

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
    rates halfway from the tilt range to a finite domain endpoint
    (c1 = (S1 + hi)/2, c2 = -(S2 + lo)/2) and max(1, 1.25 |S|) on infinite
    sides; L and K as grid suprema of mu' and |mu''|/mu' on [S2, S1]; M at
    its floor.

    A failed check raises a ConfigError whose ``name`` is the argument at fault. A
    derived constant names the argument it comes from: S1 and S2 come from S0, c1
    from S1, c2 from S2, L and K from the wider end of [S2, S1], M from its largest floor.
    """
    arms = np.atleast_2d(np.asarray(arms, dtype=float))
    theta_star = np.asarray(theta_star, dtype=float).ravel()
    given = {name for name, value in (("S1", S1), ("S2", S2), ("c1", c1), ("c2", c2),
                                      ("L", L), ("K", K)) if value is not None}
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
    source = {end: end if end in given else "S0" for end in ("S1", "S2")}
    wide = source["S1"] if abs(S1) >= abs(S2) else source["S2"]
    source.update({"c1": source["S1"], "c2": source["S2"], "L": wide, "K": wide})
    source.update({name: name for name in given})
    try:
        if not S2 <= S1:
            raise ConfigError(f"need S2 <= S1, got S2={S2}, S1={S1}",
                              name="S2" if "S2" in given else "S1")
        _check_range(S2, S1, c1, c2)
        if not math.isfinite(S1 - S2):
            raise ConfigError(f"the tilt range [{S2}, {S1}] is wider than the float range",
                              name=wide)
        try:
            family = NefFamily(base, S2, S1)
        except DomainError as exc:
            raise ConfigError(str(exc), name="S2" if S2 < base.interior[0] else "S1") from exc
        grid = np.linspace(S2, S1, _GRID)  # interior: NefFamily checked [S2, S1]
        with np.errstate(over="ignore", invalid="ignore"):  # GlbInstance rejects inf and NaN
            var = base.dmean_at(grid)
            var_sup = float(np.max(var))
            if K is None:
                K = float(np.max(_ratio_given_variance(base, grid, var)))
        L = max(1.0, var_sup) if L is None else L
        floors = _m_terms(K, S1, S2, c1, c2)
        source["M"] = source[max(floors, key=floors.get)]
        return GlbInstance(arms=arms, theta_star=theta_star, family=family, S0=float(S0),
                           S1=S1, S2=S2, L=float(L), K=float(K), M=float(max(floors.values())),
                           c1=float(c1), c2=float(c2), variance_sup=var_sup)
    except ConfigError as exc:
        exc.name = source.get(exc.name, exc.name)
        raise


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
# row counts (R, m) belongs to replicate r; the public functions are their R = 1 calls.

def _exact_norms_sq(rows, counts, mu, dmu, lam: float, lam_eye, theta, g_hat):
    """||g(theta) - g_hat||^2 in the inverse Hessian at theta, per replicate, from rows x_a
    (m, d) played n_a times (counts (R, m)) with mean mu_a and derivative dmu_a (m,) at
    x_a' theta: g = lam theta + sum_a n_a mu_a x_a, H = lam I + sum_a n_a dmu_a x_a x_a'."""
    w = lam * theta + np.vecmat(counts * mu, rows) - g_hat
    H = lam_eye + np.matmul(rows.T * (counts * dmu)[:, None, :], rows)
    sol = np.empty_like(w)
    for exc in _cholesky_solves(H, w, sol).values():
        raise exc
    return np.vecdot(w, sol)


def _relaxed_norms_sq(theta, theta_hat, H):
    """||theta - theta_hat||^2 in H, per replicate."""
    gap = theta - theta_hat
    return np.vecdot(np.vecmat(gap, H), gap)


def _optimistic_indices(inst: GlbInstance, theta_hat, H, gamma: float) -> np.ndarray:
    """x' theta_hat + c gamma ||x||_{H^-1} for every replicate (row) and arm (column)."""
    sol_t = np.empty((len(H), inst.n_arms, inst.d))  # replicate r's posv solution, transposed
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
    rows, first, counts = np.unique(data.arms, axis=0, return_index=True, return_counts=True)
    base, lam, u = inst.family.base, state.lambda_T, inner[0, first]
    q = _exact_norms_sq(rows, counts[None], base.mean_at(u), base.dmean_at(u), lam,
                        lam * np.eye(theta.shape[1]), theta[0], state.gradient_map_at_hat[None])
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
    streams = [replicate_stream(seed, k).random(T) for k in replicates]  # a uniform per round
    R = len(streams)
    uniforms = np.array(streams).reshape(R, T).T.copy()  # row n: round n + 1, contiguous
    lam = regularizer_schedule(inst, T, delta) if lam_override is None else float(lam_override)
    family, base, arms, d = inst.family, inst.family.base, inst.arms, inst.d
    _, star_mean = inst.best_arm()
    arm_inner = arms @ inst.theta_star
    arm_mu, arm_dmu = base.mean_at(arm_inner), base.dmean_at(arm_inner)
    lam_eye = lam * np.eye(d)
    # per replicate and round: arm, index, reward, exact and relaxed cover
    arm_col, index_col, reward_col, exact_col, relaxed_col = np.zeros((5, R, T))
    played = np.full(R, T)  # rounds logged: a replicate's columns end there
    reasons: dict[int, str] = {}  # abort reasons by replicate position
    live = np.arange(R)  # positions of the replicates still running
    X, y = np.zeros((R, T, d)), np.zeros((R, T))
    counts, theta = np.zeros((R, inst.n_arms)), np.zeros((R, d))  # plays per arm, estimates
    for t in range(1, T + 1):
        n = t - 1
        fit = _fit_stack(family, X[:, :n], y[:, :n], lam, lam_eye, theta)
        theta, H, g_hat = fit.theta, fit.H, fit.g
        if fit.errors:
            reasons.update({int(live[i]): f"round {t}: {exc}" for i, exc in fit.errors.items()})
            played[live[list(fit.errors)]] = n
            keep = [i not in fit.errors for i in range(len(live))]
            live, X, y, counts, theta, H, g_hat = (
                a[keep] for a in (live, X, y, counts, theta, H, g_hat))
            if not live.size:
                break
        gamma = confidence_radius(inst, t, T, delta, lam=lam)
        idx_vals = _optimistic_indices(inst, theta, H, gamma)
        r = inst.diameter_factor * gamma
        exact_col[live, n] = _exact_norms_sq(arms, counts, arm_mu, arm_dmu, lam, lam_eye,
                                             inst.theta_star, g_hat) <= gamma**2
        relaxed_col[live, n] = _relaxed_norms_sq(inst.theta_star, theta, H) <= r * r
        chosen = idx_vals.argmax(axis=1)
        rows = np.arange(len(live))
        arm_col[live, n] = chosen
        index_col[live, n] = idx_vals[rows, chosen]
        y[:, n] = reward_col[live, n] = base.tilted_inverse_cdf(arm_inner[chosen],
                                                                uniforms[n, live])
        X[:, n] = arms[chosen]
        counts[rows, chosen] += 1.0
    regret_col = (star_mean - arm_mu)[arm_col.astype(int)]
    cum_col = np.cumsum(regret_col, axis=1) + 0.0  # a running sum from 0.0 never reads -0.0
    cols = (arm_col.astype(int), index_col, reward_col, regret_col, cum_col, exact_col > 0,
            relaxed_col > 0)
    return [RunResult(rounds=tuple(map(RoundLog, range(1, n + 1),
                                       *(c[k, :n].tolist() for c in cols))),
                      aborted=k in reasons, abort_reason=reasons.get(k, ""))
            for k, n in enumerate(played.tolist())]


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
