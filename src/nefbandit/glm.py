"""Regularized maximum-likelihood estimation for linearly tilted rewards.

The loss of a parameter theta on rows (x_i, y_i) is

    L(theta) = (lam/2) ||theta||^2 + sum_i [psi(x_i' theta) - y_i x_i' theta],

strictly convex for lam > 0.  Its curvature is carried by the mean
function: the gradient map g(theta) = sum_i mu(x_i' theta) x_i +
lam theta satisfies grad L = g(theta) - sum_i x_i y_i, the Hessian is
lam I + sum_i mu'(x_i' theta) x_i x_i', and the secant matrix built
from difference quotients of mu turns gradient gaps into exact linear
maps of parameter gaps.

The solver is damped Newton with a hard feasibility guard: a step is
shortened until every inner product stays strictly inside the natural
parameter interval before the loss is ever evaluated there, since the
interval can be bounded (the loss blows up at the boundary).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .distributions import NefFamily
from .errors import DomainError, InvalidArgumentError, OptimizationError

__all__ = [
    "Dataset",
    "FitResult",
    "loss",
    "gradient_map",
    "full_gradient",
    "hessian",
    "cholesky_solve",
    "difference_quotient_matrix",
    "fit_mle",
]

_ARMIJO = 1e-4
_BACKTRACK = 0.5
_GRAD_TOL = 1e-8
_MAX_ITERS = 60
_ALPHA_COINCIDENCE = 1e-8
_POTRF, _POTRS = linalg.get_lapack_funcs(("potrf", "potrs"), (np.eye(1),))


@dataclass(frozen=True)
class Dataset:
    """Rows (x_i, y_i) with every arm inside the closed unit ball."""

    arms: np.ndarray     # (n, d)
    rewards: np.ndarray  # (n,)

    def __post_init__(self):
        arms = np.atleast_2d(np.asarray(self.arms, dtype=float))
        rewards = np.asarray(self.rewards, dtype=float).ravel()
        if arms.size == 0:
            arms = arms.reshape(0, arms.shape[1] if arms.ndim == 2 and arms.shape[1] else 1)
        if arms.shape[0] != rewards.shape[0]:
            raise InvalidArgumentError(
                f"got {arms.shape[0]} arms but {rewards.shape[0]} rewards")
        if not (np.isfinite(arms).all() and np.isfinite(rewards).all()):
            raise InvalidArgumentError("arms and rewards must be finite")
        norms = np.linalg.norm(arms, axis=1) if arms.size else np.zeros(0)
        if arms.size and norms.max(initial=0.0) > 1.0 + 1e-12:
            raise InvalidArgumentError(
                f"arm rows must lie in the closed unit ball; max norm {norms.max():.6g}")
        arms = arms.copy()
        rewards = rewards.copy()
        arms.flags.writeable = False
        rewards.flags.writeable = False
        object.__setattr__(self, "arms", arms)
        object.__setattr__(self, "rewards", rewards)

    @property
    def n(self) -> int:
        return self.arms.shape[0]

    @property
    def d(self) -> int:
        return self.arms.shape[1]


def _inner_products(family: NefFamily, data: Dataset, theta: np.ndarray,
                    *, op: str) -> np.ndarray:
    theta = np.asarray(theta, dtype=float).ravel()
    if data.n and theta.shape[0] != data.d:
        raise InvalidArgumentError(f"theta has dim {theta.shape[0]}, data has dim {data.d}")
    inner = data.arms @ theta if data.n else np.zeros(0)
    lo, hi = family.base.mgf_domain
    m = family.base.domain_margin()
    bad_hi = math.isfinite(hi) and inner.size and inner.max() > hi - m
    bad_lo = math.isfinite(lo) and inner.size and inner.min() < lo + m
    if bad_hi or bad_lo:
        idx = int(np.argmax(inner) if bad_hi else np.argmin(inner))
        raise DomainError(f"{op}: inner product of row {idx} leaves the natural "
                          f"parameter interval", value=float(inner[idx]), interval=(lo, hi))
    return inner


def _gradient_map_at(family: NefFamily, data: Dataset, lam: float, theta: np.ndarray,
                     inner: np.ndarray) -> np.ndarray:
    g = lam * theta
    if data.n:
        g = g + data.arms.T @ np.asarray(family.base.mean_at(inner), dtype=float)
    return g


def _hessian_at(family: NefFamily, data: Dataset, lam_eye: np.ndarray,
                inner: np.ndarray) -> np.ndarray:
    if not data.n:
        return lam_eye
    w = np.asarray(family.base.dmean_at(inner), dtype=float)
    return lam_eye + (data.arms * w[:, None]).T @ data.arms


def loss(family: NefFamily, data: Dataset, lam: float, theta: np.ndarray) -> float:
    if lam <= 0:
        raise InvalidArgumentError(f"ridge weight must be positive, got {lam}")
    theta = np.asarray(theta, dtype=float).ravel()
    inner = _inner_products(family, data, theta, op="loss")
    reg = 0.5 * lam * float(theta @ theta)
    if data.n == 0:
        return reg
    psi = np.asarray(family.base.log_mgf(inner), dtype=float)
    return reg + float(np.sum(psi - data.rewards * inner))


def gradient_map(family: NefFamily, data: Dataset, lam: float, theta: np.ndarray) -> np.ndarray:
    """g(theta) = sum_i mu(x_i' theta) x_i + lam theta (reward terms excluded)."""
    theta = np.asarray(theta, dtype=float).ravel()
    inner = _inner_products(family, data, theta, op="gradient_map")
    return _gradient_map_at(family, data, lam, theta, inner)


def full_gradient(family: NefFamily, data: Dataset, lam: float, theta: np.ndarray) -> np.ndarray:
    g = gradient_map(family, data, lam, theta)
    if data.n:
        g = g - data.arms.T @ data.rewards
    return g


def hessian(family: NefFamily, data: Dataset, lam: float, theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=float).ravel()
    inner = _inner_products(family, data, theta, op="hessian")
    return _hessian_at(family, data, lam * np.eye(theta.shape[0]), inner)


def cholesky_solve(H: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve H x = b with LAPACK potrf/potrs on the lower triangle of H: scipy's
    ``cho_factor(H, lower=True)`` + ``cho_solve`` bit for bit, minus their wrapper cost.
    Raises ValueError on non-finite input, LinAlgError if H is not positive definite."""
    if not (np.isfinite(H).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    c, info = _POTRF(H, lower=1, overwrite_a=0, clean=0)
    if info > 0:
        raise linalg.LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    x, solve_info = _POTRS(c, b, lower=1, overwrite_b=0)
    if info or solve_info:
        raise ValueError(f"LAPACK reported an illegal argument ({info}, {solve_info})")
    return x


def _alpha(family: NefFamily, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Difference quotient of mu; falls back to mu' at the midpoint when u ≈ v."""
    gap = u - v
    close = np.abs(gap) <= _ALPHA_COINCIDENCE
    mu_u = np.asarray(family.base.mean_at(u), dtype=float)
    mu_v = np.asarray(family.base.mean_at(v), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        quot = (mu_u - mu_v) / gap
    mid = np.asarray(family.base.dmean_at(0.5 * (u + v)), dtype=float)
    return np.where(close, mid, quot)


def difference_quotient_matrix(family: NefFamily, data: Dataset, lam: float,
                               theta1: np.ndarray, theta2: np.ndarray) -> np.ndarray:
    inner1 = _inner_products(family, data, theta1, op="difference_quotient_matrix")
    inner2 = _inner_products(family, data, theta2, op="difference_quotient_matrix")
    d = np.asarray(theta1, dtype=float).ravel().shape[0]
    G = lam * np.eye(d)
    if data.n:
        a = _alpha(family, inner1, inner2)
        G = G + (data.arms * a[:, None]).T @ data.arms
    return G


@dataclass(frozen=True)
class FitResult:
    theta_hat: np.ndarray
    gradient_norm: float
    newton_iters: int
    converged: bool
    inner_lo: float
    inner_hi: float
    outside_admissible: bool   # any x_i' theta_hat outside [param_lo, param_hi]
    hessian_at_hat: np.ndarray       # hessian(..., theta_hat), bit for bit
    gradient_map_at_hat: np.ndarray  # gradient_map(..., theta_hat), bit for bit

    def __post_init__(self):
        if self.converged and self.gradient_norm > _GRAD_TOL:
            raise InvalidArgumentError("converged fit must have gradient norm <= 1e-8")


def _evaluate(family: NefFamily, data: Dataset, lam: float, theta: np.ndarray,
              reward_map: np.ndarray):
    """(inner products, loss, gradient map, full gradient) at theta, None if infeasible;
    bit for bit ``loss``/``gradient_map``/``full_gradient``, reward_map being X' y."""
    try:
        inner = _inner_products(family, data, theta, op="fit_mle")
    except DomainError:
        return None
    psi = np.asarray(family.base.log_mgf(inner), dtype=float)
    f = 0.5 * lam * float(theta @ theta) + float(np.sum(psi - data.rewards * inner))
    g = _gradient_map_at(family, data, lam, theta, inner)
    return inner, f, g, g - reward_map


def fit_mle(family: NefFamily, data: Dataset, lam: float,
            init: np.ndarray | None = None) -> FitResult:
    """Damped Newton minimizer of the ridge-regularized negative log-likelihood."""
    if lam <= 0:
        raise InvalidArgumentError(f"ridge weight must be positive, got {lam}")
    d = data.d if data.n else (len(np.asarray(init).ravel()) if init is not None else data.d)
    lam_eye = lam * np.eye(d)
    if data.n == 0:
        return FitResult(theta_hat=np.zeros(d), gradient_norm=0.0, newton_iters=0,
                         converged=True, inner_lo=0.0, inner_hi=0.0,
                         outside_admissible=False, hessian_at_hat=lam_eye,
                         gradient_map_at_hat=lam * np.zeros(d))
    theta = np.zeros(d) if init is None else np.asarray(init, dtype=float).ravel().copy()
    reward_map = data.arms.T @ data.rewards
    point = _evaluate(family, data, lam, theta, reward_map)
    if point is None:
        raise DomainError("initial point is infeasible for the data",
                          value=None, interval=family.base.mgf_domain)
    inner, f, g, grad = point
    gnorm = float(np.linalg.norm(grad))
    iters = 0
    while gnorm > _GRAD_TOL and iters < _MAX_ITERS:
        try:
            step = -cholesky_solve(_hessian_at(family, data, lam_eye, inner), grad)
        except linalg.LinAlgError as exc:
            raise OptimizationError(f"Hessian factorization failed: {exc}",
                                    diagnostics={"iter": iters, "theta": theta.tolist()})
        slope = float(grad @ step)
        # near the optimum the Newton decrement drops below the floating
        # resolution of the loss; sufficient-decrease tests are pure noise
        # there, so take the (feasibility-clipped) full step instead
        fp_noise = 1e-13 * (1.0 + abs(f))
        armijo = -slope > fp_noise
        t = 1.0
        while t > 1e-16:
            trial = theta + t * step
            point = _evaluate(family, data, lam, trial, reward_map)
            if point is not None and (
                    not armijo or point[1] <= f + _ARMIJO * t * slope + fp_noise):
                break
            t *= _BACKTRACK
        if t <= 1e-16:
            raise OptimizationError(
                "no domain-feasible descent step found",
                diagnostics={"iter": iters, "gradient_norm": gnorm,
                             "theta": theta.tolist(), "step": step.tolist()})
        theta = trial
        inner, f, g, grad = point
        gnorm = float(np.linalg.norm(grad))
        iters += 1

    lo_i, hi_i = float(inner.min()), float(inner.max())
    outside = bool(lo_i < family.param_lo - 1e-12 or hi_i > family.param_hi + 1e-12)
    return FitResult(theta_hat=theta, gradient_norm=gnorm, newton_iters=iters,
                     converged=bool(gnorm <= _GRAD_TOL), inner_lo=lo_i, inner_hi=hi_i,
                     outside_admissible=outside,
                     hessian_at_hat=_hessian_at(family, data, lam_eye, inner),
                     gradient_map_at_hat=g)
