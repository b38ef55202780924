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
from typing import NamedTuple

import numpy as np
from scipy import linalg

from .distributions import NefFamily, _freeze
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
_POSV = linalg.get_lapack_funcs("posv", (np.eye(1),))


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
        _freeze(self, arms=arms, rewards=rewards)

    @property
    def n(self) -> int:
        return self.arms.shape[0]

    @property
    def d(self) -> int:
        return self.arms.shape[1]


# Stacked kernels over R replicates: rows X (R, n, d), rewards y (R, n), theta (R, d),
# inner products (R, n).  np.matvec/vecmat/vecdot/matmul make one BLAS call per
# replicate with the shapes of the 2-D call (X @ theta, X.T @ v, a @ b, A.T @ B), so
# each slice has the one-replicate bits; the public functions are the R = 1 calls.

def _outside(guard: tuple[float, float], inner: np.ndarray) -> np.ndarray:
    """Mask of the replicates with an inner product outside the guard interval."""
    lo, hi = guard
    if not inner.shape[1] or (hi == math.inf and lo == -math.inf):
        return np.zeros(inner.shape[0], dtype=bool)
    if lo == -math.inf:
        return np.maximum.reduce(inner, axis=1) > hi
    if hi == math.inf:
        return np.minimum.reduce(inner, axis=1) < lo
    return (np.maximum.reduce(inner, axis=1) > hi) | (np.minimum.reduce(inner, axis=1) < lo)


def _losses(family: NefFamily, y, lam: float, theta, inner) -> np.ndarray:
    return 0.5 * lam * np.vecdot(theta, theta) \
        + np.add.reduce(family.base.log_mgf(inner) - y * inner, axis=1)


def _gradient_maps(family: NefFamily, X, lam: float, theta, inner) -> np.ndarray:
    g = lam * theta
    if X.shape[1]:
        g = g + np.vecmat(family.base.mean_at(inner), X)
    return g


def _hessians(family: NefFamily, X, lam_eye: np.ndarray, inner) -> np.ndarray:
    return lam_eye + np.matmul((X * family.base.dmean_at(inner)[:, :, None]).mT, X)


def _cholesky_solves(H: np.ndarray, B: np.ndarray, out: np.ndarray) -> dict:
    """Write H_r^{-1} B_r into out[r] by one LAPACK posv call on the lower triangle of
    each H_r (its potrf + potrs: scipy's cho_factor(lower=True) + cho_solve bit for bit);
    a one-row B serves every H_r.  Returns {r: LinAlgError} for each H_r not positive
    definite, leaving out[r] as it was; ValueError on non-finite input."""
    if not (np.isfinite(H).all() and np.isfinite(B).all()):
        raise ValueError("array must not contain infs or NaNs")
    failed = {}
    shared = B.shape[0] == 1
    for r in range(H.shape[0]):
        _, x, info = _POSV(H[r], B[0] if shared else B[r], lower=1)
        if info > 0:
            failed[r] = linalg.LinAlgError(
                f"{info}-th leading minor of the array is not positive definite")
        elif info:
            raise ValueError(f"LAPACK reported an illegal argument ({info})")
        else:
            out[r] = x
    return failed


def _inner_products(family: NefFamily, data: Dataset, theta, *, op: str):
    """theta and its inner products with the rows, as one-replicate stacks, after
    the domain check."""
    theta = np.asarray(theta, dtype=float).reshape(1, -1)
    if not data.n:
        return theta, np.zeros((1, 0))
    if theta.shape[1] != data.d:
        raise InvalidArgumentError(f"theta has dim {theta.shape[1]}, data has dim {data.d}")
    inner = np.matvec(data.arms[None], theta)
    guard = family.base.interior
    if _outside(guard, inner)[0]:
        row = inner[0]
        idx = int(np.argmax(row) if row.max() > guard[1] else np.argmin(row))
        raise DomainError(f"{op}: inner product of row {idx} leaves the natural parameter "
                          f"interval", value=float(row[idx]), interval=family.base.mgf_domain)
    return theta, inner


def loss(family: NefFamily, data: Dataset, lam: float, theta: np.ndarray) -> float:
    if lam <= 0:
        raise InvalidArgumentError(f"ridge weight must be positive, got {lam}")
    theta, inner = _inner_products(family, data, theta, op="loss")
    return float(_losses(family, data.rewards[None], lam, theta, inner)[0])


def gradient_map(family: NefFamily, data: Dataset, lam: float, theta: np.ndarray) -> np.ndarray:
    """g(theta) = sum_i mu(x_i' theta) x_i + lam theta (reward terms excluded)."""
    theta, inner = _inner_products(family, data, theta, op="gradient_map")
    return _gradient_maps(family, data.arms[None], lam, theta, inner)[0]


def full_gradient(family: NefFamily, data: Dataset, lam: float, theta: np.ndarray) -> np.ndarray:
    g = gradient_map(family, data, lam, theta)
    if data.n:
        g = g - np.vecmat(data.rewards[None], data.arms[None])[0]
    return g


def hessian(family: NefFamily, data: Dataset, lam: float, theta: np.ndarray) -> np.ndarray:
    theta, inner = _inner_products(family, data, theta, op="hessian")
    return _hessians(family, data.arms[None], lam * np.eye(theta.shape[1]), inner)[0]


def cholesky_solve(H: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve H x = b (see ``_cholesky_solves``); LinAlgError if H is not positive definite."""
    b = np.asarray(b, dtype=float)
    x = np.empty_like(b)
    failed = _cholesky_solves(np.asarray(H, dtype=float)[None], b[None], x[None])
    if failed:
        raise failed[0]
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
    _, inner1 = _inner_products(family, data, theta1, op="difference_quotient_matrix")
    _, inner2 = _inner_products(family, data, theta2, op="difference_quotient_matrix")
    d = np.asarray(theta1, dtype=float).ravel().shape[0]
    G = lam * np.eye(d)
    if data.n:
        a = _alpha(family, inner1[0], inner2[0])
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


class _Fits(NamedTuple):  # a stacked fit, row r for replicate r
    theta: np.ndarray     # (R, d) estimates
    inner: np.ndarray     # (R, n) inner products at theta
    g: np.ndarray         # (R, d) gradient maps at theta
    H: np.ndarray         # (R, d, d) Hessians at theta
    gnorm: list           # full-gradient norms
    iters: list           # Newton iterations
    fallback: list        # the start was infeasible and the fit began at the origin
    errors: dict          # {r: OptimizationError} for the replicates whose fit failed


def _fit_stack(family: NefFamily, X: np.ndarray, y: np.ndarray, lam: float,
               lam_eye: np.ndarray, init: np.ndarray) -> _Fits:
    """Damped Newton for R ridge-regularized likelihoods at once (lam_eye = lam I), each
    replicate with its own convergence test, Armijo step length and failure; a
    replicate whose start is infeasible begins at the origin, which never is (zero
    inner products)."""
    R, _, d = X.shape
    guard = family.base.interior
    reward_map = np.vecmat(y, X)

    def evaluate(sel, theta):
        """Outside flags, inner products, losses, gradient maps, gradients, their norms."""
        Xs = X[sel]
        inner = np.matvec(Xs, theta)
        bad = _outside(guard, inner)
        out = bad.tolist()
        if True in out:
            inner[bad] = 0.0  # stand-ins, so no kind is evaluated off its domain
        g = _gradient_maps(family, Xs, lam, theta, inner)
        grad = g - reward_map[sel]
        return (out, inner, _losses(family, y[sel], lam, theta, inner).tolist(), g, grad,
                np.sqrt(np.vecdot(grad, grad)).tolist())

    theta = np.array(init, dtype=float)
    fallback, inner, f, g, grad, gnorm = evaluate(slice(None), theta)
    if True in fallback:
        theta[fallback] = 0.0
        _, inner, f, g, grad, gnorm = evaluate(slice(None), theta)
    iters = [0] * R
    errors: dict = {}
    while True:
        act = [r for r in range(R)
               if gnorm[r] > _GRAD_TOL and iters[r] < _MAX_ITERS and r not in errors]
        if not act:
            break
        sel = slice(None) if len(act) == R else act
        step = np.zeros((len(act), d))  # a failed replicate keeps a zero step: its fit is over
        failed = _cholesky_solves(_hessians(family, X[sel], lam_eye, inner[sel]), grad[sel], step)
        for i, exc in failed.items():
            errors[act[i]] = OptimizationError(f"Hessian factorization failed: {exc}",
                                               diagnostics={"iter": iters[act[i]],
                                                            "theta": theta[act[i]].tolist()})
        step = -step
        slope = np.vecdot(grad[sel], step).tolist()
        t = [1.0] * len(act)
        search = list(range(len(act)))
        trial = theta[sel] + step
        while search:
            rows = [act[i] for i in search]
            out, inner_t, f_t, g_t, grad_t, gnorm_t = evaluate(
                slice(None) if len(rows) == R else rows, trial)
            accept, retry = [], []
            for j, i in enumerate(search):
                r = act[i]
                # near the optimum the Newton decrement drops below the floating
                # resolution of the loss; sufficient-decrease tests are pure noise
                # there, so take the (feasibility-clipped) full step instead
                fp_noise = 1e-13 * (1.0 + abs(f[r]))
                if not out[j] and (not -slope[i] > fp_noise or
                                   f_t[j] <= f[r] + _ARMIJO * t[i] * slope[i] + fp_noise):
                    accept.append(j)
                    f[r], gnorm[r] = f_t[j], gnorm_t[j]
                    iters[r] += 1
                else:
                    retry.append(j)
            if len(accept) == R:
                theta, inner, g, grad = trial, inner_t, g_t, grad_t
            elif accept:
                a = [rows[j] for j in accept]
                theta[a], inner[a], g[a], grad[a] = (
                    trial[accept], inner_t[accept], g_t[accept], grad_t[accept])
            tried, search = search, []
            for j in retry:
                i = tried[j]
                t[i] *= _BACKTRACK
                if t[i] > 1e-16:
                    search.append(i)
                    continue
                r = act[i]
                errors[r] = OptimizationError(
                    "no domain-feasible descent step found",
                    diagnostics={"iter": iters[r], "gradient_norm": gnorm[r],
                                 "theta": theta[r].tolist(), "step": step[i].tolist()})
            if search:
                trial = theta[[act[i] for i in search]] \
                    + np.array([t[i] for i in search])[:, None] * step[search]
    return _Fits(theta, inner, g, _hessians(family, X, lam_eye, inner), gnorm, iters,
                 fallback, errors)


def fit_mle(family: NefFamily, data: Dataset, lam: float,
            init: np.ndarray | None = None) -> FitResult:
    """Damped Newton minimizer of the ridge-regularized negative log-likelihood:
    the one-replicate call of the stacked solver."""
    if lam <= 0:
        raise InvalidArgumentError(f"ridge weight must be positive, got {lam}")
    theta = np.zeros((1, data.d)) if init is None else np.asarray(init, dtype=float).reshape(1, -1)
    d = theta.shape[1]
    if data.n and d != data.d:
        raise InvalidArgumentError(f"theta has dim {d}, data has dim {data.d}")
    X = data.arms[None] if data.n else np.zeros((1, 0, d))
    fit = _fit_stack(family, X, data.rewards[None], lam, lam * np.eye(d), theta)
    if fit.fallback[0]:
        raise DomainError("initial point is infeasible for the data",
                          value=None, interval=family.base.mgf_domain)
    if fit.errors:
        raise fit.errors[0]
    inner = fit.inner[0]
    lo_i, hi_i = (float(inner.min()), float(inner.max())) if data.n else (0.0, 0.0)
    outside = bool(lo_i < family.param_lo - 1e-12 or hi_i > family.param_hi + 1e-12)
    gnorm = fit.gnorm[0]
    return FitResult(theta_hat=fit.theta[0], gradient_norm=gnorm,
                     newton_iters=fit.iters[0], converged=bool(gnorm <= _GRAD_TOL),
                     inner_lo=lo_i, inner_hi=hi_i, outside_admissible=outside,
                     hessian_at_hat=fit.H[0], gradient_map_at_hat=fit.g[0])
