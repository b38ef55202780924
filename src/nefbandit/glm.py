"""Regularized maximum-likelihood estimation for linearly tilted rewards.

The loss of a parameter theta on rows (x_i, y_i) is

    L(theta) = (lam/2) ||theta||^2 + sum_i [psi(x_i' theta) - y_i x_i' theta],

strictly convex for lam > 0.  Its curvature is carried by the mean
function: the gradient map g(theta) = sum_i mu(x_i' theta) x_i +
lam theta satisfies grad L = g(theta) - sum_i x_i y_i, the Hessian is
lam I + sum_i mu'(x_i' theta) x_i x_i', and the secant matrix built
from difference quotients of mu turns gradient gaps into exact linear
maps of parameter gaps.

The solver is damped Newton with one feasibility rule for its start and every
trial: a point is infeasible when an inner product leaves the interior of the
natural parameter interval (checked first, as a bounded interval makes the loss
blow up at its boundary) or when the loss, a curvature weight mu'(x_i' theta) or
the squared gradient norm is not finite.  An infeasible start begins at the
origin; an infeasible trial is shortened.  So every accepted point has a finite
gradient and Hessian (entries at most lam + sum_i mu', rows in the unit ball),
which the Cholesky solves take unchecked; the public ``cholesky_solve`` checks.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass
from functools import cache, partial
from typing import NamedTuple

import numpy as np

from .distributions import NefFamily, _freeze
from .errors import DomainError, InvalidArgumentError, OptimizationError, finite, positive_finite

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
# LAPACK's posv, from scipy.linalg imported at the first solve (most of a cold start's time)
_posv = cache(lambda: importlib.import_module("scipy.linalg").get_lapack_funcs("posv",
                                                                               (np.eye(1),)))
_CHUNK = 16  # replicates per block-diagonal posv call when d <= 2 (timings in CHANGES.md)


def _rows(a, what: str) -> np.ndarray:
    """``a`` as (n, d) float rows with d >= 1 (one vector is one row); a (0, d) array is a
    length-0 history, and an empty input with no dimension is an InvalidArgumentError."""
    rows = np.atleast_2d(np.asarray(a, dtype=float))
    if rows.ndim != 2 or not rows.shape[1]:
        raise InvalidArgumentError(f"{what} must be (n, d) rows with d >= 1; an empty history "
                                   f"is a (0, d) array, got shape {np.shape(a)}")
    return rows


@dataclass(frozen=True, eq=False)
class Dataset:
    """Rows (x_i, y_i) with every arm inside the closed unit ball."""

    arms: np.ndarray     # (n, d)
    rewards: np.ndarray  # (n,)

    def __post_init__(self):
        arms = _rows(self.arms, "arms")
        rewards = np.asarray(self.rewards, dtype=float).ravel()
        if arms.shape[0] != rewards.shape[0]:
            raise InvalidArgumentError(
                f"got {arms.shape[0]} arms but {rewards.shape[0]} rewards")
        finite(arms, "arms")
        finite(rewards, "rewards")
        norm = np.linalg.norm(arms, axis=1).max(initial=0.0)
        if norm > 1.0 + 1e-12:
            raise InvalidArgumentError(
                f"arm rows must lie in the closed unit ball; max norm {norm:.6g}")
        _freeze(self, arms=arms, rewards=rewards)

    @property
    def n(self) -> int:
        return self.arms.shape[0]

    @property
    def d(self) -> int:
        return self.arms.shape[1]


# Stacked kernels over R replicates: rows X (R, n, d), rewards y (R, n), theta (R, d),
# inner products (R, n) and the kind's psi, mu or mu' at them (R, n).  np.matvec/vecmat/
# vecdot/matmul make one BLAS call per replicate with the shapes of the 2-D call (X @ theta,
# X.T @ v, a @ b, A.T @ B), so each slice has the one-replicate bits; the public functions
# are the R = 1 calls.  The fit works on one C-contiguous copy of its rows and rewards, so
# its elementwise passes run as one loop (the round loop's [:, :n] prefixes are strided for
# R > 1; at R = 1 nothing is copied); each slice is still the C-contiguous (n, d) matrix of
# the one-replicate call, so every BLAS/LAPACK call, and so every bit, is the same.

# the ridge-weight rule of every public function: lam as a float, named ``lambda``
_ridge_weight = partial(positive_finite, name="lambda", what="ridge weight")


def _outside(guard: tuple[float, float], inner: np.ndarray) -> np.ndarray:
    """Mask of the replicates with an inner product outside the guard interval."""
    lo, hi = guard
    if not inner.shape[1] or (hi == math.inf and lo == -math.inf):
        return np.zeros(inner.shape[0], dtype=bool)
    if lo == -math.inf:
        return np.maximum.reduce(inner, axis=1) > hi
    return (np.maximum.reduce(inner, axis=1) > hi) | (np.minimum.reduce(inner, axis=1) < lo)


def _losses(y, lam: float, theta, inner, log_m) -> np.ndarray:
    terms = y * inner  # then log_m - terms, in place
    return 0.5 * lam * np.vecdot(theta, theta) \
        + np.add.reduce(np.subtract(log_m, terms, out=terms), axis=1)


def _gradient_maps(X, lam: float, theta, mean) -> np.ndarray:
    return lam * theta + np.vecmat(mean, X)


def _hessians(X, lam_eye: np.ndarray, w) -> np.ndarray:
    """lam I + sum_i w_i x_i x_i' per replicate, from the curvature weights w = mu'(inner)."""
    return lam_eye + np.matmul((X * w[:, :, None]).mT, X)


@cache
def _block_cells(c: int, d: int) -> np.ndarray:
    """Flat indices, in H[:c].ravel() order, of the c diagonal d x d blocks of a (c d)-square."""
    at = np.arange(c)[:, None, None] * d
    return ((at + np.arange(d)[:, None]) * (c * d) + at + np.arange(d)).ravel()


def _cholesky_solves(H: np.ndarray, B: np.ndarray, out: np.ndarray) -> dict:
    """Write H_r^{-1} B_r into out[r] by one LAPACK posv call on the lower triangle of
    each H_r (its potrf + potrs: scipy's cho_factor(lower=True) + cho_solve bit for bit);
    a one-row B serves every H_r, and a -0.0 in B reads as +0.0.  Returns {r: LinAlgError}
    for each H_r not positive definite, leaving out[r] as it was.  Unchecked: H and B are
    finite (module docstring).

    For d <= 2 each chunk of up to _CHUNK replicates is one posv call on the block-diagonal
    matrix of their H_r: every dot product in its factorization and triangular solves then
    has at most one nonzero term, the others exact zeros from the off-diagonal blocks, so
    each block gets the bits of its own call (the + 0.0 keeps the signs of zeros too).  A
    chunk with a matrix not positive definite is solved again one replicate at a time."""
    failed = {}
    R, d = H.shape[:2]
    shared = B.shape[0] == 1
    B = B + 0.0
    posv = _posv()
    todo = range(R)
    if d <= 2 and R > 1:
        todo = []
        for lo in range(0, R, _CHUNK):
            c = min(_CHUNK, R - lo)
            M = np.zeros((c * d) ** 2)
            M[_block_cells(c, d)] = H[lo:lo + c].ravel()
            rhs = B[[0] * c if shared else slice(lo, lo + c)].reshape(c * d, -1)
            _, x, info = posv(M.reshape(c * d, c * d), rhs, lower=1)
            if info:
                todo.extend(range(lo, lo + c))
            else:
                out[lo:lo + c] = x.reshape(out[lo:lo + c].shape)
    for r in todo:
        _, x, info = posv(H[r], B[0] if shared else B[r], lower=1)
        if info > 0:
            failed[r] = np.linalg.LinAlgError(
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
    lam = _ridge_weight(lam)
    theta, inner = _inner_products(family, data, theta, op="loss")
    return float(_losses(data.rewards[None], lam, theta, inner, family.base.log_mgf(inner))[0])


def gradient_map(family: NefFamily, data: Dataset, lam: float, theta: np.ndarray) -> np.ndarray:
    """g(theta) = sum_i mu(x_i' theta) x_i + lam theta (reward terms excluded)."""
    lam = _ridge_weight(lam)
    theta, inner = _inner_products(family, data, theta, op="gradient_map")
    return _gradient_maps(data.arms[None], lam, theta, family.base.mean_at(inner))[0]


def full_gradient(family: NefFamily, data: Dataset, lam: float, theta: np.ndarray) -> np.ndarray:
    return gradient_map(family, data, lam, theta) \
        - np.vecmat(data.rewards[None], data.arms[None])[0]


def hessian(family: NefFamily, data: Dataset, lam: float, theta: np.ndarray) -> np.ndarray:
    lam = _ridge_weight(lam)
    theta, inner = _inner_products(family, data, theta, op="hessian")
    return _hessians(data.arms[None], lam * np.eye(data.d), family.base.dmean_at(inner))[0]


def cholesky_solve(H: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve finite H x = b (see ``_cholesky_solves``); LinAlgError if H is not PD."""
    finite(H, "H")
    finite(b, "b")
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
    lam = _ridge_weight(lam)
    _, inner1 = _inner_products(family, data, theta1, op="difference_quotient_matrix")
    _, inner2 = _inner_products(family, data, theta2, op="difference_quotient_matrix")
    a = _alpha(family, inner1[0], inner2[0])
    return lam * np.eye(data.d) + (data.arms * a[:, None]).T @ data.arms


@dataclass(frozen=True, eq=False)
class FitResult:
    theta_hat: np.ndarray
    gradient_norm: float
    newton_iters: int
    inner_lo: float
    inner_hi: float
    outside_admissible: bool   # any x_i' theta_hat outside [param_lo, param_hi]
    hessian_at_hat: np.ndarray       # hessian(..., theta_hat), bit for bit
    gradient_map_at_hat: np.ndarray  # gradient_map(..., theta_hat), bit for bit

    @property
    def converged(self) -> bool:
        return self.gradient_norm <= _GRAD_TOL


class _Fits(NamedTuple):  # a stacked fit, row r for replicate r
    theta: np.ndarray     # (R, d) estimates
    g: np.ndarray         # (R, d) gradient maps at theta
    H: np.ndarray         # (R, d, d) Hessians at theta
    gnorm: list           # full-gradient norms
    iters: list           # Newton iterations
    fallback: list        # the start was infeasible and the fit began at the origin
    errors: dict          # {r: OptimizationError} for the replicates whose fit failed


@np.errstate(over="ignore", invalid="ignore")  # an overflow makes its point infeasible
def _fit_stack(family: NefFamily, X: np.ndarray, y: np.ndarray, lam: float,
               lam_eye: np.ndarray, init: np.ndarray) -> _Fits:
    """Damped Newton for R ridge-regularized likelihoods at once (lam_eye = lam I), each
    replicate with its own convergence test, Armijo step length and failure, all kept by
    replicate id; a replicate whose start is infeasible begins at the origin (zero inner
    products); every accepted point has a finite loss, gradient and Hessian."""
    R, _, d = X.shape
    X, y = np.ascontiguousarray(X), np.ascontiguousarray(y)  # see "Stacked kernels" above
    guard = family.base.interior
    reward_map = np.vecmat(y, X)

    def evaluate(sel, theta):
        """Infeasible flags (by the module's one rule), losses, gradient maps, gradients,
        their norms and curvature weights, all from one ``_curve`` call."""
        Xs = X[sel]
        inner = np.matvec(Xs, theta)
        out = _outside(guard, inner)
        if True in out.tolist():
            inner[out] = 0.0  # stand-ins, so no kind is evaluated off its domain
        log_m, mean, w = family.base._curve(inner)
        f = _losses(y[sel], lam, theta, inner, log_m)
        g = _gradient_maps(Xs, lam, theta, mean)
        grad = g - reward_map[sel]
        gsq = np.vecdot(grad, grad)
        # a finite sum of the weights also keeps the Hessian, which adds them up, finite
        bad = out | ~np.isfinite(f + np.add.reduce(w, axis=1) + gsq)
        return bad.tolist(), f.tolist(), g, grad, np.sqrt(gsq).tolist(), w

    theta = np.array(init, dtype=float)
    fallback, f, g, grad, gnorm, w = evaluate(slice(None), theta)
    if True in fallback:
        theta[fallback] = 0.0
        _, f, g, grad, gnorm, w = evaluate(slice(None), theta)
    iters, errors = [0] * R, {}
    while search := [r for r in range(R)
                     if gnorm[r] > _GRAD_TOL and iters[r] < _MAX_ITERS and r not in errors]:
        step = np.zeros((R, d))  # by id
        sel, sol = (slice(None), step) if len(search) == R else (search, step[search])  # positional
        failed = _cholesky_solves(_hessians(X[sel], lam_eye, w[sel]), grad[sel], sol)
        for i, exc in failed.items():
            r = search[i]
            errors[r] = OptimizationError(f"Hessian factorization failed: {exc}", diagnostics={
                "iter": iters[r], "theta": theta[r].tolist()})
        step[sel] = np.negative(sol, out=sol)
        if failed:  # a replicate whose Hessian does not factor leaves the search: its fit is over
            search = sel = [r for r in search if r not in errors]
        slope, t = np.vecdot(grad, step).tolist(), [1.0] * R
        trial = (theta + step)[sel]
        while search:
            bad, f_t, g_t, grad_t, gnorm_t, w_t = evaluate(sel, trial)  # row j: search[j]
            ok, retry = [], []  # positions in search that pass, ids to shorten
            for j, r in enumerate(search):
                # near the optimum the Newton decrement drops below the floating
                # resolution of the loss; sufficient-decrease tests are pure noise
                # there, so take the (feasibility-clipped) full step instead
                fp_noise = 1e-13 * (1.0 + abs(f[r]))
                if not bad[j] and (not -slope[r] > fp_noise
                                   or f_t[j] <= f[r] + _ARMIJO * t[r] * slope[r] + fp_noise):
                    ok.append(j)
                    f[r], gnorm[r] = f_t[j], gnorm_t[j]
                    iters[r] += 1
                    continue
                t[r] *= _BACKTRACK
                if t[r] > 1e-16:
                    retry.append(r)
                    continue
                errors[r] = OptimizationError("no domain-feasible descent step found", diagnostics={
                    "iter": iters[r], "gradient_norm": gnorm[r], "theta": theta[r].tolist(),
                    "step": step[r].tolist()})
            if len(ok) == R:
                theta, g, grad, w = trial, g_t, grad_t, w_t
            elif ok:
                a = [search[j] for j in ok]
                theta[a], g[a], grad[a], w[a] = trial[ok], g_t[ok], grad_t[ok], w_t[ok]
            search = sel = retry
            if search:
                trial = theta[search] + np.array([t[r] for r in search])[:, None] * step[search]
    return _Fits(theta, g, _hessians(X, lam_eye, w), gnorm, iters, fallback, errors)


def fit_mle(family: NefFamily, data: Dataset, lam: float,
            init: np.ndarray | None = None) -> FitResult:
    """Damped Newton minimizer of the ridge-regularized negative log-likelihood:
    the one-replicate call of the stacked solver."""
    lam = _ridge_weight(lam)
    theta, _ = _inner_products(family, data, np.zeros(data.d) if init is None else init,
                               op="fit_mle")  # a start of another dimension or off the domain
    fit = _fit_stack(family, data.arms[None], data.rewards[None], lam, lam * np.eye(data.d), theta)
    if fit.errors:
        raise fit.errors[0]
    inner = np.matvec(data.arms, fit.theta[0])
    lo_i, hi_i = (float(inner.min()), float(inner.max())) if data.n else (0.0, 0.0)
    outside = bool(lo_i < family.param_lo - 1e-12 or hi_i > family.param_hi + 1e-12)
    return FitResult(theta_hat=fit.theta[0], gradient_norm=fit.gnorm[0], newton_iters=fit.iters[0],
                     inner_lo=lo_i, inner_hi=hi_i, outside_admissible=outside,
                     hessian_at_hat=fit.H[0], gradient_map_at_hat=fit.g[0])
