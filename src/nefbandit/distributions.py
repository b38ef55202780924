"""Single-parameter natural exponential families over the reals.

A base distribution Q with MGF ``M(u) = ∫ exp(uy) Q(dy)`` generates the
tilted family ``Q_u(dy) = exp(uy - psi(u)) Q(dy)`` on the natural
parameter interval ``U = {u : M(u) < ∞}``, with ``psi = log M``.  The
mean function ``mu(u)`` of ``Q_u`` equals ``psi'(u)``; its derivative
``mu'(u)`` is the variance of ``Q_u`` and ``mu''(u)`` its third central
moment.

Every supported base ships closed forms for ``log M``, ``mu``, ``mu'``
and ``mu''``, one draw transform of Q_u (one uniform per draw) and the
two tails of Q_u, all elementwise over arrays; the quantiles and interval
masses of Q itself are these at u = 0.  ``gamma_ratio``, the ratio
``|mu''|/mu'`` behind K, uses the closed forms alone.
"""

from __future__ import annotations

import importlib
import math
import sys
from dataclasses import dataclass, fields
from functools import cache, cached_property
from typing import ClassVar

import numpy as np

from .errors import (
    DomainError,
    InvalidArgumentError,
    ParseError,
    PrecisionError,
)

__all__ = [
    "BaseDistribution",
    "Bernoulli",
    "Gaussian",
    "Exponential",
    "Poisson",
    "Laplace",
    "Gamma",
    "DiscreteAtoms",
    "CounterexampleSubgaussian",
    "Shifted",
    "NefFamily",
    "mgf",
    "cgf",
    "mean_fn",
    "gamma_ratio",
    "sample_tilted",
    "centered",
    "reflected",
    "parse_distribution",
    "distribution_config",
]

_ATOM_WEIGHT_TOL = 1e-12
# the largest tilted mean m a Poisson draw takes; its cdf table holds 80 sqrt(m) + 121 counts
_POISSON_MAX_DRAW_MEAN = 2.0**31


class _LazyIntegrate:
    """Stands in for ``scipy.integrate``, which nothing in this package calls.

    ``perfbench/tracing.py`` counts ``quad`` calls through ``distributions.integrate``.
    The module is imported only when ``quad`` is called, so importing the package does
    not load it.  This goes together with that counter.
    """

    @staticmethod
    def quad(*args, **kwargs):
        from scipy import integrate as scipy_integrate
        return scipy_integrate.quad(*args, **kwargs)


integrate = _LazyIntegrate()


# scipy.special, imported at the first call (by Gaussian, Poisson and Gamma only)
_special = cache(lambda: importlib.import_module("scipy.special"))


def _freeze(obj, **arrays) -> None:
    """Set each array, as a read-only C-ordered float copy, on a frozen dataclass."""
    for name, arr in arrays.items():
        arr = np.array(arr, dtype=float, order="C")
        arr.flags.writeable = False
        object.__setattr__(obj, name, arr)


def _require_finite(u, name: str = "u") -> float:
    u = float(u)
    if not math.isfinite(u):
        raise InvalidArgumentError(f"{name} must be finite, got {u!r}")
    return u


def _require_positive(dist, *names: str) -> None:
    """Each named parameter of ``dist`` positive, and its square and reciprocal finite (the
    moments take both), else an InvalidArgumentError."""
    for name in names:
        value = getattr(dist, name)
        if not (value > 0 and math.isfinite(value * value) and math.isfinite(1.0 / value)):
            raise InvalidArgumentError(f"{type(dist).__name__} {name}={value!r} must be positive "
                                       "with a finite square and reciprocal", name=name)


class BaseDistribution:
    """Common interface for base measures Q.

    Each kind supplies:

    - ``mgf_domain``: the open interval on which M is finite;
    - ``support_bounds``: essential infimum and supremum of the support;
    - ``log_mgf``, ``mean_at``, ``dmean_at`` (variance of Q_u) and
      ``d2mean_at`` (third central moment of Q_u), vectorised over u; ``_curve``
      gives (log M, mu, mu') and ``_dmeans`` (mu', mu'') in one call, with the bits of
      the methods;
    - ``tilted_upper_tail(u, t)`` = Q_u((t, ∞)) and
      ``tilted_lower_tail(u, t)`` = Q_u((-∞, -t)), elementwise over
      broadcast u and t;
    - ``tilted_inverse_cdf(u, p)``, the draw of Q_u at uniforms p, elementwise;
    - optionally ``tilted(u)``, an exact conjugate form of Q_u.

    ``quantile``, ``upper_quantile`` and ``interval_mass`` of Q are derived
    at u = 0, elementwise; a kind overrides them only where its draw or its
    tails do not give them exactly.
    """

    kind: ClassVar[str] = ""

    @cached_property
    def interior(self) -> tuple[float, float]:
        """Admissible tilts: the domain less 1e-9 of its width per end, or of its finite end's
        magnitude when the width is infinite (so u = 0 stays admissible)."""
        lo, hi = self.mgf_domain
        width = hi - lo
        scale = width if math.isfinite(width) else min(abs(lo), abs(hi))
        m = 1e-9 * scale if math.isfinite(scale) else 0.0
        return lo + m, hi - m

    def require_interior(self, u, *, op: str = "operation"):
        """u, a float or an array, once every tilt in it lies inside ``interior``; an array
        is checked through its min and max (the interval is convex; a NaN reaches both)."""
        grid = np.asarray(u, dtype=float)
        if not grid.size:
            raise InvalidArgumentError(f"{op} needs at least one tilt, got an empty array")
        lo, hi = self.interior
        for extreme in (grid.min(), grid.max()):
            extreme = _require_finite(extreme)
            if extreme < lo or extreme > hi:
                raise DomainError(f"{op} requires a tilt strictly inside the natural "
                                  f"parameter interval of {self.kind}",
                                  value=extreme, interval=self.mgf_domain)
        return float(grid) if grid.ndim == 0 else grid

    def quantile(self, p: np.ndarray) -> np.ndarray:
        """Least y with Q((-∞, y]) >= p, elementwise: the draw of Q at uniforms p."""
        return self.tilted_inverse_cdf(np.zeros(p.shape), p)

    def upper_quantile(self, p: np.ndarray) -> np.ndarray:
        """Elementwise, a point with at least mass p at or above it."""
        return self.quantile(1.0 - p)

    def interval_mass(self, lo, hi):
        """Q([lo, hi]) elementwise over broadcast ends, endpoints included for atom kinds."""
        return np.maximum(self.tilted_lower_tail(0.0, np.negative(hi))
                          - self.tilted_lower_tail(0.0, np.negative(lo)), 0.0)

    def tilted(self, u: float) -> "BaseDistribution":
        """Exact conjugate representation of Q_u, where one exists."""
        raise InvalidArgumentError(f"{self.kind} has no closed tilted form among supported kinds")

    def _curve(self, u):
        """(log M(u), mu(u), mu'(u)) in one call, each with the bits of its own method."""
        return self.log_mgf(u), self.mean_at(u), self.dmean_at(u)

    def _dmeans(self, u):
        """(mu'(u), mu''(u)) in one call, each with the bits of its own method."""
        return self.dmean_at(u), self.d2mean_at(u)


# ---------------------------------------------------------------------------
# Continuous kinds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Gaussian(BaseDistribution):
    """Centered normal with standard deviation sigma."""

    sigma: float
    kind: ClassVar[str] = "gaussian"
    mgf_domain = (-math.inf, math.inf)
    support_bounds = (-math.inf, math.inf)

    def __post_init__(self):
        _require_positive(self, "sigma")

    def log_mgf(self, u):
        return 0.5 * (self.sigma * np.asarray(u, dtype=float)) ** 2

    def mean_at(self, u):
        return self.sigma**2 * np.asarray(u, dtype=float)

    def dmean_at(self, u):
        return np.full_like(np.asarray(u, dtype=float), self.sigma**2)

    def d2mean_at(self, u):
        return np.zeros_like(np.asarray(u, dtype=float))

    def tilted(self, u):
        return Shifted(Gaussian(self.sigma), self.sigma**2 * float(u))

    def tilted_upper_tail(self, u, t):
        return _special().ndtr((self.sigma**2 * u - t) / self.sigma)

    def tilted_lower_tail(self, u, t):
        return _special().ndtr((-t - self.sigma**2 * u) / self.sigma)

    def tilted_inverse_cdf(self, u, p):
        return self.sigma**2 * u + self.sigma * _special().ndtri(p)


@dataclass(frozen=True)
class Exponential(BaseDistribution):
    rate: float
    kind: ClassVar[str] = "exponential"
    support_bounds = (0.0, math.inf)

    def __post_init__(self):
        _require_positive(self, "rate")

    @property
    def mgf_domain(self):
        return (-math.inf, self.rate)

    def log_mgf(self, u):
        return math.log(self.rate) - np.log(self.rate - np.asarray(u, dtype=float))

    def mean_at(self, u):
        return 1.0 / (self.rate - np.asarray(u, dtype=float))

    def dmean_at(self, u):
        return 1.0 / (self.rate - np.asarray(u, dtype=float)) ** 2

    def d2mean_at(self, u):
        return 2.0 / (self.rate - np.asarray(u, dtype=float)) ** 3

    def _curve(self, u):
        gap = self.rate - np.asarray(u, dtype=float)
        return math.log(self.rate) - np.log(gap), 1.0 / gap, 1.0 / gap**2

    def tilted(self, u):
        return Exponential(self.rate - float(u))

    def tilted_upper_tail(self, u, t):
        return np.exp(-(self.rate - u) * np.maximum(t, 0.0))

    def tilted_lower_tail(self, u, t):
        # support nonnegative: mass below -t is zero unless -t > 0
        return np.where(t >= 0, 0.0, -np.expm1((self.rate - u) * np.minimum(t, 0.0)))

    def tilted_inverse_cdf(self, u, p):
        return -np.log1p(-p) / (self.rate - u)


@dataclass(frozen=True)
class Poisson(BaseDistribution):
    nu: float
    kind: ClassVar[str] = "poisson"
    mgf_domain = (-math.inf, math.inf)
    support_bounds = (0.0, math.inf)

    def __post_init__(self):
        _require_positive(self, "nu")

    def log_mgf(self, u):
        return self.nu * np.expm1(np.asarray(u, dtype=float))

    def mean_at(self, u):
        return self.nu * np.exp(np.asarray(u, dtype=float))

    dmean_at = mean_at
    d2mean_at = mean_at

    def interval_mass(self, lo, hi):
        lo_k = np.maximum(0.0, np.ceil(np.asarray(lo) - 1e-12))
        hi_k = np.floor(np.asarray(hi) + 1e-12)
        upper = _special().pdtr(hi_k, self.nu)
        lower = np.where(lo_k > 0, _special().pdtr(lo_k - 1, self.nu), 0.0)
        return np.where((hi < 0) | (hi_k < lo_k), 0.0, upper - lower)

    def tilted(self, u):
        return Poisson(self.nu * math.exp(float(u)))

    def tilted_upper_tail(self, u, t):
        return np.where(t < 0, 1.0, _special().pdtrc(np.floor(t), self.nu * np.exp(u)))

    def tilted_lower_tail(self, u, t):
        k = np.ceil(np.negative(t)) - 1  # largest atom strictly below -t
        return np.where(k < 0, 0.0, _special().pdtr(k, self.nu * np.exp(u)))

    def tilted_inverse_cdf(self, u, p):
        # per distinct tilt, the least k whose cdf reaches p, on a table of the k within
        # 40 sqrt(m) + 60 of the tilted mean m: the cdf below the table is under 1e-300
        out = np.empty(p.shape)
        tilts, which = np.unique(u, return_inverse=True)
        for i, tilt in enumerate(tilts.tolist()):
            if tilt > math.log(_POISSON_MAX_DRAW_MEAN / self.nu):
                raise PrecisionError(f"a Poisson draw at u={tilt!r} has a mean nu e^u too large")
            m = self.nu * math.exp(tilt)
            kmin = max(int(m - 40.0 * math.sqrt(m) - 60.0), 0)
            kmax = int(m + 40.0 * math.sqrt(m) + 60.0)
            sel = which == i
            cdf = _special().pdtr(np.arange(kmin, kmax + 1), m)
            out[sel] = kmin + np.minimum(np.searchsorted(cdf, p[sel], side="left"), kmax - kmin)
        return out


@dataclass(frozen=True)
class Laplace(BaseDistribution):
    """Symmetric density exp(-|y|/scale) / (2 scale)."""

    scale: float
    kind: ClassVar[str] = "laplace"
    support_bounds = (-math.inf, math.inf)

    def __post_init__(self):
        _require_positive(self, "scale")

    @property
    def mgf_domain(self):
        lam = 1.0 / self.scale
        return (-lam, lam)

    def log_mgf(self, u):
        s2 = self.scale**2
        return -np.log1p(-s2 * np.asarray(u, dtype=float) ** 2)

    def mean_at(self, u):
        lam = 1.0 / self.scale
        u = np.asarray(u, dtype=float)
        return 2.0 * u / (lam**2 - u**2)

    def dmean_at(self, u):
        lam = 1.0 / self.scale
        u = np.asarray(u, dtype=float)
        return 1.0 / (lam + u) ** 2 + 1.0 / (lam - u) ** 2

    def d2mean_at(self, u):
        lam = 1.0 / self.scale
        u = np.asarray(u, dtype=float)
        return 2.0 / (lam - u) ** 3 - 2.0 / (lam + u) ** 3

    def _tilted_pieces(self, u):
        # tilted density ∝ exp(-(1/s - u) y) on y>0 and exp((1/s + u) y) on y<0
        lam = 1.0 / self.scale
        rp, rm = lam - u, lam + u
        c = rp * rm / (rp + rm)  # density at y = 0, 1 / (2 scale M(u)): masses sum to 1
        mass_neg = c / rm
        mass_pos = c / rp
        return rp, rm, c, mass_neg, mass_pos

    # each branch sees only its own side of 0, so the other never overflows
    def tilted_upper_tail(self, u, t):
        rp, rm, c, mass_neg, mass_pos = self._tilted_pieces(u)
        return np.where(t >= 0, mass_pos * np.exp(-rp * np.maximum(t, 0.0)),
                        mass_pos + mass_neg * -np.expm1(rm * np.minimum(t, 0.0)))

    def tilted_lower_tail(self, u, t):
        rp, rm, c, mass_neg, mass_pos = self._tilted_pieces(u)
        y = np.negative(t)
        return np.where(y <= 0, mass_neg * np.exp(rm * np.minimum(y, 0.0)),
                        mass_neg + mass_pos * -np.expm1(-rp * np.maximum(y, 0.0)))

    def tilted_inverse_cdf(self, u, p):
        # near a domain end the rounded masses can sum below p: take the largest draw, not NaN
        rp, rm, c, mass_neg, _ = self._tilted_pieces(u)
        return np.where(p <= mass_neg, np.log(p * rm / c) / rm,
                        -np.log1p(np.maximum(-(p - mass_neg) * rp / c, 2.0**-53 - 1.0)) / rp)


@dataclass(frozen=True)
class Gamma(BaseDistribution):
    shape: float
    scale: float
    kind: ClassVar[str] = "gamma"
    support_bounds = (0.0, math.inf)

    def __post_init__(self):
        _require_positive(self, "shape", "scale")

    @property
    def mgf_domain(self):
        return (-math.inf, 1.0 / self.scale)

    def log_mgf(self, u):
        return -self.shape * np.log1p(-self.scale * np.asarray(u, dtype=float))

    def mean_at(self, u):
        return self.shape * self._tilted_scale(u)

    def dmean_at(self, u):
        return self.shape * self._tilted_scale(u) ** 2

    @np.errstate(over="ignore")  # a third moment beyond float range is inf
    def d2mean_at(self, u):
        return 2.0 * self.shape * self._tilted_scale(u) ** 3

    def _tilted_scale(self, u):
        return self.scale / (1.0 - self.scale * np.asarray(u, dtype=float))

    def tilted(self, u):
        return Gamma(self.shape, self._tilted_scale(float(u)))

    def tilted_upper_tail(self, u, t):
        return np.where(t <= 0, 1.0, _special().gammaincc(self.shape, t / self._tilted_scale(u)))

    def tilted_lower_tail(self, u, t):
        return np.where(t >= 0, 0.0, _special().gammainc(self.shape, -t / self._tilted_scale(u)))

    def tilted_inverse_cdf(self, u, p):
        return self._tilted_scale(u) * _special().gammaincinv(self.shape, p)


# ---------------------------------------------------------------------------
# Atom kinds: log-domain weighted sums throughout
# ---------------------------------------------------------------------------

def _logsumexp(logs: np.ndarray):  # over the last axis
    m = logs.max(axis=-1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    return (m + np.log(np.exp(logs - m).sum(axis=-1, keepdims=True)))[..., 0]


class _AtomMixin:
    """Shared machinery for finite atom sets held as (locations, log-weights).

    Tilts are vectorised: one log-softmax over a (tilts x atoms) matrix.
    """

    # subclasses provide: self._locs (ndarray), self._logw (ndarray, normalised)
    mgf_domain = (-math.inf, math.inf)

    @property
    def log_atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """Atom locations and their normalised log-weights (read-only arrays)."""
        return self._locs, self._logw

    @property
    def support_bounds(self):
        return (float(self._locs.min()), float(self._locs.max()))

    def _exponents(self, u):  # log w + u * loc: a row per tilt, a column per atom
        return self._logw + np.multiply.outer(np.asarray(u, dtype=float), self._locs)

    def log_mgf(self, u):
        return _logsumexp(self._exponents(u))

    def _tilted_weights(self, u):
        logq = self._exponents(u)
        q = np.exp(logq - logq.max(axis=-1, keepdims=True))
        return q / q.sum(axis=-1, keepdims=True)

    def mean_at(self, u):
        return (self._tilted_weights(u) * self._locs).sum(axis=-1)

    @np.errstate(over="ignore", invalid="ignore")  # beyond float range: inf
    def _centrals(self, u, ks=(2, 3)):  # the central moments of orders ks, on one set of weights
        q = self._tilted_weights(u)
        d = self._locs - (q * self._locs).sum(axis=-1, keepdims=True)
        return tuple(self._third(q, d) if k == 3 else (q * d**k).sum(axis=-1) for k in ks)

    @staticmethod
    def _third(q, d):
        # s^3 sum q (d/s)^3, s the power of 2 in (max|d|/2, max|d|] per row (1/2 for one atom):
        # no d^3 overflows, and the exact scaling keeps the bits of an in-range sum q d^3
        s = np.ldexp(1.0, np.frexp(np.abs(d).max(axis=-1))[1] - 1)
        return (q * (d / s[..., None]) ** 3).sum(axis=-1) * s * s * s

    _dmeans = _centrals

    def dmean_at(self, u):
        return self._centrals(u, (2,))[0]

    def d2mean_at(self, u):  # through _dmeans, so Bernoulli's closed form serves it too
        return self._dmeans(u)[1]

    def _walk(self, order, p):  # first atom in order whose cumulative mass reaches p - 1e-15
        cum = np.cumsum(np.exp(self._logw)[order])  # the slack: exp(log w) may round a mass up
        return self._locs[order][np.minimum(np.searchsorted(cum, p - 1e-15), len(cum) - 1)]

    def quantile(self, p):
        return self._walk(np.argsort(self._locs), p)

    def upper_quantile(self, p):
        return self._walk(np.argsort(self._locs)[::-1], p)

    @staticmethod
    def _mass(q, inside):  # the weights q of the atoms inside, summed per row
        return np.where(inside, q, 0.0).sum(axis=-1)

    def interval_mass(self, lo, hi):
        lo, hi = np.asarray(lo)[..., None], np.asarray(hi)[..., None]
        return self._mass(np.exp(self._logw),
                          (self._locs >= lo - 1e-12) & (self._locs <= hi + 1e-12))

    def tilted_upper_tail(self, u, t):
        return self._mass(self._tilted_weights(u), self._locs > np.asarray(t)[..., None])

    def tilted_lower_tail(self, u, t):
        return self._mass(self._tilted_weights(u), self._locs < -np.asarray(t)[..., None])

    def tilted_inverse_cdf(self, u, p):  # per draw, the first atom whose cumulative mass reaches p
        order = np.argsort(self._locs)
        cum = np.cumsum(self._tilted_weights(u)[..., order], axis=-1)
        return self._locs[order][np.minimum((cum < p[..., None]).sum(axis=-1), len(order) - 1)]


@dataclass(frozen=True)
class Bernoulli(_AtomMixin, BaseDistribution):
    """Atoms 0 and 1 with masses 1 - p and p; its moments and draw in closed form."""

    p: float
    kind: ClassVar[str] = "bernoulli"

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise InvalidArgumentError(f"Bernoulli p must lie in (0, 1), got {self.p}", name="p")
        _freeze(self, _locs=[0.0, 1.0], _logw=[math.log1p(-self.p), math.log(self.p)])

    def _ze(self, u):  # z = u + logit p and e = exp(-|z|): every moment is elementwise in both
        z = np.asarray(u, dtype=float) + (self._logw[1] - self._logw[0])
        return z, np.exp(-np.abs(z))

    def log_mgf(self, u):
        z, e = self._ze(u)
        return self._logw[0] + np.maximum(z, 0.0) + np.log1p(e)

    def mean_at(self, u):  # logistic: (1 where z >= 0, else e) / (1 + e), as e <= 1
        z, e = self._ze(u)
        return np.maximum(e, z >= 0.0) / (1.0 + e)

    def dmean_at(self, u):
        e = self._ze(u)[1]
        return e / (1.0 + e) ** 2

    def _curve(self, u):  # the methods' operations, each fresh array updated in place
        z, e = self._ze(u)
        psi, d, mean = np.maximum(z, 0.0), 1.0 + e, np.maximum(e, z >= 0.0)
        psi += self._logw[0]
        psi += np.log1p(e)
        mean /= d
        d *= d
        e /= d
        return psi, mean, e

    def _dmeans(self, u):  # mu'' = mu' (1 - 2 mu) = -sign(z) mu' tanh(|z|/2), by expm1 near 0
        z, e = self._ze(u)
        var = e / (1.0 + e) ** 2
        return var, var * (np.sign(-z) * -np.expm1(-np.abs(z))) / (1.0 + e)

    def quantile(self, p):  # against p itself: the draw's mean_at(0) may round p
        return (p > 1.0 - self.p).astype(float)

    def upper_quantile(self, p):
        return (p <= self.p).astype(float)

    def tilted(self, u):
        if not 0.0 < (m := float(self.mean_at(u))) < 1.0:
            raise InvalidArgumentError(f"Bernoulli mean tilted by u={u} rounds to {m}", name="u")
        return Bernoulli(m)

    def tilted_inverse_cdf(self, u, p):
        return (p < self.mean_at(u)).astype(float)


@dataclass(frozen=True)
class DiscreteAtoms(_AtomMixin, BaseDistribution):
    atoms: tuple[tuple[float, float], ...]
    kind: ClassVar[str] = "atoms"

    def __post_init__(self):
        if len(self.atoms) == 0:
            raise InvalidArgumentError("atom list must be nonempty", name="atoms")
        locs = np.array([a[0] for a in self.atoms], dtype=float)
        w = np.array([a[1] for a in self.atoms], dtype=float)
        if np.any(w < 0) or np.any(~np.isfinite(w)) or np.any(~np.isfinite(locs)):
            raise InvalidArgumentError("atom weights must be nonnegative and finite", name="atoms")
        if abs(w.sum() - 1.0) > _ATOM_WEIGHT_TOL:
            raise InvalidArgumentError(f"atom weights must sum to 1 within {_ATOM_WEIGHT_TOL}, "
                                       f"got {w.sum()!r}", name="atoms")
        keep = w > 0
        _freeze(self, _locs=locs[keep], _logw=np.log(w[keep] / w[keep].sum()))

    def tilted(self, u):
        q = self._tilted_weights(float(u))
        return DiscreteAtoms(tuple((float(l), float(p)) for l, p in zip(self._locs, q)))


@dataclass(frozen=True)
class CounterexampleSubgaussian(_AtomMixin, BaseDistribution):
    """Atoms at 2^i, i = 1..i_max, with doubly exponential weights.

    Even i carry weight ∝ exp(-4^i), odd i carry ∝ (1/4) exp(-3·4^(i-1)).
    Tilted at u = 2^(i+1) for even i the mass collapses onto the atoms
    2^i and 2^(i+1) with ratio 4:1; all weight arithmetic is done on log
    scale with a subtract-max pass so no intermediate ever over- or
    underflows.
    """

    i_max: int
    kind: ClassVar[str] = "counterexample"

    def __post_init__(self):
        if not isinstance(self.i_max, (int, np.integer)) or self.i_max < 2:
            raise InvalidArgumentError(f"i_max must be an integer >= 2, got {self.i_max!r}",
                                       name="i_max")
        ks = np.arange(1, self.i_max + 1)
        locs = np.power(2.0, ks)
        raw = np.where(ks % 2 == 0, -np.power(4.0, ks),
                       math.log(0.25) - 3.0 * np.power(4.0, ks - 1))
        _freeze(self, _locs=locs, _logw=raw - float(_logsumexp(raw)))


@dataclass(frozen=True)
class Shifted(BaseDistribution):
    """Distribution of Y + offset for Y drawn from ``base``.

    Shifting leaves the natural parameter interval and all central
    moments of the tilts unchanged; only the mean moves.
    """

    base: BaseDistribution
    offset: float
    kind: ClassVar[str] = "shifted"

    def __post_init__(self):
        _require_finite(self.offset, "offset")
        if isinstance(self.base, Shifted):  # flatten
            object.__setattr__(self, "offset", self.offset + self.base.offset)
            object.__setattr__(self, "base", self.base.base)

    @property
    def mgf_domain(self):
        return self.base.mgf_domain

    @property
    def support_bounds(self):
        lo, hi = self.base.support_bounds
        return (lo + self.offset, hi + self.offset)

    def log_mgf(self, u):
        return np.asarray(u, dtype=float) * self.offset + self.base.log_mgf(u)

    def mean_at(self, u):
        return self.base.mean_at(u) + self.offset

    def dmean_at(self, u):
        return self.base.dmean_at(u)

    def d2mean_at(self, u):
        return self.base.d2mean_at(u)

    def _dmeans(self, u):
        return self.base._dmeans(u)

    def quantile(self, p):
        return self.base.quantile(p) + self.offset

    def upper_quantile(self, p):
        return self.base.upper_quantile(p) + self.offset

    def interval_mass(self, lo, hi):
        return self.base.interval_mass(lo - self.offset, hi - self.offset)

    def tilted(self, u):
        return Shifted(self.base.tilted(u), self.offset)

    def tilted_upper_tail(self, u, t):
        return self.base.tilted_upper_tail(u, t - self.offset)

    def tilted_lower_tail(self, u, t):
        return self.base.tilted_lower_tail(u, t + self.offset)

    def tilted_inverse_cdf(self, u, p):
        return self.base.tilted_inverse_cdf(u, p) + self.offset


def centered(base: BaseDistribution) -> BaseDistribution:
    """Shift the base to zero mean."""
    m = float(base.mean_at(0.0))
    return base if m == 0.0 else Shifted(base, -m)


def reflected(base: BaseDistribution) -> BaseDistribution:
    """Distribution of -Y, for kinds where it is representable."""
    if isinstance(base, (Gaussian, Laplace)):
        return base
    if isinstance(base, _AtomMixin):
        locs, logw = base.log_atoms
        return DiscreteAtoms(tuple((float(-l), float(p)) for l, p in zip(locs, np.exp(logw))))
    if isinstance(base, Shifted):
        return Shifted(reflected(base.base), -base.offset)
    raise InvalidArgumentError(f"reflection of kind {base.kind!r} is not representable")


# ---------------------------------------------------------------------------
# Family wrapper and module-level operations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NefFamily:
    """A base measure plus the admissible tilt range [param_lo, param_hi]."""

    base: BaseDistribution
    param_lo: float
    param_hi: float

    def __post_init__(self):
        lo, hi = self.base.interior
        if not (self.param_lo <= self.param_hi):
            raise InvalidArgumentError(
                f"param_lo must not exceed param_hi, got [{self.param_lo}, {self.param_hi}]")
        if self.param_lo < lo or self.param_hi > hi:
            raise DomainError("admissible tilt range must lie strictly inside the "
                              "natural parameter interval",
                              value=(self.param_lo, self.param_hi),
                              interval=self.base.mgf_domain)

    @property
    def interval(self) -> tuple[float, float]:
        return (self.param_lo, self.param_hi)

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")  # an inf or NaN supremum fails L's or K's check
    def suprema(self) -> tuple[float, float]:
        """max mu' and max |mu''|/mu' on 513 even tilts of the interval, measured once."""
        var, third = self.base._dmeans(np.linspace(self.param_lo, self.param_hi, 513))
        return float(np.max(var)), float(np.max(_ratio(var, third)))


def _base_of(dist) -> BaseDistribution:
    return dist.base if isinstance(dist, NefFamily) else dist


def mgf(dist, u: float) -> float:
    """M(u); +inf outside the natural parameter interval."""
    base = _base_of(dist)
    u = _require_finite(u)
    lo, hi = base.mgf_domain
    if u >= hi or u <= lo:
        return math.inf
    return float(np.exp(base.log_mgf(u)))


def cgf(dist, u: float) -> float:
    base = _base_of(dist)
    u = base.require_interior(u, op="cgf")
    return float(base.log_mgf(u))


def mean_fn(dist, u: float) -> float:
    base = _base_of(dist)
    u = base.require_interior(u, op="mean_fn")
    return float(base.mean_at(u))


def gamma_ratio(dist, u):
    """|mu''(u)| / mu'(u) from the closed forms; 0 where mu' is 0.

    Elementwise over an array of tilts, a float for a float tilt.
    """
    base = _base_of(dist)
    grid = base.require_interior(np.atleast_1d(u), op="gamma_ratio")  # scalars take other bits
    ratio = _ratio(*base._dmeans(grid))
    return float(ratio[0]) if np.ndim(u) == 0 else ratio


def _ratio(var: np.ndarray, third: np.ndarray) -> np.ndarray:
    """|mu''| / mu' from both on one grid; 0 where mu' is 0."""
    return np.divide(np.abs(third), var, out=np.zeros_like(var), where=var != 0.0)


def sample_tilted(dist, u: float, rng: np.random.Generator, size: int | None = None):
    """``size`` draws of Q_u (a float if None), one uniform of ``rng`` each."""
    base = _base_of(dist)
    u = base.require_interior(u, op="sample_tilted")
    p = np.atleast_1d(rng.random(size))
    out = base.tilted_inverse_cdf(np.full(p.shape, u), p)
    return out if size is not None else float(out[0])


# ---------------------------------------------------------------------------
# Distribution config schema: the fields of each kind's dataclass
# ---------------------------------------------------------------------------

_KINDS = {cls.kind: cls for cls in (Bernoulli, Gaussian, Exponential, Poisson, Laplace, Gamma,
                                    DiscreteAtoms, CounterexampleSubgaussian)}


def check_number(raw, key, pointer: str, *, integer=False, positive=False, nonnegative=False,
                 nullable=False):
    """The number rule of every config value ``raw[key]`` (a dict's field, None if absent, or
    a list's entry): a JSON number in float range (an integer if ``integer``; ``true`` is not)
    of the sign asked, as a float unless ``integer``, else a ParseError at ``pointer/key``."""
    if isinstance(raw, dict) and key not in raw:  # on a list, ``in`` would test the values
        return None
    v = raw[key]
    if v is None and nullable:
        return None
    ok = (isinstance(v, int if integer else (int, float)) and not isinstance(v, bool)
          and abs(v) <= sys.float_info.max)  # False for NaN, +/-inf and beyond float range
    if ok and positive:
        ok = v > 0
    if ok and nonnegative:
        ok = v >= 0
    if not ok:
        sign = "positive " if positive else "nonnegative " if nonnegative else ""
        raise ParseError(f"expected a {sign}JSON {'integer' if integer else 'number'}, got {v!r}",
                         pointer=f"{pointer}/{key}")
    return v if integer else float(v)


def _atom_pairs(atoms, pointer: str) -> tuple:
    """The ``atoms`` field: a list of [location, weight] pairs, each entry a number."""
    if not isinstance(atoms, list):
        raise ParseError("atoms must be a list of [location, weight] pairs", pointer=pointer)
    for i, pair in enumerate(atoms):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ParseError("an atom must be a [location, weight] pair", pointer=f"{pointer}/{i}")
    return tuple((check_number(a, 0, f"{pointer}/{i}"), check_number(a, 1, f"{pointer}/{i}"))
                 for i, a in enumerate(atoms))


def parse_distribution(obj: dict, *, pointer: str = "/distribution") -> BaseDistribution:
    """Build a base distribution from the fields of its kind's dataclass (a JSON integer for an
    ``int`` annotation, a string here); unknown fields rejected, a bad value at its pointer."""
    if not isinstance(obj, dict):
        raise ParseError("distribution spec must be an object", pointer=pointer)
    if "kind" not in obj:
        raise ParseError("missing required field 'kind'", pointer=pointer)
    kind = obj["kind"]
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ParseError(f"unknown distribution kind {kind!r} "
                         f"(known: {sorted(_KINDS)})", pointer=f"{pointer}/kind")
    names = {f.name for f in fields(cls)}
    unknown = set(obj) - names - {"kind"}
    if unknown:
        raise ParseError(f"unknown fields {sorted(unknown)} for kind {kind!r}", pointer=pointer)
    missing = names - set(obj)
    if missing:
        raise ParseError(f"missing fields {sorted(missing)} for kind {kind!r}", pointer=pointer)
    args = ({"atoms": _atom_pairs(obj["atoms"], f"{pointer}/atoms")} if cls is DiscreteAtoms else
            {f.name: check_number(obj, f.name, pointer, integer=f.type == "int")
             for f in fields(cls)})
    try:
        return cls(**args)
    except InvalidArgumentError as exc:
        raise ParseError(f"invalid parameters for kind {kind!r}: {exc}",
                         pointer=f"{pointer}/{exc.name}" if exc.name else pointer) from exc


def distribution_config(base: BaseDistribution) -> dict:
    """Inverse of parse_distribution for the public kinds, in JSON values."""
    if isinstance(base, DiscreteAtoms):
        locs, logw = (a.tolist() for a in base.log_atoms)
        return {"kind": "atoms", "atoms": [[loc, math.exp(w)] for loc, w in zip(locs, logw)]}
    if base.kind not in _KINDS:
        raise InvalidArgumentError(f"kind {base.kind!r} has no config form")
    return {"kind": base.kind, **{f.name: getattr(base, f.name) for f in fields(base)}}
