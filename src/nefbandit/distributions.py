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

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import (
    DomainError,
    InvalidArgumentError,
    ParseError,
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


class BaseDistribution:
    """Common interface for base measures Q.

    Each kind supplies:

    - ``mgf_domain``: the open interval on which M is finite;
    - ``support_bounds``: essential infimum and supremum of the support;
    - ``log_mgf``, ``mean_at``, ``dmean_at`` (variance of Q_u) and
      ``d2mean_at`` (third central moment of Q_u), vectorised over u;
    - ``tilted_upper_tail(u, t)`` = Q_u((t, ∞)) and
      ``tilted_lower_tail(u, t)`` = Q_u((-∞, -t)), elementwise over
      broadcast u and t;
    - ``tilted_inverse_cdf(u, p)`` or ``_draw(tilt, p)``;
    - optionally ``tilted(u)``, an exact conjugate form of Q_u.

    ``quantile``, ``upper_quantile`` and ``interval_mass`` of Q are derived
    at u = 0, elementwise; a kind overrides them only where its draw or its
    tails do not give them exactly.
    """

    kind: str = ""

    @property
    def interior(self) -> tuple[float, float]:
        """Admissible tilts: the domain less 1e-9 of its width (1e-9 if unbounded) per end."""
        lo, hi = self.mgf_domain
        width = hi - lo
        m = 1e-9 * (width if math.isfinite(width) else 1.0)
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

    def tilted_inverse_cdf(self, u: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Draws of Q_u from uniforms p, elementwise; by default ``_draw`` per distinct tilt."""
        out = np.empty(p.shape)
        tilts, which = np.unique(u, return_inverse=True)
        for i, tilt in enumerate(tilts.tolist()):
            sel = which == i
            out[sel] = self._draw(tilt, p[sel])
        return out


# ---------------------------------------------------------------------------
# Continuous kinds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Bernoulli(BaseDistribution):
    p: float
    kind: str = "bernoulli"
    mgf_domain = (-math.inf, math.inf)
    support_bounds = (0.0, 1.0)

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise InvalidArgumentError(f"Bernoulli p must lie in (0, 1), got {self.p}")

    def log_mgf(self, u):
        return np.logaddexp(math.log1p(-self.p), math.log(self.p) + np.asarray(u, dtype=float))

    def mean_at(self, u):
        # logistic in u + logit(p)
        z = np.asarray(u, dtype=float) + math.log(self.p / (1.0 - self.p))
        return special.expit(z)

    def dmean_at(self, u):
        m = self.mean_at(u)
        return m * (1.0 - m)

    def d2mean_at(self, u):
        m = self.mean_at(u)
        return m * (1.0 - m) * (1.0 - 2.0 * m)

    # against p itself: the draw compares with expit(logit(p)), which may round
    def quantile(self, p):
        return (p > 1.0 - self.p).astype(float)

    def upper_quantile(self, p):
        return (p <= self.p).astype(float)

    def interval_mass(self, lo, hi):
        return (np.where((lo <= 0.0) & (0.0 <= hi), 1.0 - self.p, 0.0)
                + np.where((lo <= 1.0) & (1.0 <= hi), self.p, 0.0))

    def tilted(self, u):
        return Bernoulli(float(self.mean_at(u)))

    def tilted_upper_tail(self, u, t):
        return np.where(t < 0, 1.0, np.where(t < 1, self.mean_at(u), 0.0))

    def tilted_lower_tail(self, u, t):  # mass strictly below -t
        return np.where(t < -1, 1.0, np.where(t < 0, 1.0 - self.mean_at(u), 0.0))

    def tilted_inverse_cdf(self, u, p):
        return (p < self.mean_at(u)).astype(float)


@dataclass(frozen=True)
class Gaussian(BaseDistribution):
    """Centered normal with standard deviation sigma."""

    sigma: float
    kind: str = "gaussian"
    mgf_domain = (-math.inf, math.inf)
    support_bounds = (-math.inf, math.inf)

    def __post_init__(self):
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise InvalidArgumentError(f"Gaussian sigma must be positive, got {self.sigma}")

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
        return special.ndtr((self.sigma**2 * u - t) / self.sigma)

    def tilted_lower_tail(self, u, t):
        return special.ndtr((-t - self.sigma**2 * u) / self.sigma)

    def tilted_inverse_cdf(self, u, p):
        return self.sigma**2 * u + self.sigma * special.ndtri(p)


@dataclass(frozen=True)
class Exponential(BaseDistribution):
    rate: float
    kind: str = "exponential"
    support_bounds = (0.0, math.inf)

    def __post_init__(self):
        if not (self.rate > 0 and math.isfinite(self.rate)):
            raise InvalidArgumentError(f"Exponential rate must be positive, got {self.rate}")

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
    kind: str = "poisson"
    mgf_domain = (-math.inf, math.inf)
    support_bounds = (0.0, math.inf)

    def __post_init__(self):
        if not (self.nu > 0 and math.isfinite(self.nu)):
            raise InvalidArgumentError(f"Poisson nu must be positive, got {self.nu}")

    def log_mgf(self, u):
        return self.nu * np.expm1(np.asarray(u, dtype=float))

    def mean_at(self, u):
        return self.nu * np.exp(np.asarray(u, dtype=float))

    dmean_at = mean_at
    d2mean_at = mean_at

    def _grid(self, m: float):
        """Atoms 0..kmax of the Poisson(m) law with their pmf and cdf."""
        kmax = int(m + 40.0 * math.sqrt(m) + 60.0)
        ks = np.arange(kmax + 1)
        pmf = np.exp(ks * math.log(m) - m - special.gammaln(ks + 1))
        return ks, pmf, np.cumsum(pmf)

    def interval_mass(self, lo, hi):
        lo_k = np.maximum(0.0, np.ceil(np.asarray(lo) - 1e-12))
        hi_k = np.floor(np.asarray(hi) + 1e-12)
        upper = special.pdtr(hi_k, self.nu)
        lower = np.where(lo_k > 0, special.pdtr(lo_k - 1, self.nu), 0.0)
        return np.where((hi < 0) | (hi_k < lo_k), 0.0, upper - lower)

    def tilted(self, u):
        return Poisson(self.nu * math.exp(float(u)))

    def tilted_upper_tail(self, u, t):
        return np.where(t < 0, 1.0, special.pdtrc(np.floor(t), self.nu * np.exp(u)))

    def tilted_lower_tail(self, u, t):
        k = np.ceil(np.negative(t)) - 1  # largest atom strictly below -t
        return np.where(k < 0, 0.0, special.pdtr(k, self.nu * np.exp(u)))

    def _draw(self, tilt, p):
        ks, _, cum = self._grid(self.nu * math.exp(tilt))
        return np.minimum(np.searchsorted(cum, p, side="left"), ks[-1])


@dataclass(frozen=True)
class Laplace(BaseDistribution):
    """Symmetric density exp(-|y|/scale) / (2 scale)."""

    scale: float
    kind: str = "laplace"
    support_bounds = (-math.inf, math.inf)

    def __post_init__(self):
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise InvalidArgumentError(f"Laplace scale must be positive, got {self.scale}")

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
        # tilted density ∝ exp(-(1/s - u) y) on y>0 and exp((1/s + u) y) on y<0; a
        # scalar tilt keeps math.exp, whose bits the draws were pinned with
        lam = 1.0 / self.scale
        rp, rm = lam - u, lam + u
        log_m = self.log_mgf(u)
        m = math.exp(log_m) if np.ndim(u) == 0 else np.exp(log_m)
        c = 1.0 / (2.0 * self.scale * m)  # common density scale at y = 0
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

    def _draw(self, tilt, p):
        rp, rm, c, mass_neg, _ = self._tilted_pieces(tilt)
        return np.where(p <= mass_neg, np.log(p * rm / c) / rm,
                        -np.log1p(-(p - mass_neg) * rp / c) / rp)


@dataclass(frozen=True)
class Gamma(BaseDistribution):
    shape: float
    scale: float
    kind: str = "gamma"
    support_bounds = (0.0, math.inf)

    def __post_init__(self):
        if not (self.shape > 0 and self.scale > 0):
            raise InvalidArgumentError(
                f"Gamma shape and scale must be positive, got {self.shape}, {self.scale}")

    @property
    def mgf_domain(self):
        return (-math.inf, 1.0 / self.scale)

    def log_mgf(self, u):
        return -self.shape * np.log1p(-self.scale * np.asarray(u, dtype=float))

    def mean_at(self, u):
        return self.shape * self.scale / (1.0 - self.scale * np.asarray(u, dtype=float))

    def dmean_at(self, u):
        return self.shape * self.scale**2 / (1.0 - self.scale * np.asarray(u, dtype=float)) ** 2

    def d2mean_at(self, u):
        return 2.0 * self.shape * self.scale**3 / (1.0 - self.scale * np.asarray(u, dtype=float)) ** 3

    def _tilted_scale(self, u):
        return self.scale / (1.0 - self.scale * u)

    def tilted(self, u):
        return Gamma(self.shape, self._tilted_scale(float(u)))

    def tilted_upper_tail(self, u, t):
        return np.where(t <= 0, 1.0, special.gammaincc(self.shape, t / self._tilted_scale(u)))

    def tilted_lower_tail(self, u, t):
        return np.where(t >= 0, 0.0, special.gammainc(self.shape, -t / self._tilted_scale(u)))

    def tilted_inverse_cdf(self, u, p):
        return self._tilted_scale(u) * special.gammaincinv(self.shape, p)


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

    def _central(self, u, k):
        q = self._tilted_weights(u)
        d = self._locs - (q * self._locs).sum(axis=-1, keepdims=True)
        return (q * d**k).sum(axis=-1)

    def dmean_at(self, u):
        return self._central(u, 2)

    def d2mean_at(self, u):
        return self._central(u, 3)

    def upper_quantile(self, p):
        order = np.argsort(self._locs)[::-1]
        cum = np.cumsum(np.exp(self._logw)[order])
        return self._locs[order][np.minimum(np.searchsorted(cum, p - 1e-15, side="left"),
                                            len(cum) - 1)]

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

    def _draw(self, tilt, p):
        order = np.argsort(self._locs)
        cum = np.cumsum(self._tilted_weights(tilt)[order])
        return self._locs[order][np.minimum(np.searchsorted(cum, p, side="left"), len(cum) - 1)]


@dataclass(frozen=True)
class DiscreteAtoms(_AtomMixin, BaseDistribution):
    atoms: tuple[tuple[float, float], ...]
    kind: str = "atoms"

    def __post_init__(self):
        if len(self.atoms) == 0:
            raise InvalidArgumentError("atom list must be nonempty")
        locs = np.array([a[0] for a in self.atoms], dtype=float)
        w = np.array([a[1] for a in self.atoms], dtype=float)
        if np.any(w < 0) or np.any(~np.isfinite(w)) or np.any(~np.isfinite(locs)):
            raise InvalidArgumentError("atom weights must be nonnegative and finite")
        if abs(w.sum() - 1.0) > _ATOM_WEIGHT_TOL:
            raise InvalidArgumentError(f"atom weights must sum to 1 within {_ATOM_WEIGHT_TOL}, "
                                       f"got {w.sum()!r}")
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
    kind: str = "counterexample"

    def __post_init__(self):
        if not isinstance(self.i_max, (int, np.integer)) or self.i_max < 2:
            raise InvalidArgumentError(f"i_max must be an integer >= 2, got {self.i_max!r}")
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
    kind: str = "shifted"

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
    if isinstance(base, Bernoulli):
        return DiscreteAtoms(((-1.0, base.p), (0.0, 1.0 - base.p)))
    if isinstance(base, (DiscreteAtoms, CounterexampleSubgaussian)):
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
    ratio = _ratio_given_variance(base, grid, base.dmean_at(grid))
    return float(ratio[0]) if np.ndim(u) == 0 else ratio


def _ratio_given_variance(base, grid: np.ndarray, var: np.ndarray) -> np.ndarray:
    """``gamma_ratio`` on an interior grid whose mu' the caller already holds."""
    return np.divide(np.abs(base.d2mean_at(grid)), var, out=np.zeros_like(var),
                     where=var != 0.0)


def sample_tilted(dist, u: float, rng: np.random.Generator, size: int | None = None):
    """``size`` draws of Q_u (a float if None), one uniform of ``rng`` each."""
    base = _base_of(dist)
    u = base.require_interior(u, op="sample_tilted")
    p = np.atleast_1d(rng.random(size))
    out = base.tilted_inverse_cdf(np.full(p.shape, u), p)
    return out if size is not None else float(out[0])


# ---------------------------------------------------------------------------
# Distribution config schema
# ---------------------------------------------------------------------------

_SCHEMAS: dict[str, dict] = {
    "bernoulli": {"fields": ("p",), "build": lambda d: Bernoulli(float(d["p"]))},
    "gaussian": {"fields": ("sigma",), "build": lambda d: Gaussian(float(d["sigma"]))},
    "exponential": {"fields": ("rate",), "build": lambda d: Exponential(float(d["rate"]))},
    "poisson": {"fields": ("nu",), "build": lambda d: Poisson(float(d["nu"]))},
    "laplace": {"fields": ("scale",), "build": lambda d: Laplace(float(d["scale"]))},
    "gamma": {"fields": ("shape", "scale"),
              "build": lambda d: Gamma(float(d["shape"]), float(d["scale"]))},
    "atoms": {"fields": ("atoms",),
              "build": lambda d: DiscreteAtoms(tuple((float(a[0]), float(a[1]))
                                                     for a in d["atoms"]))},
    "counterexample": {"fields": ("i_max",),
                       "build": lambda d: CounterexampleSubgaussian(int(d["i_max"]))},
}


def parse_distribution(obj: dict, *, pointer: str = "/distribution") -> BaseDistribution:
    """Build a base distribution from its config dict; unknown fields rejected."""
    if not isinstance(obj, dict):
        raise ParseError("distribution spec must be an object", pointer=pointer)
    if "kind" not in obj:
        raise ParseError("missing required field 'kind'", pointer=pointer)
    kind = obj["kind"]
    schema = _SCHEMAS.get(kind)
    if schema is None:
        raise ParseError(f"unknown distribution kind {kind!r} "
                         f"(known: {sorted(_SCHEMAS)})", pointer=f"{pointer}/kind")
    fields = schema["fields"]
    unknown = set(obj) - set(fields) - {"kind"}
    if unknown:
        raise ParseError(f"unknown fields {sorted(unknown)} for kind {kind!r}", pointer=pointer)
    missing = set(fields) - set(obj)
    if missing:
        raise ParseError(f"missing fields {sorted(missing)} for kind {kind!r}", pointer=pointer)
    try:
        return schema["build"](obj)
    except (TypeError, InvalidArgumentError) as exc:
        raise ParseError(f"invalid parameters for kind {kind!r}: {exc}", pointer=pointer)


def distribution_config(base: BaseDistribution) -> dict:
    """Inverse of parse_distribution for the public kinds."""
    if isinstance(base, DiscreteAtoms):
        return {"kind": "atoms", "atoms": [[float(l), float(math.exp(w))]
                                           for l, w in zip(*base.log_atoms)]}
    if base.kind not in _SCHEMAS:
        raise InvalidArgumentError(f"kind {base.kind!r} has no config form")
    return {"kind": base.kind, **{f: getattr(base, f) for f in _SCHEMAS[base.kind]["fields"]}}
