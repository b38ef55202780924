"""Closed-form stretch bounds for tilted-moment ratios.

For a base distribution whose centered version has exponential tails
``P(Y >= t) <= C1 exp(-c1 t)`` and ``P(Y <= -t) <= C2 exp(-c2 t)``, the
ratio ``|mu''(u)| / mu'(u)`` of the tilted family is bounded by an
explicit two-branch function of ``u`` built from the four tail
constants, a support witness ``(a, b, eta)`` with
``Q([-b + mu(0), -a + mu(0)]) >= eta``, and a polynomial correction
``G(M1, M2, m1, m2)``.  The negative branch is obtained by reflecting
the base through the origin, so it carries its own witness taken from
the mass *above* the mean.

Also here: a linear-plus-constant envelope for subgaussian bases, and
the doubly-exponential atom construction whose tilted ratio grows
linearly in the tilt (showing the linear envelope rate is not
improvable).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .distributions import (
    BaseDistribution,
    CounterexampleSubgaussian,
    NefFamily,
    gamma_ratio,
)
from .errors import (
    DegenerateDistributionError,
    DomainError,
    InvalidArgumentError,
    PrecisionError,
)

__all__ = [
    "TailConstants",
    "SupportWitness",
    "StretchCertificate",
    "SubgaussianEnvelope",
    "fit_tail_constants",
    "tilt_range",
    "find_support_witness",
    "witness_mass",
    "g_q_value",
    "build_certificate",
    "stretch_bound",
    "stretch_supremum",
    "subgaussian_envelope",
    "subgaussian_stretch_bound",
    "counterexample_distribution",
    "verify_lower_bound",
    "verify_dominance",
    "LowerBoundReport",
    "DominanceReport",
]

_E = math.e
_WITNESS_A_LEVELS = [0.01 * k for k in range(1, 46)]
_WITNESS_B_LEVELS = [1e-4, 1e-3, 0.01, 0.05]


@dataclass(frozen=True)
class TailConstants:
    """Exponential tail envelope of the centered base: rate/scale per side."""

    c1: float
    C1: float
    c2: float
    C2: float

    def __post_init__(self):
        for name in ("c1", "C1", "c2", "C2"):
            v = getattr(self, name)
            if not (v > 0 and math.isfinite(v)):
                raise InvalidArgumentError(f"tail constant {name} must be positive and finite, got {v}")


@dataclass(frozen=True)
class SupportWitness:
    """Interval [-b, -a] of the centered base carrying mass at least eta."""

    a: float
    b: float
    eta: float

    def __post_init__(self):
        if not (0 < self.a <= self.b) or not math.isfinite(self.b):
            raise InvalidArgumentError(f"witness requires 0 < a <= b < inf, got a={self.a}, b={self.b}")
        if not (0 < self.eta <= 1):
            raise InvalidArgumentError(f"witness mass eta must lie in (0, 1], got {self.eta}")


@dataclass(frozen=True)
class StretchCertificate:
    """Everything needed to evaluate the two-branch stretch bound.

    ``witness`` backs the u >= 0 branch (mass below the mean);
    ``witness_left`` backs the u < 0 branch and is found on the mass
    above the mean, mirroring the reflection argument that produces
    that branch.
    """

    tail: TailConstants
    witness: SupportWitness
    witness_left: SupportWitness
    g_q_right: float
    g_q_left: float
    c0_right: float
    c0_left: float

    def __post_init__(self):
        for name in ("g_q_right", "g_q_left"):
            v = getattr(self, name)
            if not v > 0:
                raise InvalidArgumentError(f"{name} must be positive, got {v}")
            if not math.isfinite(v):  # G grows as C / c^3 per side: name the larger side
                t = self.tail
                right = math.log(t.C1) - 3 * math.log(t.c1) >= math.log(t.C2) - 3 * math.log(t.c2)
                raise DomainError(f"tail rates c1 = {t.c1}, c2 = {t.c2} overflow {name}",
                                  name="c1" if right else "c2")

    def constants_dict(self) -> dict:
        out = {**vars(self), **vars(self.tail), "witness_right": dict(vars(self.witness)),
               "witness_left": dict(vars(self.witness_left))}
        del out["tail"], out["witness"]
        return out


# ---------------------------------------------------------------------------
# Tail constants
# ---------------------------------------------------------------------------

def fit_tail_constants(base: BaseDistribution, c1: float | None = None,
                       c2: float | None = None) -> TailConstants:
    """Chernoff scales making the centered base a member of both tail classes.

    A missing rate is 90% of the distance to a finite domain end, else 1; a rate out of
    range raises a ``DomainError`` naming it.  With m the mean of the base, ``C1 = E exp(c1
    (Y - m)) = exp(-c1 m) M(c1)`` bounds the centered right tail as ``C1 exp(-c1 t)``;
    symmetrically ``C2 = E exp(-c2 (Y - m)) = exp(c2 m) M(-c2)`` bounds the left tail.
    """
    a, b = base.mgf_domain
    c1 = (0.9 * b if math.isfinite(b) else 1.0) if c1 is None else float(c1)
    c2 = (-0.9 * a if math.isfinite(a) else 1.0) if c2 is None else float(c2)
    lo, hi = base.interior
    m = float(base.mean_at(0.0))
    scales = []
    with np.errstate(over="ignore"):  # a log scale C that overflows is rejected below
        for name, c, u, end in (("c1", c1, c1, hi), ("c2", c2, -c2, -lo)):
            ok = 0.0 < c <= end and math.isfinite(c)
            log_scale = float(base.log_mgf(u)) - u * m if ok else math.nan
            if not log_scale <= math.log(sys.float_info.max):
                raise DomainError(f"tail rate {name} is not finite, positive and in the domain "
                                  "with a finite scale", value=c, interval=(0.0, end), name=name)
            scales.append(math.exp(log_scale))
    return TailConstants(c1=c1, C1=scales[0], c2=c2, C2=scales[1])


def tilt_range(tail: TailConstants, lo: float | None = None,
               hi: float | None = None) -> tuple[float, float]:
    """Tilt range [lo, hi] of these tail constants, a missing end at 0.8 of its rate.

    Each end must lie strictly inside (-c2, c1), where the stretch bound is finite and each
    tilt leaves room for the ratio identity's shifts, with lo <= hi; else a ``DomainError``
    names the failing end."""
    ends = {"lo": -0.8 * tail.c2 if lo is None else lo, "hi": 0.8 * tail.c1 if hi is None else hi}
    for name, u in ends.items():
        if not -tail.c2 < u < tail.c1:  # NaN fails too; c1 and c2 are finite
            raise DomainError(f"tilt range end {name} must lie strictly inside (-c2, c1)",
                              value=u, interval=(-tail.c2, tail.c1), name=name)
    if ends["lo"] > ends["hi"]:
        raise DomainError(f"tilt range end lo {ends['lo']} exceeds hi {ends['hi']}", name="lo")
    return ends["lo"], ends["hi"]


# ---------------------------------------------------------------------------
# Support witness
# ---------------------------------------------------------------------------

def witness_mass(base: BaseDistribution, a, b, side: str = "below"):
    """Mass of the candidate interval, measured on the uncentered base; elementwise."""
    return _mass_beside(base, float(base.mean_at(0.0)), a, b, side)


def _mass_beside(base: BaseDistribution, m: float, a, b, side: str):
    if side == "below":
        return base.interval_mass(m - b, m - a)
    return base.interval_mass(m + a, m + b)


def find_support_witness(base: BaseDistribution, side: str = "below") -> SupportWitness:
    """Scan sidewise quantiles for the witness maximizing a^2 * eta.

    ``a^2 eta`` divides every polynomial correction term, so it is the
    quality score; among near-optimal candidates the smallest b wins
    because b enters the correction quadratically.  The returned eta is
    the measured interval mass, not an infimum.
    """
    if side not in ("below", "above"):
        raise InvalidArgumentError(f"side must be 'below' or 'above', got {side!r}")
    if float(base.dmean_at(0.0)) <= 0.0:
        raise DegenerateDistributionError(
            "point-mass base has no support witness; the zero stretch function applies")
    m = float(base.mean_at(0.0))
    # beta = Q(Y < m) or Q(Y > m), from the u = 0 tails
    if side == "below":
        beta = base.tilted_lower_tail(0.0, -m)
    else:
        beta = base.tilted_upper_tail(0.0, m)
    if beta <= 0.0:
        raise DegenerateDistributionError("no mass on the requested side of the mean")

    lo_sup, hi_sup = base.support_bounds
    edge = m - lo_sup if side == "below" else hi_sup - m

    # every level's point in one quantile call: distance from the mean toward the tail
    levels = np.array(_WITNESS_B_LEVELS + _WITNESS_A_LEVELS) * beta
    if side == "below":
        dists = m - base.quantile(levels)
    else:
        dists = base.upper_quantile(levels) - m
    nb = len(_WITNESS_B_LEVELS)
    bs = np.concatenate(([edge], dists[:nb]))
    bs = bs[np.isfinite(bs)]
    a_s = dists[nb:][dists[nb:] > 0]

    # every (a, b) pair in one mass call, a-major as the ranking reads them
    a_s, bs = np.meshgrid(a_s, bs, indexing="ij")
    etas = _mass_beside(base, m, a_s, bs, side)
    live = (bs >= a_s) & (etas > 1e-12)
    if not live.any():
        raise DegenerateDistributionError("witness scan found no interval with positive mass")
    a_s, bs, etas = a_s[live], bs[live], etas[live]
    scores = a_s * a_s * etas
    near = np.flatnonzero(scores >= (1 - 1e-3) * scores.max())
    i = near[np.argmin(bs[near])]  # the first of the smallest b
    return SupportWitness(a=float(a_s[i]), b=float(bs[i]), eta=float(etas[i]))


# ---------------------------------------------------------------------------
# The polynomial correction and the stretch bound
# ---------------------------------------------------------------------------

def g_q_value(M1: float, M2: float, m1: float, m2: float, witness: SupportWitness) -> float:
    """Polynomial correction shared by both branches of the stretch bound."""
    for name, v in (("M1", M1), ("M2", M2), ("m1", m1), ("m2", m2)):
        if not (v > 0 and math.isfinite(v)):
            raise InvalidArgumentError(f"{name} must be positive and finite, got {v}")
    M1, M2, m1, m2 = map(np.float64, (M1, M2, m1, m2))
    a, b, eta = witness.a, witness.b, witness.eta
    e3 = _E**3
    with np.errstate(all="ignore"):  # a G beyond float range is inf
        return float(1.5 * b + (1.0 / (a * a * eta)) * (
            204.0 / (e3 * m1**3 * M1**3)
            + 6.0 * b * b / (e3 * m1 * M1**3)
            + (81.0 * M2 + 9.0 * M2 * m1**2 * b * b) / m2**3
        ))


def build_certificate(base: BaseDistribution, c1: float | None = None,
                      c2: float | None = None) -> StretchCertificate:
    """Fit tail constants, find both witnesses, and freeze the bound constants."""
    tail = fit_tail_constants(base, c1, c2)
    w_right = find_support_witness(base, side="below")
    w_left = find_support_witness(base, side="above")
    return StretchCertificate(
        tail=tail,
        witness=w_right,
        witness_left=w_left,
        g_q_right=g_q_value(tail.C1, tail.C2, tail.c1, tail.c2, w_right),
        g_q_left=g_q_value(tail.C2, tail.C1, tail.c2, tail.c1, w_left),
        c0_right=tail.C1 * tail.c1 * _E,
        c0_left=tail.C2 * tail.c2 * _E,
    )


def stretch_bound(cert: StretchCertificate, u):
    """Two-branch upper bound on |mu''|/mu' at tilt u, elementwise (a float for a float).

    Nondecreasing on [0, c1), nonincreasing on (-c2, 0].
    """
    c1, C1, c2, C2 = cert.tail.c1, cert.tail.C1, cert.tail.c2, cert.tail.C2
    u = np.asarray(u, dtype=float)
    if u.size:  # every tilt strictly inside (-c2, c1)
        tilt_range(cert.tail, float(u.min()), float(u.max()))
    with np.errstate(over="ignore"):  # a bound beyond float range is inf
        right = 1.5 * (2.0 * _E * C1 * c1 / (c1 - u) ** 2
                       + u * cert.witness.b / (c1 - u)) + cert.g_q_right
        left = 1.5 * (2.0 * _E * c2 * C2 / (c2 + u) ** 2
                      + (-u) * cert.witness_left.b / (c2 + u)) + cert.g_q_left
    bound = np.where(u >= 0.0, right, left)
    return float(bound) if bound.ndim == 0 else bound


def stretch_supremum(cert: StretchCertificate, family) -> float:
    """Supremum of the stretch bound over [param_lo, param_hi].

    Valid as the max of the endpoint values by branch monotonicity.
    """
    ends = family.interval if isinstance(family, NefFamily) else map(float, family)
    return max(stretch_bound(cert, u) for u in tilt_range(cert.tail, *ends))


# ---------------------------------------------------------------------------
# Subgaussian envelope
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubgaussianEnvelope:
    """Certified envelope slope * |u| + intercept for a subgaussian base.

    ``sigma_proxy`` encodes the two-sided tail ``2 exp(-t^2 / (2 sigma^2))``,
    i.e. rate c = 1/sigma^2 and scale C = 2 in ``C exp(-c t^2 / 2)``.
    """

    sigma_proxy: float
    witness: SupportWitness
    slope: float
    intercept: float
    note: str = field(default=(
        "envelope reuses the two-sided tail scale C for the lower-tail step and the "
        "exponential-tail variance lower bound a^2 eta e^(-ub)/M(u); recorded as an "
        "interpretation, not a tight constant"), repr=False)

    def value(self, u: float) -> float:
        return self.slope * abs(float(u)) + self.intercept


def subgaussian_envelope(sigma_proxy: float, witness: SupportWitness) -> SubgaussianEnvelope:
    if not (sigma_proxy > 0 and math.isfinite(sigma_proxy)):
        raise InvalidArgumentError(f"sigma_proxy must be positive, got {sigma_proxy}")
    c = 1.0 / sigma_proxy**2
    C = 2.0
    frak1 = C * (1.0 + math.sqrt(math.pi / c))
    frak3 = math.sqrt(math.pi / c) * frak1
    frak4 = C * math.sqrt(math.pi / (2.0 * c))
    beta1 = 2.0 * (4.0 / c + 1.0)                       # slope of the cutoff B(u)
    beta0 = 8.0 / c + witness.b + frak3                 # intercept of the cutoff B(u)
    front = 6.0 * (frak3 + frak4) / (witness.a**2 * witness.eta)
    # B^2 <= 2 beta1^2 u^2 + 2 beta0^2, and w u^2 exp(-4u^2/c) <= w sqrt(c)/2 * u
    slope = 1.5 * beta1 + front * beta1**2 * math.sqrt(c)
    intercept = 1.5 * beta0 + front * (2.0 / c + 2.0 * beta0**2)
    return SubgaussianEnvelope(sigma_proxy=sigma_proxy, witness=witness,
                               slope=slope, intercept=intercept)


def subgaussian_stretch_bound(sigma_proxy: float, witness: SupportWitness, u: float) -> float:
    return subgaussian_envelope(sigma_proxy, witness).value(u)


# ---------------------------------------------------------------------------
# Linear-growth counterexample
# ---------------------------------------------------------------------------

# spacing of float64 log-weights of size u^2 = 4^(i+1) beyond which the tilted
# ratio drifts (5e-7 relative at i = 16 against a 200-digit evaluation)
_LOG_WEIGHT_ULP_MAX = 1e-6


def counterexample_distribution(i_max: int) -> CounterexampleSubgaussian:
    return CounterexampleSubgaussian(i_max)


@dataclass(frozen=True)
class LowerBoundReport:
    i: int
    i_max: int
    u: float
    mean: float
    ratio: float
    mean_lo: float
    mean_hi: float
    ratio_threshold: float
    mean_ok: bool
    ratio_ok: bool

    @property
    def passes(self) -> bool:
        return self.mean_ok and self.ratio_ok


def verify_lower_bound(i: int, i_max: int | None = None) -> LowerBoundReport:
    """Tilted mean and moment ratio of the atom construction at u = 2^(i+1).

    Checks the mean against [1.24, 1.26] * 2^i and the ratio against
    0.038 * u.  All weight arithmetic runs in log domain, where the
    log-weights near the tilted mass are of size u^2; past
    ``_LOG_WEIGHT_ULP_MAX`` (from i = 16 on) float64 cannot resolve them,
    and a ``PrecisionError`` is raised instead of a wrong report.
    """
    if not isinstance(i, (int, np.integer)) or i % 2 != 0 or i < 4:
        raise InvalidArgumentError(f"i must be an even integer >= 4, got {i!r}")
    i_max = int(i + 20) if i_max is None else int(i_max)
    if i_max < i + 20:
        raise InvalidArgumentError(f"series truncation i_max must be >= i + 20, got {i_max}")
    u = float(2 ** (i + 1))
    if math.ulp(u * u) > _LOG_WEIGHT_ULP_MAX:
        raise PrecisionError(f"float64 log-weights cannot resolve the construction at i = {i}: "
                             f"ulp(u^2) = {math.ulp(u * u):.3g} exceeds {_LOG_WEIGHT_ULP_MAX:g}")
    base = counterexample_distribution(i_max)
    mean, var, third = (float(f(u)) for f in (base.mean_at, base.dmean_at, base.d2mean_at))
    if not all(map(math.isfinite, (mean, var, third))):
        raise PrecisionError("moment evaluation overflowed; log-domain path is mandatory here")
    ratio = abs(third) / var
    mean_lo, mean_hi = 1.24 * 2**i, 1.26 * 2**i
    return LowerBoundReport(
        i=i, i_max=i_max, u=u, mean=mean, ratio=ratio,
        mean_lo=mean_lo, mean_hi=mean_hi, ratio_threshold=0.038 * u,
        mean_ok=bool(mean_lo <= mean <= mean_hi),
        ratio_ok=bool(ratio >= 0.038 * u),
    )


# ---------------------------------------------------------------------------
# Grid verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DominanceReport:
    """Bound against measured ratio on a tilt grid, as columns: entry j belongs to tilt u[j]."""

    u: list[float]
    ratio: list[float]
    bound: list[float]
    ok: list[bool]

    @property
    def violations(self) -> int:
        return self.ok.count(False)

    @property
    def all_ok(self) -> bool:
        return self.violations == 0


def verify_dominance(cert: StretchCertificate, family: NefFamily,
                     grid_n: int = 200) -> DominanceReport:
    """Check a finite bound >= measured ratio on an even grid of grid_n >= 1 tilts."""
    if grid_n < 1:
        raise InvalidArgumentError(f"grid_n must be at least 1, got {grid_n}")
    us = np.linspace(*family.interval, grid_n)
    ratio, bound = gamma_ratio(family, us), stretch_bound(cert, us)
    return DominanceReport(u=us.tolist(), ratio=ratio.tolist(), bound=bound.tolist(),
                           ok=(np.isfinite(bound) & (bound >= ratio)).tolist())
