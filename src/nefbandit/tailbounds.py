"""Tail and MGF certificates for centered bases and their tilts.

All inequalities here are grid-checkable with small additive slack:
an exponential right tail caps the MGF on [0, c1); a finite MGF value
caps both tails by the Chernoff transform; a bounded stretch supremum
caps the tilted CGF by a quadratic; and an exponential tail pair caps
the tails and the mean of every tilt at explicit rates.  Each cap is
elementwise over its grid arguments and checks every element, so the
suite runner checks each certificate on its whole grid in one call.
Violations beyond the slack indicate an implementation bug, never noise,
so the suite runner returns hard pass/fail certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .distributions import (
    BaseDistribution,
    CounterexampleSubgaussian,
    DiscreteAtoms,
    Laplace,
    NefFamily,
    Shifted,
    centered,
    gamma_ratio,
    mean_fn,
)
from .errors import DegenerateDistributionError, DomainError, InvalidArgumentError
from .selfconcordance import (
    SupportWitness,
    TailConstants,
    default_tail_rates,
    find_support_witness,
    fit_tail_constants,
)

__all__ = [
    "TailCertificate",
    "mgf_from_tail_bound",
    "tail_from_mgf",
    "tilted_cgf_quadratic_bound",
    "tilted_tail_bounds",
    "variance_lower_bound",
    "measured_tilted_mgf",
    "run_tail_suite",
]

SLACK = 1e-10


@dataclass(frozen=True)
class TailCertificate:
    """One grid-checked inequality: where it ran and the worst margin seen.

    ``max_slack`` is the largest (lhs - rhs) observed; any value above
    the additive tolerance marks the certificate as failed.
    """

    name: str
    side: str                  # left | right | both
    rate: float
    scale: float
    checked_on: str
    max_slack: float
    ok: bool

    def as_dict(self) -> dict:
        return {"name": self.name, "side": self.side, "rate": self.rate,
                "scale": self.scale, "checked_on": self.checked_on,
                "max_slack": self.max_slack, "ok": self.ok}


def mgf_from_tail_bound(c1: float, C1: float, lam):
    """MGF cap 1 + C1 lam^2 / (c1 (c1 - lam)) from a right tail C1 exp(-c1 t), elementwise."""
    if not (c1 > 0 and C1 > 0):
        raise InvalidArgumentError(f"tail constants must be positive, got c1={c1}, C1={C1}")
    lam = np.asarray(lam, dtype=float)
    bad = lam[~((0.0 <= lam) & (lam < c1))]
    if bad.size:
        raise DomainError("the MGF cap holds on 0 <= lam < c1", value=float(bad[0]),
                          interval=(0.0, c1))
    return 1.0 + C1 * lam**2 / (c1 * (c1 - lam))


def tail_from_mgf(M_at_c, c, t):
    """Chernoff tail cap M(c) exp(-c t), elementwise over broadcast arguments."""
    M_at_c, c, t = (np.asarray(x, dtype=float) for x in (M_at_c, c, t))
    if not (np.all(c > 0) and np.all(t >= 0) and np.all(np.isfinite(M_at_c))):
        raise InvalidArgumentError(
            f"need c > 0, t >= 0 and a finite MGF value, got c={c}, t={t}, M={M_at_c}")
    return M_at_c * np.exp(-c * t)


def _admissible_shift_box(family: NefFamily, K: float) -> tuple[float, float]:
    a, b = family.base.mgf_domain
    lo = max(-math.log(2.0) / K, a - family.param_lo)
    hi = min(math.log(2.0) / K, b - family.param_hi)
    if not lo < hi:
        raise DomainError(
            "admissible shift set is empty: |s| <= log(2)/K intersected with "
            f"({a - family.param_lo}, {b - family.param_hi})", value=None, interval=(lo, hi))
    return lo, hi


def tilted_cgf_quadratic_bound(family: NefFamily, u, s, K: float) -> dict:
    """Quadratic cap on the tilted CGF: psi(u+s) - psi(u) <= s mu(u) + s^2 mu'(u).

    Valid for |s| <= log(2)/K and u+s inside the natural parameter
    interval, K being a supremum of a stretch function over
    [param_lo, param_hi].  Elementwise over broadcast ``u`` and ``s``:
    ``lhs``, ``rhs`` and ``ok`` have their shape.
    """
    if not (K > 0 and math.isfinite(K)):
        raise InvalidArgumentError(f"stretch supremum K must be positive and finite, got {K}")
    u, s = np.asarray(u, dtype=float), np.asarray(s, dtype=float)
    bad = u[~((family.param_lo <= u) & (u <= family.param_hi))]
    if bad.size:
        raise DomainError("tilt must lie in the admissible range", value=float(bad[0]),
                          interval=family.interval)
    lo, hi = _admissible_shift_box(family, K)
    bad = s[~((lo <= s) & (s <= hi))]
    if bad.size:
        a, b = family.base.mgf_domain
        raise DomainError(
            f"shift violates |s| <= log(2)/K = {math.log(2.0) / K:.6g} or the domain "
            f"constraint s in ({a - family.param_lo:.6g}, {b - family.param_hi:.6g})",
            value=float(bad[0]), interval=(lo, hi))
    base = family.base
    base.require_interior(u + s, op="cgf")  # u itself is inside [param_lo, param_hi]
    lhs = np.where(s != 0.0, base.log_mgf(u + s) - base.log_mgf(u), 0.0)
    rhs = s * base.mean_at(u) + s * s * base.dmean_at(u)
    return {"lhs": lhs, "rhs": rhs, "ok": lhs <= rhs + SLACK}


def _require_centered(base: BaseDistribution, op: str) -> None:
    m = float(base.mean_at(0.0))
    if abs(m) > 1e-9:
        raise InvalidArgumentError(
            f"{op} applies to a centered base (wrap with centered()); mean is {m!r}")


def tilted_tail_bounds(base: BaseDistribution, tail: TailConstants, u, t) -> dict:
    """Tail and mean caps for the tilt Q_u of a centered base in both tail classes.

    Right tail: (C1 e / M(u)) (1 + u/(c1-u)) exp(-(c1-u) t);
    left tail:  (C2 / M(u)) exp(-(u+c2) t);
    mean:       c1 C1 e / (c1-u)^2.

    Elementwise over broadcast ``u`` in [0, c1) and ``t`` >= 0.
    """
    _require_centered(base, "tilted_tail_bounds")
    u, t = np.asarray(u, dtype=float), np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise InvalidArgumentError(f"t must be nonnegative, got {t}")
    bad = u[~((0.0 <= u) & (u < tail.c1))]
    if bad.size:
        raise DomainError("tilt must satisfy 0 <= u < c1", value=float(bad[0]),
                          interval=(0.0, tail.c1))
    M_u = np.exp(base.log_mgf(u))
    right = (tail.C1 * math.e / M_u) * np.exp(-(tail.c1 - u) * t) * (1.0 + u / (tail.c1 - u))
    left = (tail.C2 / M_u) * np.exp(-(u + tail.c2) * t)
    mean_cap = tail.c1 * tail.C1 * math.e / (tail.c1 - u) ** 2
    return {"upper_bound_right": right, "upper_bound_left": left, "mean_bound": mean_cap}


def variance_lower_bound(base: BaseDistribution, witness: SupportWitness, u):
    """Lower bound a^2 eta exp(-u b) / M(u) on the variance of Q_u, elementwise, u >= 0."""
    _require_centered(base, "variance_lower_bound")
    if float(base.dmean_at(0.0)) <= 0.0:
        raise DegenerateDistributionError("variance bound needs a non-degenerate base")
    u = np.asarray(u, dtype=float)
    if np.any(u < 0):
        raise DomainError("the variance lower bound is proven for u >= 0",
                          value=float(u.min()), interval=(0.0, math.inf))
    base.require_interior(u, op="variance_lower_bound")
    return witness.a**2 * witness.eta * np.exp(-u * witness.b - base.log_mgf(u))


def measured_tilted_mgf(base: BaseDistribution, u: float, eps: float) -> float:
    """MGF of Q_u at eps, measured without the ratio identity.

    Uses the conjugate closed form when one exists, an exact log-domain
    series for atom kinds, and for Laplace the sum over the two exponential
    pieces of the tilted density.
    """
    inner = base.base if isinstance(base, Shifted) else base
    offset = base.offset if isinstance(base, Shifted) else 0.0
    if isinstance(inner, (DiscreteAtoms, CounterexampleSubgaussian)):
        locs, logw = inner.log_atoms
        logq = logw + u * locs
        logq = logq - special.logsumexp(logq)  # log-weights of Q_u
        return float(np.exp(special.logsumexp(logq + eps * (locs + offset))))
    try:
        t = base.tilted(u)
    except InvalidArgumentError:
        t = None
    if t is not None:
        return float(np.exp(t.log_mgf(eps)))
    if isinstance(inner, Laplace):
        # density c exp(-rp y) on y > 0 and c exp(rm y) on y < 0
        rp, rm, c, _, _ = inner._tilted_pieces(u)
        if not -rm < eps < rp:
            return math.inf
        return math.exp(eps * offset) * (c / (rp - eps) + c / (rm + eps))
    raise InvalidArgumentError(f"no independent tilted-MGF route for kind {base.kind!r}")


# ---------------------------------------------------------------------------
# Suite runner
# ---------------------------------------------------------------------------

def _cert(name, side, rate, scale, checked_on, slacks) -> TailCertificate:
    """Certificate over a nonempty grid; a non-finite slack anywhere fails it."""
    slacks = np.asarray(slacks, dtype=float)
    worst = float(np.max(slacks))
    return TailCertificate(name=name, side=side, rate=rate, scale=scale,
                           checked_on=checked_on, max_slack=worst,
                           ok=bool(np.isfinite(slacks).all() and worst <= SLACK))


def run_tail_suite(base: BaseDistribution, c1: float | None = None, c2: float | None = None,
                   interval: tuple[float | None, float | None] | None = None,
                   grid_n: int = 24) -> list[TailCertificate]:
    """Grid-check every tail inequality for one base; returns certificates.

    The base is centered internally.  Tail constants default to the
    Chernoff fit at 90% of the distance to each finite domain endpoint
    (rate 1 on infinite sides); the tilt interval, or either missing end
    of it, defaults to (-0.8 c2, 0.8 c1).
    """
    if grid_n < 1:
        raise InvalidArgumentError(f"grid_n must be at least 1, got {grid_n}")
    cb = centered(base)
    d1, d2 = default_tail_rates(cb)
    c1 = d1 if c1 is None else c1
    c2 = d2 if c2 is None else c2
    tail = fit_tail_constants(cb, c1, c2)
    lo, hi = (None, None) if interval is None else interval
    interval = (-0.8 * c2 if lo is None else lo, 0.8 * c1 if hi is None else hi)
    fam = NefFamily(cb, *interval)
    certs: list[TailCertificate] = []

    # MGF cap from the fitted right tail, on [0, 0.95 c1)
    lams = np.linspace(0.0, 0.95 * c1, grid_n)
    slacks = np.exp(cb.log_mgf(lams)) - mgf_from_tail_bound(c1, tail.C1, lams)
    certs.append(_cert("mgf_cap_from_right_tail", "right", c1, tail.C1,
                       f"lam in [0, {0.95 * c1:.3g}], {grid_n} points", slacks))

    # Chernoff tails of the centered base, both sides
    ts = np.linspace(0.0, 5.0, grid_n)
    sl_r = cb.tilted_upper_tail(0.0, ts) - tail_from_mgf(np.exp(cb.log_mgf(c1)), c1, ts)
    sl_l = cb.tilted_lower_tail(0.0, ts) - tail_from_mgf(np.exp(cb.log_mgf(-c2)), c2, ts)
    certs.append(_cert("chernoff_tail_right", "right", c1, tail.C1,
                       f"t in [0, 5], {grid_n} points", sl_r))
    certs.append(_cert("chernoff_tail_left", "left", c2, tail.C2,
                       f"t in [0, 5], {grid_n} points", sl_l))

    # Quadratic CGF cap for tilts in the admissible range
    K = max(float(np.max(gamma_ratio(cb, np.linspace(*interval, 65)))), 1e-9)
    lo, hi = _admissible_shift_box(fam, K)
    r = tilted_cgf_quadratic_bound(fam, np.linspace(*interval, 9)[:, None],
                                   np.linspace(0.98 * lo, 0.98 * hi, 9), K)  # u by s
    certs.append(_cert("tilted_cgf_quadratic_cap", "both", K, math.log(2.0) / K,
                       f"u in {interval}, s in [{lo:.3g}, {hi:.3g}], 9x9 grid",
                       r["lhs"] - r["rhs"]))

    # Tail and mean caps for tilts, 0 <= u < c1
    us, ts = np.linspace(0.0, 0.9 * c1, 7)[:, None], np.linspace(0.0, 5.0, 7)
    r = tilted_tail_bounds(cb, tail, us, ts)
    certs.append(_cert("tilted_upper_tail_cap", "right", c1, tail.C1,
                       f"u in [0, {0.9 * c1:.3g}], t in [0, 5], 7x7 grid",
                       cb.tilted_upper_tail(us, ts) - r["upper_bound_right"]))
    certs.append(_cert("tilted_lower_tail_cap", "left", c2, tail.C2,
                       f"u in [0, {0.9 * c1:.3g}], t in [0, 5], 7x7 grid",
                       cb.tilted_lower_tail(us, ts) - r["upper_bound_left"]))
    certs.append(_cert("tilted_mean_cap", "right", c1, tail.C1,
                       f"u in [0, {0.9 * c1:.3g}], 7 points",
                       cb.mean_at(us) - r["mean_bound"]))

    # Variance lower bound for nonnegative tilts
    w = find_support_witness(cb, side="below")
    us = np.linspace(0.0, 0.9 * c1, 9)
    slacks = variance_lower_bound(cb, w, us) - cb.dmean_at(us)
    certs.append(_cert("tilt_variance_floor", "both", c1, w.a**2 * w.eta,
                       f"u in [0, {0.9 * c1:.3g}], 9 points", slacks))

    # Ratio identity for the tilted MGF, and Chernoff tails of each tilt
    slacks, sl_r, sl_l = [], [], []
    ts = np.linspace(0.0, 4.0, 5)
    for u in np.linspace(*interval, 7).tolist():
        m = float(cb.log_mgf(u))
        mu_u = mean_fn(cb, u)
        for eps_frac in (-0.5, -0.25, 0.25, 0.5):
            eps = eps_frac * min(c1 - max(u, 0.0), c2 + min(u, 0.0))
            lhs = measured_tilted_mgf(cb, u, eps)
            rhs = math.exp(float(cb.log_mgf(u + eps)) - m)
            slacks.append(abs(lhs - rhs))
            scale = math.exp(float(cb.log_mgf(u + eps)) - m - eps * mu_u)
            if eps > 0:
                sl_r.append(cb.tilted_upper_tail(u, mu_u + ts) - scale * np.exp(-eps * ts))
            else:
                sl_l.append(cb.tilted_lower_tail(u, ts - mu_u) - scale * np.exp(eps * ts))
    certs.append(_cert("tilted_mgf_ratio_identity", "both", 0.0, 0.0,
                       f"u in {interval}, eps at quarter spans", slacks))
    certs.append(_cert("tilt_chernoff_right", "right", 0.0, 0.0,
                       f"u in {interval}, t in [0, 4]", sl_r))
    certs.append(_cert("tilt_chernoff_left", "left", 0.0, 0.0,
                       f"u in {interval}, t in [0, 4]", sl_l))
    return certs
