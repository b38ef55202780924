"""Tail and MGF certificates for centered bases and their tilts.

The caps that read a base center it through ``distributions.centered`` first, as
``selfconcordance`` does.  All inequalities here are grid-checkable with small additive
slack: an exponential right tail caps the MGF on [0, c1); a finite MGF value caps both
tails by the Chernoff transform; a bounded stretch supremum caps the tilted CGF by a
quadratic; and an exponential tail pair caps the tails and the mean of every tilt at
explicit rates.  Each cap is elementwise over its grid arguments and checks every element
by ``errors.inside`` (a DomainError at the first entry outside its interval, NaN included),
and so is the measured tilted MGF, the ratio identity's independent side (numpy and the
package's own log-sum-exp), so the suite runner checks each certificate on its whole grid
in one call.  Violations beyond the slack indicate an implementation bug, never noise, so
the suite runner returns hard pass/fail certificates.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    BaseDistribution,
    Laplace,
    NefFamily,
    Shifted,
    _AtomMixin,
    _logsumexp,
    centered,
)
from .errors import DomainError, InvalidArgumentError, inside, positive_finite
from .selfconcordance import (
    SupportWitness,
    TailConstants,
    _even_grid,
    _spread_centered,
    find_support_witness,
    fit_tail_constants,
    tilt_range,
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
        return dict(vars(self))


def mgf_from_tail_bound(c1: float, C1: float, lam):
    """MGF cap 1 + C1 lam^2 / (c1 (c1 - lam)) from a right tail C1 exp(-c1 t), elementwise."""
    c1, C1 = positive_finite(c1, "c1", "tail rate c1"), positive_finite(C1, "C1", "tail scale C1")
    lam = inside(lam, 0.0, c1, "the MGF cap holds on 0 <= lam < c1", open_hi=True)
    with np.errstate(all="ignore"):  # inf or NaN past float range
        return 1.0 + C1 * (lam / c1) * (lam / (c1 - lam))  # no lam^2 to underflow


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
    K = positive_finite(K, "K", "stretch supremum K")
    u = inside(u, *family.interval, "tilt must lie in the admissible range")
    lo, hi = _admissible_shift_box(family, K)
    base = family.base
    a, b = base.mgf_domain
    s = inside(s, lo, hi, f"shift violates |s| <= log(2)/K = {math.log(2.0) / K:.6g} or the "
                f"domain constraint s in ({a - family.param_lo:.6g}, {b - family.param_hi:.6g})")
    base.require_interior(u + s, op="cgf")  # u itself is inside [param_lo, param_hi]
    lhs = np.where(s != 0.0, base.log_mgf(u + s) - base.log_mgf(u), 0.0)
    rhs = s * base.mean_at(u) + s * s * base.dmean_at(u)
    return {"lhs": lhs, "rhs": rhs, "ok": lhs <= rhs + SLACK}


def tilted_tail_bounds(base: BaseDistribution, tail: TailConstants, u, t) -> dict:
    """Tail and mean caps for the tilt Q_u of the centered base in both tail classes.

    Right tail: (C1 e / M(u)) (1 + u/(c1-u)) exp(-(c1-u) t);
    left tail:  (C2 / M(u)) exp(-(u+c2) t);
    mean:       c1 C1 e / (c1-u)^2.

    Elementwise over broadcast ``u`` in [0, c1) and ``t`` >= 0.
    """
    base = centered(base)
    u, t = np.asarray(u, dtype=float), np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise InvalidArgumentError(f"t must be nonnegative, got {t}")
    u = inside(u, 0.0, tail.c1, "tilt must satisfy 0 <= u < c1", open_hi=True)
    M_u = np.exp(base.log_mgf(u))
    with np.errstate(all="ignore"):  # inf or NaN past float range
        right = (tail.C1 * math.e / M_u) * np.exp(-(tail.c1 - u) * t) * (1.0 + u / (tail.c1 - u))
        left = (tail.C2 / M_u) * np.exp(-(u + tail.c2) * t)
        mean_cap = tail.C1 * math.e * (tail.c1 / (tail.c1 - u)) / (tail.c1 - u)  # likewise
    return {"upper_bound_right": right, "upper_bound_left": left, "mean_bound": mean_cap}


def variance_lower_bound(base: BaseDistribution, witness: SupportWitness, u):
    """Lower bound a^2 eta exp(-u b) / M(u) on the variance of Q_u, elementwise, u >= 0."""
    base = _spread_centered(base)
    u = inside(u, 0.0, math.inf, "the variance lower bound is proven for u >= 0")
    base.require_interior(u, op="variance_lower_bound")
    return witness.a**2 * witness.eta * np.exp(-u * witness.b - base.log_mgf(u))


def measured_tilted_mgf(base: BaseDistribution, u, eps):
    """MGF of Q_u at eps measured without the ratio identity, elementwise over broadcast
    ``u`` and ``eps`` (a float for floats): for atom kinds an exact log-domain series (the
    package's own log-sum-exp over a tilts x shifts x atoms array), for Laplace the sum over
    the two exponential pieces of the tilted density (inf outside its domain), and for every
    other kind its conjugate ``tilted(u)``, built once per distinct tilt."""
    out = _measured_grid(base, np.asarray(u, dtype=float), np.asarray(eps, dtype=float))
    return float(out) if out.ndim == 0 else out


def _measured_grid(base: BaseDistribution, u: np.ndarray, eps: np.ndarray) -> np.ndarray:
    inner, offset = (base.base, base.offset) if isinstance(base, Shifted) else (base, 0.0)
    if isinstance(inner, _AtomMixin):
        logq = inner._exponents(u)
        logq = logq - _logsumexp(logq)[..., None]  # log-weights of Q_u
        return np.exp(_logsumexp(logq + eps[..., None] * (inner._locs + offset)))
    if isinstance(inner, Laplace):
        # density c exp(-rp y) on y > 0 and c exp(rm y) on y < 0
        rp, rm, c, _, _ = inner._tilted_pieces(u)
        with np.errstate(all="ignore"):  # the pieces' poles lie outside the domain
            return np.where((-rm < eps) & (eps < rp),
                            np.exp(eps * offset) * (c / (rp - eps) + c / (rm + eps)), math.inf)
    u, eps = np.broadcast_arrays(u, eps)
    out = np.full(u.shape, math.nan)  # kept where a conjugate has no float parameter
    for tilt in set(u.ravel().tolist()):
        with contextlib.suppress(InvalidArgumentError):  # a Poisson rate past float range
            out[u == tilt] = np.exp(base.tilted(tilt).log_mgf(eps[u == tilt]))
    return out


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

    The base is centered internally; missing tail rates and tilt interval ends
    take the ``fit_tail_constants`` and ``tilt_range`` defaults.
    """
    cb = centered(base)
    tail = fit_tail_constants(cb, c1, c2)
    c1, c2 = tail.c1, tail.c2
    interval = tilt_range(tail, *(interval or (None, None)))
    fam = NefFamily(cb, *interval)
    certs: list[TailCertificate] = []

    # MGF cap from the fitted right tail, on [0, 0.95 c1)
    lams = _even_grid(0.0, 0.95 * c1, grid_n)
    slacks = np.exp(cb.log_mgf(lams)) - mgf_from_tail_bound(c1, tail.C1, lams)
    certs.append(_cert("mgf_cap_from_right_tail", "right", c1, tail.C1,
                       f"lam in [0, {0.95 * c1:.3g}], {grid_n} points", slacks))

    # Chernoff tails of the centered base, both sides
    ts = _even_grid(0.0, 5.0, grid_n)
    sl_r = cb.tilted_upper_tail(0.0, ts) - tail_from_mgf(np.exp(cb.log_mgf(c1)), c1, ts)
    sl_l = cb.tilted_lower_tail(0.0, ts) - tail_from_mgf(np.exp(cb.log_mgf(-c2)), c2, ts)
    certs.append(_cert("chernoff_tail_right", "right", c1, tail.C1,
                       f"t in [0, 5], {grid_n} points", sl_r))
    certs.append(_cert("chernoff_tail_left", "left", c2, tail.C2,
                       f"t in [0, 5], {grid_n} points", sl_l))

    # Quadratic CGF cap for tilts in the admissible range
    K = max(fam.suprema[1], 1e-9)  # make_instance's K rule, on the same family
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

    # Ratio identity for the tilted MGF, and Chernoff tails of each tilt: u by eps by t
    us, ts = np.linspace(*interval, 7)[:, None], np.linspace(0.0, 4.0, 5)
    eps = np.array([-0.5, -0.25, 0.25, 0.5]) * np.minimum(c1 - np.maximum(us, 0.0),
                                                          c2 + np.minimum(us, 0.0))
    measured = _measured_grid(cb, us, eps)  # perfbench's tracer reads a public call as a float
    log_ratio, mu = cb.log_mgf(us + eps) - cb.log_mgf(us), cb.mean_at(us)
    scale, right = np.exp(log_ratio - eps * mu)[..., None], eps > 0
    sl_r = cb.tilted_upper_tail(us, mu + ts)[:, None] - scale * np.exp(-eps[..., None] * ts)
    sl_l = cb.tilted_lower_tail(us, ts - mu)[:, None] - scale * np.exp(eps[..., None] * ts)
    certs.append(_cert("tilted_mgf_ratio_identity", "both", 0.0, 0.0,
                       f"u in {interval}, eps at quarter spans",
                       np.abs(measured - np.exp(log_ratio))))
    certs.append(_cert("tilt_chernoff_right", "right", 0.0, 0.0,
                       f"u in {interval}, t in [0, 4]", sl_r[right]))
    certs.append(_cert("tilt_chernoff_left", "left", 0.0, 0.0,
                       f"u in {interval}, t in [0, 4]", sl_l[~right]))
    return certs
