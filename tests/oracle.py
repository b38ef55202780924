"""Independent references for the tests: the package's closed forms and grids are checked here.

``moments(base, u)`` gives the mean, variance, third central and third
absolute moments of the tilt Q_u by a route of its own where one exists:
adaptive quadrature of the tilted Laplace density and of Gamma's third
absolute moment, a truncated series for Poisson's, log-domain weighted sums
for the atom kinds, and the textbook third absolute moments of Bernoulli,
the Gaussian and the Exponential.  Mean, variance and third central moment
of the kinds with an exact conjugate form are read back from the package.

``logsumexp_tilted_mgf`` measures an atom kind's tilted MGF through
``scipy.special.logsumexp``, and ``ratio_block_slacks`` is the tail suite's
ratio-identity block as a loop over single (u, eps) points.

``dominance_payload`` is the ``verify`` report as a dict of point dicts,
and ``strict_json`` the text ``json.dumps`` gives a report: the reference
for the CLI's column-by-column report writer.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from nefbandit.distributions import (
    Bernoulli,
    CounterexampleSubgaussian,
    DiscreteAtoms,
    Exponential,
    Gamma,
    Gaussian,
    Laplace,
    Poisson,
    Shifted,
)
from nefbandit.distributions import gamma_ratio
from nefbandit.errors import NumericError
from nefbandit.selfconcordance import stretch_bound
from nefbandit.tailbounds import measured_tilted_mgf

QUAD_OPTS = dict(epsabs=1e-13, epsrel=1e-12, limit=200)


@dataclass(frozen=True)
class MomentReport:
    """Mean, variance and third central/absolute moments of one tilt."""

    u: float
    mean: float
    variance: float
    third_central: float
    third_absolute: float
    method: str
    abs_error_estimate: float

    def __post_init__(self):
        if self.variance < 0:
            raise NumericError("negative variance in moment report", residual=self.variance)
        if self.third_absolute < abs(self.third_central) - 1e-9 * (1 + abs(self.third_central)):
            raise NumericError("third absolute moment below |third central|")


def moments(base, u: float) -> MomentReport:
    """Moment report of Q_u; ``u`` must lie strictly inside the natural parameter interval."""
    return _report(base, base.require_interior(u, op="moments"))


def _analytic(base, u, third_abs, err=1e-14) -> MomentReport:
    return MomentReport(u=float(u), mean=float(base.mean_at(u)), variance=float(base.dmean_at(u)),
                        third_central=float(base.d2mean_at(u)), third_absolute=float(third_abs),
                        method="analytic", abs_error_estimate=err)


def _report(base, u: float) -> MomentReport:
    if isinstance(base, Shifted):
        r = _report(base.base, u)
        return MomentReport(u=r.u, mean=r.mean + base.offset, variance=r.variance,
                            third_central=r.third_central, third_absolute=r.third_absolute,
                            method=r.method, abs_error_estimate=r.abs_error_estimate)
    if isinstance(base, Bernoulli):
        m = float(base.mean_at(u))
        return _analytic(base, u, (1.0 - m) * m**3 + m * (1.0 - m) ** 3)
    if isinstance(base, Gaussian):
        return _analytic(base, u, base.sigma**3 * math.sqrt(8.0 / math.pi))
    if isinstance(base, Exponential):
        return _analytic(base, u, (12.0 / math.e - 2.0) / (base.rate - u) ** 3)
    if isinstance(base, Poisson):
        m = base.nu * math.exp(u)
        ks = np.arange(int(m + 40.0 * math.sqrt(m) + 60.0) + 1)
        pmf = np.exp(ks * math.log(m) - m - special.gammaln(ks + 1))
        return _analytic(base, u, float(np.sum(pmf * np.abs(ks - m) ** 3)), err=1e-12)
    if isinstance(base, Laplace):
        return _laplace(base, u)
    if isinstance(base, Gamma):
        return _gamma(base, u)
    if isinstance(base, (DiscreteAtoms, CounterexampleSubgaussian)):
        locs, logw = base.log_atoms
        logq = logw + u * locs
        q = np.exp(logq - logq.max())
        q /= q.sum()
        m = float(np.dot(q, locs))
        d = locs - m
        return MomentReport(u=u, mean=m, variance=float(np.dot(q, d**2)),
                            third_central=float(np.dot(q, d**3)),
                            third_absolute=float(np.dot(q, np.abs(d) ** 3)),
                            method="series", abs_error_estimate=1e-14)
    raise TypeError(f"no moment oracle for kind {base.kind!r}")


def _laplace(base: Laplace, u: float) -> MomentReport:
    # the tilted density decays at rate 1/s - u to the right and 1/s + u to the left
    s, logm = base.scale, float(base.log_mgf(u))
    lo, hi = -90.0 / (1.0 / s + u) - 4.0 * s, 90.0 / (1.0 / s - u) + 4.0 * s

    def dens(y):
        return math.exp(u * y - logm - abs(y) / s) / (2.0 * s)

    mean, e0 = integrate.quad(lambda y: y * dens(y), lo, hi, points=[0.0], **QUAD_OPTS)
    var, e1 = integrate.quad(lambda y: (y - mean) ** 2 * dens(y), lo, hi,
                             points=[0.0, mean], **QUAD_OPTS)
    third, e2 = integrate.quad(lambda y: (y - mean) ** 3 * dens(y), lo, hi,
                               points=[0.0, mean], **QUAD_OPTS)
    third_abs, e3 = integrate.quad(lambda y: abs(y - mean) ** 3 * dens(y), lo, hi,
                                   points=[0.0, mean], **QUAD_OPTS)
    err = e0 + e1 + e2 + e3
    if err > 1e-8 * (1.0 + abs(third_abs)):
        raise NumericError("tilted Laplace moment quadrature did not converge", residual=err)
    return MomentReport(u=u, mean=mean, variance=var, third_central=third,
                        third_absolute=third_abs, method="quadrature", abs_error_estimate=err)


def _gamma(base: Gamma, u: float) -> MomentReport:
    th = base.scale / (1.0 - base.scale * u)  # the tilt is Gamma(shape, th)
    mean = base.shape * th
    hi = th * float(special.gammaincinv(base.shape, 1.0 - 1e-16))

    def dens(y):
        return math.exp((base.shape - 1.0) * math.log(y) - y / th
                        - special.gammaln(base.shape) - base.shape * math.log(th))

    third_abs, err = integrate.quad(lambda y: abs(y - mean) ** 3 * dens(y),
                                    1e-300, hi, points=[mean], **QUAD_OPTS)
    return _analytic(base, u, third_abs, err=err)


# the eight README kinds at the benchmark's parameters, and a shifted Gamma
README_BASES = [Bernoulli(0.5), Gaussian(1.0), Exponential(1.0), Poisson(2.0), Laplace(1.0),
                Gamma(2.0, 1.0), DiscreteAtoms(((0.0, 0.5), (1.0, 0.5))),
                CounterexampleSubgaussian(24), Shifted(Gamma(2.0, 1.0), -1.5)]


def logsumexp_tilted_mgf(base, u: float, eps: float) -> float:
    """MGF at eps of the tilt Q_u of an atom kind (or a shifted one), by scipy's logsumexp."""
    inner, offset = (base.base, base.offset) if isinstance(base, Shifted) else (base, 0.0)
    locs, logw = inner.log_atoms
    logq = logw + u * locs
    logq = logq - special.logsumexp(logq)
    return float(np.exp(special.logsumexp(logq + eps * (locs + offset))))


def default_tail_rates(base) -> tuple[float, float]:
    """The tail rates ``fit_tail_constants`` defaults to: per side, 90% of the distance to a
    finite end of the natural parameter interval, else 1."""
    lo, hi = base.mgf_domain
    return (0.9 * hi if math.isfinite(hi) else 1.0), (-0.9 * lo if math.isfinite(lo) else 1.0)


def ratio_block_slacks(cb) -> dict[str, list[float]]:
    """Slacks of the ratio identity and of the Chernoff tails of each tilt of the centered
    base ``cb``, one (u, eps) point at a time, at the tail suite's default points."""
    c1, c2 = default_tail_rates(cb)
    interval = (-0.8 * c2, 0.8 * c1)
    out = {"tilted_mgf_ratio_identity": [], "tilt_chernoff_right": [], "tilt_chernoff_left": []}
    ts = np.linspace(0.0, 4.0, 5)
    for u in np.linspace(*interval, 7).tolist():
        m = float(cb.log_mgf(u))
        mu_u = float(cb.mean_at(u))
        for eps_frac in (-0.5, -0.25, 0.25, 0.5):
            eps = eps_frac * min(c1 - max(u, 0.0), c2 + min(u, 0.0))
            rhs = math.exp(float(cb.log_mgf(u + eps)) - m)
            out["tilted_mgf_ratio_identity"].append(abs(measured_tilted_mgf(cb, u, eps) - rhs))
            scale = math.exp(float(cb.log_mgf(u + eps)) - m - eps * mu_u)
            for t in ts.tolist():
                if eps > 0:
                    out["tilt_chernoff_right"].append(
                        float(cb.tilted_upper_tail(u, mu_u + t)) - scale * math.exp(-eps * t))
                else:
                    out["tilt_chernoff_left"].append(
                        float(cb.tilted_lower_tail(u, t - mu_u)) - scale * math.exp(eps * t))
    return out


def _strict(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return obj


def strict_json(payload: dict) -> str:
    """A report as ``json.dumps`` writes it: indented, key-sorted, non-finite floats as null."""
    return json.dumps(_strict(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"


def dominance_payload(base, cert, lo: float, hi: float, n: int,
                      ratio=gamma_ratio, bound=stretch_bound) -> dict:
    """The ``verify`` report of ``base`` on the even n-point tilt grid of [lo, hi], with one
    ``{u, ratio, bound, ok}`` dict per tilt; ``ratio`` and ``bound`` default to the package's
    closed-form ratio and stretch bound."""
    us = np.linspace(lo, hi, n)
    points = [{"u": u, "ratio": r, "bound": b, "ok": b >= r}
              for u, r, b in zip(us.tolist(), ratio(base, us).tolist(),
                                 bound(cert, us).tolist())]
    violations = sum(not p["ok"] for p in points)
    return {"schema": 1, "distribution": base.kind, "grid": {"lo": lo, "hi": hi, "n": n},
            "certificate": cert.constants_dict(), "points": points,
            "violations": violations, "ok": violations == 0}
