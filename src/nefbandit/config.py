"""Experiment configuration: documented JSON schema, version 1.

Top-level fields (unknown fields are rejected, pointers name the spot):

    schema        int, currently 1 (default 1)
    distribution  {"kind": ..., ...}           required
    arms          [[...], ...] or {"circle": {"n": N, "radius": R}}
    theta_star    [..]                          required with arms
    S0 S1 S2      floats, optional              auto-derived otherwise
    c1 c2         tail rates, optional
    L K           caps, optional
    delta         float in (0, 1], default 0.05
    horizon       int >= 1, default 100
    replicates    int >= 1, default 1
    lambda        ridge override, optional (null = schedule value)
    seed          int, default 0
    workers       int >= 1, default 1
    grid          {"lo": .., "hi": .., "n": ..}, optional
    out           output directory, a non-empty string, optional

Every number here, in ``grid``, in the circle generator, in each ``arms`` and
``theta_star`` entry and in the distribution's fields (``distributions.check_number``)
is a JSON number within float range, an integer one where "int" says so (and for
``n`` and ``i_max``); a bad one is named by its own pointer, such as /arms/0/1.

Auto-derivations: S0 = ||theta_star||; S1/S2 = +/- S0 * max arm norm.  The tail
tilts c1 and -c2 lie in the base's interior, and the instance
invariants are checked eagerly at parse time whenever the arm set is present; a
failure exits at the field that ``bandit._named_by`` names, also when a run
constant squares beyond float range.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .bandit import (GlbInstance, _log_term, _named_by, _run_length, _wider_end,
                     confidence_radius, make_instance, regularizer_schedule)
from .distributions import check_number, parse_distribution
from .errors import ConfigError, InvalidArgumentError, ParseError, PrecisionError

__all__ = ["ExperimentConfig", "load_config", "parse_config", "with_flags", "build_instance"]

SCHEMA_VERSION = 1

_DEFAULTS = {
    "schema": SCHEMA_VERSION,
    "delta": 0.05,
    "horizon": 100,
    "replicates": 1,
    "lambda": None,
    "seed": 0,
    "workers": 1,
    "out": None,
}
_OPTIONAL = {"arms", "theta_star", "S0", "S1", "S2", "c1", "c2", "L", "K", "grid"}
_KNOWN = set(_DEFAULTS) | _OPTIONAL | {"distribution"}
# the rule of each numeric top-level field, as keyword arguments of check_number
_NUMBER_RULES = (("schema", {"integer": True}), ("delta", {}),
                 ("horizon", {"integer": True, "positive": True}),
                 ("replicates", {"integer": True, "positive": True}),
                 ("lambda", {"positive": True, "nullable": True}),
                 ("seed", {"integer": True}),
                 ("workers", {"integer": True, "positive": True}),
                 ("S0", {"positive": True}), ("S1", {}), ("S2", {}),
                 ("c1", {"positive": True}),
                 ("c2", {"positive": True}), ("L", {"positive": True}),
                 ("K", {"nonnegative": True}))


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated configuration.  ``raw`` holds JSON values only, so it round-trips
    bit-identically: ``parse_config(json.loads(json.dumps(cfg.raw))).raw == cfg.raw``."""

    raw: dict = field(repr=False)
    # the instance parse_config built while checking it, so a command builds it once
    instance: GlbInstance | None = field(default=None, repr=False, compare=False)

    @property
    def distribution(self) -> dict:
        return self.raw["distribution"]

    @property
    def delta(self) -> float:
        return self.raw["delta"]

    @property
    def horizon(self) -> int:
        return self.raw["horizon"]

    @property
    def replicates(self) -> int:
        return self.raw["replicates"]

    @property
    def lam(self):
        return self.raw["lambda"]

    @property
    def seed(self) -> int:
        return self.raw["seed"]

    @property
    def workers(self) -> int:
        return self.raw["workers"]

    @property
    def out(self):
        return self.raw["out"]

    @property
    def grid(self) -> dict | None:
        return self.raw.get("grid")


def _expand_arms(obj, pointer: str) -> np.ndarray:
    if isinstance(obj, dict):
        if set(obj) != {"circle"}:
            raise ParseError("arm generator must be {'circle': {'n': N, 'radius': R}}",
                             pointer=pointer)
        spec = obj["circle"]
        if not isinstance(spec, dict) or set(spec) != {"n", "radius"}:
            raise ParseError("circle generator needs exactly the fields n and radius",
                             pointer=pointer + "/circle")
        n = check_number(spec, "n", pointer + "/circle", integer=True, positive=True)
        if n > np.iinfo(np.intp).max // 16:  # its (n, 2) float array is beyond numpy's index range
            raise ParseError(f"a circle of {n} arms exceeds numpy's index range",
                             pointer=pointer + "/circle/n")
        radius = check_number(spec, "radius", pointer + "/circle", positive=True)
        if radius > 1.0:
            raise ParseError(f"radius must lie in (0, 1], got {radius}",
                             pointer=pointer + "/circle/radius")
        ang = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        return np.stack([radius * np.cos(ang), radius * np.sin(ang)], axis=1)
    if isinstance(obj, list):
        if not all(isinstance(a, list) and len(a) == len(obj[0]) for a in obj):
            raise ParseError("arms must be a list of equal-length numeric vectors",
                             pointer=pointer)
        return np.array([[check_number(a, j, f"{pointer}/{i}") for j in range(len(a))]
                         for i, a in enumerate(obj)])
    raise ParseError("arms must be a list of vectors or a generator object", pointer=pointer)


def _check_fields(raw: dict) -> None:
    """The rule of each top-level number field and of ``out`` that ``raw`` holds."""
    for key, opts in _NUMBER_RULES:
        check_number(raw, key, "", **opts)
    if raw.get("out") is not None and not (isinstance(raw["out"], str) and raw["out"]):
        raise ParseError("field 'out' must be a non-empty directory name or null",
                         pointer="/out")


def parse_config(obj: dict) -> ExperimentConfig:
    """Validate a config dict, fill defaults, and eagerly check instance invariants."""
    if not isinstance(obj, dict):
        raise ParseError("config must be a JSON object", pointer="")
    unknown = set(obj) - _KNOWN
    if unknown:
        raise ParseError(f"unknown fields {sorted(unknown)}", pointer="")
    if "distribution" not in obj:
        raise ParseError("missing required field 'distribution'", pointer="")
    raw = dict(_DEFAULTS)
    raw.update(obj)
    _check_fields(raw)
    if raw["schema"] != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema version {raw['schema']!r}; this build "
                         f"reads version {SCHEMA_VERSION}", pointer="/schema")
    base = parse_distribution(raw["distribution"])
    try:  # the run-length rule of every run, also without an instance
        _run_length(raw["horizon"], raw["delta"])
    except InvalidArgumentError as exc:
        raise ParseError(str(exc), pointer="/horizon" if exc.name == "T" else "/delta") from exc
    if "grid" in raw and raw["grid"] is not None:
        g = raw["grid"]
        if not isinstance(g, dict) or set(g) - {"lo", "hi", "n"}:
            raise ParseError("grid must be an object with fields lo, hi, n", pointer="/grid")
        for key, opts in (("lo", {}), ("hi", {}), ("n", {"integer": True, "positive": True})):
            check_number(g, key, "/grid", **opts)
    if ("arms" in raw) != ("theta_star" in raw):
        raise ParseError("arms and theta_star must be given together", pointer="")
    instance = None
    if "arms" in raw:  # instance invariants checked eagerly; commands reuse the instance
        arms = _expand_arms(raw["arms"], "/arms")
        if not isinstance(raw["theta_star"], list):
            raise ParseError("theta_star must be a list of numbers", pointer="/theta_star")
        theta = np.array([check_number(raw["theta_star"], i, "/theta_star")
                          for i in range(len(raw["theta_star"]))])
        try:
            instance = make_instance(base, arms, theta, S0=raw.get("S0"), S1=raw.get("S1"),
                                     S2=raw.get("S2"), c1=raw.get("c1"), c2=raw.get("c2"),
                                     L=raw.get("L"), K=raw.get("K"))
        except ConfigError as exc:
            raise ParseError(str(exc), pointer=f"/{exc.name}") from exc
        _check_run_constants(instance, raw)
        try:  # a run draws each arm's reward at its tilt x' theta_star
            base.tilted_inverse_cdf(arms @ theta, np.full(len(arms), 0.5))
        except PrecisionError as exc:
            raise ParseError(str(exc), pointer="/distribution") from exc
    return ExperimentConfig(raw=raw, instance=instance)


def _check_run_constants(inst: GlbInstance, raw: dict) -> None:
    """A run and its regret bound square L, gamma_T and c gamma_T, so each square must be
    finite (lambda_T too); a ParseError names the field behind the overflow by ``_named_by``."""
    T, delta, lam = raw["horizon"], raw["delta"], raw["lambda"]
    lam_T = regularizer_schedule(inst, T, delta) if lam is None else lam
    gamma = confidence_radius(inst, T, T, delta, lam=lam_T) if math.isfinite(lam_T) else math.inf
    c = inst.diameter_factor
    if all(math.isfinite(x * x) for x in (inst.L, gamma, c * gamma)):
        return
    log_term = _log_term(inst.L, inst.d, T, delta)
    if not math.isfinite(inst.L * inst.L):
        name = "L"
    elif not math.isfinite(log_term):  # T L / d or 1 / delta beyond float range
        name = "L" if not math.isfinite(T * inst.L / inst.d) else "delta"
    elif not math.isfinite(lam_T):  # (2 d M / S0) log_term
        name = "M"
    elif not math.isfinite(gamma * gamma):  # the larger factor of gamma_T's larger term
        root = math.sqrt(lam_T)
        if root * inst.S0 >= 4.0 * inst.M * inst.d / root * log_term:
            name = "lambda" if lam is not None and root > inst.S0 else "S0"
        else:
            name = "lambda" if lam is not None and 1.0 / root > inst.M else "M"
    else:  # c gamma_T, with c = 1 + 2 K (S1 - S2)
        name = "K" if inst.K >= inst.S1 - inst.S2 else _wider_end(inst.S1, inst.S2)
    name = _named_by(name, raw, inst.S1, inst.S2, inst.K, inst.c1, inst.c2)
    raise ParseError(f"a {T}-round run squares L={inst.L}, gamma_T={gamma} and c gamma_T with "
                     f"c={c} (lambda_T={lam_T}): each square must be a finite number",
                     pointer=f"/{name}")


def with_flags(cfg: ExperimentConfig, *, seed=None, workers=None, replicates=None,
               out=None) -> ExperimentConfig:
    """``cfg`` with each given (not None) run flag in place of its field, after that field's
    own rule: a bad value is a ParseError at the field's pointer.  The instance is kept."""
    flags = {"seed": seed, "workers": workers, "replicates": replicates, "out": out}
    given = {key: value for key, value in flags.items() if value is not None}
    _check_fields(given)
    return replace(cfg, raw={**cfg.raw, **given})


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ParseError(f"config file {path} does not exist", pointer="")
    try:
        obj = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", pointer="")
    return parse_config(obj)


def build_instance(cfg: ExperimentConfig) -> GlbInstance:
    """The validated instance of a config with arm data, as parse_config built it."""
    if cfg.instance is None:
        raise ParseError("config carries no arm set / true parameter", pointer="/arms")
    return cfg.instance

