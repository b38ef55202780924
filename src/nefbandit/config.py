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
    out           output directory, optional

Auto-derivations: S0 = ||theta_star||; S1/S2 = +/- S0 * max arm norm;
the instance invariants are checked eagerly at parse time whenever the
arm set is present.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bandit import (GlbInstance, _log_term, _m_terms, confidence_radius, make_instance,
                     regularizer_schedule)
from .distributions import parse_distribution
from .errors import ConfigError, ParseError

__all__ = ["ExperimentConfig", "load_config", "parse_config", "build_instance"]

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


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated configuration; ``raw`` round-trips through json bit-identically."""

    raw: dict = field(repr=False)
    distribution: dict = field(default_factory=dict)
    # the instance parse_config built while checking it, so a command builds it once
    instance: GlbInstance | None = field(default=None, repr=False, compare=False)

    @property
    def schema(self) -> int:
        return self.raw["schema"]

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

    @property
    def has_instance(self) -> bool:
        return "arms" in self.raw and "theta_star" in self.raw

    def to_dict(self) -> dict:
        return json.loads(json.dumps(self.raw))

    def serialize(self) -> str:
        return json.dumps(self.raw, sort_keys=True, indent=2) + "\n"


def _expand_arms(obj, pointer: str) -> np.ndarray:
    if isinstance(obj, dict):
        if set(obj) != {"circle"}:
            raise ParseError("arm generator must be {'circle': {'n': N, 'radius': R}}",
                             pointer=pointer)
        spec = obj["circle"]
        if not isinstance(spec, dict) or set(spec) != {"n", "radius"}:
            raise ParseError("circle generator needs exactly the fields n and radius",
                             pointer=pointer + "/circle")
        n, radius = int(spec["n"]), float(spec["radius"])
        if n < 1 or not 0.0 < radius <= 1.0:
            raise ParseError(f"need n >= 1 and radius in (0, 1], got n={n}, radius={radius}",
                             pointer=pointer + "/circle")
        ang = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        return np.stack([radius * np.cos(ang), radius * np.sin(ang)], axis=1)
    if isinstance(obj, list):
        try:
            arms = np.asarray(obj, dtype=float)
        except (TypeError, ValueError):
            raise ParseError("arms must be a list of equal-length numeric vectors",
                             pointer=pointer)
        if arms.ndim != 2:
            raise ParseError("arms must be a list of equal-length numeric vectors",
                             pointer=pointer)
        if not np.isfinite(arms).all():
            raise ParseError("arm entries must be finite numbers", pointer=pointer)
        return arms
    raise ParseError("arms must be a list of vectors or a generator object", pointer=pointer)


def _check_number(raw, key, pointer, *, integer=False, positive=False, nonnegative=False,
                  nullable=False):
    if key not in raw:
        return
    v = raw[key]
    if v is None and nullable:
        return
    # a JSON integer for an integer field; any other number within float range
    ok = isinstance(v, int if integer else (int, float)) and not isinstance(v, bool)
    if ok and not integer:
        ok = abs(v) <= sys.float_info.max  # False for NaN, +/-inf and ints beyond float range
    if ok and positive:
        ok = v > 0
    if ok and nonnegative:
        ok = v >= 0
    if not ok:
        kind = ("positive " if positive else "nonnegative " if nonnegative else "") + \
            ("integer" if integer else "number")
        raise ParseError(f"field {key!r} must be {'an' if kind[0] == 'i' else 'a'} {kind}",
                         pointer=f"{pointer}/{key}")


def parse_config(obj: dict, *, pointer: str = "") -> ExperimentConfig:
    """Validate a config dict, fill defaults, and eagerly check instance invariants."""
    if not isinstance(obj, dict):
        raise ParseError("config must be a JSON object", pointer=pointer)
    unknown = set(obj) - _KNOWN
    if unknown:
        raise ParseError(f"unknown fields {sorted(unknown)}", pointer=pointer)
    if "distribution" not in obj:
        raise ParseError("missing required field 'distribution'", pointer=pointer)
    raw = dict(_DEFAULTS)
    raw.update(obj)
    if raw["schema"] != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema version {raw['schema']!r}; this build "
                         f"reads version {SCHEMA_VERSION}", pointer=f"{pointer}/schema")
    base = parse_distribution(raw["distribution"], pointer=f"{pointer}/distribution")
    for key, opts in (("delta", {}), ("horizon", {"integer": True, "positive": True}),
                      ("replicates", {"integer": True, "positive": True}),
                      ("lambda", {"positive": True, "nullable": True}),
                      ("seed", {"integer": True}),
                      ("workers", {"integer": True, "positive": True}),
                      ("S0", {"positive": True}), ("S1", {}), ("S2", {}),
                      ("c1", {"positive": True}),
                      ("c2", {"positive": True}), ("L", {"positive": True}),
                      ("K", {"nonnegative": True})):
        _check_number(raw, key, pointer, **opts)
    if not 0.0 < raw["delta"] <= 1.0:
        raise ParseError(f"delta must lie in (0, 1], got {raw['delta']}",
                         pointer=f"{pointer}/delta")
    if raw["out"] is not None and not isinstance(raw["out"], str):
        raise ParseError("field 'out' must be a directory name or null", pointer=f"{pointer}/out")
    if "grid" in raw and raw["grid"] is not None:
        g = raw["grid"]
        if not isinstance(g, dict) or set(g) - {"lo", "hi", "n"}:
            raise ParseError("grid must be an object with fields lo, hi, n",
                             pointer=f"{pointer}/grid")
        for key, opts in (("lo", {}), ("hi", {}), ("n", {"integer": True, "positive": True})):
            _check_number(g, key, f"{pointer}/grid", **opts)
    if ("arms" in raw) != ("theta_star" in raw):
        raise ParseError("arms and theta_star must be given together", pointer=pointer)
    instance = None
    if "arms" in raw:  # instance invariants checked eagerly; commands reuse the instance
        arms = _expand_arms(raw["arms"], "/arms")
        try:
            theta = np.asarray(raw["theta_star"], dtype=float).ravel()
        except (TypeError, ValueError):
            raise ParseError("theta_star must be a list of numbers", pointer="/theta_star")
        if not np.isfinite(theta).all():
            raise ParseError("theta_star entries must be finite numbers", pointer="/theta_star")
        if arms.shape[1] != theta.shape[0]:
            raise ParseError(f"theta_star has dim {theta.shape[0]} but arms have dim "
                             f"{arms.shape[1]}", pointer="/theta_star")
        try:
            instance = make_instance(base, arms, theta, S0=raw.get("S0"), S1=raw.get("S1"),
                                     S2=raw.get("S2"), c1=raw.get("c1"), c2=raw.get("c2"),
                                     L=raw.get("L"), K=raw.get("K"))
        except ConfigError as exc:
            if exc.name is None:
                raise
            raise ParseError(str(exc), pointer=f"{pointer}/{exc.name}") from exc
        _check_run_constants(instance, raw, pointer)
    return ExperimentConfig(raw=raw, distribution=raw["distribution"], instance=instance)


def _square_is_finite(x: float) -> bool:
    try:
        return math.isfinite(x ** 2)
    except OverflowError:
        return False


def _check_run_constants(inst: GlbInstance, raw: dict, pointer: str) -> None:
    """A run and its regret bound square L, gamma_T and c gamma_T, so each square must be
    finite (lambda_T too); a ParseError names the field that overflows them."""
    T, delta, lam = raw["horizon"], raw["delta"], raw["lambda"]
    lam_T = regularizer_schedule(inst, T, delta) if lam is None else float(lam)
    gamma = confidence_radius(inst, T, T, delta, lam=lam_T)  # NaN or inf unless lam_T is finite
    c = inst.diameter_factor
    if all(_square_is_finite(x) for x in (inst.L, gamma, c * gamma)):
        return
    floors = _m_terms(inst.K, inst.S1, inst.S2, inst.c1, inst.c2)
    by_M = max(floors, key=floors.get)  # the constant that sets M
    log_term = _log_term(inst.L, inst.d, T, delta)
    if not _square_is_finite(inst.L):
        name = "L"
    elif not math.isfinite(log_term):  # T L / d or 1 / delta beyond float range
        name = "L" if not math.isfinite(T * inst.L / inst.d) else "delta"
    elif not math.isfinite(lam_T):  # (2 d M / S0) log_term
        name = by_M
    elif not _square_is_finite(gamma):  # the larger factor of gamma_T's larger term
        root = math.sqrt(lam_T)
        if root * inst.S0 >= 4.0 * inst.M * inst.d / root * log_term:
            name = "lambda" if lam is not None and root > inst.S0 else "S0"
        else:
            name = "lambda" if lam is not None and 1.0 / root > inst.M else by_M
    else:  # c gamma_T, with c = 1 + 2 K (S1 - S2)
        end = "S1" if abs(inst.S1) >= abs(inst.S2) else "S2"
        name = "K" if inst.K >= inst.S1 - inst.S2 else end if end in raw else "S0"
    raise ParseError(f"a {T}-round run squares L={inst.L}, gamma_T={gamma} and c gamma_T with "
                     f"c={c} (lambda_T={lam_T}): each square must be a finite number",
                     pointer=f"{pointer}/{name}")


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
        raise ConfigError("config carries no arm set / true parameter")
    return cfg.instance

