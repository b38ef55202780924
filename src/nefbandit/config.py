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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bandit import GlbInstance, make_instance
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
    ok = isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    if ok and integer:
        ok = float(v).is_integer()
    if ok and positive:
        ok = v > 0
    if ok and nonnegative:
        ok = v >= 0
    if not ok:
        sign = "positive " if positive else "nonnegative " if nonnegative else ""
        raise ParseError(f"field {key!r} must be a {sign}{'integer' if integer else 'number'}",
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
                      ("S0", {"positive": True}), ("c1", {"positive": True}),
                      ("c2", {"positive": True}), ("L", {"positive": True}),
                      ("K", {"nonnegative": True})):
        _check_number(raw, key, pointer, **opts)
    if not 0.0 < raw["delta"] <= 1.0:
        raise ParseError(f"delta must lie in (0, 1], got {raw['delta']}",
                         pointer=f"{pointer}/delta")
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
        instance = make_instance(base, arms, theta, S0=raw.get("S0"), S1=raw.get("S1"),
                                 S2=raw.get("S2"), c1=raw.get("c1"), c2=raw.get("c2"),
                                 L=raw.get("L"), K=raw.get("K"))
    return ExperimentConfig(raw=raw, distribution=raw["distribution"], instance=instance)


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

