"""Semantic exception hierarchy.

Public functions never raise bare ValueError: callers can distinguish a
mis-typed argument from a tilt parameter that left the natural parameter
interval, a degenerate (Dirac) base, or a numeric failure.
"""

from __future__ import annotations

import math

import numpy as np


class NefBanditError(Exception):
    """Base error for this package; ``name`` the argument or field at fault, where one is."""

    def __init__(self, message: str = "", *, name: str | None = None):
        super().__init__(message)
        self.name = name


class InvalidArgumentError(NefBanditError, ValueError):
    """Argument violates its contract (type, shape, NaN, sign)."""


class DomainError(NefBanditError, ValueError):
    """A tilt or rate parameter lies outside the admissible interval."""

    def __init__(self, message: str, *, value: float | None = None,
                 interval: tuple[float, float] | None = None, name: str | None = None):
        if interval is not None:
            message = f"{message} (value {value!r}, admissible interval {interval!r})"
        super().__init__(message, name=name)
        self.value = value
        self.interval = interval


class DegenerateDistributionError(NefBanditError):
    """The base distribution is a point mass; the caller must use the zero-stretch branch."""


class NumericError(NefBanditError, ArithmeticError):
    """A numeric evaluation failed to reach the requested accuracy."""

    def __init__(self, message: str, *, residual: float | None = None):
        if residual is not None:
            message = f"{message} (residual {residual:.3e})"
        super().__init__(message)
        self.residual = residual


class PrecisionError(NumericError):
    """Fixed-precision overflow; the computation must run in log domain."""


class OptimizationError(NefBanditError):
    """The Newton solver could not make progress while staying in-domain."""

    def __init__(self, message: str, *, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class ConfigError(NefBanditError, ValueError):
    """Configuration violates a model assumption; names the failed condition."""


class ParseError(ConfigError):
    """Configuration file does not match the documented schema."""

    def __init__(self, message: str, *, pointer: str = ""):
        super().__init__(f"{message} (at {pointer or '/'})")
        self.pointer = pointer


def positive_finite(value, name: str, what: str | None = None) -> float:
    """``value`` as a float if it is positive and finite (NaN fails), else an
    InvalidArgumentError named ``name`` that calls it ``what`` (default ``name``)."""
    v = float(value)
    if not (v > 0 and math.isfinite(v)):
        raise InvalidArgumentError(f"{what or name} must be finite and positive, got {value}",
                                   name=name)
    return v


def count(value, name: str, floor: float = 1, ceiling: float = math.inf, rule: str | None = None):
    """``value`` if it is an int or a numpy integer, never a bool, with floor <= value <= ceiling,
    else an InvalidArgumentError named ``name`` saying it must be ``rule`` (by default "an
    integer ``name`` >= ``floor``"): the one count rule of every integer argument."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or not floor <= value <= ceiling:
        raise InvalidArgumentError(f"{name} must be {rule or f'an integer {name} >= {floor}'}, "
                                   f"got {value!r}", name=name)
    return value


def finite(value, name: str):
    """``value``, a number or an array, once every entry of it is finite, else an
    InvalidArgumentError named ``name``: the one finite-value rule (a float, numpy's
    float64 included, by ``math.isfinite``, about 20x cheaper than numpy on one number)."""
    if not (math.isfinite(value) if isinstance(value, float) else np.isfinite(value).all()):
        raise InvalidArgumentError(f"{name} must not contain infs or NaNs (finite values only)",
                                   name=name)
    return value
