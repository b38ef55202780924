"""Semantic exception hierarchy.

Public functions never raise bare ValueError: callers can distinguish a
mis-typed argument from a tilt parameter that left the natural parameter
interval, a degenerate (Dirac) base, or a numeric failure.
"""

from __future__ import annotations


class NefBanditError(Exception):
    """Base error for this package."""


class InvalidArgumentError(NefBanditError, ValueError):
    """Argument violates its contract (type, shape, NaN, sign)."""


class DomainError(NefBanditError, ValueError):
    """A tilt or rate parameter lies outside the admissible interval; ``name`` the argument."""

    def __init__(self, message: str, *, value: float | None = None,
                 interval: tuple[float, float] | None = None, name: str | None = None):
        if interval is not None:
            message = f"{message} (value {value!r}, admissible interval {interval!r})"
        super().__init__(message)
        self.value = value
        self.interval = interval
        self.name = name


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
    """Configuration violates a model assumption; names the failed condition, and ``name``
    the field at fault."""

    def __init__(self, message: str, *, name: str | None = None):
        super().__init__(message)
        self.name = name


class ParseError(ConfigError):
    """Configuration file does not match the documented schema."""

    def __init__(self, message: str, *, pointer: str = ""):
        super().__init__(f"{message} (at {pointer or '/'})")
        self.pointer = pointer
