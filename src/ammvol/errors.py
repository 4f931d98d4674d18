"""Exception types shared across the library.

Everything is a ValueError or RuntimeError subclass so callers that do not
care about the fine distinctions can catch the broad class, while the CLI
maps each type to a distinct exit code.  The argument rules every entry
point applies to its numbers live here too, so each is written once.
"""

from __future__ import annotations

import math
from numbers import Integral


class AmmVolError(Exception):
    """Base class for all library-specific errors."""


class DomainError(AmmVolError, ValueError):
    """A price or parameter lies outside the curve's valid domain."""


class RangeError(AmmVolError, ValueError):
    """An interval parameter is empty or inverted (e.g. p_lower >= p_upper)."""


class DegenerateCurve(AmmVolError, ValueError):
    """The curve has no usable geometry at the requested point (x'(q) = 0)."""


class InvalidParams(AmmVolError, ValueError):
    """Model parameters fail validation (negative vol, |rho| > 1, ...)."""


class EmptyInput(AmmVolError, ValueError):
    """An input series or book that must be non-empty is empty."""


class UnsortedInput(AmmVolError, ValueError):
    """A series that must be strictly increasing in time is not."""


class InsufficientData(AmmVolError, ValueError):
    """Not enough observations for the requested statistic or window."""


class DegenerateInput(AmmVolError, ValueError):
    """A regression or statistic has no variation to work with."""


class ArbitrageViolation(AmmVolError, ValueError):
    """A quoted swap price admits a static single-asset arbitrage."""


class OutOfBounds(AmmVolError, ValueError):
    """A quoted swap price lies outside the attainable correlation band."""


class NoConvergence(AmmVolError, RuntimeError):
    """An iterative solver exhausted its iteration budget."""


class ParseError(AmmVolError, ValueError):
    """A CSV/JSON input failed validation.  Carries a line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _as_float(value) -> float:
    """float(value), or nan when float() refuses it."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return math.nan


def check_positive(value, name: str, error: type[AmmVolError] = InvalidParams) -> float:
    """value as a float, or ``error`` unless it is a positive finite number."""
    number = _as_float(value)
    if not 0.0 < number < math.inf:
        raise error(f"{name} must be a positive finite number, got {value!r}")
    return number


def check_nonnegative(value, name: str, error: type[AmmVolError] = InvalidParams) -> float:
    """value as a float, or ``error`` unless it is a nonnegative finite number."""
    number = _as_float(value)
    if not 0.0 <= number < math.inf:
        raise error(f"{name} must be a nonnegative finite number, got {value!r}")
    return number


def check_count(value, name: str, least: int) -> int:
    """value as an int, or InvalidParams unless it is a whole number >= least.

    An integral float counts (1000.0 is 1000); a fraction is never truncated.
    """
    number = _as_float(value)
    if not (number.is_integer() and number >= least):
        raise InvalidParams(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value) if isinstance(value, Integral) else int(number)


def check_seed(seed) -> int:
    """The seed, or InvalidParams: the counter-based generator takes
    nonnegative integers only."""
    if not (isinstance(seed, Integral) and seed >= 0):
        raise InvalidParams(f"seed must be a nonnegative integer, got {seed!r}")
    return seed
