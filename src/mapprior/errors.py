"""Semantic exception hierarchy and the input contract.

Validation problems (bad parameters, malformed data, missing configuration)
derive from ``ValueError``; numerical problems (quadrature that did not reach
tolerance, an oracle posterior whose mass vanished on its grid, unstable
information integrals) derive from ``ArithmeticError``.  The CLI maps the former to exit
code 1 and the latter to exit code 2.

Every public entry point checks its numbers with :func:`as_real`,
:func:`as_reals` and :func:`as_count`: any real (or integral) number but a
bool, numpy scalars included, finite and in range, comes back as a Python
float (or int); anything else raises :class:`InvalidParameterError` naming
the parameter.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


class MapPriorError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(MapPriorError, ValueError):
    """A parameter violates its contract (wrong sign, missing/extra shape, ...)."""


def _within(x, low: float, high: float, ends: str):
    """Elementwise: x is in the interval ``ends`` brackets, e.g. "(]" for
    low < x <= high, an infinite end always open; False at NaN and +-inf."""
    return ((x >= low if ends[0] == "[" and low > -math.inf else x > low)
            & (x <= high if ends[1] == "]" and high < math.inf else x < high))


def as_real(value, name: str, low: float = -math.inf, high: float = math.inf,
            ends: str = "()") -> float:
    """``value`` as a float: a real number other than a bool, finite, in the
    interval from ``low`` to ``high`` with ``ends``."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            if _within(x := float(value), low, high, ends):
                return x
        except OverflowError:       # an int beyond float range
            pass
    raise InvalidParameterError(f"{name} must be a finite real number in "
                                f"{ends[0]}{low:g}, {high:g}{ends[1]}, got {value!r}")


def as_reals(values, name: str, low: float = -math.inf, high: float = math.inf,
             ends: str = "()") -> np.ndarray:
    """``values`` as a float array, each element as :func:`as_real` requires."""
    array = np.asarray(values)
    if array.dtype.kind in "iuf" and not np.any(~_within(array, low, high, ends)):
        return array.astype(float, copy=False)
    raise InvalidParameterError(
        f"{name} must be finite real numbers in {ends[0]}{low:g}, {high:g}{ends[1]}")


def as_count(value, name: str, minimum: int = 1) -> int:
    """``value`` as an int: an integer other than a bool, at least ``minimum``."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= minimum:
        return int(value)
    raise InvalidParameterError(f"{name} must be an integer >= {minimum}, got {value!r}")


class DataFormatError(MapPriorError, ValueError):
    """Malformed input data (CSV rows, prior specification strings)."""


class ConfigurationError(MapPriorError, ValueError):
    """A required piece of configuration is missing (e.g. no UISD source)."""


class QuadratureError(MapPriorError, ArithmeticError):
    """Numerical integration failed to reach the requested tolerance."""

    def __init__(self, message: str, achieved: float | None = None):
        if achieved is not None:
            message = f"{message} (achieved relative error {achieved:.3e})"
        super().__init__(message)
        self.achieved = achieved


class GridCoverageError(MapPriorError, ArithmeticError):
    """An oracle route's posterior mass vanished on the grid it was given."""


class EssInstabilityError(MapPriorError, ArithmeticError):
    """Local-information expectation is unstable (negative over sizable mass)."""

    def __init__(self, message: str, negative_mass: float, expectation: float):
        super().__init__(
            f"{message}: negative local information over probability mass "
            f"{negative_mass:.4f}, expectation {expectation:.6g}"
        )
        self.negative_mass = negative_mass
        self.expectation = expectation
