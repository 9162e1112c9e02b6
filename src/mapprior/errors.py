"""Semantic exception hierarchy.

Validation problems (bad parameters, malformed data, missing configuration)
derive from ``ValueError``; numerical problems (quadrature that did not reach
tolerance, an oracle posterior whose mass vanished on its grid, unstable
information integrals) derive from ``ArithmeticError``.  The CLI maps the former to exit
code 1 and the latter to exit code 2.
"""

from __future__ import annotations


class MapPriorError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(MapPriorError, ValueError):
    """A parameter violates its contract (wrong sign, missing/extra shape, ...)."""


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
