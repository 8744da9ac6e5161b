"""Exception types and the input check shared across the package."""

import math


def check_finite(positive: bool = False, **values: float) -> None:
    """Raise ValueError naming the first of ``values`` not finite (or not positive, with ``positive``)."""
    for name, value in values.items():
        if not (0.0 if positive else -math.inf) < value < math.inf:
            raise ValueError(f"{name} must be {'positive and ' if positive else ''}finite, got {value!r}")


class NumericsError(Exception):
    """Base class for numerical failures."""


class AccuracyError(NumericsError):
    """Quadrature could not reach the requested tolerance.

    Carries the best available estimate and its error bound.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(f"{message} (estimate={estimate!r}, error_bound={error_bound!r})")
        self.estimate = estimate
        self.error_bound = error_bound


class BracketError(NumericsError):
    """Root bracket has no sign change, or bracket expansion failed."""


class ConvergenceError(NumericsError):
    """Iterative solver did not converge. Best iterate attached when available."""

    def __init__(self, message: str, best=None, diagnostics=None):
        super().__init__(message)
        self.best = best
        self.diagnostics = diagnostics or {}


class DegenerateEtaError(ValueError):
    """Flat local volatility where a computation needs it to move."""


class TableRangeError(NumericsError):
    """A level left the range of a precomputed table."""


class DegenerateModelError(ValueError):
    """Model parameters make an expansion or limit formula undefined."""


class ArbitrageError(ValueError):
    """Option price lies outside the static no-arbitrage band."""


class PrecisionWarning(UserWarning):
    """Result returned at reduced precision (flat vega, bracket floor, ...)."""
