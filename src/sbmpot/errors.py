"""Exception types shared across the package."""

__all__ = [
    "ConstructionError",
    "UnsupportedKindError",
    "EvaluationDomainError",
    "NumericAccuracyError",
    "UndecidableError",
    "NotTransientError",
]


class ConstructionError(ValueError):
    """Invalid parameters for a Laplace-exponent catalog entry."""


class UnsupportedKindError(ValueError):
    """Operation requested for a kind that does not support it."""


class EvaluationDomainError(ValueError):
    """Evaluation outside the admissible domain (or a non-finite result)."""


class NumericAccuracyError(ArithmeticError):
    """A numeric routine could not certify the requested accuracy.

    Carries the measured residual so callers can report or relax it.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class UndecidableError(ValueError):
    """A yes/no question whose inputs are insufficient to decide it."""


class NotTransientError(ValueError):
    """Green function requested for a non-transient configuration."""
