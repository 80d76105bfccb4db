"""Exception hierarchy for the engine.

Everything numerical raises a subclass of LifshitzFidelityError so callers
(the CLI in particular) can separate bad inputs from failed computations.
"""
import numpy as np


class LifshitzFidelityError(Exception):
    """Base class for all engine errors."""


class DomainError(LifshitzFidelityError, ValueError):
    """Input outside the mathematical domain of an operation."""


class ConstraintError(LifshitzFidelityError, ValueError):
    """Parameter set violates a structural constraint (e.g. z must be 4)."""


class SingularityError(LifshitzFidelityError, ZeroDivisionError):
    """Expression evaluated at a pole."""


class ConvergenceError(LifshitzFidelityError, ArithmeticError):
    """Grid refinement failed to converge within tolerance."""


class GridCoverageError(LifshitzFidelityError, ValueError):
    """Quadrature grid truncates non-negligible integrand tails."""


class NonPositiveBlackeningError(LifshitzFidelityError, ValueError):
    """Blackening factor is zero or negative inside the integration domain."""


class ImaginaryIntegrandError(NonPositiveBlackeningError):
    """Truncated w-space integrand is negative somewhere on [eps, 1]."""


class FitError(LifshitzFidelityError, ArithmeticError):
    """Least-squares fit is ill conditioned or violates a fit invariant."""


#: Failures of a computation, not of a configuration: exit 2, or a failed verify check.
NUMERICAL_ERRORS = (LifshitzFidelityError, ArithmeticError, np.linalg.LinAlgError)
