"""Input parameter sets shared across the engine.

Natural units hbar = c = 1 throughout; every quantity is a plain float in
working units. Validation happens at construction so downstream code can
assume the invariants; every float field must be finite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import kernels
from .errors import DomainError

#: Tolerance for the Lambda = -3/L^2 consistency check.
LAMBDA_CHECK_TOL = 1e-12


def _require_finite(params):
    """Raise a DomainError naming the first float field that is inf or NaN.
    vars() lists the fields in their order, at a third of the cost of fields()."""
    for name, value in vars(params).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class BosonGasParams:
    """Non-interacting charged bosons in a uniform magnetic field.

    N      particle count
    q      charge (> 0)
    m      mass (> 0)
    H      magnetic field strength (> 0)
    beta   transverse momentum, shared by all particles
    k      longitudinal momentum, shared by all particles
    """

    N: int = 1
    q: float = 1.0
    m: float = 1.0
    H: float = 1.0
    beta: float = 0.0
    k: float = 0.0

    def __post_init__(self):
        _require_finite(self)
        if int(self.N) != self.N or self.N < 1:
            raise DomainError(f"N must be a positive integer, got {self.N}")
        for name in ("q", "m", "H"):
            if not getattr(self, name) > 0:
                raise DomainError(f"{name} must be positive, got {getattr(self, name)}")


@dataclass(frozen=True)
class BulkParams:
    """Lifshitz-AdS bulk solution parameters.

    L       curvature scale; the cosmological constant is Lambda = -3/L^2
    xi      Maxwell-dilaton coupling (sign unconstrained here; operations
            that need xi < 0 validate it themselves)
    Qt      bulk charge (> 0)
    V0      dilaton potential amplitude
    z       dynamical exponent (>= 1)
    rp      horizon radius (> 0)
    G       Newton constant (> 0)
    R       complexity normalization radius; defaults to L
    Lambda  optional explicit cosmological constant, checked against -3/L^2
    """

    L: float = 1.0
    xi: float = -1.0
    Qt: float = 1.0
    V0: float = 0.0
    z: float = 4.0
    rp: float = 1.0
    G: float = 1.0
    R: float | None = None
    Lambda: float | None = None

    def __post_init__(self):
        _require_finite(self)
        for name in ("L", "Qt", "rp", "G"):
            if not getattr(self, name) > 0:
                raise DomainError(f"{name} must be positive, got {getattr(self, name)}")
        if not self.z >= 1:
            raise DomainError(f"z must be >= 1, got {self.z}")
        try:
            derived = -3.0 / self.L**2
        except ArithmeticError:  # L**2 underflows to 0 or overflows
            derived = math.nan
        if not math.isfinite(derived):
            raise DomainError(f"L={self.L} is out of range: -3/L^2 is not a finite float")
        if self.Lambda is None:
            object.__setattr__(self, "Lambda", derived)
        elif abs(self.Lambda - derived) > LAMBDA_CHECK_TOL * max(1.0, abs(derived)):
            raise DomainError(
                f"Lambda={self.Lambda} inconsistent with -3/L^2={derived}"
            )
        if self.R is None:
            object.__setattr__(self, "R", self.L)
        if not self.R > 0:
            raise DomainError(f"R must be positive, got {self.R}")

    @property
    def lambda_eff(self) -> float:
        """Lambda + Qt^2 xi, the combination entering the blackening factor."""
        return self.Lambda + self.Qt**2 * self.xi


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for the nested quadratures (kernels.nested_quadrature).

    panels     the first grid has 4*panels + 1 <= kernels.MAX_GRID_POINTS
               nodes; it doubles until the error estimate meets tolerance
    tolerance  relative threshold: a quadrature returns only once every
               error estimate is within tolerance * |value|, else raises
               ConvergenceError; also the Gaussian grids' tail-coverage test
    halfwidth  Gaussian-grid half width in units of sigma

    The bulk quadratures (Clenshaw-Curtis) absorb inverse-square-root endpoint
    singularities with fixed substitutions (r = rp + (r_inf - rp) s^2 radially,
    w = eps^(s^2) on the w grid), whose endpoint limits are derived in closed form.
    """

    panels: int = 64
    tolerance: float = 1e-10
    halfwidth: float = 10.0

    def __post_init__(self):
        _require_finite(self)
        if not 64 <= self.panels <= (kernels.MAX_GRID_POINTS - 1) // 4:
            raise DomainError(f"panels must lie in [64, {(kernels.MAX_GRID_POINTS - 1) // 4}], got {self.panels}")
        if not self.tolerance > 0:
            raise DomainError("tolerance must be positive")
        if not self.halfwidth > 0:
            raise DomainError("halfwidth must be positive")
