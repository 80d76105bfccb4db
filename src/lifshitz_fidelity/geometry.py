"""Lifshitz-AdS bulk geometry: blackening factor, dynamical exponent,
z = 4 series coefficients.

The blackening factor is
    B(r) = cv + (rp/r)^(1+z/2) * (cm rp^2 - cv) - cm r^2
with cv = (2/(2+z)) (V0/2) and cm = 2 (Lambda + Qt^2 xi)/(6+z); the three
terms cancel identically at r = rp.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstraintError, DomainError, SingularityError
from .params import BulkParams

#: z must match 4 this closely for the truncated-series coefficients.
Z4_TOL = 1e-9


@dataclass(frozen=True)
class SeriesCoeffsZ4:
    """Coefficient pair (b1, b_minus2) of the truncated z = 4 integrand."""

    b1: float
    b_minus2: float

    @property
    def is_physical(self) -> bool:
        """True when -b_minus2 > 0, i.e. the integrand is real near w = 0."""
        return self.b_minus2 < 0


def potential_coefficient(p: BulkParams) -> float:
    """Constant term of B(r): (2/(2+z)) * (V0/2)."""
    return (2.0 / (2.0 + p.z)) * (p.V0 / 2.0)


def curvature_coefficient(p: BulkParams) -> float:
    """Quadratic coefficient of B(r): 2 (Lambda + Qt^2 xi)/(6+z)."""
    return 2.0 * p.lambda_eff / (6.0 + p.z)


def falloff_coefficient(p: BulkParams) -> float:
    """Coefficient of the (rp/r)^(1+z/2) horizon term."""
    return curvature_coefficient(p) * p.rp**2 - potential_coefficient(p)


def blackening(r, p: BulkParams):
    """Blackening factor B(r); accepts a scalar or an array of radii > 0."""
    arr = np.asarray(r, dtype=float)
    r = arr.reshape(1) if arr.ndim == 0 else arr  # one ufunc path: a scalar has an array's bits
    if (r <= 0).any():
        raise DomainError("blackening requires r > 0")
    cv = potential_coefficient(p)
    cm = curvature_coefficient(p)
    out = cv + (p.rp / r) ** (1.0 + p.z / 2.0) * falloff_coefficient(p) - cm * r * r
    return float(out[0]) if arr.ndim == 0 else out


def blackening_derivative(r, p: BulkParams):
    """dB/dr, used for the endpoint limit of the volume integrand."""
    arr = np.asarray(r, dtype=float)
    if np.any(arr <= 0):
        raise DomainError("blackening derivative requires r > 0")
    zexp = 1.0 + p.z / 2.0
    out = -zexp * (p.rp / arr) ** zexp * falloff_coefficient(p) / arr \
        - 2.0 * curvature_coefficient(p) * arr
    return float(out) if arr.ndim == 0 else out


def lifshitz_exponent(Qt: float, xi: float, Lambda: float) -> float:
    """Dynamical exponent z = -4 Qt^2 xi / (Lambda + Qt^2 xi)."""
    coupling = Qt**2 * xi
    denom = Lambda + coupling
    if abs(denom) <= 1e-14 * max(abs(Lambda), abs(coupling), 1e-300):
        raise SingularityError("Lambda + Qt^2 xi = 0 has no finite exponent")
    return -4.0 * coupling / denom


def series_coeffs_z4(p: BulkParams) -> SeriesCoeffsZ4:
    """Truncated-integrand coefficients; defined only at z = 4.

    b1 = (lambda_eff/5) rp^2 - V0/6 and b_minus2 = rp^2 lambda_eff / 5, so
    b1 - b_minus2 = -V0/6 identically. A non-negative b_minus2 is returned
    as-is and flagged through SeriesCoeffsZ4.is_physical.
    """
    if abs(p.z - 4.0) > Z4_TOL:
        raise ConstraintError(f"series coefficients require z = 4, got z={p.z}")
    bm2 = p.rp**2 * p.lambda_eff / 5.0
    b1 = bm2 - p.V0 / 6.0
    return SeriesCoeffsZ4(b1=b1, b_minus2=bm2)
