"""Boson-gas boundary theory: ground state, overlaps, fidelity susceptibility.

The per-particle problem reduces to a shifted 1D harmonic oscillator, so the
ground state is a Gaussian of width parameter q*H centered at beta/(q*H).
The susceptibility comes out three ways: a closed form, a quadratic fit to
quadrature overlaps, and a finite-difference eigenvalue oracle for the
energy. Evaluation is at t = 0 with identical k and beta in both states, so
the plane-wave factors cancel and the transverse box modes contribute unit
overlap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ConvergenceError, DomainError, FitError, GridCoverageError
from .params import BosonGasParams, QuadratureSpec

#: Default grid for overlap quadratures: +-10 sigma, 4097 points, Simpson.
OVERLAP_GRID = QuadratureSpec()
#: Default grid for the eigenvalue oracle; tolerance bounds the difference
#: between refinement levels, not the final (extrapolated) accuracy.
EIGEN_GRID = QuadratureSpec(tolerance=1e-4)

#: Relative magnitude of the fit sample offsets, in units of H.
FIT_SAMPLE_SCALES = (-4e-3, -3e-3, -2e-3, -1e-3, 1e-3, 2e-3, 3e-3, 4e-3)


@dataclass(frozen=True)
class GroundState1D:
    """Per-particle Gaussian ground state.

    width      inverse length squared, q*H
    center     length, beta/(q*H)
    energy     (q*H + k^2)/(2m)
    frequency  q*H/m
    """

    width: float
    center: float
    energy: float
    frequency: float

    def __post_init__(self):
        if not self.width > 0:
            raise DomainError(f"width must be positive, got {self.width}")
        if self.energy < self.frequency / 2 - 1e-12 * abs(self.frequency):
            raise DomainError("energy below the zero-point value")


@dataclass(frozen=True)
class FidelityFit:
    """Second-order coefficients of the overlap amplitude and its square.

    c_sq is the reported susceptibility; c_amp is the amplitude-convention
    coefficient and equals c_sq/2.
    """

    c_amp: float
    c_sq: float
    residual: float
    samples: tuple

    def __post_init__(self):
        if not self.c_amp > 0:
            raise FitError(f"c_amp must be positive, got {self.c_amp}")
        if abs(self.c_sq - 2.0 * self.c_amp) > 1e-6 * max(abs(self.c_sq), 1e-300):
            raise FitError(
                f"convention bridge violated: c_sq={self.c_sq}, 2*c_amp={2 * self.c_amp}"
            )


def ground_state(p: BosonGasParams) -> GroundState1D:
    """Closed-form single-particle ground state for the shifted oscillator."""
    a = p.q * p.H
    return GroundState1D(
        width=a,
        center=p.beta / a,
        energy=(a + p.k**2) / (2.0 * p.m),
        frequency=a / p.m,
    )


def ground_state_wavefunction(state: GroundState1D, x):
    """Normalized Gaussian ground state evaluated at x (scalar or array)."""
    a = state.width
    return (a / np.pi) ** 0.25 * np.exp(-0.5 * a * (x - state.center) ** 2)


def oscillator_spectrum_oracle(p: BosonGasParams, grid: QuadratureSpec = EIGEN_GRID) -> float:
    """Lowest energy from finite-difference diagonalization of the 1D operator.

    Discretizes -d^2/dx^2 + q^2 H^2 x^2 - 2 q beta H x with second-order
    central differences on [x0 - w*sigma, x0 + w*sigma], adds back the k^2
    and beta^2 shifts, and Richardson-extrapolates over the refinement
    levels. Converges to (q*H + k^2)/(2m) independent of beta.
    """
    from scipy.linalg import eigvalsh_tridiagonal  # lazy: only this oracle needs scipy

    if grid.halfwidth < 8:
        raise DomainError("eigen oracle requires halfwidth >= 8 sigma")
    if 2 * grid.panels + 1 < 2000:
        raise DomainError("eigen oracle requires at least 2000 grid points")
    if grid.levels < 2:
        raise DomainError("eigen oracle needs >= 2 levels for a convergence check")

    a = p.q * p.H
    sigma = a**-0.5
    x0 = p.beta / a
    lo, hi = x0 - grid.halfwidth * sigma, x0 + grid.halfwidth * sigma

    energies = []
    n = 2 * grid.panels + 1
    for _ in range(grid.levels):
        x = np.linspace(lo, hi, n)
        dx = x[1] - x[0]
        v = (p.q * p.H * x) ** 2 - 2.0 * p.q * p.beta * p.H * x
        diag = 2.0 / dx**2 + v
        off = np.full(n - 1, -1.0 / dx**2)
        lowest = eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 0))[0]
        energies.append((lowest + p.k**2 + p.beta**2) / (2.0 * p.m))
        n = 2 * n - 1  # halves dx

    if abs(energies[-1] - energies[-2]) > grid.tolerance * max(1.0, abs(energies[-1])):
        raise ConvergenceError(
            f"eigenvalue refinements differ by {abs(energies[-1] - energies[-2]):.3e}"
        )
    # second-order differences: one Richardson step removes the dx^2 term
    return energies[-1] + (energies[-1] - energies[-2]) / 3.0


def gaussian_overlap(a: float, xa: float, b: float, xb: float) -> float:
    """Closed-form overlap of two normalized Gaussians.

    (a b)^(1/4) sqrt(2/(a+b)) exp(-a b (xa-xb)^2 / (2(a+b))); symmetric under
    exchange of the argument pairs and always in (0, 1].
    """
    if not (a > 0 and b > 0):
        raise DomainError(f"widths must be positive, got a={a}, b={b}")
    return (a * b) ** 0.25 * math.sqrt(2.0 / (a + b)) * math.exp(
        -a * b * (xa - xb) ** 2 / (2.0 * (a + b))
    )


def overlap_quadrature(p: BosonGasParams, dH: float, grid: QuadratureSpec = OVERLAP_GRID) -> float:
    """Numerical overlap of the ground states at fields H and H + dH.

    Integrates the product wavefunction by composite Simpson on a grid
    covering both Gaussians out to grid.halfwidth sigma; raises
    GridCoverageError if the integrand has not decayed at the edges.
    """
    if dH <= -p.H:
        raise DomainError(f"dH must exceed -H, got dH={dH}")
    a = p.q * p.H
    b = p.q * (p.H + dH)
    xa = p.beta / a
    xb = p.beta / b
    sa, sb = a**-0.5, b**-0.5
    lo = min(xa - grid.halfwidth * sa, xb - grid.halfwidth * sb)
    hi = max(xa + grid.halfwidth * sa, xb + grid.halfwidth * sb)
    norm = (a * b) ** 0.25 / math.sqrt(math.pi)

    def make(npts):
        x = np.linspace(lo, hi, npts)
        y = kernels.gaussian_product(x, a, xa, b, xb)
        if max(y[0], y[-1]) > grid.tolerance * y.max():
            raise GridCoverageError("overlap integrand truncated at the grid edge")
        return y, x

    value, _ = kernels.refined_simpson(make, grid)
    return norm * value


def fidelity(p: BosonGasParams, dH: float, grid: QuadratureSpec = OVERLAP_GRID) -> float:
    """N-particle overlap amplitude (per-particle overlap to the N-th power)."""
    return overlap_quadrature(p, dH, grid) ** p.N


def xi_f_from_fit(
    p: BosonGasParams,
    dH_samples=None,
    grid: QuadratureSpec = OVERLAP_GRID,
) -> FidelityFit:
    """Susceptibility from a quadratic fit to quadrature overlaps.

    Fits F - 1 and F^2 - 1 against dH^2 with cubic and quartic nuisance
    terms (the quartic tail of the exact overlap otherwise biases the
    quadratic coefficient at the 1e-6 level). c_sq, from the squared
    overlap, is the reported susceptibility.
    """
    if dH_samples is None:
        dH_samples = tuple(s * p.H for s in FIT_SAMPLE_SCALES)
    d = np.asarray(sorted(dH_samples), dtype=float)
    if len(np.unique(d)) < 4:
        raise DomainError("need at least 4 distinct dH samples")
    if np.any(np.abs(d) / p.H > 1e-2):
        raise DomainError("fit samples must satisfy |dH|/H <= 1e-2")

    f_amp = np.array([fidelity(p, float(s), grid) for s in d])
    try:  # a column that underflows to 0 or overflows would reach LAPACK as NaN
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            design = np.column_stack([d**2, d**3, d**4])
            scale = np.abs(design).max(axis=0)
            design_s = design / scale
    except FloatingPointError as exc:
        raise FitError(f"fit design matrix dH^2..dH^4 out of float range: {exc}") from exc

    def quadratic_coeff(y):
        coef, *_ = np.linalg.lstsq(design_s, y, rcond=None)
        coef = coef / scale
        resid = float(np.sqrt(np.mean((design @ coef - y) ** 2)))
        return -float(coef[0]), resid

    c_amp, res_amp = quadratic_coeff(f_amp - 1.0)
    c_sq, res_sq = quadratic_coeff(f_amp**2 - 1.0)

    residual = max(res_amp, res_sq)
    quad_term = abs(c_sq) * float(np.max(d**2))
    if residual > 1e-6 * quad_term:
        raise FitError(
            f"fit residual {residual:.3e} exceeds 1e-6 of quadratic term {quad_term:.3e}"
        )
    return FidelityFit(c_amp=c_amp, c_sq=c_sq, residual=residual, samples=tuple(float(s) for s in d))


def xi_f_analytic(p: BosonGasParams) -> float:
    """Closed-form susceptibility N (q H + 4 beta^2) / (8 q H^3)."""
    if not p.H > 0:
        raise DomainError(f"H must be positive, got {p.H}")
    return p.N * (p.q * p.H + 4.0 * p.beta**2) / (8.0 * p.q * p.H**3)
