"""Boson-gas boundary theory: ground state, overlaps, fidelity susceptibility.

The per-particle problem reduces to a shifted 1D harmonic oscillator, so the
ground state is a Gaussian of width parameter q*H centered at beta/(q*H).
The susceptibility comes out three ways: a closed form, a quadratic fit to
quadrature overlaps, and a sinc-DVR eigenvalue oracle for the energy.
Evaluation is at t = 0 with identical k and beta in both states, so the
plane-wave factors cancel and the transverse box modes contribute unit
overlap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DomainError, FitError, GridCoverageError
from .params import BosonGasParams, QuadratureSpec

#: Default grid for overlap quadratures: +-10 sigma, 4097 points, Simpson.
OVERLAP_GRID = QuadratureSpec()
#: Sinc-DVR grid of the eigenvalue oracle: DVR_POINTS points on +-DVR_HALFWIDTH sigma.
#: At 51 points the discretization error is ~1e-26; more points only add roundoff,
#: which grows with the kinetic diagonal pi^2/(3 dx^2).
DVR_POINTS = 51
DVR_HALFWIDTH = 10.0

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


def oscillator_spectrum_oracle(p: BosonGasParams) -> float:
    """Lowest energy from a sinc-DVR diagonalization of the 1D operator.

    Represents -d^2/dx^2 + q^2 H^2 x^2 - 2 q beta H x on DVR_POINTS points
    spanning x0 +- DVR_HALFWIDTH sigma (Colbert & Miller, J. Chem. Phys. 96,
    1982 (1992)): the kinetic matrix is dense, the potential is diagonal.
    Adds back the k^2 and beta^2 shifts; the result converges to
    (q*H + k^2)/(2m) independent of beta. The discretization error is about
    1e-26 relative; roundoff, which grows with the cancelled beta^2 shift,
    keeps |E - exact| <= 1e-13 (q*H + k^2 + beta^2)/(2m) for q, H in
    [1e-2, 1e2], m in [0.1, 10], |beta| <= 5 and |k| <= 2.
    """
    a = p.q * p.H
    dx = 2.0 * DVR_HALFWIDTH * a**-0.5 / (DVR_POINTS - 1)
    x = p.beta / a + dx * (np.arange(DVR_POINTS) - DVR_POINTS // 2)
    d = np.subtract.outer(np.arange(DVR_POINTS), np.arange(DVR_POINTS))  # i - j
    hamiltonian = (-1.0) ** d * np.where(d == 0, np.pi**2 / 3, 2.0 / np.maximum(d * d, 1)) / dx**2
    hamiltonian += np.diag((a * x) ** 2 - 2.0 * p.q * p.beta * p.H * x)
    lowest = np.linalg.eigvalsh(hamiltonian)[0]
    return (lowest + p.k**2 + p.beta**2) / (2.0 * p.m)


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
    GridCoverageError if the integrand has not decayed at the edges, and
    DomainError if its exponent a (x - xa)^2 + b (x - xb)^2 overflows there.
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
    ra = max(abs(lo - xa), abs(hi - xa))  # largest |x - xa| on the grid
    rb = max(abs(lo - xb), abs(hi - xb))
    if not math.isfinite(a * (ra * ra) + b * (rb * rb)):  # the kernel's order of operations
        raise DomainError(f"overlap exponent overflows on the grid [{lo:.3g}, {hi:.3g}]")
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
