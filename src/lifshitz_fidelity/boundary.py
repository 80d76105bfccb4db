"""Boson-gas boundary theory: ground state, overlaps, fidelity susceptibility.

The per-particle problem reduces to a shifted 1D harmonic oscillator, so the
ground state is a Gaussian of width parameter q*H centered at beta/(q*H).
The susceptibility comes out two ways, a closed form and a fixed linear fit
to quadrature overlap deficits; a sinc-DVR eigenvalue oracle checks the energy.
Overlaps integrate the product of the two Gaussians, which keeps tiny
overlaps to relative precision; the fit integrates the deficit
(1/2) int (psi_H - psi_{H+dH})^2 dx instead, which keeps 1 - f ~ 1e-7 to
relative precision. Both share one grid builder that lays out one C-ordered
row per dH, so a fit's samples go through one (samples x grid) quadrature.
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

#: Default grid for overlap quadratures: +-10 sigma, Simpson from 257 points.
OVERLAP_GRID = QuadratureSpec()
#: Sinc-DVR grid of the eigenvalue oracle: DVR_POINTS points on +-DVR_HALFWIDTH sigma.
#: At 51 points the discretization error is ~1e-26; more points only add roundoff,
#: which grows with the kinetic diagonal pi^2/(3 dx^2).
DVR_POINTS = 51
DVR_HALFWIDTH = 10.0

#: The fit's sample offsets dH / H, sorted, so the largest |dH| is the last.
FIT_SAMPLE_SCALES = np.array([-4e-3, -3e-3, -2e-3, -1e-3, 1e-3, 2e-3, 3e-3, 4e-3])
#: The fit's design matrix, the same at every H: the powers 2..6 of dH / max|dH|.
FIT_DESIGN = (FIT_SAMPLE_SCALES / np.abs(FIT_SAMPLE_SCALES).max())[:, None] ** np.arange(2, 7)
#: The fit's least-squares operator, built once: coefficients = FIT_SOLVE @ log f.
FIT_SOLVE = np.linalg.pinv(FIT_DESIGN)


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
    """The fitted susceptibility and the fit's quality.

    c_sq      the reported susceptibility, the dH^2 coefficient of 1 - F^2
    residual  rms residual of the per-particle log-overlap fit
    """

    c_sq: float
    residual: float


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


def _overlap_pairs(p: BosonGasParams, dH, halfwidth: float):
    """Ground-state pairs at H and H + dH for a vector of dH, and their grid.

    Returns (a, xa, b, xb, grid_x): the widths and centres of the states at H
    (scalars) and at H + dH (column vectors, one row per dH), and grid_x(n),
    the C-ordered (rows x n) abscissae covering both Gaussians of each row
    out to halfwidth sigma. Each row is linspace's own arithmetic, so it is
    bit-identical to a 1-D np.linspace call; linspace with array endpoints
    returns a strided array whose row sums skip pairwise summation. Raises
    DomainError if a dH is <= -H or a row's exponent
    a (x - xa)^2 + b (x - xb)^2 overflows on its grid.
    """
    dH = np.asarray(dH, dtype=float)[:, None]
    if np.any(dH <= -p.H):
        raise DomainError(f"dH must exceed -H, got dH={dH.min()}")
    a = p.q * p.H
    xa = p.beta / a
    sa = a**-0.5
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # caught below
        b = p.q * (p.H + dH)
        xb = p.beta / b
        sb = b**-0.5
        lo = np.minimum(xa - halfwidth * sa, xb - halfwidth * sb)
        hi = np.maximum(xa + halfwidth * sa, xb + halfwidth * sb)
        ra = np.maximum(abs(lo - xa), abs(hi - xa))  # largest |x - xa| on the grid
        rb = np.maximum(abs(lo - xb), abs(hi - xb))
        exponent = a * (ra * ra) + b * (rb * rb)  # the kernel's order of operations
    bad = ~np.isfinite(exponent[:, 0])
    if bad.any():
        i = bad.argmax()
        raise DomainError(
            f"overlap exponent overflows on the grid [{lo[i, 0]:.3g}, {hi[i, 0]:.3g}]"
        )

    def grid_x(n):
        x = np.arange(n) * ((hi - lo) / (n - 1)) + lo
        x[:, -1] = hi[:, 0]
        return x

    return a, xa, b, xb, grid_x


def _check_edges(y, tolerance):
    if np.any(np.maximum(y[:, 0], y[:, -1]) > tolerance * y.max(axis=-1)):
        raise GridCoverageError("overlap integrand truncated at the grid edge")


def overlap_quadrature(p: BosonGasParams, dH: float, grid: QuadratureSpec = OVERLAP_GRID) -> float:
    """Numerical overlap of the ground states at fields H and H + dH.

    Integrates the product wavefunction by composite Simpson on a grid
    covering both Gaussians out to grid.halfwidth sigma, so tiny overlaps
    keep their relative precision; raises GridCoverageError if the integrand
    has not decayed at the edges, and DomainError if its exponent
    a (x - xa)^2 + b (x - xb)^2 overflows there.
    """
    a, xa, b, xb, grid_x = _overlap_pairs(p, [dH], grid.halfwidth)

    def make(npts):
        x = grid_x(npts)
        y = kernels.gaussian_product(x, a, xa, b, xb)
        _check_edges(y, grid.tolerance)
        return y, x

    value, _ = kernels.refined_simpson(make, grid)
    norm = (a * float(b[0, 0])) ** 0.25 / math.sqrt(math.pi)
    return norm * float(value[0])


def fidelity(p: BosonGasParams, dH: float, grid: QuadratureSpec = OVERLAP_GRID) -> float:
    """N-particle overlap amplitude (per-particle overlap to the N-th power)."""
    return overlap_quadrature(p, dH, grid) ** p.N


def _overlap_deficits(p: BosonGasParams, dH, grid: QuadratureSpec = OVERLAP_GRID):
    """Per-particle deficits 1 - f = (1/2) int (psi_H - psi_{H+dH})^2 dx, one per dH.

    All samples share one (samples x grid) quadrature. The squared difference
    is formed as psi_H^2 expm1(r)^2, with the log ratio r = log psi_{H+dH} -
    log psi_H = 1/4 log1p(d/a) - d (x^2 - xa xb)/2 and d = b - a exact, so
    the deficit keeps its relative precision where 1 - f would cancel. Far
    out on a wide grid expm1(r)^2 overflows where psi_H^2 underflows; there
    the integrand is taken as exp(2 r - a (x - xa)^2). Raises
    GridCoverageError as overlap_quadrature does, and FitError where the
    integrand is not finite or a deficit exceeds 1/2, past which 1 - u
    loses more than one bit and the states are far from perturbative.
    """
    a, xa, b, xb, grid_x = _overlap_pairs(p, dH, grid.halfwidth)
    with np.errstate(over="ignore", invalid="ignore"):  # caught by the finiteness check
        d = b - a  # exact (Sterbenz) while b/a lies in [1/2, 2]
        k = 0.25 * np.log1p(d / a) + 0.5 * d * (xa * xb)

        def make(npts):
            x = grid_x(npts)
            y = kernels.overlap_deficit(x, a, xa, d, k)
            tail = ~np.isfinite(y)
            if tail.any():
                y[tail] = np.exp(2.0 * (k - 0.5 * d * (x * x)) - a * (x - xa) ** 2)[tail]
                if not np.isfinite(y).all():
                    raise FitError("overlap deficit is not finite: the states no longer overlap")
            _check_edges(y, grid.tolerance)
            return y, x

        value, _ = kernels.refined_simpson(make, grid)
        u = 0.5 * math.sqrt(a / math.pi) * value
    if not np.all(u <= 0.5):
        raise FitError(f"overlap deficit {u.max():.3g} exceeds 1/2: not perturbative")
    return u


def xi_f_from_fit(p: BosonGasParams, grid: QuadratureSpec = OVERLAP_GRID) -> FidelityFit:
    """Susceptibility from a least-squares fit to quadrature overlaps.

    The N-particle overlap is F = f^N, so the fit is per particle: it fits
    log f = log1p(-u), with u the deficits of _overlap_deficits at
    dH = FIT_SAMPLE_SCALES * H, against the powers 2..6 of dH / max|dH|. That
    design neither under- nor overflows and is the same at every H, so the
    fit is the fixed operator FIT_SOLVE. The powers above the quadratic
    absorb the series tail, which otherwise biases the quadratic coefficient
    -c. N enters only as the exact factor of c_sq = 2 N c, the dH^2
    coefficient of 1 - F^2. Raises FitError if c_sq is not a finite positive
    float or the residual exceeds 1e-6 of the quadratic term.
    """
    dH = FIT_SAMPLE_SCALES * p.H
    log_f = np.log1p(-_overlap_deficits(p, dH, grid))
    coef = FIT_SOLVE @ log_f
    residual = float(np.sqrt(np.mean((FIT_DESIGN @ coef - log_f) ** 2)))
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        c_sq = 2 * p.N * (-coef[0] / dH[-1] ** 2)  # a numpy float: may underflow to 0 or overflow
    if not (np.isfinite(c_sq) and c_sq > 0):
        raise FitError(f"fitted susceptibility {c_sq:.3g} is not a finite positive float")
    if residual > 1e-6 * -coef[0]:
        raise FitError(
            f"fit residual {residual:.3e} exceeds 1e-6 of quadratic term {-coef[0]:.3e}"
        )
    return FidelityFit(c_sq=float(c_sq), residual=residual)


def xi_f_analytic(p: BosonGasParams) -> float:
    """Closed-form susceptibility N (q H + 4 beta^2) / (8 q H^3).

    Raises DomainError if it is not a positive finite float.
    """
    try:
        value = p.N * (p.q * p.H + 4.0 * p.beta**2) / (8.0 * p.q * p.H**3)
    except ArithmeticError:  # H**3 overflows, or 8 q H^3 underflows to 0
        value = math.nan
    if not 0.0 < value < math.inf:
        raise DomainError(
            f"H={p.H} is out of range: N (qH + 4 beta^2)/(8 q H^3) at q={p.q}, "
            f"beta={p.beta} is not a positive finite float"
        )
    return value
