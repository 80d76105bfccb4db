"""Boson-gas boundary theory: ground state, overlaps, fidelity susceptibility.

The per-particle problem reduces to a shifted 1D harmonic oscillator, so the
ground state is a Gaussian of width parameter q*H centered at beta/(q*H).
The susceptibility comes out two ways, a closed form and a fixed linear fit
to quadrature overlap deficits; a sinc-DVR eigenvalue oracle checks the energy.
Overlaps are integrated in t = sqrt(qH) (x - beta/(qH)), where
psi_H^2 dx = exp(-t^2) dt/sqrt(pi); with s = dH/H and gamma = beta/sqrt(qH)
every overlap depends on (s, gamma) alone (kernels.overlap_log_ratio), as
does c_sq H^2 / N = 1/8 + gamma^2/2. Overlaps integrate the product, which
keeps tiny overlaps to relative precision; the fit integrates the deficit
(1/2) int (psi_H - psi_{H+dH})^2 dx instead, which keeps 1 - f ~ 1e-7 to
relative precision. Each point has one symmetric t grid, a C-ordered row
shared by all of its dH samples, so a block of fits goes through one
(points x samples x grid) quadrature.
Evaluation is at time zero with identical k and beta in both states, so the
plane-wave factors cancel and the transverse box modes contribute unit
overlap.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ConvergenceError, DomainError, FitError, GridCoverageError
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
#: The fit's least-squares operator, the pseudoinverse of FIT_DESIGN:
#: coefficients = FIT_SOLVE @ log f. Written out so that import makes no LAPACK
#: call (tests/test_boundary.py rebuilds it).
FIT_SOLVE = np.array([
    [0.17724243691621402, -1.3290506064408225, 3.762788233653984, 2.0744235326920424,
     2.0744235326920406, 3.76278823365398, -1.32905060644082, 0.17724243691621364],
    [0.5391095066185322, -2.1227436823104684, -1.1263537906137224, -0.17809867629362422,
     0.17809867629361997, 1.126353790613716, 2.1227436823104733, -0.539109506618533],
    [-1.1277847483619148, 7.244500209117534, -10.244639620800239, -6.1773874250662315,
     -6.177387425066224, -10.244639620800225, 7.244500209117528, -1.127784748361914],
    [-1.0358505099625999, 2.104368323851771, 1.1613721505047092, 0.18551068957090408,
     -0.18551068957089858, -1.1613721505047006, -2.1043683238517774, 1.035850509962601],
    [1.4504168409312712, -5.914445838561277, 6.478338212742237, 4.109990241182217,
     4.109990241182213, 6.478338212742226, -5.9144458385612735, 1.4504168409312705],
])
#: Elements of a block of fits' (points x samples x grid) deficit array on its
#: first grid, FIT_SAMPLE_SCALES.size samples per point: 15 points on the
#: default 257-point grid, one at panels = 16384. The fits of a 128-point
#: default sweep took about 11 / 4.2 / 2.9 / 2.4 / 2.2 / 2.3 ms at 1 / 4 / 8 /
#: 15 / 32 / 128 points per block (2-vCPU VM), and a whole 128-point block
#: holds about 3 MB of temporaries.
FIT_BLOCK_ELEMENTS = 2**15


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


def fit_block_points(grid: QuadratureSpec) -> int:
    """Points per block of fits at grid's first size: as many as fit in
    FIT_BLOCK_ELEMENTS, with FIT_SAMPLE_SCALES.size samples of 4*panels + 1
    points each, and at least one."""
    return max(1, FIT_BLOCK_ELEMENTS // (FIT_SAMPLE_SCALES.size * (4 * grid.panels + 1)))


@functools.lru_cache(maxsize=1)
def _unit_grid(n):
    """linspace(-1, 1, n), read-only; a point's t grid is its T times this."""
    u = np.linspace(-1.0, 1.0, n)
    u.flags.writeable = False
    return u


def _gammas(points):
    """gamma = beta / sqrt(q H) of each point, as a (points x 1) column. It is
    made of correctly rounded operations only, so a point has the same gamma
    in any block; a q H that underflows to 0 raises ZeroDivisionError."""
    return np.array([[p.beta / math.sqrt(p.q * p.H)] for p in points])


def _halfwidths(gamma, s, halfwidth: float):
    """The half-width T of each point's t grid [-T, T], a (points x 1) column
    like gamma, for the 1-D samples s = dH / H: the grid covers psi_H (centre
    0, sigma 1) and every psi_{H+dH} (centre -gamma s/(1 + s), sigma
    1/sqrt(1 + s)) out to halfwidth sigma. T depends on the point alone.
    Raises DomainError where 2 (1 + |s|) T (T + 2 |gamma|) overflows: it
    bounds 2 |r| + t^2 and every intermediate of kernels.overlap_log_ratio.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # caught below
        reach = (abs(gamma * s) + halfwidth * np.sqrt(1.0 + s)) / (1.0 + s)
        T = np.maximum(halfwidth, reach.max(axis=1, keepdims=True))
        exponent = 2.0 * (1.0 + abs(s).max()) * T * (T + 2.0 * abs(gamma))
    if not np.isfinite(exponent).all():
        i = (~np.isfinite(exponent)).argmax()
        raise DomainError(f"overlap exponent overflows at gamma={gamma.flat[i]:.3g}, "
                          f"halfwidth={halfwidth:.3g}")
    return T


def _check_edges(y, tolerance):
    if (np.maximum(y[..., 0], y[..., -1]) > tolerance * y.max(axis=-1)).any():
        raise GridCoverageError("overlap integrand truncated at the grid edge")


def overlap_quadrature(p: BosonGasParams, dH: float, grid: QuadratureSpec = OVERLAP_GRID) -> float:
    """Numerical overlap of the ground states at fields H and H + dH.

    Integrates the product wavefunction, exp(r - t^2) / sqrt(pi) at
    s = dH / H, by composite Simpson on a grid covering both Gaussians out
    to grid.halfwidth sigma, so tiny overlaps keep their relative precision.
    Raises DomainError if s <= -1 or the exponent overflows on the grid, and
    GridCoverageError if the integrand has not decayed at the edges.
    """
    s = np.array([dH / p.H])
    if not s[0] > -1.0:
        raise DomainError(f"dH must exceed -H, got dH={dH}")
    gamma = _gammas([p])
    T = _halfwidths(gamma, s, grid.halfwidth)

    def make(npts):
        t = T * _unit_grid(npts)
        y = kernels.overlap_log_ratio(t, gamma, s)
        y -= (t * t)[:, None]
        np.exp(y, out=y)
        _check_edges(y, grid.tolerance)
        return y, t[:, None]

    value, _ = kernels.refined_simpson(make, grid)
    return float(value[0, 0]) / math.sqrt(math.pi)


def fidelity(p: BosonGasParams, dH: float, grid: QuadratureSpec = OVERLAP_GRID) -> float:
    """N-particle overlap amplitude (per-particle overlap to the N-th power)."""
    return overlap_quadrature(p, dH, grid) ** p.N


def _overlap_deficits(gamma, s, grid: QuadratureSpec = OVERLAP_GRID):
    """Per-particle deficits 1 - f = (1/2) int (psi_H - psi_{H+dH})^2 dx, one
    per point of the (points x 1) column gamma and per s of the 1-D samples
    s = dH / H, as a (points x samples) array.

    All samples share one (points x samples x grid) quadrature, and each
    point's samples share its t grid and exp(-t^2). The integrand is
    exp(-t^2) expm1(r)^2 / (2 sqrt(pi)), so the deficit keeps its relative
    precision where 1 - f would cancel. Far out on a wide grid expm1(r)^2
    overflows where exp(-t^2) underflows (|t| past about 420 at
    |s| = 4e-3); there the integrand is taken as exp(2 r - t^2). A single
    point refines its grid as refined_simpson asks; several points share
    only the first grid size, and raise ConvergenceError if any of them
    needs a finer one. Raises DomainError and GridCoverageError as
    overlap_quadrature does, and FitError where the integrand is not finite
    (where gamma is so large that 2 r - t^2 is all rounding) or a deficit
    exceeds 1/2, past which 1 - u loses more than one bit and the states are
    far from perturbative.
    """
    T = _halfwidths(gamma, s, grid.halfwidth)
    first = 4 * grid.panels + 1

    def make(npts):
        if npts != first and len(gamma) > 1:
            raise ConvergenceError(f"a block of {len(gamma)} fits shares only its "
                                   f"first grid of {first} points")
        t = T * _unit_grid(npts)
        t2 = (t * t)[:, None]
        y = kernels.overlap_log_ratio(t, gamma, s)
        with np.errstate(over="ignore", invalid="ignore"):  # caught by the finiteness check
            np.expm1(y, out=y)
            y **= 2
            y *= np.exp(-t2)
            tail = ~np.isfinite(y)
            if tail.any():
                r = kernels.overlap_log_ratio(t, gamma, s)
                r *= 2.0
                r -= t2
                y[tail] = np.exp(r, out=r)[tail]
                if not np.isfinite(y).all():
                    raise FitError("overlap deficit is not finite: the states no longer overlap")
        _check_edges(y, grid.tolerance)
        return y, t[:, None]

    value, _ = kernels.refined_simpson(make, grid)
    u = value / (2.0 * math.sqrt(math.pi))
    if not (u <= 0.5).all():
        raise FitError(f"overlap deficit {u.max():.3g} exceeds 1/2: not perturbative")
    return u


def xi_f_from_fit_block(points, grid: QuadratureSpec = OVERLAP_GRID) -> list:
    """Susceptibility fits of several points, as xi_f_from_fit, from one quadrature.

    The points' deficits are one (points x 8 x grid) array on their first
    grid, so the block costs one refined_simpson call; keep it within
    FIT_BLOCK_ELEMENTS (fit_block_points). Each fit has the bits that
    xi_f_from_fit gives its point alone: every step is elementwise or a
    stacked np.matmul, which gives each stack the bits of FIT_SOLVE @ log_f
    (log_f @ FIT_SOLVE.T and einsum do not). A block of one is
    xi_f_from_fit; a larger block raises ConvergenceError if any point needs
    a grid finer than the first, and any error that one of its points
    raises alone, though not necessarily the first point's.
    """
    log_f = np.log1p(-_overlap_deficits(_gammas(points), FIT_SAMPLE_SCALES, grid))
    coef = np.matmul(FIT_SOLVE, log_f[:, :, None])
    misfit = np.matmul(FIT_DESIGN, coef)[:, :, 0] - log_f
    residuals = np.sqrt((misfit**2).sum(axis=1) / misfit.shape[1]).tolist()  # np.mean's bits
    fits = []
    for p, c, residual in zip(points, coef[:, 0, 0], residuals):
        with np.errstate(over="ignore", under="ignore", divide="ignore"):  # may under- or overflow
            c_sq = 2 * p.N * (-c / (FIT_SAMPLE_SCALES[-1] * p.H) ** 2)
        if not (np.isfinite(c_sq) and c_sq > 0):
            raise FitError(f"fitted susceptibility {c_sq:.3g} is not a finite positive float")
        if residual > 1e-6 * -c:
            raise FitError(
                f"fit residual {residual:.3e} exceeds 1e-6 of quadratic term {-c:.3e}"
            )
        fits.append(FidelityFit(c_sq=float(c_sq), residual=residual))
    return fits


def xi_f_from_fit(p: BosonGasParams, grid: QuadratureSpec = OVERLAP_GRID) -> FidelityFit:
    """Susceptibility from a least-squares fit to quadrature overlaps.

    The N-particle overlap is F = f^N, so the fit is per particle: it fits
    log f = log1p(-u), with u the deficits of _overlap_deficits at
    s = dH / H = FIT_SAMPLE_SCALES, so H + dH is never rounded, against the
    powers 2..6 of dH / max|dH|. That design neither under- nor overflows and
    is the same at every H, so the fit is the fixed operator FIT_SOLVE. The
    powers above the quadratic absorb the series tail, which otherwise
    biases the quadratic coefficient -c. N enters only as the exact factor
    of c_sq = 2 N c, the dH^2 coefficient of 1 - F^2. Raises FitError if
    c_sq is not a finite positive float or the residual exceeds 1e-6 of the
    quadratic term. This is the block of one of xi_f_from_fit_block.
    """
    return xi_f_from_fit_block([p], grid)[0]


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
