"""Hot numeric kernels, vectorized with numpy.

Inner loops that dominate runtime: blackening-factor evaluation, the
singular-endpoint volume integrands (radial and w-coordinate forms), the
Gaussian overlap product and overlap deficit, composite Simpson summation,
and the adaptive refinement driver built on it. Per-kernel timings come
from `python3 perfbench/run.py` (see perfbench/README.md).

The five grid kernels (the volume integrands, the Gaussian product and the
overlap deficit) evaluate in place: each allocates its output and at most
two scratch arrays of the grid's shape and never writes into the grid it is
given. They apply the same ufuncs to the same operands in the same order as
the plain expressions they stand for (kept in tests/test_kernels.py as
references), so every value is bit-identical; `**` with a scalar exponent
stays an operator so numpy's square, sqrt and copy fast paths still apply.
The Gaussian kernels and `simpson` also take a (rows x n) grid with
per-row parameters as (rows x 1) columns, and each row keeps the bits of a
one-row call when the grid is C-ordered.
"""
from __future__ import annotations

import numpy as np


def blackening_vals(r, cv, cm, hcoef, rp, zexp):
    return cv + (rp / r) ** zexp * hcoef - cm * r * r


def volume_integrand_r(s, lo, span, mexp, cv, cm, hcoef, rp, zexp, y0):
    # r = lo + span*s^mexp maps s in [0,1] onto [lo, lo+span]; the s^(mexp-1)
    # Jacobian absorbs an inverse-sqrt zero of B at the lower endpoint.
    r = s**mexp
    r *= span
    r += lo
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        y = s ** (mexp - 1)
        y *= mexp * span
        y *= r
        y *= r
        tmp = cm * r
        tmp *= r
        bb = np.divide(rp, r, out=r)
        bb **= zexp
        bb *= hcoef
        bb += cv
        bb -= tmp
        y /= np.sqrt(bb, out=bb)
    y[0] = y0
    return y


def wform_integrand_top(s, wlo, mexp, cvterm, bcoef, bm2, zexp, y0):
    w = s**mexp
    w *= 1.0 - wlo
    np.subtract(1.0, w, out=w)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        b = w**zexp
        b *= bcoef
        b += cvterm
        y = w * w  # scratch until it takes s^(mexp-1) below
        b -= np.divide(bm2, y, out=y)
        w **= 4
        w *= np.sqrt(b, out=b)
        np.copyto(y, s)
        y **= mexp - 1
        y *= mexp * (1.0 - wlo)
        y /= w
    y[0] = y0
    return y


def wform_integrand_log(u, cvterm, bcoef, bm2, zexp):
    w = np.exp(u)
    b = w**zexp
    b *= bcoef
    b += cvterm
    tmp = w * w
    b -= np.divide(bm2, tmp, out=tmp)
    with np.errstate(invalid="ignore"):
        w **= 3
        w *= np.sqrt(b, out=b)
        return np.divide(1.0, w, out=w)


def gaussian_product(x, a, xa, b, xb):
    y = x - xa
    y **= 2
    y *= a
    tmp = x - xb
    tmp **= 2
    tmp *= b
    y += tmp
    y *= -0.5
    return np.exp(y, out=y)


def overlap_deficit(x, a, xa, d, k):
    # exp(-a (x - xa)^2) expm1(k - d x^2 / 2)^2 is (psi_a - psi_b)^2 over the
    # normalization of psi_a^2 when k - d x^2 / 2 = log(psi_b / psi_a) for the
    # Gaussians of widths a and b = a + d. expm1 keeps the difference to full
    # relative precision where psi_a - psi_b would cancel; its square
    # overflows far out on a wide grid, where the caller replaces it.
    y = x - xa
    y **= 2
    y *= -a
    np.exp(y, out=y)
    g = x * x
    g *= -0.5 * d
    g += k
    np.expm1(g, out=g)
    g **= 2
    y *= g
    return y


def simpson(y, h):
    """Composite Simpson over the last axis of y, step h (a scalar, or one per row)."""
    return (y[..., 0] + y[..., -1] + 4.0 * y[..., 1:-1:2].sum(axis=-1)
            + 2.0 * y[..., 2:-1:2].sum(axis=-1)) * (h / 3.0)


#: Largest grid refined_simpson evaluates after its first one.
MAX_GRID_POINTS = 2**20 + 1


def refined_simpson(make_grid, spec):
    """Composite Simpson with Richardson extrapolation on a doubling grid.

    make_grid(n_points) must return (y, x): integrand values on the uniform
    abscissae x, either 1-D or one row per integral (rows x n_points, C
    order). The first call is on 4*panels + 1 points; each step sums Simpson
    on that grid and on its even subsample and extrapolates. The grid then
    doubles (2n - 1 points) until every row's estimate is within
    tolerance * |value|, even a 1e-7 one, or until the next grid would exceed
    MAX_GRID_POINTS; the last step's (value, error_estimate) is returned
    either way, so the caller decides whether it converged. Values are floats
    for a 1-D grid and arrays (one per row) otherwise. The error estimate is
    |fine - coarse|/15, the error of the un-extrapolated fine sum: an upper
    bound for the extrapolated value, often a loose one (at the bulk defaults
    it is 1.7e-7, while the value is within 1e-12 of a converged one).
    """
    n = 4 * spec.panels + 1
    while True:
        y, x = make_grid(n)
        h = (x[..., -1] - x[..., 0]) / (n - 1)  # a neighbour difference loses eps*|x[0]|/h relative
        coarse = simpson(y[..., ::2], h * 2)
        fine = simpson(y, h)
        err = abs(fine - coarse) / 15.0
        value = fine + (fine - coarse) / 15.0
        if np.all(err <= spec.tolerance * abs(value)) or 2 * n - 1 > MAX_GRID_POINTS:
            break
        n = 2 * n - 1
    if y.ndim == 1:
        return float(value), float(err)
    return value, err
