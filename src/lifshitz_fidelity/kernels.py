"""Hot numeric kernels, vectorized with numpy.

Inner loops that dominate runtime: blackening-factor evaluation, the
singular-endpoint volume integrands (radial and w-coordinate forms), the
Gaussian overlap product, composite Simpson summation, and the dyadic
refinement driver built on it. Per-kernel timings come from
`python3 perfbench/run.py` (see perfbench/README.md).

The four grid kernels (the volume integrands and the Gaussian product)
evaluate in place: each allocates its output and at most two scratch arrays
of the grid's length and never writes into the grid it is given. They apply
the same ufuncs to the same operands in the same order as the plain
expressions they stand for (kept in tests/test_kernels.py as references), so
every value is bit-identical; `**` with a scalar exponent stays an operator
so numpy's square, sqrt and copy fast paths still apply.
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


def simpson(y, h):
    return (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()) * (h / 3.0)


def refined_simpson(make_grid, spec):
    """Composite Simpson with dyadic refinement and Richardson extrapolation.

    make_grid(n_points) must return (y, x): integrand values on the uniform
    abscissae x. It is called once, on the finest grid of
    2*panels*2^(levels-1) + 1 points; coarser levels are its even
    subsamples. Returns (value, error_estimate); with a single level the
    estimate is 0.
    """
    top = spec.levels - 1
    y, x = make_grid(2 * spec.panels * 2**top + 1)
    h = (x[-1] - x[0]) / (len(x) - 1)  # a neighbour difference loses eps*|x[0]|/h relative
    vals = [float(simpson(y[::2**k], h * 2**k)) for k in range(top, -1, -1)]
    if len(vals) == 1:
        return vals[0], 0.0
    err = abs(vals[-1] - vals[-2]) / 15.0
    return vals[-1] + (vals[-1] - vals[-2]) / 15.0, err
