"""Hot numeric kernels, vectorized with numpy.

Inner loops that dominate runtime: the singular-endpoint radial volume
integrand, the log ratio of the boundary's two Gaussian ground states,
composite Simpson summation, and the adaptive refinement driver built on it,
which owns the quadratures' convergence contract. Per-kernel timings come
from `python3 perfbench/run.py` (see perfbench/README.md).

The radial volume integrand is split in two. radial_factors builds the
two arrays that depend only on the grid (k and G, which write B relative to
its zero at rp), which a caller may cache and reuse across parameter points;
radial_integrand runs the per-point pass over them RADIAL_BLOCK points at a
time, four ufunc passes into one block-sized scratch array, so its working
set stays in cache. The overlap log ratio, from which both overlap
integrands are built, takes one grid row per point and returns one row per
point and sample (see its comment). No kernel writes into the grid it is
given. All of them apply the same ufuncs to the same operands in the same
order as the plain expressions they stand for (kept in tests/test_kernels.py
as references), so every value is bit-identical; `**` with a scalar exponent
stays an operator so numpy's square fast path still applies. `simpson` sums
the last axis of any such array, with a step that broadcasts against the
rest (one per point, say). Each row keeps the bits of a one-row call when
the grid is C-ordered.
"""
from __future__ import annotations

import numpy as np

from .errors import ConvergenceError

#: Points per block of radial_integrand's pass, so that its scratch block and
#: the slices it reads stay in cache. On a 262145-point grid (2-vCPU VM),
#: blocks of 8192-32768 points ran within 15% of each other, 2048 points about
#: 40% slower, and one whole-grid block 2.6 times slower.
RADIAL_BLOCK = 16384


def radial_factors(s, span, rp, zexp):
    """The factors (k, G) of the radial volume integrand that depend only on the grid.

    The map r = rp + d, d = span*s^2, takes s in [0,1] onto [rp, rp+span].
    With f1 = 1 - (rp/r)^zexp = -expm1(-zexp*log1p(d/rp)) and
    hcoef = cm*rp^2 - cv, B = cv + (rp/r)^zexp*hcoef - cm*r^2 is exactly
    f1*(cv - cm*G) with G = rp^2 + d*(d + 2*rp)/f1. So the integrand
    jr2/sqrt(B), jr2 = s*(2*span)*r^2, is k/sqrt(cv - cm*G) with
    k = r*r*s*(2*span)/sqrt(f1). Near rp, f1 -> zexp*d/rp and
    G -> rp^2*(1 + 2/zexp), so cv - cm*G tends to rp*B'(rp)/zexp instead of
    being a difference of terms that cancel; the Jacobian's factor s absorbs
    the inverse-sqrt zero of B. Entry 0 of k and G is 0/0 (NaN).
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d = s**2
        d *= span
        f1 = d / rp
        np.log1p(f1, out=f1)
        f1 *= -zexp
        np.expm1(f1, out=f1)
        np.negative(f1, out=f1)
        g = d + 2 * rp
        g *= d
        g /= f1
        g += rp * rp
        k = d  # built in d's array
        k += rp
        k *= k
        k *= s
        k *= 2 * span
        k /= np.sqrt(f1, out=f1)
    return k, g


def radial_integrand(factors, cv, cm, y0):
    """k/sqrt(cv - cm*G) on a 1-D grid from radial_factors' (k, G), evaluated
    RADIAL_BLOCK points at a time; the first value is y0."""
    k, g = factors
    y = np.empty_like(k)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for start in range(0, k.size, RADIAL_BLOCK):
            blk = slice(start, start + RADIAL_BLOCK)
            bb = g[blk] * cm
            np.subtract(cv, bb, out=bb)
            np.divide(k[blk], np.sqrt(bb, out=bb), out=y[blk])
    y[0] = y0
    return y


def overlap_log_ratio(t, gamma, s):
    # r = log(psi_{H+dH} / psi_H) = 1/4 log1p(s) - s t (t + 2 gamma) / 2
    #     - gamma^2 s^2 / (2 (1 + s))
    # at t = sqrt(qH) (x - beta/(qH)), s = dH/H and gamma = beta/sqrt(qH), so
    # psi_H^2 dx = exp(-t^2) dt/sqrt(pi). t is (points x n), gamma (points x
    # 1) and s the 1-D samples; the result is (points x samples x n), and
    # t (t + 2 gamma) is formed once per point and shared by its samples.
    w = t + 2.0 * gamma
    w *= t
    r = w[:, None, :] * (-0.5 * s)[:, None]
    r += (0.25 * np.log1p(s) - 0.5 * (gamma * s) ** 2 / (1.0 + s))[..., None]
    return r


def simpson(y, h):
    """Composite Simpson over the last axis of y, step h (a scalar, or an array
    that broadcasts against y's other axes, such as one per row)."""
    return (y[..., 0] + y[..., -1] + 4.0 * y[..., 1:-1:2].sum(axis=-1)
            + 2.0 * y[..., 2:-1:2].sum(axis=-1)) * (h / 3.0)


#: Largest grid refined_simpson evaluates after its first one.
MAX_GRID_POINTS = 2**20 + 1


def refined_simpson(make_grid, spec):
    """Composite Simpson with Richardson extrapolation on a doubling grid.

    make_grid(n_points) must return (y, x): integrand values on the uniform
    abscissae x, either 1-D or one row per integral (... x n_points, C order),
    with x 1-D or of a shape that broadcasts against y, such as
    (points x 1 x n_points) for (points x samples x n_points) values. The
    first call is on 4*panels + 1 points; each step sums Simpson
    on that grid and on its even subsample and extrapolates. The grid doubles
    (2n - 1 points) until every row's error estimate is within
    tolerance * |value|, even a 1e-7 one; that step's (value, error_estimate)
    is returned, as floats for a 1-D grid and arrays (one per row) otherwise.
    If the next grid would exceed MAX_GRID_POINTS first, it raises
    ConvergenceError naming the last grid size, the worst row's error
    estimate and that row's bound. The error estimate is |fine - coarse|/15,
    the error of the un-extrapolated fine sum: an upper bound for the
    extrapolated value, often a loose one (at the bulk defaults it is 1.7e-7,
    while the value is within 1e-12 of a converged one).
    """
    n = 4 * spec.panels + 1
    while True:
        y, x = make_grid(n)
        h = (x[..., -1] - x[..., 0]) / (n - 1)  # a neighbour difference loses eps*|x[0]|/h relative
        coarse = simpson(y[..., ::2], h * 2)
        fine = simpson(y, h)
        err = abs(fine - coarse) / 15.0
        value = fine + (fine - coarse) / 15.0
        bound = spec.tolerance * abs(value)
        if (err <= bound).all():
            break
        if 2 * n - 1 > MAX_GRID_POINTS:
            err, bound = np.ravel(err), np.ravel(bound)
            with np.errstate(divide="ignore", invalid="ignore"):
                k = np.argmax(err / bound)  # the worst row
            raise ConvergenceError(f"quadrature stalled at {n} points: error estimate "
                                   f"{err[k]:.3e} exceeds tolerance * |value| = {bound[k]:.3e}")
        n = 2 * n - 1
    if y.ndim == 1:
        return float(value), float(err)
    return value, err
