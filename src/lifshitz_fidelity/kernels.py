"""Hot numeric kernels, vectorized with numpy.

The radial volume integrand comes in two parts: radial_factors builds the
arrays that depend only on the grid (k and G, which write B relative to its
zero at rp), which a caller may cache across parameter points, and
radial_integrand runs the per-point pass over them in cache-sized blocks.
overlap_log_ratio builds both overlap integrands. nested_quadrature owns the
convergence contract, with two nested rules: Clenshaw-Curtis for the
analytic bulk integrands (Trefethen, SIAM Rev. 50, 67 (2008)) and the
trapezoid rule for the decayed overlap Gaussians (Trefethen & Weideman, SIAM
Rev. 56, 385 (2014)). No kernel writes into the grid it is given, and each
applies the same ufuncs to the same operands in the same order as the plain
expression it stands for (kept in tests/test_kernels.py as references), so
every value is bit-identical; `**` with a scalar exponent stays an operator
for numpy's square fast path.
"""
from __future__ import annotations

import functools

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


def _clenshaw_curtis_weights(n):
    # the inverse real FFT of the moments 2/(1 - (2k)^2) of the even Chebyshev
    # polynomials, end weights halved (Waldvogel, BIT 46, 195 (2006)), on [0, 1]
    k = np.arange(n // 2 + 1)
    w = np.append(np.fft.irfft(2.0 / (1.0 - 4.0 * k * k), n - 1), 0.0)
    w[[0, -1]] = 0.5 * w[0]
    return 0.5 * w


@functools.lru_cache(maxsize=2)
def clenshaw_curtis(n):
    """Clenshaw-Curtis on [0, 1], odd n >= 5: (nodes, weights, coarse), read-only and
    cached for two n. The nodes are sin^2(pi j/(2n - 2)), those of (n + 1)/2 the even
    subsample bit for bit; the weights are positive and exact for degree n - 1; coarse,
    the (n + 1)/2-node weights over weights[::2], reweights the even terms."""
    w = _clenshaw_curtis_weights(n)
    coarse = _clenshaw_curtis_weights((n + 1) // 2) / w[::2]
    s = np.sin(np.pi * np.arange(n) / (2 * (n - 1))) ** 2
    s.flags.writeable = w.flags.writeable = coarse.flags.writeable = False
    return s, w, coarse


@functools.lru_cache(maxsize=2)
def trapezoid(n):
    """The trapezoid rule at linspace(-1, 1, n), as clenshaw_curtis; coarse doubles each weight."""
    u, w = np.linspace(-1.0, 1.0, n), np.full(n, 2.0 / (n - 1))
    w[[0, -1]] = 1.0 / (n - 1)
    u.flags.writeable = w.flags.writeable = False
    return u, w, 2.0


#: Largest grid nested_quadrature evaluates after its first one.
MAX_GRID_POINTS = 2**20 + 1
#: Floor of each error estimate relative to |value|: once the two sums agree to
#: rounding (within 2.3 eps on perfbench/bulk_reference.json, whose errors reach
#: 2.7 eps), their difference bounds nothing.
ROUNDOFF_FLOOR = 8 * np.finfo(float).eps


def nested_quadrature(make_terms, rule, spec):
    """(value, error estimate) of a nested rule on a doubling grid.

    make_terms(n) returns the integrand times the weights of rule(n)
    (clenshaw_curtis or trapezoid) on its n nodes, 1-D or one row per
    integral (... x n, C order). From 4*panels + 1 nodes the grid doubles
    (2n - 1) until every row's estimate is within tolerance * |value|: the
    estimate is |Q(n) - Q((n + 1)/2)|, the coarse sum reweighting the even
    terms, floored at ROUNDOFF_FLOOR |Q(n)|. Returns (Q(n), estimate), floats
    for a 1-D grid and arrays otherwise, each row with the bits of a one-row
    call; past MAX_GRID_POINTS it raises ConvergenceError naming the last
    size, the worst row's estimate and bound.
    """
    n = 4 * spec.panels + 1
    while True:
        terms = make_terms(n)
        value = terms.sum(axis=-1)
        coarse = (terms[..., ::2] * rule(n)[2]).sum(axis=-1)
        err = np.maximum(abs(value - coarse), ROUNDOFF_FLOOR * abs(value))
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
    if terms.ndim == 1:
        return float(value), float(err)
    return value, err
