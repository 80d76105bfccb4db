import math
import re

import numpy as np
import pytest
from scipy.integrate import trapezoid as scipy_trapezoid

from lifshitz_fidelity import (
    BosonGasParams,
    BulkParams,
    ConvergenceError,
    QuadratureSpec,
    boundary,
    kernels,
    volume,
)


EPS = np.finfo(float).eps


def _cc_terms(f):
    """make_terms for f on [0, 1] under Clenshaw-Curtis."""
    return lambda n: f(kernels.clenshaw_curtis(n)[0]) * kernels.clenshaw_curtis(n)[1]


def _trapezoid_terms(f):
    """make_terms for f on [-1, 1] under the trapezoid rule."""
    return lambda n: f(kernels.trapezoid(n)[0]) * kernels.trapezoid(n)[1]


def test_clenshaw_curtis_integrates_sine():
    # int_0^pi sin x dx = pi int_0^1 sin(pi s) ds = 2
    assert np.pi * _cc_terms(lambda s: np.sin(np.pi * s))(33).sum() == pytest.approx(2.0, rel=1e-14)


def test_trapezoid_matches_scipy():
    u = np.linspace(-1.0, 1.0, 513)
    y = np.exp(-((3.0 * u) ** 2))
    assert (y * kernels.trapezoid(513)[1]).sum() == pytest.approx(scipy_trapezoid(y, x=u), rel=1e-14)


@pytest.mark.parametrize("n", [5, 9, 17, 257, 1025])
def test_clenshaw_curtis_weights_integrate_polynomials_exactly(n):
    # the weights sum to 1 and integrate s^k on [0, 1] for every k <= n - 1,
    # and the coarse rule's for every k <= (n - 1)/2, within a few ulps
    s, w, coarse = kernels.clenshaw_curtis(n)
    k = np.arange(n)[:, None]
    for nodes, weights in ((s, w), (s[::2], w[::2] * coarse)):
        assert abs(weights.sum() - 1.0) <= 2 * EPS
        degree = k[:nodes.size]
        assert np.abs((weights * nodes**degree).sum(axis=-1) - 1.0 / (degree[:, 0] + 1)).max() <= 2 * EPS
    assert (w > 0).all()
    for a in (s, w, coarse):
        with pytest.raises(ValueError):
            a[0] = 0.0  # cached, so read-only


def test_coarse_nodes_are_the_even_subsample():
    # the coarse sum of each step reads the grid's even subsample as the
    # nodes of (n + 1)/2: both node sets must agree bit for bit, for either rule
    for rule in (kernels.clenshaw_curtis, kernels.trapezoid):
        n = 257
        while 2 * n - 1 <= kernels.MAX_GRID_POINTS:
            fine, coarse = rule(2 * n - 1)[0], rule(n)[0]
            assert np.array_equal(fine[::2].view(np.int64), coarse.view(np.int64))
            assert (coarse[0], coarse[-1]) in ((0.0, 1.0), (-1.0, 1.0))
            n = 2 * n - 1
    u, w, coarse = kernels.trapezoid(513)
    assert np.array_equal(w[::2] * coarse, kernels.trapezoid(257)[1])
    for a in (u, w):
        with pytest.raises(ValueError):
            a[0] = 0.0  # cached, so read-only


@pytest.mark.parametrize("f, exact", [
    (np.exp, np.e - 1.0),
    (lambda s: 1.0 / (1.0 + 25.0 * (2.0 * s - 1.0) ** 2), math.atan(5.0) / 5.0),  # Runge
    (lambda s: np.sqrt(s), 2.0 / 3.0),  # an endpoint singularity: algebraic convergence
    (lambda s: np.abs(s - 1.0 / 3.0) ** 1.5, 0.4 * ((1 / 3) ** 2.5 + (2 / 3) ** 2.5)),
], ids=["exp", "runge", "sqrt", "kink"])
def test_nested_quadrature_estimate_bounds_its_error(f, exact):
    # the returned value is the fine sum, and the estimate bounds its error
    for panels in (64, 256, 1024):
        value, err = kernels.nested_quadrature(_cc_terms(f), kernels.clenshaw_curtis,
                                               QuadratureSpec(panels=panels, tolerance=1e-6))
        assert abs(value - exact) <= err


@pytest.mark.parametrize("multiple", [1, 2, 3])
def test_nested_quadrature_evaluates_one_grid(multiple):
    # an integrand that converges on the first grid, 4*panels + 1 nodes, is
    # evaluated once: the coarse sum is its even subsample
    panels = 64 * multiple
    calls = []

    def make(n):
        calls.append(n)
        return _cc_terms(np.exp)(n)

    value, err = kernels.nested_quadrature(make, kernels.clenshaw_curtis, QuadratureSpec(panels=panels))
    assert calls == [4 * panels + 1]
    assert err <= 1e-10
    assert value == pytest.approx(np.e - 1.0, rel=1e-14)


def test_nested_quadrature_doubles_until_every_row_converges():
    calls = []

    def make(n):  # a smooth row that converges on the first grid, and a narrow one
        calls.append(n)
        return _cc_terms(lambda s: np.stack([np.exp(s), np.exp(-(((s - 0.5) / 0.01) ** 2))]))(n)

    spec = QuadratureSpec(panels=64)
    value, err = kernels.nested_quadrature(make, kernels.clenshaw_curtis, spec)
    assert calls[0] == 4 * spec.panels + 1 and len(calls) > 1
    assert calls[1:] == [2 * n - 1 for n in calls[:-1]]
    assert np.all(err <= spec.tolerance * abs(value))
    assert value[0] == pytest.approx(np.e - 1.0, rel=1e-14)
    assert abs(value[1] - 0.01 * math.sqrt(math.pi)) <= err[1]


def _sqrt(u):
    # sqrt(1 + u) on u in [-1, 1]: the trapezoid rule's error is ~ h^1.5, so
    # no grid meets tolerance 1e-12
    return np.sqrt(1.0 + u)


def test_nested_quadrature_stops_at_max_grid_points():
    calls = []

    def make(n):
        calls.append(n)
        return _trapezoid_terms(_sqrt)(n)

    with pytest.raises(ConvergenceError, match=f"stalled at {kernels.MAX_GRID_POINTS} points"):
        kernels.nested_quadrature(make, kernels.trapezoid, QuadratureSpec(panels=64, tolerance=1e-12))
    assert calls == [4 * 64 * 2**k + 1 for k in range(len(calls))]
    assert calls[-1] <= kernels.MAX_GRID_POINTS < 2 * calls[-1] - 1


def test_nested_quadrature_names_the_worst_row():
    # row 0, a decayed Gaussian, converges; row 1 cannot meet its bound
    make = _trapezoid_terms(lambda u: np.stack([np.exp(-((10.0 * u) ** 2)), _sqrt(u)]))
    with pytest.raises(ConvergenceError) as info:
        kernels.nested_quadrature(make, kernels.trapezoid, QuadratureSpec(panels=64, tolerance=1e-12))
    err, bound = (float(v) for v in re.findall(r"\d\.\d{3}e[-+]\d+", str(info.value)))
    assert err > bound == pytest.approx(1e-12 * 2.0**1.5 * 2.0 / 3.0, rel=1e-3)


def test_nested_quadrature_names_the_worst_row_of_a_block():
    # (points x samples x n), as a block of fits has it: two rows stall, and
    # (1 + u)**0.25 (error ~ h^1.25) misses its bound by more than sqrt(1 + u) (h^1.5)
    def rows(u):
        return np.stack([[np.exp(-((10.0 * u) ** 2)), 2.0 * np.sqrt(1.0 + u)],
                         [np.exp(-((20.0 * u) ** 2)), 3.0 * (1.0 + u) ** 0.25]])

    spec = QuadratureSpec(panels=64, tolerance=1e-12)
    with pytest.raises(ConvergenceError) as block:
        kernels.nested_quadrature(_trapezoid_terms(rows), kernels.trapezoid, spec)
    with pytest.raises(ConvergenceError) as alone:
        kernels.nested_quadrature(_trapezoid_terms(lambda u: rows(u)[1, 1]), kernels.trapezoid, spec)
    assert str(block.value) == str(alone.value)


def test_radial_quadrature_reports_the_capped_estimate_as_stalled(monkeypatch):
    # a near-degenerate horizon: B = -1 - h + h/r^3 + r^2 with h = (2 - 1e-8)/3
    # has B(1) = 0 and B'(1) = 1e-8, so 1/sqrt(B) keeps a shoulder of width
    # about 1e-9 above rp = 1 that no grid resolves to tolerance 1e-14
    calls = []
    quadrature = kernels.nested_quadrature

    def counted(make, weights, spec):
        return quadrature(lambda n: calls.append(n) or make(n), weights, spec)

    monkeypatch.setattr(kernels, "nested_quadrature", counted)
    h = (2.0 - 1e-8) / 3.0
    with pytest.raises(ConvergenceError):
        volume._integrate_r(-1.0 - h, -1.0, h, 1.0, 3.0, 10.0, QuadratureSpec(tolerance=1e-14))
    assert calls[-1] == kernels.MAX_GRID_POINTS


def test_radial_quadrature_converges_near_a_degenerate_horizon():
    # B'(1) = 1e-3 in the case above: B is written relative to its zero, so the
    # shoulder converges to tolerance 1e-14. The reference is a 45-digit mpmath
    # quadrature of the same integrand at the same float inputs.
    h = (2.0 - 1e-3) / 3.0
    value, err = volume._integrate_r(-1.0 - h, -1.0, h, 1.0, 3.0, 10.0, QuadratureSpec(tolerance=1e-14))
    assert err <= 1e-14 * value
    assert value == pytest.approx(55.556671064214221, rel=1e-14, abs=0)


# ---------- in-place kernels keep the out-of-place results bit for bit ----------
# The references are the out-of-place expressions the kernels stand for; the
# kernels apply the same ufuncs to the same operands in the same order.

def _ref_volume_integrand_r(s, span, mexp, cv, cm, rp, zexp, y0):
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d = span * s**mexp
        f1 = -np.expm1(-zexp * np.log1p(d / rp))
        g = rp * rp + d * (d + 2 * rp) / f1
        r = rp + d
        k = r * r * s ** (mexp - 1) * (mexp * span) / np.sqrt(f1)
        y = k / np.sqrt(cv - cm * g)
    y[0] = y0
    return y


def _ref_overlap_log_ratio(t, gamma, s):
    return ((t + 2.0 * gamma) * t)[:, None, :] * (-0.5 * s)[:, None] + (
        0.25 * np.log1p(s) - 0.5 * (gamma * s) ** 2 / (1.0 + s))[..., None]


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _bulk_draw(seed):
    """Radial kernel inputs from a seeded bulk parameter draw.

    z cycles through 4, 2 and 3, so zexp = 1 + z/2 is 3, 2 or 2.5.
    """
    rng = np.random.default_rng(seed)
    z = (4.0, 2.0, 3.0)[seed % 3]
    p = BulkParams(xi=-rng.uniform(0.2, 2.0), Qt=rng.uniform(0.5, 2.0),
                   V0=rng.uniform(0.0, 1.0), rp=rng.uniform(0.5, 2.0), z=z)
    cv, cm, _, zexp = volume._param_coeffs(p)
    return rng, p, cv, cm, zexp


GRID_SIZES = [8193, 262145]
SEEDS = [0, 1, 2, 3]


# The kernels compute the one map r = rp + span·s^mexp with mexp = 2; the mexp
# parameter keeps the case ids the tests had when the map exponent varied.
RADIAL_MAP_EXPONENTS = [2]


@pytest.mark.parametrize("npts", GRID_SIZES)
@pytest.mark.parametrize("mexp", RADIAL_MAP_EXPONENTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_volume_integrand_r_matches_out_of_place_bits(npts, mexp, seed):
    rng, p, cv, cm, zexp = _bulk_draw(seed)
    span, y0 = rng.uniform(10.0, 200.0) * p.rp, rng.uniform(0.0, 5.0)
    s = np.linspace(0.0, 1.0, npts)
    before = s.copy()
    got = kernels.radial_integrand(kernels.radial_factors(s, span, p.rp, zexp), cv, cm, y0)
    _assert_same_bits(s, before)
    _assert_same_bits(got, _ref_volume_integrand_r(s, span, mexp, cv, cm, p.rp, zexp, y0))


BLOCK_EDGES = [kernels.RADIAL_BLOCK - 1, kernels.RADIAL_BLOCK, kernels.RADIAL_BLOCK + 1,
               2 * kernels.RADIAL_BLOCK + 1]


@pytest.mark.parametrize("npts", BLOCK_EDGES)
@pytest.mark.parametrize("mexp", RADIAL_MAP_EXPONENTS)
def test_radial_kernels_match_out_of_place_bits_at_block_edges(npts, mexp):
    # grids that end just short of, at and just past a block boundary
    rng, p, cv, cm, zexp = _bulk_draw(npts + mexp)
    span, y0 = rng.uniform(10.0, 200.0) * p.rp, rng.uniform(0.0, 5.0)
    s = np.linspace(0.0, 1.0, npts)
    before = s.copy()
    got = kernels.radial_integrand(kernels.radial_factors(s, span, p.rp, zexp), cv, cm, y0)
    _assert_same_bits(s, before)
    _assert_same_bits(got, _ref_volume_integrand_r(s, span, mexp, cv, cm, p.rp, zexp, y0))


def test_cached_radial_grid_is_read_only():
    k, g = volume._radial_grid(257, 99.0, 1.0, 3.0)
    for a in (k, g):
        with pytest.raises(ValueError):
            a[1] = 0.0


def _fit_block(seed, npts, points=2):
    """A seeded block of boundary points' fit samples, in _overlap_deficits' layout:
    (t, gamma, s) with one t grid row per point, gamma a (points x 1) column and
    s the 8 samples dH / H."""
    rng = np.random.default_rng(seed)
    block = []
    for _ in range(points):
        q, H = rng.uniform(0.1, 10.0, 2)
        beta_max = min(5.0, math.sqrt(100.0 * q * H / 4.0))
        block.append(BosonGasParams(q=q, H=H, beta=rng.uniform(-beta_max, beta_max)))
    s = np.sort(rng.uniform(-1e-2, 1e-2, 8))
    gamma = boundary._gammas(block)
    return boundary._halfwidths(gamma, s, 10.0) * kernels.trapezoid(npts)[0], gamma, s


def _gaussian_product(t, gamma, s):
    # overlap_quadrature's integrand exp(r - t^2), built in place from the kernel's r
    y = kernels.overlap_log_ratio(t, gamma, s)
    y -= (t * t)[:, None]
    return np.exp(y, out=y)


def _overlap_deficit(t, gamma, s):
    # _overlap_deficits' integrand exp(-t^2) expm1(r)^2, built in place from the kernel's r
    y = np.expm1(kernels.overlap_log_ratio(t, gamma, s))
    y **= 2
    y *= np.exp(-(t * t)[:, None])
    return y


@pytest.mark.parametrize("npts", GRID_SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_gaussian_product_matches_out_of_place_bits(npts, seed):
    t, gamma, s = _fit_block(seed, npts)
    s = s[-1:]  # one dH per point, as overlap_quadrature has it
    before = t.copy()
    got = _gaussian_product(t, gamma, s)
    _assert_same_bits(t, before)
    _assert_same_bits(got, np.exp(_ref_overlap_log_ratio(t, gamma, s) - (t * t)[:, None]))


@pytest.mark.parametrize("npts", GRID_SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_overlap_deficit_matches_out_of_place_bits(npts, seed):
    t, gamma, s = _fit_block(seed, npts)
    before = t.copy()
    r = kernels.overlap_log_ratio(t, gamma, s)
    assert r.shape == (2, 8, npts)
    _assert_same_bits(t, before)
    ref = _ref_overlap_log_ratio(t, gamma, s)
    _assert_same_bits(r, ref)
    _assert_same_bits(_overlap_deficit(t, gamma, s),
                      np.exp(-(t * t)[:, None]) * np.expm1(ref) ** 2)


# ---------- a batch of rows keeps each one-row call's bits ----------

BATCH_SIZES = [257, 262145]


@pytest.mark.parametrize("npts", BATCH_SIZES)
@pytest.mark.parametrize("seed", SEEDS[:2])
def test_gaussian_product_rows_match_one_row_calls(npts, seed):
    t, gamma, s = _fit_block(seed, npts)
    s = s[-1:]  # each point's largest dH
    got = _gaussian_product(t, gamma, s)
    for i in range(len(t)):
        _assert_same_bits(got[i], _gaussian_product(t[i:i + 1].copy(), gamma[i:i + 1], s)[0])


@pytest.mark.parametrize("npts", BATCH_SIZES)
@pytest.mark.parametrize("seed", SEEDS[:2])
def test_overlap_deficit_rows_match_one_row_calls(npts, seed):
    # a block's (point, dH) row has the bits of a call for that point and dH alone
    t, gamma, s = _fit_block(seed, npts)
    got = _overlap_deficit(t, gamma, s)
    for i, j in np.ndindex(got.shape[:2]):
        alone = _overlap_deficit(t[i:i + 1].copy(), gamma[i:i + 1], s[j:j + 1])
        _assert_same_bits(got[i, j], alone[0, 0])


@pytest.mark.parametrize("npts", BATCH_SIZES)
@pytest.mark.parametrize("seed", SEEDS[:2])
def test_quadrature_rows_match_one_row_calls(npts, seed):
    # a (points x samples x n) integrand, as a block of fits has it, under
    # either rule: each row's value and estimate have the bits of a one-row call
    t, gamma, s = _fit_block(seed, npts)
    y = _overlap_deficit(t, gamma, s)
    spec = QuadratureSpec(panels=(npts - 1) // 4, tolerance=1.0)
    for rule in (kernels.trapezoid, kernels.clenshaw_curtis):
        got = kernels.nested_quadrature(lambda n: y * rule(n)[1], rule, spec)
        assert got[0].shape == got[1].shape == (len(t), s.size)
        for i, j in np.ndindex(got[0].shape):
            alone = kernels.nested_quadrature(lambda n: y[i, j] * rule(n)[1], rule, spec)
            for block_value, value in zip(got, alone):
                _assert_same_bits(block_value[i, j:j + 1], np.array([value]))
