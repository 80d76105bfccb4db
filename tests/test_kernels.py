import numpy as np
import pytest
from scipy.integrate import simpson as scipy_simpson

from lifshitz_fidelity import BulkParams, QuadratureSpec, kernels, volume


def test_simpson_integrates_sine():
    x = np.linspace(0.0, np.pi, 2049)
    val = kernels.simpson(np.sin(x), x[1] - x[0])
    assert val == pytest.approx(2.0, rel=1e-10)


def test_simpson_matches_scipy():
    x = np.linspace(0.0, 3.0, 513)
    y = np.exp(-(x**2))
    assert kernels.simpson(y, x[1] - x[0]) == pytest.approx(
        scipy_simpson(y, x=x), rel=1e-12
    )


def test_refined_simpson_richardson_improves_estimate():
    def make(n):
        x = np.linspace(0.0, 1.0, n)
        return x**6, x

    value, err = kernels.refined_simpson(make, QuadratureSpec(panels=64, levels=2))
    assert value == pytest.approx(1.0 / 7.0, rel=1e-12)
    assert err >= 0.0


@pytest.mark.parametrize("levels", [1, 2, 3])
def test_refined_simpson_evaluates_one_grid(levels):
    panels = 64
    calls = []

    def make(n):
        calls.append(n)
        x = np.linspace(0.0, 1.0, n)
        return np.exp(x), x

    value, _ = kernels.refined_simpson(make, QuadratureSpec(panels=panels, levels=levels))
    assert calls == [2 * panels * 2 ** (levels - 1) + 1]
    assert value == pytest.approx(np.e - 1.0, rel=1e-8)


# ---------- in-place kernels keep the out-of-place results bit for bit ----------
# The references are the out-of-place expressions the kernels replaced; the
# kernels apply the same ufuncs to the same operands in the same order.

def _ref_volume_integrand_r(s, lo, span, mexp, cv, cm, hcoef, rp, zexp, y0):
    r = lo + span * s**mexp
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        bb = cv + (rp / r) ** zexp * hcoef - cm * r * r
        y = (mexp * span) * s ** (mexp - 1) * r * r / np.sqrt(bb)
    y[0] = y0
    return y


def _ref_wform_integrand_top(s, wlo, mexp, cvterm, bcoef, bm2, zexp, y0):
    w = 1.0 - (1.0 - wlo) * s**mexp
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        b = cvterm + bcoef * w**zexp - bm2 / (w * w)
        y = (mexp * (1.0 - wlo)) * s ** (mexp - 1) / (w**4 * np.sqrt(b))
    y[0] = y0
    return y


def _ref_wform_integrand_log(u, cvterm, bcoef, bm2, zexp):
    w = np.exp(u)
    b = cvterm + bcoef * w**zexp - bm2 / (w * w)
    with np.errstate(invalid="ignore"):
        return 1.0 / (w**3 * np.sqrt(b))


def _ref_gaussian_product(x, a, xa, b, xb):
    return np.exp(-0.5 * (a * (x - xa) ** 2 + b * (x - xb) ** 2))


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _bulk_draw(seed):
    """Radial and w-form kernel inputs from a seeded bulk parameter draw.

    z = 2 gives zexp = 2 (numpy's square fast path), z = 3 a non-integer zexp.
    """
    rng = np.random.default_rng(seed)
    z = (4.0, 2.0, 3.0)[seed % 3]
    p = BulkParams(xi=-rng.uniform(0.2, 2.0), Qt=rng.uniform(0.5, 2.0),
                   V0=rng.uniform(0.0, 1.0), rp=rng.uniform(0.5, 2.0), z=z)
    cv, cm, hcoef, zexp = volume._param_coeffs(p)
    return rng, p, cv, cm, hcoef, zexp


GRID_SIZES = [8193, 262145]
SEEDS = [0, 1, 2, 3]


@pytest.mark.parametrize("npts", GRID_SIZES)
@pytest.mark.parametrize("mexp", [2, 3, 4])
@pytest.mark.parametrize("seed", SEEDS)
def test_volume_integrand_r_matches_out_of_place_bits(npts, mexp, seed):
    rng, p, cv, cm, hcoef, zexp = _bulk_draw(seed)
    lo = p.rp
    args = (lo, rng.uniform(10.0, 200.0) * lo, mexp, cv, cm, hcoef, p.rp, zexp,
            rng.uniform(0.0, 5.0))
    s = np.linspace(0.0, 1.0, npts)
    before = s.copy()
    got = kernels.volume_integrand_r(s, *args)
    _assert_same_bits(s, before)
    _assert_same_bits(got, _ref_volume_integrand_r(s, *args))


@pytest.mark.parametrize("npts", GRID_SIZES)
@pytest.mark.parametrize("mexp", [2, 3, 4])
@pytest.mark.parametrize("seed", SEEDS)
def test_wform_integrand_top_matches_out_of_place_bits(npts, mexp, seed):
    rng, p, cv, cm, hcoef, zexp = _bulk_draw(seed)
    args = (rng.uniform(0.01, 0.9), mexp, cv, hcoef, cm * p.rp**2, zexp,
            rng.uniform(0.0, 5.0))
    s = np.linspace(0.0, 1.0, npts)
    before = s.copy()
    got = kernels.wform_integrand_top(s, *args)
    _assert_same_bits(s, before)
    _assert_same_bits(got, _ref_wform_integrand_top(s, *args))


@pytest.mark.parametrize("npts", GRID_SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_wform_integrand_log_matches_out_of_place_bits(npts, seed):
    rng, p, cv, cm, hcoef, zexp = _bulk_draw(seed)
    args = (cv, hcoef, cm * p.rp**2, zexp)
    u = np.linspace(np.log(rng.uniform(1e-4, 1e-2)), np.log(0.5), npts)
    before = u.copy()
    got = kernels.wform_integrand_log(u, *args)
    _assert_same_bits(u, before)
    _assert_same_bits(got, _ref_wform_integrand_log(u, *args))


@pytest.mark.parametrize("npts", GRID_SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_gaussian_product_matches_out_of_place_bits(npts, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(0.1, 10.0, 2)
    xa, xb = rng.uniform(-3.0, 3.0, 2)
    x = np.linspace(min(xa, xb) - 10.0 / np.sqrt(min(a, b)),
                    max(xa, xb) + 10.0 / np.sqrt(min(a, b)), npts)
    before = x.copy()
    got = kernels.gaussian_product(x, a, xa, b, xb)
    _assert_same_bits(x, before)
    _assert_same_bits(got, _ref_gaussian_product(x, a, xa, b, xb))
