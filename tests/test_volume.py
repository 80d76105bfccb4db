import json
import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lifshitz_fidelity import (
    BulkParams,
    ConstraintError,
    DomainError,
    ImaginaryIntegrandError,
    LifshitzFidelityError,
    NonPositiveBlackeningError,
    QuadratureSpec,
    background_volume,
    complexity,
    fit_divergence_coefficient,
    kernels,
    series_divergent_part,
    series_finite_part,
    subtracted_susceptibility,
    volume,
    volume_exact,
    volume_series_z4,
    volume_w_form,
    xi_f_holo_z4,
)
from lifshitz_fidelity.geometry import (
    blackening_derivative,
    curvature_coefficient,
    potential_coefficient,
    series_coeffs_z4,
)
from lifshitz_fidelity.verification import _bulk, _random_bulk


def random_bulk(rng, make_bulk):
    # resample until rp is a genuine outer horizon (B grows outward from it)
    while True:
        p = make_bulk(
            lambda_eff=-rng.uniform(0.5, 10.0),
            rp=rng.uniform(0.3, 3.0),
            V0=rng.uniform(-3.0, 3.0),
            L=rng.uniform(0.5, 2.0),
        )
        slope = blackening_derivative(p.rp, p)
        if slope > 0.1 * (-curvature_coefficient(p)) * p.rp:
            return p


# ---------- exact volume vs truncated series ----------

def test_volume_exact_near_series_at_unit_coefficient_ratio(make_bulk):
    # V0 = 0 means b1 = b_minus2, so the truncation parameter is 1 and the
    # measured gap is 0.58 of the finite part; bound it at 0.7
    p = make_bulk(lambda_eff=-5.0, rp=1.0, V0=0.0)
    r_inf = 100.0
    v_exact = volume_exact(p, r_inf).value
    series = volume_series_z4(p, p.rp / r_inf)
    finite = series_finite_part(-1.0, -1.0, 1.0)
    assert abs(v_exact - series.value) <= 0.7 * abs(finite)


@settings(max_examples=100, deadline=None)
@given(lambda_eff=st.floats(-10.0, -0.5), rp=st.floats(0.3, 3.0), V0=st.floats(-3.0, 3.0),
       L=st.floats(0.5, 2.0), eps=st.floats(1e-4, 0.99))
def test_change_of_variables_identity(lambda_eff, rp, V0, L, eps):
    # on random_bulk's domain with a genuine horizon, the w-form at eps either
    # equals the radial volume out to rp/eps or raises a named error
    p = _bulk(lambda_eff=lambda_eff, rp=rp, V0=V0, L=L)
    assume(blackening_derivative(p.rp, p) > 0.1 * (-curvature_coefficient(p)) * p.rp)
    try:
        v_r = volume_exact(p, p.rp / eps).value
        v_w = volume_w_form(p, eps, "full-B").value
    except LifshitzFidelityError:
        return
    assert abs(v_r - v_w) <= 1e-8 * abs(v_r)


#: rp^3 int_eps^1 dw/(w^4 sqrt(b)) near the horizon, from mpmath at 40 digits
#: with the cancellation-free integrand of perfbench/make_reference.py (b(1) = 0
#: exactly, w = 1 - t^2, differences through expm1/log1p)
W_FORM_NEAR_HORIZON = [
    ((-5.0, 1.0, 0.0), 0.99, 0.090652509204746593),
    ((-5.0, 1.0, 0.0), 0.999999, 8.9442838358406327e-4),
    ((-2.0, 1.7, 4.0), 0.99, 0.35719946914752167),
    ((-2.0, 1.7, 4.0), 0.999999, 3.5227965226311447e-3),
    ((-8.0, 0.6, -2.0), 0.99, 0.031904336167057883),
    ((-8.0, 0.6, -2.0), 0.999999, 3.1506877380009073e-4),
]


@pytest.mark.parametrize("args,eps,want", W_FORM_NEAR_HORIZON)
def test_w_form_near_the_horizon_matches_mpmath(args, eps, want):
    assert volume_w_form(_bulk(*args), eps, "full-B").value == pytest.approx(want, rel=1e-13, abs=0)


@pytest.mark.parametrize("args,eps,want", W_FORM_NEAR_HORIZON)
def test_volume_exact_near_the_horizon_matches_mpmath(args, eps, want):
    # at eps = 0.999999 the rounding of r_inf = rp/eps alone moves the volume
    # by a few 1e-11 relative
    p = _bulk(*args)
    assert volume_exact(p, p.rp / eps).value == pytest.approx(want, rel=1e-10, abs=0)


#: Two near-degenerate horizons (B'(rp) = 0.15 c rp at the first) with their
#: IR cutoff factors r_inf / rp and volumes from a 60-digit mpmath quadrature
#: of perfbench/make_reference.py's w-coordinate integrand at the same floats
DEGENERATE_HORIZON_VOLUMES = [
    ((-0.5, 1.451171875, -2.04296875), 400.0, 532796.5057562391708596246),
    ((-6.5, 0.359375, -1.5), 200.0, 2265.97778999847197401628),
]


def _reference_volumes():
    """(params, r_inf, volume) of the 384 perfbench/bulk_reference.json volumes
    (30-digit mpmath) and of DEGENERATE_HORIZON_VOLUMES."""
    ref = json.loads((Path(__file__).parents[1] / "perfbench" / "bulk_reference.json").read_text())
    for case in ref["cases"]:
        for qt, want in zip(np.geomspace(case["Qt_from"], case["Qt_to"], case["points"]), case["v_ref"]):
            yield BulkParams(Qt=float(qt), z=4.0, **case["params"]), case["r_inf"], want
    for args, factor, want in DEGENERATE_HORIZON_VOLUMES:
        p = _bulk(*args)
        yield p, factor * p.rp, want


def test_volume_exact_estimate_bounds_its_error():
    # every estimate is at least the true error, near a degenerate horizon
    # too, and every value is within 1e-15 (the worst reads 6.0e-16)
    volumes = list(_reference_volumes())
    assert len(volumes) == 386
    for p, r_inf, want in volumes:
        v = volume_exact(p, r_inf)
        assert abs(v.value - want) <= v.error_estimate
        assert v.value == pytest.approx(want, rel=1e-15, abs=0)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), log_x=st.floats(math.log(1e-6), math.log(399.0)))
def test_volume_exact_matches_w_form_from_horizon_to_far_cutoff(seed, log_x):
    # r_inf / rp - 1 = exp(log_x) is log-uniform in [1e-6, 399]: every draw
    # with a genuine horizon returns, near it as well as far out
    p = _random_bulk(np.random.default_rng(seed))
    r_inf = p.rp * (1.0 + math.exp(log_x))
    v_r = volume_exact(p, r_inf).value
    v_w = volume_w_form(p, p.rp / r_inf, "full-B").value
    assert abs(v_r - v_w) <= 1e-9 * abs(v_w)


def test_w_form_analytic_value_at_b1_zero(make_bulk):
    # V0 = -6 makes b1 = 0, so the truncated integrand is 1/w^3 and
    # rp^3 int_0.1^1 w^-3 dw = 49.5
    p = make_bulk(lambda_eff=-5.0, rp=1.0, V0=-6.0)
    c = series_coeffs_z4(p)
    assert c.b1 == pytest.approx(0.0, abs=1e-15)
    res = volume_w_form(p, 0.1, "truncated")
    assert res.value == pytest.approx(49.5, rel=1e-10)


def _mpmath_w_volume(b_one, bcoef, bm2, zexp, rp, eps):
    """rp^3 int_eps^1 dw/(w^4 sqrt(b)) at 30 digits, for b = b_one + bcoef
    expm1(-zexp u) - bm2 expm1(2 u) and u = -log w, as volume._integrate_w
    writes it. The u-integrand e^(3u)/sqrt(b) is e^(2u)/sqrt(-bm2), integrated
    in closed form, plus the rest -d e^(2u)/(sqrt(c) sqrt(b) (sqrt(c) e^u +
    sqrt(b))) with c = -bm2 and d = b - c e^(2u), which cancels nowhere."""
    with mpmath.workdps(30):
        b_one, bcoef, bm2, zexp, rp = (mpmath.mpf(v) for v in (b_one, bcoef, bm2, zexp, rp))
        root_c, lam = mpmath.sqrt(-bm2), -mpmath.log(mpmath.mpf(eps))

        def rest(u):
            b = b_one + bcoef * mpmath.expm1(-zexp * u) - bm2 * mpmath.expm1(2 * u)
            d = b_one - bcoef + bm2 + bcoef * mpmath.exp(-zexp * u)
            root_b = mpmath.sqrt(b)
            return -d * mpmath.exp(2 * u) / (root_c * root_b * (root_c * mpmath.exp(u) + root_b))

        cuts = [0] + [x for x in (0.01, 0.1, 1, 10, 100) if x < lam] + [lam]
        return rp**3 * (mpmath.expm1(2 * lam) / (2 * root_c) + mpmath.quad(rest, cuts))


@pytest.mark.parametrize("mode", [
    "full-B",
    pytest.param("truncated", marks=pytest.mark.xfail(
        strict=True, reason="a b(1) = -V0/6 within ENDPOINT_ZERO_TOL of 0 is set to 0, "
        "which moves the volume by about sqrt(|b(1)|) relative")),
])
@settings(max_examples=40, deadline=None)
@given(lambda_eff=st.floats(-10.0, -0.5), rp=st.floats(0.3, 3.0), V0=st.floats(-3.0, 3.0),
       L=st.floats(0.5, 2.0), eps=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@example(-5.0, 1.0, 0.0, 1.0, 1e-100)  # truncated: b(1) = -V0/6 = 0, a zero at w = 1
@example(-2.0, 1.7, -3.0, 1.0, 1.0 - 2.0**-52)
@example(-5.0, 1.0, 0.0, 1.0, 5e-324)
@example(-5.0, 1.0, -1e-12, 1.0, 0.9)  # truncated: 5e-7 off, with an estimate of 2e-15
def test_w_form_over_the_whole_cutoff_range(mode, lambda_eff, rp, V0, L, eps):
    # on random_bulk's domain and all of eps in (0, 1), both modes either meet
    # the spec's tolerance against mpmath or raise a named error (no horizon at
    # rp, V0 > 0 in truncated mode, or an eps whose grid factor overflows)
    p = _bulk(lambda_eff=lambda_eff, rp=rp, V0=V0, L=L)
    try:
        v = volume_w_form(p, eps, mode)
    except LifshitzFidelityError:
        return
    cv, cm, hcoef, zexp = volume._param_coeffs(p)
    if mode == "full-B":  # b(1) is a zero, which _integrate_w sets to 0
        want = _mpmath_w_volume(0, hcoef, cm * p.rp**2, zexp, p.rp, eps)
    else:
        c = series_coeffs_z4(p)
        want = _mpmath_w_volume(mpmath.mpf(c.b1) - c.b_minus2, c.b1, c.b_minus2, zexp, p.rp, eps)
    assert abs(v.value - want) <= volume.DEFAULT_SPEC.tolerance * abs(want)


def test_w_form_validation(make_bulk):
    p = make_bulk()
    with pytest.raises(DomainError):
        volume_w_form(p, 0.0, "full-B")
    with pytest.raises(DomainError):
        volume_w_form(p, 1.5, "full-B")
    with pytest.raises(DomainError):
        volume_w_form(p, 0.1, "series")


def test_cutoffs_whose_grid_factor_overflows_are_named():
    # at rp = 1 the radial factor 2 (r_inf - rp) r_inf^2 overflows from about
    # 4.5e102 and the w factor 2 log(1/eps) eps^-3 below about 1.4e-102,
    # though B > 0 on the whole interval
    p = BulkParams()
    with pytest.raises(DomainError, match="r_inf=1e[+]103"):
        volume_exact(p, 1e103)
    with pytest.raises(DomainError, match="eps=1e-103"):
        volume_w_form(p, 1e-103)
    c = -curvature_coefficient(p)  # V = r_inf^2/(2 sqrt(c)) + O(r_inf)
    for v in (volume_exact(p, 1e100), volume_w_form(p, 1e-100)):
        assert v.value == pytest.approx(1e200 / (2 * math.sqrt(c)), rel=1e-12)


def test_w_form_imaginary_integrand(make_bulk):
    # lambda_eff > 0 flips the sign of b_minus2
    p = make_bulk(lambda_eff=5.0)
    with pytest.raises(ImaginaryIntegrandError):
        volume_w_form(p, 0.1, "truncated")


def test_volume_exact_rejects_negative_blackening(make_bulk):
    p = make_bulk(lambda_eff=5.0)
    with pytest.raises(NonPositiveBlackeningError):
        volume_exact(p, 10.0)


def test_series_convergence_is_second_order(make_bulk):
    ratios = (0.2, 0.1, 0.05, 0.025)
    diffs = []
    for x in ratios:
        p = make_bulk(lambda_eff=-5.0, rp=1.0, V0=6.0 * (x - 1.0))  # b1 = -x, b_minus2 = -1
        vq = volume_w_form(p, 0.1, "truncated").value
        vs = volume_series_z4(p, 0.1).value
        diffs.append(abs(vq - vs))
    slope = np.polyfit(np.log(ratios), np.log(diffs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.2)


def test_fitted_divergence_coefficient_matches_closed_form(make_bulk):
    for p in (make_bulk(-5.0, 1.0, 0.0), make_bulk(-3.0, 1.4, 2.0)):
        fitted = fit_divergence_coefficient(p)
        target = p.rp**3 / (2.0 * math.sqrt(-series_coeffs_z4(p).b_minus2))
        assert abs(fitted - target) <= 1e-6 * target


def test_divergence_fit_is_one_quadrature_of_the_scalar_volumes(make_bulk, monkeypatch):
    calls = []
    quadrature = kernels.nested_quadrature
    monkeypatch.setattr(kernels, "nested_quadrature", lambda *a: calls.append(1) or quadrature(*a))
    for p in (make_bulk(-5.0, 1.0, 0.0), make_bulk(-3.0, 1.4, 2.0), make_bulk(-8.0, 0.6, -2.0)):
        calls.clear()
        fitted = fit_divergence_coefficient(p)
        assert len(calls) == 1
        vols = np.array([volume_w_form(p, eps).value for eps in volume.DIVERGENCE_FIT_EPS])
        assert fitted == pytest.approx(volume.DIVERGENCE_ROW @ vols, rel=1e-13, abs=0)


def test_divergence_row_is_the_pseudoinverse_row():
    # DIVERGENCE_ROW is written out as a literal; LAPACK rebuilds it
    eps = np.array(volume.DIVERGENCE_FIT_EPS)
    basis = np.column_stack([eps**-2, np.log(eps), np.ones_like(eps), eps**2, eps**3])
    scale = np.abs(basis).max(axis=0)
    rebuilt = np.linalg.pinv(basis / scale)[0] / scale[0]
    assert np.abs(volume.DIVERGENCE_ROW - rebuilt).max() <= 1e-14 * np.abs(rebuilt).max()


def test_divergence_row_is_the_least_squares_coefficient():
    # reference: a per-call least-squares solve over the scaled basis
    eps = np.array(volume.DIVERGENCE_FIT_EPS)
    design = np.column_stack([eps**-2, np.log(eps), np.ones_like(eps), eps**2, eps**3])
    scale = np.abs(design).max(axis=0)
    rng = np.random.default_rng(7)
    for _ in range(20):
        truth = np.append(rng.uniform(0.1, 10.0), rng.normal(size=4))
        vols = design @ truth + rng.normal(scale=1e-3, size=eps.size)
        coef, *_ = np.linalg.lstsq(design / scale, vols, rcond=None)
        assert volume.DIVERGENCE_ROW @ vols == pytest.approx((coef / scale)[0], rel=1e-14)


# ---------- truncated closed form ----------

def test_series_finite_part_values():
    assert series_finite_part(0.0, -1.0, 1.0) == pytest.approx(-0.5, rel=1e-14)
    assert series_finite_part(-1.0, -1.0, 1.0) == pytest.approx(-1.0 / 3.0, rel=1e-14)


def test_series_divergent_part_value():
    assert series_divergent_part(-1.0, 1.0, 0.1) == pytest.approx(50.0, rel=1e-14)


def test_series_prefactor_form_equals_simplified_form():
    rng = np.random.default_rng(29)
    for _ in range(30):
        b1 = rng.uniform(-5.0, 5.0)
        bm2 = -rng.uniform(0.1, 5.0)
        rp = rng.uniform(0.3, 3.0)
        simplified = rp**3 * (-b1 / (6 * (-bm2) ** 1.5) - 1 / (2 * math.sqrt(-bm2)))
        assert series_finite_part(b1, bm2, rp) == pytest.approx(simplified, rel=1e-12)


def test_series_volume_combines_parts(make_bulk):
    p = make_bulk(lambda_eff=-5.0, rp=1.0, V0=-6.0)  # b1 = 0, b_minus2 = -1
    res = volume_series_z4(p, 0.1)
    assert res.value == pytest.approx(50.0 - 0.5, rel=1e-14)


def test_series_volume_constraints(make_bulk):
    with pytest.raises(ConstraintError):
        volume_series_z4(make_bulk(z=3.0), 0.1)
    with pytest.raises(ConstraintError):
        volume_series_z4(make_bulk(lambda_eff=0.0), 0.1)
    with pytest.raises(ConstraintError):
        series_finite_part(1.0, 0.0, 1.0)


# ---------- complexity and regularization ----------

def test_complexity_normalization(make_bulk):
    p = make_bulk()  # R = L = 1, G = 1
    assert complexity(8 * math.pi, p) == pytest.approx(1.0, rel=1e-14)
    assert complexity(50.0, p) == pytest.approx(50 / (8 * math.pi), rel=1e-14)


def test_complexity_of_series_volume(make_bulk):
    p = make_bulk(lambda_eff=-5.0, rp=1.0, V0=-6.0)
    f = complexity(volume_series_z4(p, 0.1).value, p)
    assert f == pytest.approx((50.0 - 0.5) / (8 * math.pi), rel=1e-14)


# ---------- background geometry ----------

def test_background_analytic_value_without_potential(make_bulk):
    # V0 = 0: B_bg = -cm r^2, so V = (r_inf^2 - r_min^2) / (2 sqrt(-cm)) with r_min = 0;
    # at V0 = -1e-300, r_min = 4e-151 and its acosh term is below 1e-296 relative
    for V0 in (0.0, -1e-300):
        p = make_bulk(lambda_eff=-5.0, V0=V0)
        cm = curvature_coefficient(p)
        r_inf = 30.0
        res = background_volume(p, r_inf)
        assert res.value == pytest.approx(r_inf**2 / (2 * math.sqrt(-cm)), rel=1e-10)


def _mpmath_background(cv, c, r_min, r_inf):
    """40-digit quadrature of r^2/sqrt(cv + c r^2) from r_min to r_inf at the
    float cv, c and r_inf, scaled so that the integrand is O(1) on [0, 1]
    (mpmath's quad stops on an absolute error estimate). For cv < 0 the
    background is written through the float r_min, B_bg = c (r - r_min)(r + r_min),
    and r = r_min + (r_inf - r_min) u^2 absorbs its zero."""
    with mpmath.workdps(40):
        c, big_r = mpmath.mpf(c), mpmath.mpf(r_inf)
        if cv < 0:
            span = big_r - r_min
            m, rest = r_min / big_r, span / big_r  # r / r_inf = m + rest u^2
            integral = mpmath.quad(lambda u: (m + rest * u * u) ** 2 / mpmath.sqrt(2 * m + rest * u * u),
                                   [0, min(mpmath.sqrt(m), 1), 1])
            return float(2 * mpmath.sqrt(span) * big_r**1.5 / mpmath.sqrt(c) * integral)
        b = cv + c * big_r**2
        z0, z1 = cv / b, c * big_r**2 / b  # B_bg(r_inf u) / B_bg(r_inf) = z0 + z1 u^2
        integral = mpmath.quad(lambda u: u * u / mpmath.sqrt(z0 + z1 * u * u),
                               [0, min(mpmath.sqrt(z0 / z1), 1), 1])
        return float(big_r**3 / mpmath.sqrt(b) * integral)


def test_background_volume_matches_mpmath(make_bulk):
    # the closed form over V0 down to the smallest subnormal, both signs, and
    # r_inf from r_min (1 + 1e-12) to 400 rp, with x = r sqrt(c/cv) on both
    # sides of the series threshold. Near r_min the volume's condition number
    # is about 1/d, d = r_inf/r_min - 1, so a reference at the exact cv would
    # measure the rounding of r_min: the reference takes the program's float
    # r_min instead. Values below the smallest normal float carry fewer than 53
    # bits and are skipped.
    rng = np.random.default_rng(7)
    small = 10.0 ** rng.uniform(-300.0, -1.0, 4)
    potentials = [0.0, 1e-300, -1e-300, 2.225e-309, -2.225e-309, 5e-324, -5e-324,
                  *small, *-small, 0.5, -0.5, 2.0, -6.0]
    for lambda_eff, rp, V0 in [(-5.0, 1.0, v) for v in potentials] + [(-1.3, 2.4, 1.7), (-8.0, 0.4, -0.3)]:
        p = make_bulk(lambda_eff=lambda_eff, rp=rp, V0=V0)
        cv, c = potential_coefficient(p), -curvature_coefficient(p)
        r_min = math.sqrt(-cv) / math.sqrt(c) if cv < 0 else 0.0
        r_vals = [rp, 50.0 * rp, 400.0 * rp]
        if cv > 0:
            knee = volume.BG_SERIES_X * math.sqrt(cv) / math.sqrt(c)
            r_vals += [0.1 * knee, knee * (1 - 1e-12), knee * (1 + 1e-12), 3.0 * knee]
        if cv < 0:
            r_vals += [r_min * (1 + 1e-12), r_min * (1 + 1e-6), 2.0 * r_min]
        for r_inf in r_vals:
            if r_inf < r_min:
                continue
            want = _mpmath_background(cv, c, r_min, r_inf)
            if want < sys.float_info.min:
                continue
            got = background_volume(p, r_inf)
            assert got.value == pytest.approx(want, rel=1e-14, abs=0.0)
            assert abs(got.value - want) <= got.error_estimate
    # V0 = -6 at lambda_eff = -5: B_bg = r^2 - 1, so V = (r sqrt(r^2 - 1) + acosh r) / 2
    p = make_bulk(lambda_eff=-5.0, V0=-6.0)
    exact = (50.0 * math.sqrt(2499.0) + math.acosh(50.0)) / 2
    assert background_volume(p, 50.0).value == pytest.approx(exact, rel=1e-14)


def test_background_volume_is_closed_form(make_bulk, monkeypatch):
    def no_quadrature(*args):
        raise AssertionError("quadrature called")

    monkeypatch.setattr(kernels, "nested_quadrature", no_quadrature)
    for V0 in (2.0, 0.0, -2.0):
        assert background_volume(make_bulk(lambda_eff=-5.0, V0=V0), 40.0).value > 0.0
    with pytest.raises(TypeError):
        background_volume(make_bulk(), 40.0, QuadratureSpec())


@pytest.mark.parametrize("r_inf", [math.nan, math.inf, -math.inf])
def test_background_rejects_non_finite_cutoff(make_bulk, r_inf):
    for V0 in (2.0, 0.0, -2.0):
        with pytest.raises(DomainError):
            background_volume(make_bulk(lambda_eff=-5.0, V0=V0), r_inf)


def test_background_degenerate_interval(make_bulk):
    p = make_bulk(lambda_eff=-5.0, V0=-6.0)
    assert background_volume(p, 1.0).value == 0.0
    with pytest.raises(DomainError):
        background_volume(p, 0.5)


def test_background_requires_negative_lambda_eff(make_bulk):
    with pytest.raises(NonPositiveBlackeningError):
        background_volume(make_bulk(lambda_eff=2.0), 10.0)
    with pytest.raises(NonPositiveBlackeningError):
        subtracted_susceptibility(make_bulk(lambda_eff=2.0, V0=-1.0))


def test_divergence_coefficient_shared_with_background(make_bulk):
    # fit A r_inf^2 + B log(r_inf) + C + D/r_inf to both pipelines
    p = make_bulk(lambda_eff=-5.0, rp=1.3, V0=2.0)
    r_vals = np.array([40.0, 60.0, 90.0, 135.0, 200.0, 300.0])

    def fit_quadratic_coeff(values):
        design = np.column_stack(
            [r_vals**2, np.log(r_vals), np.ones_like(r_vals), 1.0 / r_vals]
        )
        scale = np.abs(design).max(axis=0)
        coef, *_ = np.linalg.lstsq(design / scale, values, rcond=None)
        return (coef / scale)[0]

    a_def = fit_quadratic_coeff(np.array([volume_exact(p, r).value for r in r_vals]))
    a_bg = fit_quadratic_coeff(np.array([background_volume(p, r).value for r in r_vals]))
    cm = curvature_coefficient(p)
    assert a_def == pytest.approx(a_bg, rel=1e-6)
    assert a_def == pytest.approx(1.0 / (2 * math.sqrt(-cm)), rel=1e-6)


def test_subtracted_complexity_is_cauchy(make_bulk):
    # V0 = 0.5 and 2 and r_min > rp (V0 = -9) are where eight radial
    # quadratures of volumes up to 9e4 left the differences non-monotone
    for p in (make_bulk(-5.0, 1.0, 0.0), make_bulk(-5.0, 1.3, -2.1), make_bulk(-4.0, 1.0, 0.5),
              make_bulk(-4.0, 1.0, 2.0), make_bulk(-5.0, 1.0, -9.0)):
        sweep = subtracted_susceptibility(p)
        mags = [abs(d) for d in sweep.differences]
        assert all(mags[i + 1] < mags[i] for i in range(len(mags) - 1))
        assert mags[-1] < 1e-4 * abs(sweep.values[-1])


def test_subtraction_reference_residual_is_quantified_not_zero(make_bulk):
    # at b1 = 0 the deformed and background geometries coincide, so the
    # subtracted limit is exactly zero while the truncated-series finite
    # part stays at -rp^3/(2 sqrt(-b_minus2)); the sweep reports the gap
    p = make_bulk(lambda_eff=-5.0, rp=1.0, V0=-6.0)
    sweep = subtracted_susceptibility(p)
    assert sweep.limit == pytest.approx(0.0, abs=1e-12)
    expected_ref = -0.5 / (8 * math.pi)
    assert sweep.series_reference == pytest.approx(expected_ref, rel=1e-12)
    assert sweep.reference_residual == pytest.approx(-expected_ref, rel=1e-10)


def _mpmath_subtracted(p):
    """F(r_inf) - F_bg(r_inf) at the sweep's cutoffs and at r_inf = infinity,
    by 40-digit quadrature of the radial integrands themselves."""
    with mpmath.workdps(40):
        cv, cm = mpmath.mpf(potential_coefficient(p)), mpmath.mpf(curvature_coefficient(p))
        rp, zexp = mpmath.mpf(p.rp), 1 + mpmath.mpf(p.z) / 2

        def inv_sqrt_b(r):  # abs: B vanishes at an endpoint, up to rounding
            return 1 / mpmath.sqrt(abs(cv + (cm * rp**2 - cv) * (rp / r) ** zexp - cm * r * r))

        def inv_sqrt_bg(r):
            return 1 / mpmath.sqrt(abs(cv - cm * r * r))

        r_min = mpmath.sqrt(cv / cm) if cv < 0 else mpmath.mpf(0)
        if r_min <= rp:
            total = -mpmath.quad(lambda r: r * r * inv_sqrt_bg(r), [r_min, rp])
        else:
            total = mpmath.quad(lambda r: r * r * inv_sqrt_b(r), [rp, r_min])
        edges = [max(rp, r_min)] + [f * rp for f in volume.SUBTRACTION_FACTORS] + [mpmath.inf]
        values = []
        for lo, hi in zip(edges, edges[1:]):
            total += mpmath.quad(lambda r: r * r * (inv_sqrt_b(r) - inv_sqrt_bg(r)), [lo, hi])
            values.append(float(total / (8 * mpmath.pi * p.R * p.G)))
    return values


SUBTRACTION_CASES = [  # lambda_eff, rp, V0, z, L
    (-4.0, 1.0, 0.0, 4.0, 1.0), (-4.0, 1.0, -0.5, 4.0, 1.0), (-4.0, 1.0, 0.5, 4.0, 1.0),
    (-4.0, 1.0, 2.0, 4.0, 1.0), (-5.0, 1.0, 0.0, 4.0, 1.0), (-5.0, 1.3, -2.1, 4.0, 1.0),
    (-5.0, 1.0, -9.0, 4.0, 1.0),  # the background's own zero r_min = sqrt(cv/cm) lies above rp
    (-4.0, 1.0, 0.0, 1.0, 1.0), (-4.0, 1.0, 1.0, 2.5, 1.0), (-4.0, 1.0, -1.0, 7.0, 1.0),
    (-4.0, 2.0, -2.0, 1.0, 1.0),
    # 0 < V0 << 1: the background integrand turns over at r ~ sqrt(-cv/cm), below
    # r_inf, and at V0 = 4.2e-8 its volume up to rp is the whole below-r0 term
    (-8.51, 1.72, 3.47e-5, 4.0, 1.09), (-1.0, 1.0, 0.0039, 4.0, 1.0), (-5.0, 1.0, 4.2e-8, 4.0, 1.0),
]


@pytest.mark.parametrize("lambda_eff,rp,V0,z,L", SUBTRACTION_CASES,  # the ids omit L = 1
                         ids=["-".join(map(str, c if c[4] != 1.0 else c[:4])) for c in SUBTRACTION_CASES])
def test_subtraction_matches_mpmath(make_bulk, lambda_eff, rp, V0, z, L):
    p = make_bulk(lambda_eff, rp, V0, z=z, L=L)
    sweep = subtracted_susceptibility(p)
    for got, want in zip(sweep.values + (sweep.limit,), _mpmath_subtracted(p)):
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)


def test_subtraction_limit_beta_function_at_zero_potential():
    # V0 = 0: B = -cm r^2 (1 - (rp/r)^5) at z = 4, and the subtracted volume
    # is rp^2 B(-2/5, 1/2) / (5 sqrt(-cm)) = rp^3 B(-2/5, 1/2) / (5 sqrt(-b_minus2))
    p = BulkParams()
    beta = math.gamma(-0.4) * math.gamma(0.5) / math.gamma(0.1)
    volume_limit = p.rp**3 * beta / (5 * math.sqrt(-series_coeffs_z4(p).b_minus2))
    assert subtracted_susceptibility(p).limit == pytest.approx(complexity(volume_limit, p), rel=1e-13)


@settings(max_examples=200, deadline=None)
@given(lam=st.floats(0.5, 10.0), rp=st.floats(0.3, 3.0), V0=st.floats(-3.0, 3.0),
       L=st.floats(0.5, 2.0))
@example(lam=6.5, rp=0.359375, V0=-1.5, L=1.0)
@example(lam=0.5, rp=1.451171875, V0=-2.04296875, L=1.0)
@example(lam=1.0, rp=1.0, V0=2.225073858507203e-309, L=1.0)
@example(lam=1.0, rp=1.0, V0=-2.225073858507203e-309, L=1.0)
def test_subtraction_matches_difference_of_volumes(lam, rp, V0, L):
    # the reference is the difference of the two divergent volumes at each
    # cutoff: a radial quadrature on 16x the default panels minus the
    # background's closed form, exact to rounding. The bound is 4x the sum of
    # their estimates, each of which bounds its own error, also near a
    # degenerate horizon (the first two examples; see
    # test_volume_exact_estimate_bounds_its_error)
    p = _bulk(lambda_eff=-lam, rp=rp, V0=V0, L=L)
    assume(blackening_derivative(p.rp, p) > 0.1 * (-curvature_coefficient(p)) * p.rp)
    sweep = subtracted_susceptibility(p)
    for r_inf, value in zip(sweep.cutoffs, sweep.values):
        v = volume_exact(p, r_inf, QuadratureSpec(panels=1024))
        bg = background_volume(p, r_inf)
        bound = 4 * complexity(v.error_estimate + bg.error_estimate, p)
        assert abs(value - complexity(v.value - bg.value, p)) <= bound


def test_volume_positivity(make_bulk):
    rng = np.random.default_rng(31)
    for _ in range(10):
        p = random_bulk(rng, make_bulk)
        v = volume_exact(p, 10.0 * p.rp)
        assert v.value > 0
        assert complexity(v.value, p) > 0


# ---------- closed-form holographic susceptibility ----------

def test_xi_f_holo_spot_value():
    from lifshitz_fidelity import BulkParams

    p = BulkParams(rp=1.0, xi=-1.0, L=1.0, G=1.0, Qt=1.0)
    assert xi_f_holo_z4(p) == pytest.approx(math.sqrt(5) / (48 * math.pi), rel=1e-12)
    p2 = BulkParams(rp=2.0, xi=-1.0, L=1.0, G=1.0, Qt=1.0)
    assert xi_f_holo_z4(p2) == pytest.approx(4 * math.sqrt(5) / (48 * math.pi), rel=1e-12)


def test_xi_f_holo_large_charge_decay():
    from lifshitz_fidelity import BulkParams

    # leading behavior -2 sqrt(5) rp^2 / (48 pi G L sqrt(-xi) Qt^2)
    tail = xi_f_holo_z4(BulkParams(Qt=1000.0, xi=-1.0)) * 1000.0**2
    assert tail == pytest.approx(-2 * math.sqrt(5) / (48 * math.pi), rel=1e-2)


def test_xi_f_holo_domain_errors():
    from lifshitz_fidelity import BulkParams

    with pytest.raises(DomainError):
        xi_f_holo_z4(BulkParams(xi=1.0))
    with pytest.raises(ConstraintError):
        xi_f_holo_z4(BulkParams(xi=-1.0, z=3.0))


# ---------- result validation ----------

def test_volume_result_validation():
    from lifshitz_fidelity import ConvergenceError, VolumeResult

    with pytest.raises(ConvergenceError):
        VolumeResult(float("nan"), 0.0)
    with pytest.raises(DomainError):
        VolumeResult(1.0, -1.0)


def test_quadrature_spec_panel_scaling_consistency(make_bulk):
    # same integral at two panel counts agrees within the error estimates
    p = make_bulk(lambda_eff=-5.0, rp=1.0, V0=0.0)
    coarse = volume_exact(p, 20.0, QuadratureSpec(panels=256))
    fine = volume_exact(p, 20.0, QuadratureSpec(panels=2048))
    assert abs(coarse.value - fine.value) <= max(
        10 * (coarse.error_estimate + fine.error_estimate), 1e-12 * abs(fine.value)
    )
