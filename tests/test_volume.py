import math

import numpy as np
import pytest
from scipy.integrate import quad

from lifshitz_fidelity import (
    ComplexityValue,
    ConstraintError,
    CutoffMismatchError,
    DomainError,
    ImaginaryIntegrandError,
    NonPositiveBlackeningError,
    QuadratureSpec,
    background_volume,
    complexity,
    fit_divergence_coefficient,
    regularize,
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
    series_coeffs_z4,
)


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


def test_change_of_variables_identity(make_bulk):
    rng = np.random.default_rng(17)
    for _ in range(10):
        p = random_bulk(rng, make_bulk)
        r_inf = p.rp * rng.uniform(5.0, 50.0)
        v_r = volume_exact(p, r_inf)
        v_w = volume_w_form(p, p.rp / r_inf, "full-B")
        assert abs(v_r.value - v_w.value) <= 1e-8 * abs(v_r.value)


def test_w_form_analytic_value_at_b1_zero(make_bulk):
    # V0 = -6 makes b1 = 0, so the truncated integrand is 1/w^3 and
    # rp^3 int_0.1^1 w^-3 dw = 49.5
    p = make_bulk(lambda_eff=-5.0, rp=1.0, V0=-6.0)
    c = series_coeffs_z4(p)
    assert c.b1 == pytest.approx(0.0, abs=1e-15)
    res = volume_w_form(p, 0.1, "truncated")
    assert res.value == pytest.approx(49.5, rel=1e-10)


def test_w_form_validation(make_bulk):
    p = make_bulk()
    with pytest.raises(DomainError):
        volume_w_form(p, 0.0, "full-B")
    with pytest.raises(DomainError):
        volume_w_form(p, 1.5, "full-B")
    with pytest.raises(DomainError):
        volume_w_form(p, 0.1, "series")


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
    assert res.mode == "series"
    assert res.divergent_coeff == pytest.approx(0.5, rel=1e-14)


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
    assert complexity(8 * math.pi, p).value == pytest.approx(1.0, rel=1e-14)
    assert complexity(50.0, p).value == pytest.approx(50 / (8 * math.pi), rel=1e-14)


def test_complexity_of_series_volume(make_bulk):
    p = make_bulk(lambda_eff=-5.0, rp=1.0, V0=-6.0)
    f = complexity(volume_series_z4(p, 0.1), p)
    assert f.value == pytest.approx((50.0 - 0.5) / (8 * math.pi), rel=1e-14)
    assert f.cutoff == 0.1


def test_regularize_cancellation():
    a = ComplexityValue(50.0 - 1.0 / 3.0, cutoff=0.1, mode="full-B")
    b = ComplexityValue(50.0, cutoff=0.1, mode="background")
    assert regularize(a, b) == pytest.approx(-1.0 / 3.0, rel=1e-14)
    assert regularize(a, a) == 0.0


def test_regularize_rejects_mismatched_cutoffs():
    a = ComplexityValue(1.0, cutoff=100.0, mode="full-B")
    b = ComplexityValue(1.0, cutoff=200.0, mode="background")
    with pytest.raises(CutoffMismatchError):
        regularize(a, b)
    with pytest.raises(CutoffMismatchError):
        regularize(a, ComplexityValue(1.0, cutoff=None, mode=None))


# ---------- background geometry ----------

def test_background_analytic_value_without_potential(make_bulk):
    # V0 = 0: B_bg = -cm r^2, so V = (r_inf^2 - r_min^2) / (2 sqrt(-cm)) with r_min = 0
    p = make_bulk(lambda_eff=-5.0, V0=0.0)
    cm = curvature_coefficient(p)
    r_inf = 30.0
    res = background_volume(p, r_inf)
    assert res.value == pytest.approx(r_inf**2 / (2 * math.sqrt(-cm)), rel=1e-10)


def test_background_starts_at_its_own_zero_for_negative_potential(make_bulk):
    p = make_bulk(lambda_eff=-5.0, V0=-6.0)  # B_bg(0) = -1 < 0, zero at r = 1
    res = background_volume(p, 50.0)
    oracle, _ = quad(lambda r: r * r / math.sqrt(r * r - 1.0), 1.0, 50.0, points=[1.0], limit=400)
    assert res.value == pytest.approx(oracle, rel=1e-8)


def test_background_degenerate_interval(make_bulk):
    p = make_bulk(lambda_eff=-5.0, V0=-6.0)
    assert background_volume(p, 1.0).value == 0.0
    with pytest.raises(DomainError):
        background_volume(p, 0.5)


def test_background_requires_negative_lambda_eff(make_bulk):
    with pytest.raises(NonPositiveBlackeningError):
        background_volume(make_bulk(lambda_eff=2.0), 10.0)


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
    for p in (make_bulk(-5.0, 1.0, 0.0), make_bulk(-5.0, 1.3, -2.1)):
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


def test_volume_positivity(make_bulk):
    rng = np.random.default_rng(31)
    for _ in range(10):
        p = random_bulk(rng, make_bulk)
        v = volume_exact(p, 10.0 * p.rp)
        assert v.value > 0
        assert complexity(v, p).value > 0


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
        VolumeResult(float("nan"), 0.1, "series", 0.5, 0.0)
    with pytest.raises(DomainError):
        VolumeResult(1.0, 0.1, "series", 0.5, -1.0)


def test_quadrature_spec_panel_scaling_consistency(make_bulk):
    # same integral at two panel counts agrees within the error estimates
    p = make_bulk(lambda_eff=-5.0, rp=1.0, V0=0.0)
    coarse = volume_exact(p, 20.0, QuadratureSpec(panels=256))
    fine = volume_exact(p, 20.0, QuadratureSpec(panels=2048))
    assert abs(coarse.value - fine.value) <= max(
        10 * (coarse.error_estimate + fine.error_estimate), 1e-12 * abs(fine.value)
    )
