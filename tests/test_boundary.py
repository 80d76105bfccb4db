import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from lifshitz_fidelity import (
    BosonGasParams,
    ConvergenceError,
    DomainError,
    FitError,
    GridCoverageError,
    QuadratureSpec,
    fidelity,
    gaussian_overlap,
    ground_state,
    ground_state_wavefunction,
    oscillator_spectrum_oracle,
    overlap_quadrature,
    xi_f_analytic,
    xi_f_from_fit,
)


# ---------- ground state ----------

@pytest.mark.parametrize("kw,expected", [
    (dict(q=1, m=1, H=1, beta=0, k=0), (1.0, 0.0, 0.5, 1.0)),
    (dict(q=1, m=1, H=1, beta=1, k=0), (1.0, 1.0, 0.5, 1.0)),
    (dict(q=2, m=0.5, H=3, beta=1, k=1), (6.0, 1.0 / 6.0, 7.0, 12.0)),
])
def test_ground_state_closed_form(kw, expected):
    gs = ground_state(BosonGasParams(**kw))
    np.testing.assert_allclose(
        (gs.width, gs.center, gs.energy, gs.frequency), expected, rtol=1e-14
    )


def test_ground_state_normalized_over_random_params():
    rng = np.random.default_rng(7)
    for _ in range(25):
        p = BosonGasParams(q=rng.uniform(0.1, 10), H=rng.uniform(0.1, 10),
                           beta=rng.uniform(-5, 5))
        gs = ground_state(p)
        sigma = gs.width**-0.5
        x = np.linspace(gs.center - 10 * sigma, gs.center + 10 * sigma, 4097)
        norm = np.trapezoid(ground_state_wavefunction(gs, x) ** 2, x)
        assert abs(norm - 1.0) < 1e-10


# ---------- finite-difference eigenvalue oracle ----------

@pytest.mark.parametrize("kw,expected,tol", [
    (dict(q=1, m=1, H=1, beta=0, k=0), 0.5, 1e-6),
    (dict(q=1, m=1, H=1, beta=2, k=0), 0.5, 1e-6),  # beta shift cancels
    (dict(q=1, m=1, H=4, beta=0, k=0), 2.0, 1e-5),
])
def test_eigen_oracle_matches_analytic_energy(kw, expected, tol):
    assert abs(oscillator_spectrum_oracle(BosonGasParams(**kw)) - expected) < tol


def test_eigen_oracle_independent_of_beta():
    vals = [oscillator_spectrum_oracle(BosonGasParams(q=1.3, m=0.8, H=2.1, beta=b))
            for b in (0.0, 1.0, 2.0)]
    assert max(vals) - min(vals) < 1e-8 * vals[0]


def test_eigen_oracle_grid_preconditions():
    p = BosonGasParams()
    with pytest.raises(DomainError):
        oscillator_spectrum_oracle(p, QuadratureSpec(halfwidth=6.0))
    with pytest.raises(DomainError):
        oscillator_spectrum_oracle(p, QuadratureSpec(panels=512))
    with pytest.raises(DomainError):
        oscillator_spectrum_oracle(p, QuadratureSpec(levels=1))


def test_eigen_oracle_convergence_error_on_impossible_tolerance():
    with pytest.raises(ConvergenceError):
        oscillator_spectrum_oracle(BosonGasParams(), QuadratureSpec(tolerance=1e-15))


# ---------- Gaussian overlaps ----------

def test_gaussian_overlap_frozen_values():
    # oracle: adaptive quadrature of the two normalized Gaussians
    assert gaussian_overlap(1, 0, 1, 0) == pytest.approx(1.0, abs=1e-15)
    assert gaussian_overlap(1, 0, 1, 1) == pytest.approx(math.exp(-0.25), rel=1e-14)
    assert gaussian_overlap(4, 0, 1, 0) == pytest.approx(2 / math.sqrt(5), rel=1e-14)


@pytest.mark.parametrize("a,xa,b,xb", [(1, 0, 1, 1), (4, 0, 1, 0), (0.3, -2, 5, 1)])
def test_gaussian_overlap_against_adaptive_quadrature(a, xa, b, xb):
    def integrand(x):
        return ((a / np.pi) ** 0.25 * np.exp(-a * (x - xa) ** 2 / 2)
                * (b / np.pi) ** 0.25 * np.exp(-b * (x - xb) ** 2 / 2))

    width = max(a, b) ** -0.5
    lo, hi = min(xa, xb) - 20 * width, max(xa, xb) + 20 * width
    oracle, _ = quad(integrand, lo, hi, limit=200)
    assert gaussian_overlap(a, xa, b, xb) == pytest.approx(oracle, rel=1e-11)


def test_gaussian_overlap_symmetry_and_range():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a, b = rng.uniform(0.05, 20, size=2)
        xa, xb = rng.uniform(-5, 5, size=2)
        v = gaussian_overlap(a, xa, b, xb)
        assert v == pytest.approx(gaussian_overlap(b, xb, a, xa), rel=1e-14)
        assert 0 < v <= 1.0 + 1e-15


def test_gaussian_overlap_rejects_nonpositive_widths():
    with pytest.raises(DomainError):
        gaussian_overlap(-1.0, 0, 1.0, 0)
    with pytest.raises(DomainError):
        gaussian_overlap(1.0, 0, 0.0, 0)


# ---------- overlap quadrature ----------

def test_overlap_quadrature_identity_perturbation():
    assert overlap_quadrature(BosonGasParams(), 0.0) == pytest.approx(1.0, abs=1e-12)


def test_overlap_quadrature_frozen_value():
    v = overlap_quadrature(BosonGasParams(), 1.0)
    assert v == pytest.approx(2**0.25 * math.sqrt(2 / 3), rel=1e-12)
    assert v == pytest.approx(0.9709835434146468, rel=1e-12)


def test_overlap_quadrature_matches_closed_form_with_beta():
    p = BosonGasParams(beta=1.0)
    v = overlap_quadrature(p, 0.5)
    closed = gaussian_overlap(1.0, 1.0, 1.5, 2.0 / 3.0)
    assert v == pytest.approx(closed, rel=1e-10)
    assert v == pytest.approx(0.9573953758269285, rel=1e-10)  # adaptive-quadrature oracle


def test_overlap_quadrature_equals_closed_form_randomized():
    rng = np.random.default_rng(23)
    for _ in range(100):
        q = rng.uniform(0.1, 10)
        H = rng.uniform(0.1, 10)
        beta = rng.uniform(-5, 5)
        dH = rng.uniform(-0.5, 0.5) * H
        p = BosonGasParams(q=q, H=H, beta=beta)
        a, b = q * H, q * (H + dH)
        closed = gaussian_overlap(a, beta / a, b, beta / b)
        assert abs(overlap_quadrature(p, dH) - closed) <= 1e-10 * closed


def test_overlap_quadrature_rejects_dH_below_minus_H():
    with pytest.raises(DomainError):
        overlap_quadrature(BosonGasParams(), -1.0)


def test_overlap_quadrature_detects_truncated_tails():
    with pytest.raises(GridCoverageError):
        overlap_quadrature(BosonGasParams(), 0.5, QuadratureSpec(halfwidth=2.0))


# ---------- fidelity ----------

def test_fidelity_trivial_and_squared_values():
    assert fidelity(BosonGasParams(N=5), 0.0) == pytest.approx(1.0, abs=1e-12)
    # square of the single-particle overlap: 2 sqrt(2) / 3
    assert fidelity(BosonGasParams(N=2), 1.0) == pytest.approx(2 * math.sqrt(2) / 3, rel=1e-12)


def test_fidelity_small_perturbation_series():
    # F = 1 - dH^2/16 + O(dH^3) at q = H = 1, beta = 0
    dH = 1e-3
    f = fidelity(BosonGasParams(), dH)
    assert abs(f - (1 - dH**2 / 16)) < 1e-10


def test_fidelity_decreases_away_from_zero():
    p = BosonGasParams(N=3)
    assert fidelity(p, 0.0) > fidelity(p, 1e-2) > fidelity(p, 2e-2)
    assert fidelity(p, 0.0) > fidelity(p, -1e-2) > fidelity(p, -2e-2)


# ---------- susceptibility fits ----------

def test_fit_reproduces_closed_form_coefficients():
    fit = xi_f_from_fit(BosonGasParams())
    assert abs(fit.c_sq - 0.125) < 1e-6
    assert abs(fit.c_amp - 0.0625) < 1e-6


def test_fit_scales_linearly_with_particle_number():
    fit8 = xi_f_from_fit(BosonGasParams(N=8))
    assert abs(fit8.c_sq - 1.0) < 1e-5
    fit1 = xi_f_from_fit(BosonGasParams(N=1))
    assert abs(fit8.c_sq - 8 * fit1.c_sq) < 1e-8 * fit8.c_sq


def test_fit_convention_bridge():
    for kw in (dict(), dict(q=0.5, H=2.0, beta=1.0), dict(q=2.0, H=0.5, beta=-1.5)):
        p = BosonGasParams(**kw)
        fit = xi_f_from_fit(p)
        assert abs(fit.c_sq - 2 * fit.c_amp) <= 1e-6 * fit.c_sq
        exact = xi_f_analytic(p)
        assert abs(fit.c_sq - exact) <= 1e-5 * exact


def test_fit_independent_of_longitudinal_momentum():
    vals = [xi_f_from_fit(BosonGasParams(beta=0.7, k=k)).c_sq for k in (0.0, 1.0, 10.0)]
    assert max(vals) - min(vals) <= 1e-10 * vals[0]


@pytest.mark.parametrize("H", [0.5, 1.0, 3.0])
def test_fit_on_fine_grid_matches_closed_form(H):
    # 2*65536*2 + 1 points: the Simpson step must come from the whole span,
    # since a neighbour difference carries eps*|x[0]| roundoff, large next to h
    p = BosonGasParams(q=1.3, H=H, beta=0.4)
    fit = xi_f_from_fit(p, grid=QuadratureSpec(panels=65536))
    assert fit.c_sq == pytest.approx(xi_f_analytic(p), rel=1e-8)


def test_fit_sample_preconditions():
    p = BosonGasParams()
    with pytest.raises(DomainError):
        xi_f_from_fit(p, dH_samples=(1e-3, 2e-3, 3e-3))
    with pytest.raises(DomainError):
        xi_f_from_fit(p, dH_samples=(1e-3, 2e-3, 3e-3, 5e-2))


@pytest.mark.parametrize("H", [1e-300, 1e307])
def test_fit_out_of_float_range_raises_before_numpy_warns(H, capfd):
    # dH is proportional to H, so the dH^2..dH^4 design columns underflow to 0
    # (1e-300) or overflow (1e307); NaN input would make LAPACK print to stdout
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FitError):
            xi_f_from_fit(BosonGasParams(H=H))
    assert capfd.readouterr().out == ""


# ---------- closed-form susceptibility ----------

@pytest.mark.parametrize("kw,expected", [
    (dict(N=1, q=1, H=1, beta=0), 0.125),
    (dict(N=1, q=1, H=1, beta=0.5), 0.25),
    (dict(N=3, q=2, H=2, beta=0), 0.09375),
])
def test_xi_f_analytic_values(kw, expected):
    assert xi_f_analytic(BosonGasParams(**kw)) == expected


def test_package_import_leaves_scipy_unloaded():
    # only the eigen oracle needs scipy; it imports it on first call
    code = "import sys, lifshitz_fidelity; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"
