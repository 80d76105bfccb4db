import itertools
import math
import re
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from lifshitz_fidelity import (
    BosonGasParams,
    DomainError,
    FitError,
    GridCoverageError,
    LifshitzFidelityError,
    QuadratureSpec,
    boundary,
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


# ---------- sinc-DVR eigenvalue oracle ----------

def _energy_bound(p):
    # the oracle's roundoff grows with the beta^2 shift that it cancels
    return 1e-13 * (p.q * p.H + p.k**2 + p.beta**2) / (2 * p.m)


@pytest.mark.parametrize("kw,expected", [
    (dict(q=1, m=1, H=1, beta=0, k=0), 0.5),
    (dict(q=1, m=1, H=1, beta=2, k=0), 0.5),  # beta shift cancels
    (dict(q=1, m=1, H=4, beta=0, k=0), 2.0),
])
def test_eigen_oracle_matches_analytic_energy(kw, expected):
    p = BosonGasParams(**kw)
    assert abs(oscillator_spectrum_oracle(p) - expected) <= _energy_bound(p)


def test_eigen_oracle_independent_of_beta():
    vals = [oscillator_spectrum_oracle(BosonGasParams(q=1.3, m=0.8, H=2.1, beta=b))
            for b in (0.0, 1.0, 2.0)]
    assert max(vals) - min(vals) < 1e-12 * vals[0]


def test_eigen_oracle_error_bound_over_documented_domain():
    # q, H log-uniform in [1e-2, 1e2], m log-uniform in [0.1, 10], |beta| <= 5,
    # |k| <= 2: 200 seeded draws and every corner (with beta = 0 and k = 0)
    rng = np.random.default_rng(6)
    points = [dict(q=10 ** rng.uniform(-2, 2), H=10 ** rng.uniform(-2, 2),
                   m=10 ** rng.uniform(-1, 1), beta=rng.uniform(-5, 5), k=rng.uniform(-2, 2))
              for _ in range(200)]
    points += [dict(q=q, H=H, m=m, beta=beta, k=k) for q, H, m, beta, k in itertools.product(
        (1e-2, 1e2), (1e-2, 1e2), (0.1, 10.0), (-5.0, 0.0, 5.0), (-2.0, 0.0, 2.0))]
    worst, where = 0.0, None
    for kw in points:
        p = BosonGasParams(**kw)
        exact = (p.q * p.H + p.k**2) / (2 * p.m)
        ratio = abs(oscillator_spectrum_oracle(p) - exact) / _energy_bound(p)
        if ratio > worst:
            worst, where = ratio, p
    assert worst <= 1.0, f"error {worst:.2f} times the bound at {where}"


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


def test_overlap_grid_rows_are_c_ordered_linspace_rows():
    # row sums of a strided grid (np.linspace with array endpoints) skip
    # numpy's pairwise summation, so each row must be a contiguous linspace
    p = BosonGasParams(q=1.3, H=0.7, beta=0.4)
    _, _, _, _, grid_x = boundary._overlap_pairs(p, np.linspace(-7e-3, 7e-3, 8), 10.0)
    for n in (257, 262145):
        x = grid_x(n)
        assert x.shape == (8, n) and x.flags.c_contiguous
        for row in x:
            want = np.linspace(row[0], row[-1], n)
            assert np.array_equal(row.view(np.int64), want.view(np.int64))


def test_overlap_deficit_matches_mpmath():
    # 1 - f from the closed form at 30 digits, for the float widths the
    # quadrature integrates; |dH|/H is log-uniform in [1e-5, 1e-2]
    mpmath.mp.dps = 30
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(60):
        q, H = rng.uniform(0.1, 10.0, 2)
        beta_max = min(5.0, math.sqrt(100.0 * q * H / 4.0))
        p = BosonGasParams(q=q, H=H, beta=rng.uniform(-beta_max, beta_max))
        dH = rng.choice([-1.0, 1.0], 4) * 10.0 ** rng.uniform(-5.0, -2.0, 4) * H
        u = boundary._overlap_deficits(p, dH)
        for ui, dHi in zip(u, dH):
            a, b = mpmath.mpf(q * H), mpmath.mpf(q * (H + dHi))
            xa, xb = mpmath.mpf(p.beta) / a, mpmath.mpf(p.beta) / b
            f = (a * b) ** 0.25 * mpmath.sqrt(2 / (a + b)) * mpmath.exp(
                -a * b * (xa - xb) ** 2 / (2 * (a + b)))
            worst = max(worst, float(abs(ui - (1 - f)) / (1 - f)))
    assert worst <= 1e-12


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


def test_fit_scales_linearly_with_particle_number():
    fit8 = xi_f_from_fit(BosonGasParams(N=8))
    assert abs(fit8.c_sq - 1.0) < 1e-5
    fit1 = xi_f_from_fit(BosonGasParams(N=1))
    assert abs(fit8.c_sq - 8 * fit1.c_sq) < 1e-8 * fit8.c_sq


def test_fit_matches_closed_form():
    for kw in (dict(), dict(q=0.5, H=2.0, beta=1.0), dict(q=2.0, H=0.5, beta=-1.5)):
        p = BosonGasParams(**kw)
        exact = xi_f_analytic(p)
        assert abs(xi_f_from_fit(p).c_sq - exact) <= 1e-12 * exact


@pytest.mark.parametrize("kw", [
    dict(N=1000, beta=2.0),
    dict(N=300, q=0.3, H=0.5, beta=1.0),
    dict(N=1000, q=1e-3, H=1e3, beta=-5.0),
])
def test_fit_is_exact_in_particle_number(kw):
    # N is an exact factor of c_sq: the many-body fit is N times the N = 1 fit
    fit = xi_f_from_fit(BosonGasParams(**kw))
    one = xi_f_from_fit(BosonGasParams(**dict(kw, N=1)))
    assert fit.c_sq == kw["N"] * one.c_sq
    assert fit.residual == one.residual


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


@pytest.mark.parametrize("halfwidth", [20.0, 100.0, 400.0, 500.0])
def test_fit_on_wide_grid_matches_closed_form(halfwidth):
    # the deficit, about 1e-7, meets the tolerance relative to itself; past
    # about 420 sigma the kernel's expm1(...)^2 overflows on the far tail
    p = BosonGasParams()
    fit = xi_f_from_fit(p, grid=QuadratureSpec(halfwidth=halfwidth))
    assert abs(fit.c_sq - xi_f_analytic(p)) <= 1e-12 * xi_f_analytic(p)


def _lstsq_fit(p):
    # reference: the fit as a per-call least-squares solve on its own scaled design
    d = np.array([s * p.H for s in (-4e-3, -3e-3, -2e-3, -1e-3, 1e-3, 2e-3, 3e-3, 4e-3)])
    log_f = np.log1p(-boundary._overlap_deficits(p, d))
    span = np.abs(d).max()
    coef, *_ = np.linalg.lstsq((d / span)[:, None] ** np.arange(2, 7), log_f, rcond=None)
    return 2 * p.N * (-coef[0] / span**2)


@settings(max_examples=200, deadline=None)
@given(log_q=st.floats(-4.0, 4.0), log_H=st.floats(-4.0, 4.0), N=st.integers(1, 1000),
       beta=st.floats(-5.0, 5.0))
def test_fit_operator_matches_least_squares(log_q, log_H, N, beta):
    # on the wide domain of the test below, the fixed operator FIT_SOLVE gives
    # the per-call least-squares coefficient, and fails only where it does
    p = BosonGasParams(N=N, q=10.0**log_q, H=10.0**log_H, beta=beta)
    try:
        fit = xi_f_from_fit(p)
    except LifshitzFidelityError:
        with pytest.raises(LifshitzFidelityError):
            _lstsq_fit(p)
        return
    assert fit.c_sq == pytest.approx(_lstsq_fit(p), rel=1e-14)


@pytest.mark.parametrize("H", [1e-300, 1e307])
def test_fit_out_of_float_range_raises_before_numpy_warns(H, capfd):
    # dH is proportional to H, so max|dH|^2 underflows to 0 (1e-300) or
    # overflows (1e307) and the dH^2 coefficient is not a finite positive float
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FitError):
            xi_f_from_fit(BosonGasParams(H=H))
    assert capfd.readouterr().out == ""


def test_fit_failures_on_the_wide_domain_are_named():
    # 300 draws: q and H log-uniform in [1e-4, 1e4], N in [1, 1000], beta in
    # [-5, 5]. Fits far outside the perturbative regime, where the per-particle
    # deficit exceeds 1/2 (24 draws, all with 4 beta^2/(qH) > 8e5), fail, but
    # only with a named error and without a numpy warning
    rng = np.random.default_rng(0)
    failures, worst = 0, 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(300):
            q, H = 10.0 ** rng.uniform(-4.0, 4.0, 2)
            N = int(round(10.0 ** rng.uniform(0.0, 3.0)))
            p = BosonGasParams(N=N, q=q, H=H, beta=rng.uniform(-5.0, 5.0))
            try:
                fit = xi_f_from_fit(p)
            except LifshitzFidelityError:
                failures += 1
                continue
            exact = xi_f_analytic(p)
            worst = max(worst, abs(fit.c_sq - exact) / exact)
    assert failures <= 24
    assert worst <= 1e-12


# ---------- closed-form susceptibility ----------

@pytest.mark.parametrize("kw,expected", [
    (dict(N=1, q=1, H=1, beta=0), 0.125),
    (dict(N=1, q=1, H=1, beta=0.5), 0.25),
    (dict(N=3, q=2, H=2, beta=0), 0.09375),
])
def test_xi_f_analytic_values(kw, expected):
    assert xi_f_analytic(BosonGasParams(**kw)) == expected


@pytest.mark.parametrize("H,beta", [(1e150, 0.0), (1e-150, 0.0), (1e-105, 5.0)])
def test_xi_f_analytic_out_of_float_range_names_h(H, beta):
    # H^3 overflows (1e150), 8 q H^3 underflows to 0 (1e-150), or the
    # quotient overflows to inf (1e-105)
    with pytest.raises(DomainError, match=re.escape(f"H={H!r} is out of range")):
        xi_f_analytic(BosonGasParams(H=H, beta=beta))


def test_package_import_leaves_scipy_unloaded(tmp_path):
    # scipy is a test-only dependency: neither the import nor verify loads it
    code = (
        "import sys\n"
        "import lifshitz_fidelity\n"
        "assert 'scipy' not in sys.modules, 'import lifshitz_fidelity loaded scipy'\n"
        "from lifshitz_fidelity.cli import main\n"
        "assert main(['verify', '--out', sys.argv[1]]) == 0\n"
        "assert 'scipy' not in sys.modules, 'verify loaded scipy'\n"
    )
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                         text=True)
    assert out.returncode == 0, out.stderr
