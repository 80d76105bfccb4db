import itertools
import math
import re
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from lifshitz_fidelity import (
    BosonGasParams,
    ConvergenceError,
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
    kernels,
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


def test_overlap_quadrature_raises_where_no_grid_converges():
    # at 1e6 sigma the largest grid's step is about 1.9 sigma, and its
    # estimate is 94% of its value; at 1e5 sigma that grid converges
    with pytest.raises(ConvergenceError, match="stalled at"):
        overlap_quadrature(BosonGasParams(), 0.3, QuadratureSpec(halfwidth=1e6))


def test_overlap_grid_rows_are_c_ordered_linspace_rows(monkeypatch):
    # row sums of a strided grid skip numpy's pairwise summation, so each
    # point's t grid, as the deficits hand it to the kernel, must be a
    # contiguous row: its half-width T times linspace(-1, 1, n), symmetric about 0
    block = [BosonGasParams(q=1.3, H=0.7, beta=0.4), BosonGasParams(q=0.2, H=3.0, beta=-2.0),
             BosonGasParams(q=5.0, H=0.1, beta=1.0)]
    gamma = boundary._gammas(block)
    s = boundary.FIT_SAMPLE_SCALES
    grids = []
    log_ratio = kernels.overlap_log_ratio

    def recorded(t, *args):
        grids.append(t.copy())
        return log_ratio(t, *args)

    monkeypatch.setattr(kernels, "overlap_log_ratio", recorded)
    for panels in (64, 4096):
        n = 4 * panels + 1
        boundary._overlap_deficits(gamma, s, QuadratureSpec(panels=panels))
        t = grids.pop()
        assert t.shape == (3, n) and t.flags.c_contiguous
        half = boundary._halfwidths(gamma, s, 10.0)[:, 0]
        for row, T in zip(t, half):
            want = T * np.linspace(-1.0, 1.0, n)
            assert np.array_equal(row.view(np.int64), want.view(np.int64))
            assert row[0] == -T and row[-1] == T


@settings(max_examples=100, deadline=None)
@given(points=st.lists(st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0),
                                 st.floats(-5.0, 5.0)), min_size=1, max_size=20),
       halfwidth=st.floats(1.0, 500.0))
def test_overlap_grid_covers_every_sample_of_its_point(points, halfwidth):
    # one t grid [-T, T] per point, shared by its dH samples: psi_H (centre 0,
    # sigma 1) and every psi_{H+dH} (centre -gamma s/(1 + s), sigma
    # 1/sqrt(1 + s)) lie inside it to halfwidth sigma
    block = [BosonGasParams(q=q, H=H, beta=beta) for q, H, beta in points]
    gamma = boundary._gammas(block)
    s = boundary.FIT_SAMPLE_SCALES
    T = boundary._halfwidths(gamma, s, halfwidth)
    assert T.shape == (len(block), 1)
    for centre, sigma in ((0.0 * s, 1.0), (-gamma * s / (1 + s), 1 / np.sqrt(1 + s))):
        nearer_edge = np.minimum(T - centre, T + centre)
        assert np.all(nearer_edge / sigma >= halfwidth * (1 - 1e-14))


def test_overlap_deficit_matches_mpmath():
    # 1 - f from the closed form at 30 digits, in the route's own inputs:
    # Gaussians of widths 1 and 1 + s, the second centred at -gamma s/(1 + s);
    # |s| is log-uniform in [1e-5, 1e-2] and |gamma| <= 5, so 4 gamma^2 <= 100
    mpmath.mp.dps = 30
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(60):
        gamma = rng.uniform(-5.0, 5.0)
        s = rng.choice([-1.0, 1.0], 4) * 10.0 ** rng.uniform(-5.0, -2.0, 4)
        u = boundary._overlap_deficits(np.array([[gamma]]), s)[0]
        for ui, si in zip(u, s):
            width = 1 + mpmath.mpf(si)
            shift = -mpmath.mpf(gamma) * mpmath.mpf(si) / width
            f = width ** 0.25 * mpmath.sqrt(2 / (1 + width)) * mpmath.exp(
                -width * shift**2 / (2 * (1 + width)))
            worst = max(worst, float(abs(ui - (1 - f)) / (1 - f)))
    assert worst <= 1e-14


@settings(max_examples=200, deadline=None)
@given(q=st.floats(0.1, 10.0), H=st.floats(0.1, 10.0), beta=st.floats(-5.0, 5.0),
       c=st.floats(0.5, 2.0))
def test_fit_depends_on_gamma_alone(q, H, beta, c):
    # (q, H, beta) and (c^2 q, H, c beta) have the same gamma = beta/sqrt(qH);
    # where the float gammas agree bit for bit, so do the deficits at
    # FIT_SAMPLE_SCALES, and with them the fits at the same H
    p = BosonGasParams(q=q, H=H, beta=beta)
    scaled = BosonGasParams(q=c * c * q, H=H, beta=c * beta)
    gamma = boundary._gammas([p, scaled])[:, 0]
    assume(gamma[0].tobytes() == gamma[1].tobytes())
    assert _fit_bits([xi_f_from_fit(p)]) == _fit_bits([xi_f_from_fit(scaled)])


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
    # k never enters the fit, so every k gives the same bits
    vals = [xi_f_from_fit(BosonGasParams(beta=0.7, k=k)).c_sq for k in (0.0, 1.0, 10.0)]
    assert [v.hex() for v in vals] == [vals[0].hex()] * 3


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


def test_fit_solve_is_the_pseudoinverse_of_the_design():
    # FIT_SOLVE is written out as a literal; LAPACK rebuilds it
    rebuilt = np.linalg.pinv(boundary.FIT_DESIGN)
    assert np.abs(boundary.FIT_SOLVE - rebuilt).max() <= 1e-14 * np.abs(rebuilt).max()
    assert np.abs(boundary.FIT_SOLVE @ boundary.FIT_DESIGN - np.eye(5)).max() <= 1e-13


def _lstsq_fit(p):
    # reference: the fit as a per-call least-squares solve on its own scaled design
    s = np.array([-4e-3, -3e-3, -2e-3, -1e-3, 1e-3, 2e-3, 3e-3, 4e-3])
    d = s * p.H
    log_f = np.log1p(-boundary._overlap_deficits(boundary._gammas([p]), s)[0])
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


def _fit_bits(fits):
    return [(f.c_sq.hex(), f.residual.hex()) for f in fits]


def _raises(fn, *args):
    try:
        fn(*args)
    except LifshitzFidelityError:
        return True
    return False


@settings(max_examples=60, deadline=None)
@given(points=st.lists(st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0),
                                 st.floats(-5.0, 5.0), st.integers(1, 1000)),
                       min_size=1, max_size=40),
       refining=st.booleans())
def test_fit_block_has_the_bits_of_one_point_fits(points, refining):
    # q, H and beta from the verify suite's ranges; the refining spec makes
    # some points need a grid finer than the first, which a block declines
    spec = QuadratureSpec(halfwidth=34.5, tolerance=1e-12) if refining else QuadratureSpec()
    points = [BosonGasParams(N=N, q=q, H=H, beta=beta) for q, H, beta, N in points]
    try:
        fits = boundary.xi_f_from_fit_block(points, spec)
    except LifshitzFidelityError:
        # some point fails alone or needs a finer grid, so a block of it twice
        # raises; a block of the other points fits them
        kept = [p for p in points if not _raises(boundary.xi_f_from_fit_block, [p, p], spec)]
        assert len(kept) < len(points)
        points = kept
        fits = boundary.xi_f_from_fit_block(points, spec) if points else []
    assert _fit_bits(fits) == _fit_bits([xi_f_from_fit(p, spec) for p in points])


def test_fit_block_declines_a_finer_grid():
    # at halfwidth 34.5 the first grid's coarse step, 2T/128, is about 0.54
    # sigma, near the trapezoid rule's limit at tolerance 1e-12: beta = 0 needs
    # a second grid and beta = -5 does not (halfwidths 33.5 to 35 split them so)
    spec = QuadratureSpec(halfwidth=34.5, tolerance=1e-12)
    slow, fast = BosonGasParams(beta=0.0), BosonGasParams(beta=-5.0)
    with pytest.raises(ConvergenceError, match="shares only its first grid"):
        boundary.xi_f_from_fit_block([fast, slow], spec)
    assert _fit_bits(boundary.xi_f_from_fit_block([slow], spec)) == _fit_bits(
        [xi_f_from_fit(slow, spec)])
    assert _fit_bits(boundary.xi_f_from_fit_block([fast, fast], spec)) == _fit_bits(
        [xi_f_from_fit(fast, spec)] * 2)


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
    assert worst <= 1e-14


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
