"""Maximal-volume engine.

Evaluates V = integral of r^2/sqrt(B(r)) per unit boundary two-area, three
ways: direct radial quadrature with the horizon 1/sqrt(r - rp) singularity
absorbed by an endpoint substitution, the same integral in the inverted
coordinate w = rp/r (either with the full blackening factor or with the
truncated integrand that drops the constant term), and the z = 4 truncated
closed form

    V = rp^3 * A / (3840 (-b_minus2)^(9/2)) + rp^3 / (2 eps^2 sqrt(-b_minus2)),
    A = 640 b_minus2^3 (b1 - 3 b_minus2).

Complexity is V/(8 pi R G); the divergent eps^-2 (equivalently r_inf^2)
piece is removed by subtracting the horizonless background at matched
r_inf, which also cancels the subleading log when V0 != 0. The subtraction
sweep and the fit of the eps^-2 coefficient run on fixed cutoffs, and that
fit is one fixed row of its least-squares operator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry, kernels
from .errors import (
    ConstraintError,
    ConvergenceError,
    CutoffMismatchError,
    DomainError,
    ImaginaryIntegrandError,
    NonPositiveBlackeningError,
)
from .params import BulkParams, QuadratureSpec

DEFAULT_SPEC = QuadratureSpec()

#: w below which the inverted-coordinate integral switches to a log grid.
W_SPLIT = 0.5

#: Relative threshold deciding whether an endpoint value of B is a zero.
ENDPOINT_ZERO_TOL = 1e-11

#: Cutoffs of the divergence-coefficient fit, and the eps^-2 row of its
#: least-squares operator over {eps^-2, log eps, 1, eps^2, eps^3}, built once
#: with unit-max columns: the fitted coefficient is DIVERGENCE_ROW @ volumes.
DIVERGENCE_FIT_EPS = (0.04, 0.028, 0.02, 0.014, 0.01, 0.007, 0.005)
_eps = np.array(DIVERGENCE_FIT_EPS)
_basis = np.column_stack([_eps**-2, np.log(_eps), np.ones_like(_eps), _eps**2, _eps**3])
_scale = np.abs(_basis).max(axis=0)
DIVERGENCE_ROW = np.linalg.pinv(_basis / _scale)[0] / _scale[0]

#: IR cutoffs r_inf / rp of the background subtraction, increasing.
SUBTRACTION_FACTORS = (50.0, 100.0, 200.0, 400.0)


@dataclass(frozen=True)
class VolumeResult:
    """Volume per unit boundary two-area.

    cutoff is r_inf for radial-coordinate results and eps for w-coordinate
    and series results; divergent_coeff is the analytic coefficient of the
    leading divergence in that cutoff variable.
    """

    value: float
    cutoff: float
    mode: str  # "full-B" | "truncated" | "series" | "background"
    divergent_coeff: float
    error_estimate: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ConvergenceError(f"volume value is not finite: {self.value}")
        if self.error_estimate < 0:
            raise DomainError("error estimate must be non-negative")


@dataclass(frozen=True)
class ComplexityValue:
    """Holographic complexity F = V/(8 pi R G), tagged with its cutoff."""

    value: float
    cutoff: float | None
    mode: str | None


@dataclass(frozen=True)
class RegularizationSweep:
    """Background-subtracted complexity over a sequence of IR cutoffs.

    limit is the Aitken-extrapolated value; series_reference is the
    truncated-series finite part divided by 8 pi R G (NaN when z != 4), and
    reference_residual = limit - series_reference quantifies how far the
    geometric subtraction sits from the truncated-series finite part.
    """

    cutoffs: tuple
    values: tuple
    differences: tuple
    limit: float
    series_reference: float
    reference_residual: float


# ---------- generic quadrature cores ----------

def _scale(*vals):
    return max(*(abs(v) for v in vals), 1e-300)


def _integrate_r(cv, cm, hcoef, rp, zexp, lo, hi, spec):
    """Radial quadrature of r^2/sqrt(B) on [lo, hi] for the parametric B,
    in s with r = lo + (hi - lo) s^2."""
    if hi < lo:
        raise DomainError("upper limit below lower limit")
    if hi == lo:
        return 0.0, 0.0
    if lo == 0.0 and hcoef != 0.0:
        raise DomainError("horizon term diverges at r = 0")
    span = hi - lo
    b_lo = cv if lo == 0.0 else float(cv + (rp / lo) ** zexp * hcoef - cm * lo * lo)
    scale = _scale(cv, cm * hi * hi, hcoef)
    if b_lo < -ENDPOINT_ZERO_TOL * scale:
        raise NonPositiveBlackeningError(f"B({lo}) = {b_lo} < 0 at the lower endpoint")

    y0 = 0.0
    if abs(b_lo) <= ENDPOINT_ZERO_TOL * scale and lo > 0.0:
        bp = -zexp * (rp / lo) ** zexp * hcoef / lo - 2.0 * cm * lo
        if bp <= 0.0:
            raise NonPositiveBlackeningError("degenerate horizon: B'(rp) <= 0")
        y0 = 2.0 * lo * lo * math.sqrt(span / bp)

    def make(npts):
        s = np.linspace(0.0, 1.0, npts)
        y = kernels.volume_integrand_r(s, lo, span, 2, cv, cm, hcoef, rp, zexp, y0)
        if not np.all(np.isfinite(y)):
            raise NonPositiveBlackeningError(
                "blackening factor non-positive inside the integration domain"
            )
        return y, s

    value, err = kernels.refined_simpson(make, spec)
    if err > spec.tolerance * abs(value):
        raise ConvergenceError(f"radial quadrature stalled: error estimate {err:.3e}")
    return value, err


def _integrate_w(cvterm, bcoef, bm2, zexp, eps, spec):
    """Quadrature of 1/(w^4 sqrt(b(w))) on [eps, 1].

    b(w) = cvterm + bcoef*w^zexp - bm2/w^2. A zero of b at w = 1 (the
    horizon image) is absorbed by the substitution w = 1 - (1 - split) s^2;
    the steep w^-3 growth toward eps is handled on a logarithmic grid below
    W_SPLIT.
    """
    b_one = cvterm + bcoef - bm2
    scale = _scale(cvterm, bcoef, bm2)
    if b_one < -ENDPOINT_ZERO_TOL * scale:
        raise NonPositiveBlackeningError(f"integrand imaginary at w = 1: b(1) = {b_one}")

    split = W_SPLIT if eps < 0.9 * W_SPLIT else eps

    y0 = 0.0
    if abs(b_one) <= ENDPOINT_ZERO_TOL * scale:
        bp_one = zexp * bcoef + 2.0 * bm2
        if -bp_one <= 0.0:
            raise NonPositiveBlackeningError("degenerate zero of the integrand at w = 1")
        y0 = 2.0 * math.sqrt((1.0 - split) / (-bp_one))

    def make_top(npts):
        s = np.linspace(0.0, 1.0, npts)
        y = kernels.wform_integrand_top(s, split, 2, cvterm, bcoef, bm2, zexp, y0)
        if not np.all(np.isfinite(y)):
            raise NonPositiveBlackeningError("integrand non-positive on the w grid")
        return y, s

    value, err = kernels.refined_simpson(make_top, spec)

    if split > eps:
        ulo, uhi = math.log(eps), math.log(split)

        def make_log(npts):
            u = np.linspace(ulo, uhi, npts)
            y = kernels.wform_integrand_log(u, cvterm, bcoef, bm2, zexp)
            if not np.all(np.isfinite(y)):
                raise NonPositiveBlackeningError("integrand non-positive on the w grid")
            return y, u

        v_log, e_log = kernels.refined_simpson(make_log, spec)
        value += v_log
        err += e_log

    if err > spec.tolerance * abs(value):
        raise ConvergenceError(f"w-coordinate quadrature stalled: error estimate {err:.3e}")
    return value, err


# ---------- volume operations ----------

def _param_coeffs(p: BulkParams):
    cv = geometry.potential_coefficient(p)
    cm = geometry.curvature_coefficient(p)
    return cv, cm, geometry.falloff_coefficient(p), 1.0 + p.z / 2.0


def volume_exact(p: BulkParams, r_inf: float, spec: QuadratureSpec = DEFAULT_SPEC) -> VolumeResult:
    """Maximal volume from rp out to the IR cutoff r_inf, by radial quadrature."""
    if not (math.isfinite(r_inf) and r_inf > p.rp):
        raise DomainError(f"r_inf must be finite and exceed rp={p.rp}, got {r_inf}")
    cv, cm, hcoef, zexp = _param_coeffs(p)
    value, err = _integrate_r(cv, cm, hcoef, p.rp, zexp, p.rp, r_inf, spec)
    div = 1.0 / (2.0 * math.sqrt(-cm)) if cm < 0 else float("nan")
    return VolumeResult(value, r_inf, "full-B", div, err)


def background_volume(p: BulkParams, r_inf: float, spec: QuadratureSpec = DEFAULT_SPEC) -> VolumeResult:
    """Volume of the horizonless background B_bg(r) = cv - cm r^2.

    Integrates from r = 0 when B_bg(0) >= 0, otherwise from the background's
    own zero sqrt(cv/cm). Shares the r_inf^2 divergence coefficient with the
    deformed geometry.
    """
    cv, cm, _, zexp = _param_coeffs(p)
    if cm >= 0:
        raise NonPositiveBlackeningError(
            "background volume requires Lambda + Qt^2 xi < 0"
        )
    r_min = 0.0 if cv >= 0 else math.sqrt(cv / cm)
    if r_inf < r_min:
        raise DomainError(f"r_inf={r_inf} below the background lower limit {r_min}")
    div = 1.0 / (2.0 * math.sqrt(-cm))
    if r_inf == r_min:
        return VolumeResult(0.0, r_inf, "background", div, 0.0)
    value, err = _integrate_r(cv, cm, 0.0, p.rp, zexp, r_min, r_inf, spec)
    return VolumeResult(value, r_inf, "background", div, err)


def volume_w_form(
    p: BulkParams,
    eps: float,
    mode: str = "full-B",
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> VolumeResult:
    """Volume in the inverted coordinate w = rp/r: rp^3 * int_eps^1 dw/(w^4 sqrt(b)).

    full-B uses b(w) = B(rp/w) and equals volume_exact at r_inf = rp/eps for
    any z; truncated mode drops the constant term of B and requires z = 4.
    """
    if not 0.0 < eps < 1.0:
        raise DomainError(f"eps must lie in (0, 1), got {eps}")
    cv, cm, hcoef, zexp = _param_coeffs(p)
    bm2_gen = cm * p.rp**2
    if mode == "full-B":
        cvterm, bcoef = cv, hcoef
    elif mode == "truncated":
        coeffs = geometry.series_coeffs_z4(p)
        if not coeffs.is_physical:
            raise ImaginaryIntegrandError(
                f"b_minus2={coeffs.b_minus2} >= 0: integrand imaginary near w = 0"
            )
        cvterm, bcoef = 0.0, coeffs.b1
    else:
        raise DomainError(f"unknown w-form mode {mode!r}")

    try:
        raw, err = _integrate_w(cvterm, bcoef, bm2_gen, zexp, eps, spec)
    except NonPositiveBlackeningError as exc:
        if mode == "truncated" and not isinstance(exc, ImaginaryIntegrandError):
            raise ImaginaryIntegrandError(str(exc)) from exc
        raise
    rp3 = p.rp**3
    div = rp3 / (2.0 * math.sqrt(-bm2_gen)) if bm2_gen < 0 else float("nan")
    return VolumeResult(rp3 * raw, eps, mode, div, rp3 * err)


def series_finite_part(b1: float, b_minus2: float, rp: float) -> float:
    """Finite part of the truncated z = 4 closed form.

    rp^3 A / (3840 (-b_minus2)^(9/2)) with A = 640 b_minus2^3 (b1 - 3 b_minus2),
    which simplifies to rp^3 [-b1/(6 (-b_minus2)^(3/2)) - 1/(2 sqrt(-b_minus2))].
    """
    if b_minus2 >= 0:
        raise ConstraintError(f"series requires b_minus2 < 0, got {b_minus2}")
    a_coef = 640.0 * b_minus2**3 * (b1 - 3.0 * b_minus2)
    return rp**3 * a_coef / (3840.0 * (-b_minus2) ** 4.5)


def series_divergent_part(b_minus2: float, rp: float, eps: float) -> float:
    """Divergent part rp^3 / (2 eps^2 sqrt(-b_minus2))."""
    if b_minus2 >= 0:
        raise ConstraintError(f"series requires b_minus2 < 0, got {b_minus2}")
    if not 0.0 < eps < 1.0:
        raise DomainError(f"eps must lie in (0, 1), got {eps}")
    return rp**3 / (2.0 * eps**2 * math.sqrt(-b_minus2))


def volume_series_z4(p: BulkParams, eps: float) -> VolumeResult:
    """Truncated closed-form volume at z = 4: finite plus divergent part.

    The error estimate is the leading omitted series term,
    (3/64) (b1/b_minus2)^2 rp^3 / sqrt(-b_minus2).
    """
    coeffs = geometry.series_coeffs_z4(p)
    if not coeffs.is_physical:
        raise ConstraintError(
            f"series volume requires b_minus2 < 0, got {coeffs.b_minus2}"
        )
    finite = series_finite_part(coeffs.b1, coeffs.b_minus2, p.rp)
    divergent = series_divergent_part(coeffs.b_minus2, p.rp, eps)
    ratio = coeffs.b1 / coeffs.b_minus2
    trunc = abs(3.0 / 64.0 * ratio**2 * p.rp**3 / math.sqrt(-coeffs.b_minus2))
    div_coef = p.rp**3 / (2.0 * math.sqrt(-coeffs.b_minus2))
    return VolumeResult(finite + divergent, eps, "series", div_coef, trunc)


# ---------- complexity and regularization ----------

def complexity(v, p: BulkParams) -> ComplexityValue:
    """Holographic complexity F = V/(8 pi R G) of a volume (result or float)."""
    if not p.R > 0 or not p.G > 0:
        raise DomainError("complexity requires R > 0 and G > 0")
    denom = 8.0 * math.pi * p.R * p.G
    if isinstance(v, VolumeResult):
        return ComplexityValue(v.value / denom, v.cutoff, v.mode)
    return ComplexityValue(float(v) / denom, None, None)


def regularize(f_deformed: ComplexityValue, f_background: ComplexityValue) -> float:
    """Background subtraction at matched cutoff.

    The divergent cutoff pieces cancel because their coefficient does not
    depend on rp; inputs tagged with different cutoffs are rejected.
    """
    cd, cb = f_deformed.cutoff, f_background.cutoff
    if (cd is None) != (cb is None):
        raise CutoffMismatchError("one input carries a cutoff, the other does not")
    if cd is not None and abs(cd - cb) > 1e-9 * max(abs(cd), abs(cb), 1e-300):
        raise CutoffMismatchError(f"cutoffs differ: {cd} vs {cb}")
    return f_deformed.value - f_background.value


def xi_f_holo_z4(p: BulkParams) -> float:
    """Closed-form holographic susceptibility at z = 4.

    sqrt(5) rp^2 sqrt(-xi) (2 L^2 xi Qt + 3) / (48 pi G L^3 xi^2 Qt^3);
    requires xi < 0.
    """
    if abs(p.z - 4.0) > geometry.Z4_TOL:
        raise ConstraintError(f"holographic susceptibility requires z = 4, got {p.z}")
    if p.xi >= 0:
        raise DomainError(f"requires xi < 0, got xi={p.xi}")
    if p.Qt == 0:
        raise DomainError("requires Qt != 0")
    return (
        math.sqrt(5.0)
        * p.rp**2
        * math.sqrt(-p.xi)
        * (2.0 * p.L**2 * p.xi * p.Qt + 3.0)
        / (48.0 * math.pi * p.G * p.L**3 * p.xi**2 * p.Qt**3)
    )


def subtracted_susceptibility(p: BulkParams, spec: QuadratureSpec = DEFAULT_SPEC) -> RegularizationSweep:
    """Background-subtracted complexity at r_inf = SUBTRACTION_FACTORS * rp.

    The sequence is Cauchy (corrections decay like r_inf^-(1+z/2)); the
    limit comes from Aitken extrapolation of the last three values. The
    residual against the truncated-series finite part is reported, not
    asserted: the geometric subtraction also removes the background's own
    finite piece, which the truncated closed form retains.
    """
    values = []
    cutoffs = tuple(f * p.rp for f in SUBTRACTION_FACTORS)
    for r_inf in cutoffs:
        f_d = complexity(volume_exact(p, r_inf, spec), p)
        f_b = complexity(background_volume(p, r_inf, spec), p)
        values.append(regularize(f_d, f_b))
    diffs = tuple(values[i + 1] - values[i] for i in range(len(values) - 1))

    limit = values[-1]
    if diffs[-2] != 0.0:
        rho = diffs[-1] / diffs[-2]
        if abs(rho) < 1.0:
            limit = values[-1] + diffs[-1] * rho / (1.0 - rho)

    try:
        coeffs = geometry.series_coeffs_z4(p)
        reference = series_finite_part(coeffs.b1, coeffs.b_minus2, p.rp) / (
            8.0 * math.pi * p.R * p.G
        )
    except (ConstraintError, DomainError):
        reference = float("nan")
    return RegularizationSweep(
        cutoffs=cutoffs,
        values=tuple(values),
        differences=diffs,
        limit=limit,
        series_reference=reference,
        reference_residual=limit - reference,
    )


def fit_divergence_coefficient(p: BulkParams, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Fitted eps^-2 coefficient of the full-B w-form volume.

    Least squares over the basis {eps^-2, log eps, 1, eps^2, eps^3}, which
    is the exact small-eps structure of the integral, at the cutoffs
    DIVERGENCE_FIT_EPS: the fixed row DIVERGENCE_ROW dotted with the seven
    volumes. The result should match rp^3/(2 sqrt(-b_minus2)).
    """
    vols = np.array([volume_w_form(p, eps, spec=spec).value for eps in DIVERGENCE_FIT_EPS])
    return float(DIVERGENCE_ROW @ vols)
