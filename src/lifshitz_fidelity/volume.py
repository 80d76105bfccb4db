"""Maximal-volume engine.

Evaluates V = integral of r^2/sqrt(B(r)) per unit boundary two-area, three
ways: by Clenshaw-Curtis in s on the radial map r = rp + (r_inf - rp) s^2,
which absorbs the horizon's 1/sqrt(r - rp), and on the map w = eps^(s^2) of
the inverted coordinate w = rp/r (with the full blackening factor, or the
truncated integrand without its constant term), and the z = 4 closed form

    V = rp^3 * A / (3840 (-b_minus2)^(9/2)) + rp^3 / (2 eps^2 sqrt(-b_minus2)),
    A = 640 b_minus2^3 (b1 - 3 b_minus2).

Complexity is V/(8 pi R G); the divergent eps^-2 (equivalently r_inf^2)
piece is removed by subtracting the horizonless background B_bg = cv + c r^2
(c = -cm > 0) at matched r_inf, which also cancels the subleading log when
V0 != 0. The background volume is the closed form r sqrt(B_bg)/(2c) -
cv T/(2 c^(3/2)), T = asinh(r sqrt(c/cv)), 0 or acosh(r/r_min) for cv > 0,
= 0 or < 0 (background_volume). The difference is one integral with no
cancellation, its cutoffs and limit rows of one quadrature; the eps^-2 fit
is one fixed row of its least-squares operator, applied to w-coordinate
volumes that are the rows of one quadrature.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import geometry, kernels
from .errors import (
    ConstraintError,
    ConvergenceError,
    DomainError,
    ImaginaryIntegrandError,
    NonPositiveBlackeningError,
)
from .params import BulkParams, QuadratureSpec

DEFAULT_SPEC = QuadratureSpec()

#: Relative threshold deciding whether B_bg(rp) = -hcoef is a zero (coincident geometries).
ENDPOINT_ZERO_TOL = 1e-11

#: Cutoffs of the divergence-coefficient fit, and the eps^-2 row of its
#: least-squares operator over {eps^-2, log eps, 1, eps^2, eps^3}: the fitted
#: coefficient is DIVERGENCE_ROW @ volumes. The row is the first row of the
#: pseudoinverse of that basis with unit-max columns, divided by the first
#: column's scale, written out so that import makes no LAPACK call
#: (tests/test_volume.py rebuilds it).
DIVERGENCE_FIT_EPS = (0.04, 0.028, 0.02, 0.014, 0.01, 0.007, 0.005)
DIVERGENCE_ROW = np.array([
    1.172053208252282e-05, -6.256332496711353e-05, 6.690439075859804e-05,
    5.947294075179701e-05, -4.692602101471767e-05, -0.00011307675861925141,
    8.446824100816474e-05,
])

#: background_volume sums its series below x = r sqrt(c/cv) = BG_SERIES_X.
BG_SERIES_X = 1.0

#: IR cutoffs r_inf / rp of the background subtraction, increasing.
SUBTRACTION_FACTORS = (50.0, 100.0, 200.0, 400.0)


@dataclass(frozen=True)
class VolumeResult:
    """Volume per unit boundary two-area, with its error estimate."""

    value: float
    error_estimate: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ConvergenceError(f"volume value is not finite: {self.value}")
        if self.error_estimate < 0:
            raise DomainError("error estimate must be non-negative")


@dataclass(frozen=True)
class RegularizationSweep:
    """Background-subtracted complexity over a sequence of IR cutoffs.

    values are F - F_bg at the cutoffs and limit is its r_inf -> infinity
    value; series_reference is the truncated-series finite part divided by
    8 pi R G (NaN when z != 4), and reference_residual = limit -
    series_reference quantifies how far the geometric subtraction sits from it.
    """

    cutoffs: tuple
    values: tuple
    differences: tuple
    limit: float
    series_reference: float
    reference_residual: float


# ---------- generic quadrature cores ----------

@functools.lru_cache(maxsize=1)
def _radial_grid(npts, span, rp, zexp):
    """_integrate_r's radial factors (k w, G) on npts Clenshaw-Curtis nodes, w the
    weights, read-only, so kernels.radial_integrand returns the rule's terms. They do
    not depend on cv, cm or hcoef: a bulk sweep that keeps rp and r_inf shares them."""
    s, w, _ = kernels.clenshaw_curtis(npts)
    k, g = kernels.radial_factors(s, span, rp, zexp)
    k *= w
    k.flags.writeable = g.flags.writeable = False
    return k, g


def _integrate_r(cv, cm, hcoef, rp, zexp, hi, spec):
    """Radial quadrature of r^2/sqrt(B) on [rp, hi] for the parametric B,
    by Clenshaw-Curtis in s with r = rp + (hi - rp) s^2. hcoef = cm rp^2 - cv
    (geometry.falloff_coefficient) makes B(rp) a zero, so the integrand's
    value at s = 0 is its limit 2 rp^2 sqrt((hi - rp)/B'(rp)). The integrand
    is k/sqrt(cv - cm G) (kernels.radial_factors), B written relative to
    that zero, so hcoef enters only through B'(rp)."""
    span = hi - rp
    bp = -zexp * hcoef / rp - 2.0 * cm * rp
    if bp <= 0.0:
        raise NonPositiveBlackeningError("degenerate horizon: B'(rp) <= 0")
    y0 = 2.0 * rp * rp * math.sqrt(span / bp)

    def make(npts):
        terms = kernels.radial_integrand(_radial_grid(npts, span, rp, zexp), cv, cm,
                                         y0 * kernels.clenshaw_curtis(npts)[1][0])
        if not np.all(np.isfinite(terms)):
            raise NonPositiveBlackeningError("blackening factor non-positive inside the integration domain")
        return terms

    return kernels.nested_quadrature(make, kernels.clenshaw_curtis, spec)


def _integrate_w(b_one, bcoef, bm2, zexp, eps, spec):
    """Quadrature of 1/(w^4 sqrt(b(w))) on [eps, 1], one row per entry of the 1-D eps.

    b(w) = b_one + bcoef (w^zexp - 1) - bm2 (w^-2 - 1), by Clenshaw-Curtis in s: w = eps^(s^2)
    is uniform in u = -log w = lam s^2 toward eps, where the integrand 2 lam s e^(3u)/sqrt(b)
    grows like w^-3, and the Jacobian absorbs a 1/sqrt zero of b at w = 1 (the
    horizon image). The caller passes b(1) as b_one, exactly 0.0 where it is a zero
    by construction, so b = b_one + bcoef expm1(-zexp u) - bm2 expm1(2u) has no
    cancellation near w = 1, and b_one = 0 takes the endpoint limit.
    """
    if b_one < 0:
        raise NonPositiveBlackeningError(f"integrand imaginary at w = 1: b(1) = {b_one}")

    lam = -np.log(eps)[:, None]
    with np.errstate(over="ignore"):
        if not np.all(np.isfinite(2.0 * lam * np.exp(3.0 * lam))):  # the integrand's factor at s = 1
            raise DomainError(f"eps={eps.min()} is out of range: 2 log(1/eps) eps^-3 overflows")
    y0 = 0.0
    if b_one == 0:
        bp_one = zexp * bcoef + 2.0 * bm2
        if -bp_one <= 0.0:
            raise NonPositiveBlackeningError("degenerate zero of the integrand at w = 1")
        y0 = 2.0 * np.sqrt(lam[:, 0] / -bp_one)

    def make(npts):
        s, weights, _ = kernels.clenshaw_curtis(npts)
        u = lam * s * s
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            b = b_one + bcoef * np.expm1(-zexp * u) - bm2 * np.expm1(2.0 * u)
            y = 2.0 * lam * s * np.exp(3.0 * u) / np.sqrt(b)
        y[:, 0] = y0
        if not np.all(np.isfinite(y)):
            raise NonPositiveBlackeningError("integrand non-positive on the w grid")
        return y * weights

    return kernels.nested_quadrature(make, kernels.clenshaw_curtis, spec)


# ---------- volume operations ----------

def _param_coeffs(p: BulkParams):
    cv = geometry.potential_coefficient(p)
    cm = geometry.curvature_coefficient(p)
    return cv, cm, geometry.falloff_coefficient(p), 1.0 + p.z / 2.0


def volume_exact(p: BulkParams, r_inf: float, spec: QuadratureSpec = DEFAULT_SPEC) -> VolumeResult:
    """Maximal volume from rp out to the IR cutoff r_inf, by radial quadrature."""
    if not (math.isfinite(r_inf) and r_inf > p.rp):
        raise DomainError(f"r_inf must be finite and exceed rp={p.rp}, got {r_inf}")
    span = r_inf - p.rp
    if not math.isfinite(2.0 * span * (span + p.rp) * (span + p.rp)):  # the grid's last jr2
        raise DomainError(f"r_inf={r_inf} is out of range: 2 (r_inf - rp) r_inf^2 overflows")
    cv, cm, hcoef, zexp = _param_coeffs(p)
    return VolumeResult(*_integrate_r(cv, cm, hcoef, p.rp, zexp, r_inf, spec))


def background_volume(p: BulkParams, r_inf: float) -> VolumeResult:
    """Volume of the horizonless background B_bg(r) = cv + c r^2, c = -cm > 0,
    from r_min = 0 (cv >= 0) or r_min = sqrt(-cv/c) (cv < 0), in closed form:

        V_bg(r) = r sqrt(B_bg(r)) / (2c) - cv T / (2 c^(3/2)),

    T = asinh(x), x = r sqrt(c/cv), for cv > 0; 0 for cv = 0; acosh(r/r_min)
    = log1p(d + sqrt(d) sqrt(2 + d)), d = r/r_min - 1, for cv < 0, with
    sqrt(B_bg) = sqrt(c (r - r_min)) sqrt(r + r_min), so r -> r_min keeps full
    precision. Below x = BG_SERIES_X the two terms cancel, and the positive
    series r^3/sqrt(B_bg) sum_k z^k/((2k + 1)(2k + 3)), z = x^2/(1 + x^2) <= 1/2,
    replaces them (48 terms leave a tail below 1e-17). Square roots come before
    quotients, so a subnormal cv overflows no x and flushes no r_min. The
    estimate, 16 eps |value|, bounds the rounding (about 12 eps at worst).
    """
    if not math.isfinite(r_inf):
        raise DomainError(f"r_inf must be finite, got {r_inf}")
    cv, cm, _, _ = _param_coeffs(p)
    if cm >= 0:
        raise NonPositiveBlackeningError(
            "background volume requires Lambda + Qt^2 xi < 0"
        )
    c = -cm
    sc = math.sqrt(c)
    r_min = math.sqrt(-cv) / sc if cv < 0 else 0.0
    if r_inf < r_min:
        raise DomainError(f"r_inf={r_inf} below the background lower limit {r_min}")
    r = float(r_inf)
    if cv > 0:
        x = r * sc / math.sqrt(cv)
        root_b = math.sqrt(cv + c * r * r)
        if x < BG_SERIES_X:
            z, total = x * x / (1.0 + x * x), 0.0
            for k in range(47, -1, -1):
                total = total * z + 1.0 / ((2 * k + 1) * (2 * k + 3))
            value = r / root_b * r * r * total
        else:
            value = (r * root_b - cv / sc * math.asinh(x)) / (2.0 * c)
    elif cv == 0:
        value = r * r / (2.0 * sc)
    else:
        d = (r - r_min) / r_min
        acosh = math.log1p(d + math.sqrt(d) * math.sqrt(2.0 + d))
        root_b = math.sqrt(c * (r - r_min)) * math.sqrt(r + r_min)
        value = (r * root_b - cv / sc * acosh) / (2.0 * c)
    return VolumeResult(value, 16.0 * sys.float_info.epsilon * abs(value))


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
    _, cm, hcoef, zexp = _param_coeffs(p)
    if mode == "full-B":  # b(1) = B(rp) = cv + hcoef - cm rp^2, a zero as hcoef = cm rp^2 - cv
        b_one, bcoef, bm2 = 0.0, hcoef, cm * p.rp**2
    elif mode == "truncated":
        coeffs = geometry.series_coeffs_z4(p)
        if not coeffs.is_physical:
            raise ImaginaryIntegrandError(
                f"b_minus2={coeffs.b_minus2} >= 0: integrand imaginary near w = 0"
            )
        b_one, bcoef, bm2 = coeffs.b1 - coeffs.b_minus2, coeffs.b1, coeffs.b_minus2  # b(1) = -V0/6
    else:
        raise DomainError(f"unknown w-form mode {mode!r}")

    try:
        (raw,), (err,) = _integrate_w(b_one, bcoef, bm2, zexp, np.array([eps]), spec)
    except NonPositiveBlackeningError as exc:
        if mode == "truncated" and not isinstance(exc, ImaginaryIntegrandError):
            raise ImaginaryIntegrandError(str(exc)) from exc
        raise
    return VolumeResult(p.rp**3 * float(raw), p.rp**3 * float(err))


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

    The error estimate is the leading omitted series term, (3/64)
    (b1/b_minus2)^2 rp^3 / sqrt(-b_minus2), not a bound: at the defaults
    b1/b_minus2 = 1, the series does not converge, and the quadrature of the
    same volume is 4.15 estimates away.
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
    return VolumeResult(finite + divergent, trunc)


# ---------- complexity and regularization ----------

def complexity(v: float, p: BulkParams) -> float:
    """Holographic complexity F = V/(8 pi R G) of a volume V."""
    return v / (8.0 * math.pi * p.R * p.G)


def xi_f_holo_z4(p: BulkParams) -> float:
    """Closed-form holographic susceptibility at z = 4.

    sqrt(5) rp^2 sqrt(-xi) (2 L^2 xi Qt + 3) / (48 pi G L^3 xi^2 Qt^3);
    requires xi < 0. Raises DomainError if it is not a finite float.
    """
    if abs(p.z - 4.0) > geometry.Z4_TOL:
        raise ConstraintError(f"holographic susceptibility requires z = 4, got {p.z}")
    if p.xi >= 0:
        raise DomainError(f"requires xi < 0, got xi={p.xi}")
    if p.Qt == 0:
        raise DomainError("requires Qt != 0")
    try:
        value = (math.sqrt(5.0) * p.rp**2 * math.sqrt(-p.xi) * (2.0 * p.L**2 * p.xi * p.Qt + 3.0)
                 / (48.0 * math.pi * p.G * p.L**3 * p.xi**2 * p.Qt**3))
    except ArithmeticError:  # a power overflows, or the denominator underflows to 0
        value = math.nan
    if not math.isfinite(value):
        raise DomainError(f"L={p.L}, xi={p.xi}, Qt={p.Qt}, rp={p.rp}, G={p.G} are out of range: "
                          "the z = 4 holographic susceptibility is not a finite float")
    return value


def _subtracted_volumes(p: BulkParams, eps, spec: QuadratureSpec) -> np.ndarray:
    """V(rp/eps) - V_bg(rp/eps) for a 1-D array of eps; eps = 0 is the limit.

    Below r0 = max(rp, r_min) one geometry contributes: minus the background
    volume up to rp, or the deformed one up to r_min. Above r0, B - B_bg =
    hcoef (rp/r)^(1+z/2) turns the difference of integrands, in w = rp/r, into
    -rp^3 hcoef w^(z/2) / (sb sg (sb + sg)) with sg^2 = cv w^2 - cm rp^2 and
    sb^2 = w^2 B(rp/w) = sg^2 + hcoef w^(3+z/2): no eps^-2 term cancels. Each
    row is integrated over [eps, w0 = rp/r0] by Clenshaw-Curtis in s, with
    w = w0 - d, d = (w0 - eps) sin^2(pi s/2), which absorbs the 1/sqrt zero
    at w0 (of sb at rp, of sg at r_min) and the w^(z/2) branch point at w = 0;
    that square is written through d, relative to its zero.
    """
    cv, cm, hcoef, _ = _param_coeffs(p)
    if cm >= 0:
        raise NonPositiveBlackeningError("background volume requires Lambda + Qt^2 xi < 0")
    cmr2, half_z, top = cm * p.rp**2, p.z / 2.0, 3.0 + p.z / 2.0
    if abs(hcoef) <= ENDPOINT_ZERO_TOL * max(abs(cv), abs(cmr2), 1e-300):  # B_bg(rp) = -hcoef is a zero:
        return np.zeros(eps.shape)  # the geometries coincide
    r_min = math.sqrt(cv / cm) if cv < 0 else 0.0
    if r_min <= p.rp:  # sb^2 ~ -slope d, and sg^2 = sb^2 - hcoef w^top -> lead at w0
        below, w0, sign = -background_volume(p, p.rp).value, 1.0, -1.0
        slope, lead = 2.0 * cv + top * hcoef, cv - cmr2
    else:  # sg^2 ~ -slope d, and sb^2 = sg^2 + hcoef w^top -> lead
        below, w0, sign = volume_exact(p, r_min, spec).value, p.rp / r_min, 1.0
        slope, lead = 2.0 * cv * w0, cv * w0**2 + hcoef * w0**top - cmr2
    span = (w0 - eps)[:, None]
    y0 = math.pi * np.sqrt(span[:, 0]) * w0**half_z / (math.sqrt(-slope) * lead)

    def make(npts):
        s, weights, _ = kernels.clenshaw_curtis(npts)
        d = span * np.sin(0.5 * math.pi * s) ** 2  # w0 - w
        w = w0 - d
        with np.errstate(divide="ignore", invalid="ignore"):  # sb^2, or sg^2 (cv w0^2 = cm rp^2)
            zero2 = (hcoef * np.expm1(top * np.log1p(-d)) - cv * d * (2.0 - d) if sign < 0
                     else -cv * d * (2.0 * w0 - d))
            zero, other = np.sqrt(zero2), np.sqrt(zero2 + sign * hcoef * w**top)  # {sb, sg}
            y = 0.5 * math.pi * span * np.sin(math.pi * s) * w**half_z / (zero * other * (zero + other))
        y[:, 0] = y0
        if not np.all(np.isfinite(y)):
            raise NonPositiveBlackeningError("B or B_bg non-positive inside the integration domain")
        return y * weights

    value, _ = kernels.nested_quadrature(make, kernels.clenshaw_curtis, spec)
    return below - p.rp**3 * hcoef * value


def subtracted_susceptibility(p: BulkParams, spec: QuadratureSpec = DEFAULT_SPEC) -> RegularizationSweep:
    """Background-subtracted complexity at r_inf = SUBTRACTION_FACTORS * rp.

    The sequence is Cauchy (corrections decay like r_inf^-(1+z/2)); the
    values and the limit r_inf -> infinity are rows of one quadrature. The
    residual against the truncated-series finite part is reported, not
    asserted: the geometric subtraction also removes the background's own
    finite piece, which the truncated closed form retains.
    """
    eps = np.array([1.0 / f for f in SUBTRACTION_FACTORS] + [0.0])
    *values, limit = (complexity(v, p) for v in _subtracted_volumes(p, eps, spec).tolist())
    try:
        coeffs = geometry.series_coeffs_z4(p)
        reference = complexity(series_finite_part(coeffs.b1, coeffs.b_minus2, p.rp), p)
    except (ConstraintError, DomainError):
        reference = float("nan")
    return RegularizationSweep(
        cutoffs=tuple(f * p.rp for f in SUBTRACTION_FACTORS),
        values=tuple(values),
        differences=tuple(b - a for a, b in zip(values, values[1:])),
        limit=limit,
        series_reference=reference,
        reference_residual=limit - reference,
    )


def fit_divergence_coefficient(p: BulkParams, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Fitted eps^-2 coefficient of the full-B w-form volume.

    Least squares over the basis {eps^-2, log eps, 1, eps^2, eps^3}, which
    is the exact small-eps structure of the integral, at the cutoffs
    DIVERGENCE_FIT_EPS: the fixed row DIVERGENCE_ROW dotted with the seven
    volumes (rows of one quadrature). It should match rp^3/(2 sqrt(-b_minus2)).
    """
    _, cm, hcoef, zexp = _param_coeffs(p)
    raw, _ = _integrate_w(0.0, hcoef, cm * p.rp**2, zexp, np.array(DIVERGENCE_FIT_EPS), spec)
    return float(DIVERGENCE_ROW @ (p.rp**3 * raw))
