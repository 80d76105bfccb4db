"""Bulk/boundary dictionary: parameter matching and susceptibility equality.

Identifying the bulk charge Qt with the boundary field strength H, the
matched particle number and momentum ratio are

    N        = -16 sqrt(5) L^2 rp^2 / (48 pi G L^3 sqrt(-xi))
    beta^2/q = 3 / (8 L^2 xi)

Substituting these into the boundary susceptibility reproduces the z = 4
holographic closed form identically; the residual only measures floating
point. Both matched quantities are negative whenever xi < 0, which is
flagged rather than rejected.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .params import BulkParams
from .volume import xi_f_holo_z4

FLAG_NEGATIVE_N = "negative-N"
FLAG_NEGATIVE_B2Q = "negative-beta2-over-q"
FLAG_XI_SIGN = "xi-negative-forces-both"


@dataclass(frozen=True)
class DualityReport:
    """Matched dictionary values and the bulk/boundary residual."""

    matched_N: float
    matched_beta2_over_q: float
    xi_f_bulk: float
    xi_f_boundary: float
    residual: float
    flags: tuple
    inputs: dict

    def __post_init__(self):
        if self.residual < 0:
            raise DomainError("residual must be non-negative")


def match_parameters(p: BulkParams) -> tuple[float, float]:
    """Extract (N, beta^2/q) from bulk data; requires xi < 0. Raises
    DomainError if either is not a finite float."""
    if p.xi >= 0:
        raise DomainError(f"parameter matching requires xi < 0, got xi={p.xi}")
    try:
        n_matched = -16.0 * math.sqrt(5.0) * p.L**2 * p.rp**2 / (
            48.0 * math.pi * p.G * p.L**3 * math.sqrt(-p.xi))
        beta2_over_q = 3.0 / (8.0 * p.L**2 * p.xi)
    except ArithmeticError:  # a power overflows, or a denominator underflows to 0
        n_matched = beta2_over_q = math.nan
    if not (math.isfinite(n_matched) and math.isfinite(beta2_over_q)):
        raise DomainError(f"L={p.L}, xi={p.xi}, rp={p.rp}, G={p.G} are out of range: "
                          "the matched N and beta^2/q are not finite floats")
    return n_matched, beta2_over_q


def xi_f_boundary_matched(n_matched: float, beta2_over_q: float, H: float) -> float:
    """Boundary susceptibility N (qH + 4 beta^2)/(8 q H^3) written in matched
    variables: N/(8 H^2) + N (beta^2/q)/(2 H^3)."""
    if not H > 0:
        raise DomainError(f"H must be positive, got {H}")
    return n_matched / (8.0 * H * H) + n_matched * beta2_over_q / (2.0 * H**3)


def _sign_flags(n_matched: float, beta2_over_q: float, xi: float) -> tuple:
    flags = []
    if n_matched < 0:
        flags.append(FLAG_NEGATIVE_N)
    if beta2_over_q < 0:
        flags.append(FLAG_NEGATIVE_B2Q)
    if xi < 0 and FLAG_NEGATIVE_N in flags and FLAG_NEGATIVE_B2Q in flags:
        flags.append(FLAG_XI_SIGN)
    return tuple(flags)


def consistency_flags(report: DualityReport) -> tuple:
    """Recompute the sign flags from a report's matched values."""
    return _sign_flags(
        report.matched_N, report.matched_beta2_over_q, report.inputs.get("xi", 0.0)
    )


def verify_duality(p: BulkParams) -> DualityReport:
    """Check the dictionary identity at H = Qt and report residual and flags."""
    xi_bulk = xi_f_holo_z4(p)
    n_matched, beta2_over_q = match_parameters(p)
    xi_boundary = xi_f_boundary_matched(n_matched, beta2_over_q, p.Qt)
    scale = max(abs(xi_bulk), abs(xi_boundary))
    residual = abs(xi_bulk - xi_boundary) / scale if scale > 0 else 0.0
    inputs = {"L": p.L, "xi": p.xi, "Qt": p.Qt, "rp": p.rp, "G": p.G, "z": p.z}
    return DualityReport(
        matched_N=n_matched,
        matched_beta2_over_q=beta2_over_q,
        xi_f_bulk=xi_bulk,
        xi_f_boundary=xi_boundary,
        residual=residual,
        flags=_sign_flags(n_matched, beta2_over_q, p.xi),
        inputs=inputs,
    )
