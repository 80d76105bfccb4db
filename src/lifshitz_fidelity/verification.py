"""Invariant suite behind the `verify` subcommand.

Each check is a small deterministic computation asserting one module
invariant at its working tolerance. A check belongs here only if it can fail
without an edit of a formula: it compares two routes to one value, or
measures a sign or a rate of the numerics; an identity that holds by algebra
is a unit test instead. Two stay: horizon-root calls geometry.blackening, so
a perturbed blackening fails `verify`, and perfbench's tests name
flag-determinism. Checks call through the module namespaces so a perturbed
function (fault injection in tests) propagates. A check works in blocks: one
rng.uniform call for its random inputs, one overlap block, one fit block. A
NaN fails its check (worst cases are NaN-propagating maxima), and so does a
numerical error it raises.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import boundary, duality, geometry, volume
from .errors import NUMERICAL_ERRORS
from .params import BosonGasParams, BulkParams

SEED = 20250809


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _worst(values) -> float:
    """The largest of values, NaN if any is; max() drops a NaN that is not first."""
    return float(np.max(values))


def _bulk(lambda_eff=-5.0, rp=1.0, V0=0.0, L=1.0, G=1.0, z=4.0, Qt=1.0):
    # xi chosen so Lambda + Qt^2 xi hits the requested value exactly
    xi = (lambda_eff + 3.0 / L**2) / Qt**2
    return BulkParams(L=L, xi=xi, Qt=Qt, V0=V0, z=z, rp=rp, G=G)


#: Ranges of a random bulk draw, in draw order: -lambda_eff, rp, V0, L.
BULK_LOWS, BULK_HIGHS = (0.5, 0.3, -3.0, 0.5), (10.0, 3.0, 3.0, 2.0)


def _random_bulks(rng, n):
    """n random parameter draws from one rng.uniform call, with the values and
    the generator state of drawing each parameter of each set by a scalar call."""
    return [_bulk(lambda_eff=-lam, rp=rp, V0=V0, L=L)
            for lam, rp, V0, L in rng.uniform(BULK_LOWS, BULK_HIGHS, (n, 4)).tolist()]


def _random_bulk(rng):
    """Random parameter draw with a genuine outer horizon at rp: a set where B
    does not grow outward from its zero is drawn again."""
    while True:
        (p,) = _random_bulks(rng, 1)
        slope = geometry.blackening_derivative(p.rp, p)
        if slope > 0.1 * (-geometry.curvature_coefficient(p)) * p.rp:
            return p


def check_overlap_oracle_equivalence() -> CheckResult:
    rng = np.random.default_rng(SEED + 1)
    draws = rng.uniform((0.1, 0.1, -5, -0.5), (10, 10, 5, 0.5), (40, 4)).tolist()
    points = [BosonGasParams(q=q, H=H, beta=beta) for q, H, beta, _ in draws]
    dHs = [u * H for _, H, _, u in draws]
    quad = boundary.overlap_quadrature_block(points, dHs)
    closed = []
    for (q, H, beta, _), dH in zip(draws, dHs):
        a, b = q * H, q * (H + dH)
        closed.append(boundary.gaussian_overlap(a, beta / a, b, beta / b))
    worst = _worst(abs(quad - closed) / closed)
    return CheckResult("overlap-oracle-equivalence", worst <= 1e-10, f"max rel diff = {worst:.2e}")


def check_fit_closed_form() -> CheckResult:
    points = [BosonGasParams(q=q, H=H, beta=beta)
              for q, H, beta in ((1.0, 1.0, 0.0), (0.5, 2.0, 1.0), (2.0, 0.5, -1.5))]
    exact = [boundary.xi_f_analytic(p) for p in points]
    worst = _worst([abs(fit.c_sq - e) / e
                    for fit, e in zip(boundary.xi_f_from_fit_block(points), exact)])
    return CheckResult("fit-closed-form", worst <= 1e-10,
                       f"|c_sq - analytic|/analytic <= {worst:.2e}")


def check_beta_energy_cancellation() -> CheckResult:
    energies = [boundary.oscillator_spectrum_oracle(BosonGasParams(q=1.0, H=1.0, beta=beta))
                for beta in (0.0, 1.0, 2.0)]
    e_ref = energies[0]
    worst = _worst([abs(e - e_ref) / e_ref for e in energies])
    exact = 0.5
    err = abs(e_ref - exact) / exact
    ok = worst <= 1e-12 and err <= 1e-12
    return CheckResult("beta-energy-cancellation", ok,
                       f"beta spread = {worst:.2e}, |E - qH/2m|/E = {err:.2e}")


def check_horizon_root() -> CheckResult:
    rng = np.random.default_rng(SEED + 2)
    worst = _worst([abs(geometry.blackening(p.rp, p)) for p in _random_bulks(rng, 200)])
    return CheckResult("horizon-root", worst <= 1e-12, f"max |B(rp)| = {worst:.2e}")


def check_change_of_variables() -> CheckResult:
    rng = np.random.default_rng(SEED + 4)
    errs = []
    for _ in range(5):
        p = _random_bulk(rng)
        r_inf = p.rp * rng.uniform(5.0, 50.0)
        v_r = volume.volume_exact(p, r_inf).value
        v_w = volume.volume_w_form(p, p.rp / r_inf, "full-B").value
        errs.append(abs(v_r - v_w) / abs(v_r))
    worst = _worst(errs)
    return CheckResult("volume-change-of-variables", worst <= 1e-8, f"max rel diff = {worst:.2e}")


def check_series_convergence_order() -> CheckResult:
    ratios = (0.2, 0.1, 0.05, 0.025)
    diffs = []
    for x in ratios:
        p = _bulk(lambda_eff=-5.0, rp=1.0, V0=6.0 * (-1.0 + x))  # b_minus2=-1, b1=-x
        vq = volume.volume_w_form(p, 0.1, "truncated").value
        vs = volume.volume_series_z4(p, 0.1).value
        diffs.append(abs(vq - vs))
    slope = float(np.polyfit(np.log(ratios), np.log(diffs), 1)[0])
    return CheckResult("series-convergence-order", abs(slope - 2.0) <= 0.2,
                       f"log-log slope = {slope:.3f}")


def check_divergence_universality() -> CheckResult:
    errs = []
    for p in (_bulk(-5.0, 1.0, 0.0), _bulk(-3.0, 1.4, 2.0)):
        fitted = volume.fit_divergence_coefficient(p)
        coeffs = geometry.series_coeffs_z4(p)
        target = p.rp**3 / (2.0 * math.sqrt(-coeffs.b_minus2))
        errs.append(abs(fitted - target) / target)
    worst = _worst(errs)
    return CheckResult("divergence-universality", worst <= 1e-6, f"max rel dev = {worst:.2e}")


def check_regularization_cauchy() -> CheckResult:
    sweep = volume.subtracted_susceptibility(_bulk(-5.0, 1.0, 0.0))
    mags = [abs(d) for d in sweep.differences]
    monotone = all(mags[i + 1] < mags[i] for i in range(len(mags) - 1))
    last_rel = mags[-1] / abs(sweep.values[-1])
    ok = monotone and last_rel < 1e-4
    return CheckResult("regularization-cauchy", ok,
                       f"monotone={monotone}, last diff / value = {last_rel:.2e}")


def check_volume_positivity() -> CheckResult:
    rng = np.random.default_rng(SEED + 5)
    ok = True
    for _ in range(5):
        p = _random_bulk(rng)
        v = volume.volume_exact(p, 10.0 * p.rp)
        ok = ok and v.value > 0 and volume.complexity(v.value, p) > 0
    return CheckResult("volume-positivity", ok, "V > 0 and F > 0 on random valid params")


def check_flag_determinism() -> CheckResult:
    rep = duality.verify_duality(BulkParams(xi=-1.0))
    same = duality.consistency_flags(rep) == rep.flags
    return CheckResult("flag-determinism", same, f"recomputed flags match: {same}")


ALL_CHECKS = (
    check_overlap_oracle_equivalence,
    check_fit_closed_form,
    check_beta_energy_cancellation,
    check_horizon_root,
    check_change_of_variables,
    check_series_convergence_order,
    check_divergence_universality,
    check_regularization_cauchy,
    check_volume_positivity,
    check_flag_determinism,
)


def run_all() -> list[CheckResult]:
    """Run every invariant check; a numerical error a check raises
    (errors.NUMERICAL_ERRORS) becomes its failed result."""
    results = []
    for check in ALL_CHECKS:
        try:
            results.append(check())
        except NUMERICAL_ERRORS as exc:
            name = check.__name__.removeprefix("check_").replace("_", "-")
            results.append(CheckResult(name, False, f"raised {type(exc).__name__}: {exc}"))
    return results
