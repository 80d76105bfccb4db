"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Timing assertions measure the computation after a small warmup call so that
one-time start-up costs are not billed to the criterion.
"""
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from lifshitz_fidelity import (
    BosonGasParams,
    BulkParams,
    blackening,
    fit_divergence_coefficient,
    gaussian_overlap,
    match_parameters,
    oscillator_spectrum_oracle,
    overlap_quadrature,
    subtracted_susceptibility,
    verify_duality,
    volume_series_z4,
    volume_w_form,
    xi_f_analytic,
    xi_f_from_fit,
    xi_f_holo_z4,
)
from lifshitz_fidelity.cli import main as cli_main
from lifshitz_fidelity.duality import FLAG_NEGATIVE_B2Q, FLAG_NEGATIVE_N
from lifshitz_fidelity.geometry import series_coeffs_z4
from lifshitz_fidelity.verification import _bulk


def _report(capsys, num, passed, detail):
    line = f"[criterion {num:2d}] {'PASS' if passed else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line, flush=True)


def test_criterion_1_boundary_oracle_equality(capsys):
    overlap_quadrature(BosonGasParams(), 0.1)  # warmup
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        q = rng.uniform(0.1, 10.0)
        H = rng.uniform(0.1, 10.0)
        beta = rng.uniform(-5.0, 5.0)
        dH = rng.uniform(-0.5, 0.5) * H
        p = BosonGasParams(q=q, H=H, beta=beta)
        a, b = q * H, q * (H + dH)
        closed = gaussian_overlap(a, beta / a, b, beta / b)
        worst = max(worst, abs(overlap_quadrature(p, dH) - closed) / closed)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(capsys, 1, ok, f"quadrature vs closed-form overlap: max rel diff {worst:.2e} "
                   f"over 100 draws in {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_2_susceptibility_formula_reproduction(capsys):
    xi_f_from_fit(BosonGasParams())  # warmup
    t0 = time.perf_counter()
    worst_sq = 0.0
    for q in (0.5, 1.0, 2.0):
        for H in (0.5, 1.0, 2.0):
            for beta in (0.0, 0.7, 1.5):
                for N in (1, 8):
                    p = BosonGasParams(N=N, q=q, H=H, beta=beta)
                    fit = xi_f_from_fit(p)
                    exact = xi_f_analytic(p)
                    worst_sq = max(worst_sq, abs(fit.c_sq - exact) / exact)
    elapsed = time.perf_counter() - t0
    ok = worst_sq <= 1e-5 and elapsed < 30.0
    _report(capsys, 2, ok, f"fitted c_sq vs N(qH+4b^2)/(8qH^3): max rel {worst_sq:.2e}, "
                   f"{elapsed:.2f}s")
    assert worst_sq <= 1e-5
    assert elapsed < 30.0


def test_criterion_3_horizon_identity(capsys):
    rng = np.random.default_rng(103)
    params = [
        _bulk(
            lambda_eff=-rng.uniform(0.5, 10.0),
            rp=rng.uniform(0.3, 3.0),
            V0=rng.uniform(-3.0, 3.0),
            L=rng.uniform(0.5, 2.0),
        )
        for _ in range(1000)
    ]
    blackening(params[0].rp, params[0])  # warmup
    t0 = time.perf_counter()
    worst = max(abs(blackening(p.rp, p)) for p in params)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(capsys, 3, ok, f"|B(rp)| <= {worst:.2e} over 1000 random sets in {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_4_eigenvalue_oracle(capsys):
    oscillator_spectrum_oracle(BosonGasParams())  # warmup
    rng = np.random.default_rng(104)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(10):
        p = BosonGasParams(
            q=rng.uniform(0.5, 3.0),
            m=rng.uniform(0.5, 2.0),
            H=rng.uniform(0.5, 3.0),
            beta=rng.uniform(-2.0, 2.0),
            k=rng.uniform(0.0, 3.0),
        )
        exact = (p.q * p.H + p.k**2) / (2 * p.m)
        worst = max(worst, abs(oscillator_spectrum_oracle(p) - exact) / exact)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 60.0
    _report(capsys, 4, ok, f"grid eigenvalue vs (qH+k^2)/(2m): max rel {worst:.2e} "
                   f"over 10 sets (beta randomized) in {elapsed:.2f}s")
    assert worst <= 1e-5
    assert elapsed < 60.0


def test_criterion_5_series_convergence_order(capsys):
    ratios = (0.2, 0.1, 0.05, 0.025)
    volume_w_form(_bulk(V0=6.0 * (0.2 - 1.0)), 0.1, "truncated")  # warmup
    t0 = time.perf_counter()
    diffs = []
    for x in ratios:
        p = _bulk(lambda_eff=-5.0, rp=1.0, V0=6.0 * (x - 1.0))  # b1/b_minus2 = x
        vq = volume_w_form(p, 0.1, "truncated").value
        vs = volume_series_z4(p, 0.1).value
        diffs.append(abs(vq - vs))
    slope = float(np.polyfit(np.log(ratios), np.log(diffs), 1)[0])
    elapsed = time.perf_counter() - t0
    ok = abs(slope - 2.0) <= 0.2 and elapsed < 30.0
    _report(capsys, 5, ok, f"log-log slope of |V_quadrature - V_series| = {slope:.3f} "
                   f"(target 2.0 +- 0.2) in {elapsed:.2f}s")
    assert abs(slope - 2.0) <= 0.2
    assert elapsed < 30.0


def test_criterion_6_divergence_coefficient(capsys):
    sets = [
        _bulk(-5.0, 1.0, 0.0),
        _bulk(-3.0, 1.4, 2.0),
        _bulk(-8.0, 0.6, -1.0),
        _bulk(-5.0, 2.0, 0.0, L=0.7),
        _bulk(-1.5, 1.0, 0.5),
    ]
    fit_divergence_coefficient(sets[0])  # warmup
    t0 = time.perf_counter()
    worst = 0.0
    for p in sets:
        target = p.rp**3 / (2.0 * math.sqrt(-series_coeffs_z4(p).b_minus2))
        worst = max(worst, abs(fit_divergence_coefficient(p) - target) / target)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    _report(capsys, 6, ok, f"fitted eps^-2 coefficient vs rp^3/(2 sqrt(-b_minus2)): "
                   f"max rel {worst:.2e} over 5 sets in {elapsed:.2f}s")
    assert worst <= 1e-6
    assert elapsed < 30.0


def test_criterion_7_regularization_convergence(capsys):
    subtracted_susceptibility(_bulk(), factors=(10.0, 20.0))  # warmup
    t0 = time.perf_counter()
    results = []
    for p in (_bulk(-5.0, 1.0, 0.0), _bulk(-5.0, 1.3, -2.1)):
        sweep = subtracted_susceptibility(p, factors=(50.0, 100.0, 200.0, 400.0))
        mags = [abs(d) for d in sweep.differences]
        monotone = all(mags[i + 1] < mags[i] for i in range(len(mags) - 1))
        last_rel = mags[-1] / abs(sweep.values[-1])
        results.append((monotone, last_rel))
    elapsed = time.perf_counter() - t0
    ok = all(m and r < 1e-4 for m, r in results) and elapsed < 60.0
    worst = max(r for _, r in results)
    _report(capsys, 7, ok, f"subtracted complexity Cauchy at r_inf/rp in (50,100,200,400): "
                   f"monotone, last diff/value <= {worst:.2e} in {elapsed:.2f}s")
    for monotone, last_rel in results:
        assert monotone
        assert last_rel < 1e-4
    assert elapsed < 60.0


def test_criterion_8_dictionary_identity(capsys):
    verify_duality(BulkParams(xi=-1.0))  # warmup
    rng = np.random.default_rng(108)
    t0 = time.perf_counter()
    worst = 0.0
    flags_ok = True
    for qt in (1.0, 2.0, 5.0, 10.0):
        report = verify_duality(BulkParams(Qt=qt, xi=-1.0))
        worst = max(worst, report.residual)
        flags_ok = flags_ok and {FLAG_NEGATIVE_N, FLAG_NEGATIVE_B2Q} <= set(report.flags)
    for _ in range(20):
        p = BulkParams(
            rp=rng.uniform(0.3, 3.0),
            L=rng.uniform(0.5, 2.0),
            xi=-rng.uniform(0.2, 3.0),
            G=rng.uniform(0.5, 2.0),
        )
        report = verify_duality(p)
        worst = max(worst, report.residual)
        flags_ok = flags_ok and {FLAG_NEGATIVE_N, FLAG_NEGATIVE_B2Q} <= set(report.flags)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and flags_ok and elapsed < 5.0
    _report(capsys, 8, ok, f"dictionary residual <= {worst:.2e} over Qt sweep + 20 random sets, "
                   f"sign flags {'present' if flags_ok else 'MISSING'}, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert flags_ok
    assert elapsed < 5.0


def test_criterion_9_spot_values(capsys):
    holo = xi_f_holo_z4(BulkParams(rp=1.0, xi=-1.0, L=1.0, G=1.0, Qt=1.0))
    holo_target = math.sqrt(5) / (48 * math.pi)
    analytic = xi_f_analytic(BosonGasParams(N=1, q=1.0, H=1.0, beta=0.0))
    n_matched, _ = match_parameters(BulkParams(rp=1.0, L=1.0, xi=-1.0, G=1.0))
    n_target = -16 * math.sqrt(5) / (48 * math.pi)
    ok = (
        abs(holo - holo_target) <= 1e-12 * abs(holo_target)
        and analytic == 0.125
        and abs(n_matched - n_target) <= 1e-12 * abs(n_target)
    )
    _report(capsys, 9, ok, f"xi_f_holo = sqrt(5)/(48 pi) ({holo:.12e}), xi_f_analytic = 0.125 exactly, "
                   f"matched N = -16 sqrt(5)/(48 pi) ({n_matched:.12e})")
    assert abs(holo - holo_target) <= 1e-12 * abs(holo_target)
    assert analytic == 0.125
    assert abs(n_matched - n_target) <= 1e-12 * abs(n_target)


def test_criterion_10_cli_determinism_and_fault_detection(tmp_path, monkeypatch, capsys):
    sweep_args = ["sweep", "--axis", "Qt", "--from", "1", "--to", "10",
                  "--points", "5", "--log"]
    out1, out2 = tmp_path / "one", tmp_path / "two"
    for out in (out1, out2):
        proc = subprocess.run(
            [sys.executable, "-m", "lifshitz_fidelity", *sweep_args, "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
    identical = (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()

    verify_ok = cli_main(["verify", "--out", str(tmp_path / "v")]) == 0

    from lifshitz_fidelity import geometry

    true_blackening = geometry.blackening
    monkeypatch.setattr(geometry, "blackening", lambda r, p: true_blackening(r, p) + 1e-6)
    fault_detected = cli_main(["verify", "--out", str(tmp_path / "vf")]) != 0
    monkeypatch.undo()

    ok = identical and verify_ok and fault_detected
    _report(capsys, 10, ok, f"sweep CSVs byte-identical: {identical}, verify exit 0: {verify_ok}, "
                    f"fault injection detected: {fault_detected}")
    assert identical
    assert verify_ok
    assert fault_detected
