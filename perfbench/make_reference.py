"""Regenerate bulk_reference.json, the bulk route's committed reference values.

Run from the repository root (needs mpmath; the benchmark itself does not):

    python3 perfbench/make_reference.py

The cases are drawn once from a fixed generation seed; a benchmark seed
only picks among them. Each reference volume is the w = rp/r coordinate
integral V = rp^3 int_eps^1 dw / (w^4 sqrt(b(w))), b(w) = B(rp/w), written
here from the blackening factor's definition and evaluated by mpmath at 30
digits after w = 1 - t^2, which removes the horizon's inverse-sqrt zero.

The program's own ``volume_w_form`` is not used for the values: in double
precision its near-horizon cancellation gives a floor near 1e-12 that grows
with the grid (about 1e-10 at 2^19 panels), so no grid makes its error
negligible. It is recorded beside each case as a cross-check instead.
"""
from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import mpmath as mp
import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from lifshitz_fidelity import BulkParams, volume  # noqa: E402

GENERATION_SEED = 20170125
CASES = 24
POINTS = 16
DIGITS = 30
Z = 4.0


def draw_case(rng: random.Random) -> dict:
    # V0 >= 0 and xi < 0 keep B(r) > 0 beyond a simple horizon at rp for every Qt.
    params = {
        "L": rng.uniform(0.5, 2.0),
        "xi": -rng.uniform(0.2, 3.0),
        "rp": rng.uniform(0.3, 3.0),
        "G": rng.uniform(0.5, 2.0),
        "V0": rng.uniform(0.0, 3.0),
    }
    qt_from = 10.0 ** rng.uniform(-0.3, 0.3)
    qt_to = qt_from * rng.uniform(3.0, 20.0)
    r_inf = params["rp"] * rng.uniform(20.0, 200.0)
    return {"params": params, "Qt_from": qt_from, "Qt_to": qt_to, "points": POINTS, "r_inf": r_inf}


def w_volume(params: dict, Qt: float, r_inf: float):
    """rp^3 int_eps^1 dw / (w^4 sqrt(b(w))) at DIGITS digits, eps = rp / r_inf.

    b(w) = cv (1 - w^ze) + cm rp^2 (w^ze - w^-2) vanishes at w = 1 exactly;
    with w = 1 - t^2 both differences are taken through expm1/log1p.
    """
    L, xi, rp, V0 = (mp.mpf(params[k]) for k in ("L", "xi", "rp", "V0"))
    z = mp.mpf(Z)
    cv = (2 / (2 + z)) * (V0 / 2)
    cm = 2 * (-3 / L**2 + mp.mpf(Qt) ** 2 * xi) / (6 + z)
    ze = 1 + z / 2

    def integrand(t):
        log_w = mp.log1p(-t * t)
        one_minus_wze = -mp.expm1(ze * log_w)
        b = cv * one_minus_wze + cm * rp**2 * (-one_minus_wze - mp.expm1(-2 * log_w))
        return 2 * t / (mp.exp(4 * log_w) * mp.sqrt(b))

    t_hi = mp.sqrt(1 - rp / mp.mpf(r_inf))
    return rp**3 * mp.quad(integrand, [0, mp.sqrt(mp.mpf(1) / 2), t_hi])


def reference_volumes(case: dict):
    values, w_form_diff = [], []
    for qt in np.geomspace(case["Qt_from"], case["Qt_to"], case["points"]):
        qt = float(qt)
        v = float(w_volume(case["params"], qt, case["r_inf"]))
        p = BulkParams(Qt=qt, z=Z, **case["params"])
        w_form = volume.volume_w_form(p, p.rp / case["r_inf"], "full-B").value
        values.append(v)
        w_form_diff.append(abs(w_form - v) / abs(v))
    return values, w_form_diff


def main():
    mp.mp.dps = DIGITS
    rng = random.Random(GENERATION_SEED)
    cases = []
    for _ in range(CASES):
        case = draw_case(rng)
        case["v_ref"], case["w_form_rel_diff"] = reference_volumes(case)
        cases.append(case)
    doc = {
        "command": "python3 perfbench/make_reference.py",
        "route": f"w = rp/r integral, full B, z = {Z}, mpmath tanh-sinh at {DIGITS} digits",
        "cross_check": "w_form_rel_diff = |volume_w_form (default grid) - v_ref| / v_ref",
        "generation_seed": GENERATION_SEED,
        "cases": cases,
    }
    out = HERE / "bulk_reference.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    worst = max(max(c["w_form_rel_diff"]) for c in cases)
    print(f"wrote {len(cases)} cases to {out}; worst volume_w_form rel diff {worst:.2e}")


if __name__ == "__main__":
    main()
