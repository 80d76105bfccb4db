"""Seeded request pools for the four benchmark workloads, and their output checks.

Every workload is a closed loop with one client that cycles through a small
pool of requests generated from the seed. The program only ever sees the
generated CLI arguments. Each request writes its artifacts into an empty
directory, and ``Request.check`` compares them with a reference that does
not come from the program: closed forms computed here, or the committed
bulk reference values in ``bulk_reference.json``.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "bulk_reference.json"

WORKLOADS = ("cli-oneshot", "sweep-boundary", "sweep-bulk-fine", "verify")

#: Points per boundary sweep request. About 0.13-0.3 s at 2 workers on 2
#: cores, so one run holds enough requests for a p90-class tail.
BOUNDARY_SWEEP_POINTS = 128
#: Largest 4 beta^2/(q H) a boundary input may reach. N = 1 fits fail between
#: 300 and 1000; the robustness item's property test owns that domain.
BOUNDARY_X_MAX = 100.0
#: Panels of the bulk sweep grid: 2*65536 + 1 points, about 1 MB per array.
BULK_SWEEP_PANELS = 65536
#: Distinct sweeps per pool, and rounds of the four subcommands per CLI pool;
#: err_digits is a worst case, so it needs this many outputs to be steady.
SWEEP_POOL = 6
CLI_POOL_ROUNDS = 6

#: Relative tolerance of each output against its reference.
TOL_BOUNDARY = 1e-5
TOL_BULK = 1e-9
TOL_MATCH = 1e-12
TOL_DUALITY_RESIDUAL = 1e-10

#: Boundary points of the verify suite's fit checks (q, H, beta); the verify
#: workload's err_digits is measured on them, since run_all reports pass/fail.
VERIFY_FIT_POINTS = ((1.2, 0.8, 0.5), (1.0, 1.0, 0.0), (0.5, 2.0, 1.0), (2.0, 0.5, -1.5))


def xi_f_boundary_closed(N, q, H, beta):
    """N (q H + 4 beta^2) / (8 q H^3), written here independently of the package."""
    return N * (q * H + 4.0 * beta * beta) / (8.0 * q * H**3)


def xi_f_holo_closed(L, xi, Qt, rp, G):
    """z = 4 holographic susceptibility sqrt(5) rp^2 sqrt(-xi) (2 L^2 xi Qt + 3) / (48 pi G L^3 xi^2 Qt^3)."""
    return (math.sqrt(5.0) * rp**2 * math.sqrt(-xi) * (2.0 * L**2 * xi * Qt + 3.0)
            / (48.0 * math.pi * G * L**3 * xi**2 * Qt**3))


def matched_closed(L, xi, rp, G):
    """Dictionary values (N, beta^2/q) from the bulk data."""
    n = -16.0 * math.sqrt(5.0) * L**2 * rp**2 / (48.0 * math.pi * G * L**3 * math.sqrt(-xi))
    return n, 3.0 / (8.0 * L**2 * xi)


def rel_err(got, want):
    return abs(got - want) / abs(want)


@dataclass
class Outcome:
    ok: bool
    worst_rel: float | None  # None when the request has no numeric reference
    note: str = ""


@dataclass
class Request:
    """One request: CLI arguments (without --out) and how to judge its artifacts."""

    sub: str
    argv: list
    points: int
    ref: dict = field(default_factory=dict)

    def check(self, outdir: Path, code: int) -> Outcome:
        if code != 0:
            return Outcome(False, None, f"exit code {code}")
        try:
            return _CHECKS[self.ref["kind"]](self, outdir)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return Outcome(False, None, f"unreadable artifact: {type(exc).__name__}: {exc}")


def _judge(errs, tol):
    worst = max(errs)
    return Outcome(worst <= tol, worst, f"worst rel err {worst:.3e} (tol {tol:g})")


def _check_boundary(req, outdir):
    res = json.loads((outdir / "boundary.json").read_text())["results"]
    r = req.ref
    return _judge([rel_err(res["xi_f_fitted"], xi_f_boundary_closed(1, r["q"], r["H"], r["beta"]))],
                  TOL_BOUNDARY)


def _check_bulk(req, outdir):
    res = json.loads((outdir / "bulk.json").read_text())["results"]
    return _judge([rel_err(res["v_exact"], req.ref["v_ref"])], TOL_BULK)


def _check_match(req, outdir):
    res = json.loads((outdir / "match.json").read_text())["results"]
    r = req.ref
    n, b2q = matched_closed(r["L"], r["xi"], r["rp"], r["G"])
    holo = xi_f_holo_closed(r["L"], r["xi"], r["Qt"], r["rp"], r["G"])
    errs = [rel_err(res["matched_N"], n), rel_err(res["matched_beta2_over_q"], b2q),
            rel_err(res["xi_f_bulk"], holo), rel_err(res["xi_f_boundary"], holo)]
    return _judge(errs, TOL_MATCH)


def _check_verify(req, outdir):
    res = json.loads((outdir / "verify.json").read_text())["results"]
    ok = res["failures"] == 0 and res["checks"] > 0
    return Outcome(ok, None, f"{res['checks'] - res['failures']}/{res['checks']} checks passed")


def read_sweep_csv(path: Path):
    """(header, rows) of a sweep.csv, skipping the '# key = value' echo."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [[float(v) for v in ln.split(",")] for ln in lines[1:]]


def _check_sweep_boundary(req, outdir):
    header, rows = read_sweep_csv(outdir / "sweep.csv")
    r = req.ref
    if len(rows) != req.points:
        return Outcome(False, None, f"{len(rows)} rows, expected {req.points}")
    col = header.index("xi_f_fitted")
    hs = np.linspace(r["from"], r["to"], req.points)
    errs = [rel_err(row[col], xi_f_boundary_closed(1, r["q"], float(h), r["beta"]))
            for row, h in zip(rows, hs)]
    return _judge(errs, TOL_BOUNDARY)


def _check_sweep_bulk(req, outdir):
    header, rows = read_sweep_csv(outdir / "sweep.csv")
    if len(rows) != req.points:
        return Outcome(False, None, f"{len(rows)} rows, expected {req.points}")
    vcol, dcol = header.index("v_exact"), header.index("duality_residual")
    if max(row[dcol] for row in rows) > TOL_DUALITY_RESIDUAL:
        return Outcome(False, None, "duality residual above tolerance")
    errs = [rel_err(row[vcol], v) for row, v in zip(rows, req.ref["v_ref"])]
    return _judge(errs, TOL_BULK)


_CHECKS = {
    "boundary": _check_boundary,
    "bulk": _check_bulk,
    "match": _check_match,
    "verify": _check_verify,
    "sweep-boundary": _check_sweep_boundary,
    "sweep-bulk": _check_sweep_bulk,
}


# ---------- input generation ----------

def load_bulk_cases():
    return json.loads(REFERENCE_FILE.read_text())["cases"]


def _arg(x: float) -> str:
    # repr round-trips, so the program parses exactly the float the check uses
    return repr(float(x))


def _bulk_argv(case, Qt=None):
    p = case["params"]
    argv = []
    for key in ("L", "xi", "rp", "G", "V0"):
        argv += [f"--{key}", _arg(p[key])]
    if Qt is not None:
        argv += ["--Qt", _arg(Qt)]
    return argv


def boundary_point(rng: random.Random):
    """(q, H_lo, H_hi, beta) from the verify suite's ranges, with 4 beta^2/(q H) <= BOUNDARY_X_MAX."""
    q = rng.uniform(0.1, 10.0)
    h_lo = rng.uniform(0.1, 5.0)
    h_hi = rng.uniform(1.5 * h_lo, 10.0)
    beta_max = min(5.0, math.sqrt(BOUNDARY_X_MAX * q * h_lo / 4.0))
    return q, h_lo, h_hi, rng.uniform(-beta_max, beta_max)


def _cli_pool(rng):
    cases = load_bulk_cases()
    pool = []
    for _ in range(CLI_POOL_ROUNDS):
        q, h, _, beta = boundary_point(rng)
        pool.append(Request("boundary", ["boundary", "--N", "1", "--q", _arg(q), "--H", _arg(h),
                                         "--beta", _arg(beta)], 1,
                            {"kind": "boundary", "q": q, "H": h, "beta": beta}))
        case = cases[rng.randrange(len(cases))]
        qt = case["Qt_from"]
        pool.append(Request("bulk", ["bulk", *_bulk_argv(case, qt), "--r_inf", _arg(case["r_inf"])], 1,
                            {"kind": "bulk", "v_ref": case["v_ref"][0]}))
        case = cases[rng.randrange(len(cases))]
        p = dict(case["params"], Qt=case["Qt_to"])
        pool.append(Request("match", ["match", *_bulk_argv(case, p["Qt"])], 1,
                            {"kind": "match", **p}))
        pool.append(Request("verify", ["verify"], 1, {"kind": "verify"}))
    return pool


def _sweep_boundary_pool(rng):
    pool = []
    for _ in range(SWEEP_POOL):
        q, h_lo, h_hi, beta = boundary_point(rng)
        argv = ["sweep", "--axis", "H", "--from", _arg(h_lo), "--to", _arg(h_hi),
                "--points", str(BOUNDARY_SWEEP_POINTS), "--N", "1", "--q", _arg(q),
                "--beta", _arg(beta)]
        pool.append(Request("sweep", argv, BOUNDARY_SWEEP_POINTS,
                            {"kind": "sweep-boundary", "q": q, "beta": beta,
                             "from": h_lo, "to": h_hi}))
    return pool


def _sweep_bulk_pool(rng):
    cases = load_bulk_cases()
    pool = []
    for idx in rng.sample(range(len(cases)), SWEEP_POOL):
        case = cases[idx]
        argv = ["sweep", "--axis", "Qt", "--from", _arg(case["Qt_from"]),
                "--to", _arg(case["Qt_to"]), "--points", str(case["points"]), "--log",
                "--panels", str(BULK_SWEEP_PANELS), *_bulk_argv(case),
                "--r_inf", _arg(case["r_inf"])]
        pool.append(Request("sweep", argv, case["points"],
                            {"kind": "sweep-bulk", "v_ref": case["v_ref"]}))
    return pool


def make_pool(workload: str, seed: int) -> list:
    """The seeded request pool of a workload. verify takes no inputs: run_all is fixed."""
    rng = random.Random(seed)
    if workload == "cli-oneshot":
        return _cli_pool(rng)
    if workload == "sweep-boundary":
        return _sweep_boundary_pool(rng)
    if workload == "sweep-bulk-fine":
        return _sweep_bulk_pool(rng)
    if workload == "verify":
        return [Request("verify", ["verify"], 1, {"kind": "verify"})]
    raise ValueError(f"unknown workload {workload!r}")


def verify_fit_errors():
    """Relative errors of the boundary fit at the verify suite's own points,
    against the closed form here. Needs the package on sys.path."""
    from lifshitz_fidelity import BosonGasParams, boundary

    return [rel_err(boundary.xi_f_from_fit(BosonGasParams(q=q, H=H, beta=b)).c_sq,
                    xi_f_boundary_closed(1, q, H, b))
            for q, H, b in VERIFY_FIT_POINTS]
