"""Command-line front end.

    lifshitz-fidelity <subcommand> [--config PATH] [--key value]... [--log]
                      [--out DIR]

Subcommands: boundary, bulk, match, sweep, verify. Every setting is a key,
given as a --key value (or --key=value) flag or as a line of a flat
key = value --config file; flags win over the file. SUBCOMMAND_KEYS lists the
keys each subcommand reads (all of them also read format, csv or json); a
sweep also reads the keys of its axis's side, boundary or bulk. Any other key
is a configuration error. Defaults come from the parameter classes
(BosonGasParams, BulkParams, QuadratureSpec). --log is shorthand for
--spacing log. Every artifact echoes the effective configuration in its
header, so re-running from the echoed block reproduces the artifact byte for
byte. Sweeps pick their thread count from the grid size
(THREADED_GRID_POINTS); it never changes output.

Exit codes: 0 success, 1 configuration failure, 2 numerical failure,
including a parameter value outside its domain. An exit-2 diagnostic names
the failing operation (the subcommand when no named operation was running)
and, in a sweep, the parameter point.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import boundary, duality, geometry, verification, volume
from .errors import LifshitzFidelityError
from .params import BosonGasParams, BulkParams, QuadratureSpec

BOUNDARY_KEYS = ("N", "q", "m", "H", "beta", "k")
#: BulkParams.z is not a key: every bulk output needs z = 4.
BULK_KEYS = ("L", "xi", "Qt", "V0", "rp", "G")
QUAD_KEYS = ("panels", "tolerance", "halfwidth")
SWEEP_KEYS = ("axis", "from", "to", "points", "spacing")
RUN_KEYS = ("r_inf",)

#: The keys of each parameter class; their defaults are the CLI's defaults.
PARAM_KEYS = {BosonGasParams: BOUNDARY_KEYS, BulkParams: BULK_KEYS, QuadratureSpec: QUAD_KEYS}

#: The keys each subcommand reads; every subcommand also reads "format", and a
#: sweep also reads the keys of its side, "boundary" or "bulk" (_sweep_side).
SUBCOMMAND_KEYS = {
    "boundary": BOUNDARY_KEYS + QUAD_KEYS,
    "bulk": BULK_KEYS + ("panels", "tolerance") + RUN_KEYS,  # halfwidth sizes Gaussian grids only
    "match": BULK_KEYS,
    "sweep": SWEEP_KEYS,
    "verify": (),
}

INT_KEYS = {"N", "points", "panels"}
#: String keys with a fixed set of values; the first is the default.
CHOICES = {"format": ("json", "csv"), "spacing": ("linear", "log")}
STR_KEYS = {"axis"} | set(CHOICES)

#: CLI spellings mapped onto canonical field names.
KEY_ALIASES = {
    "Q": "Qt", "Q~": "Qt", "Q̃": "Qt", "Qtilde": "Qt",
    "β": "beta", "ξ": "xi",
    "V₀0": "V0", "V₀": "V0", "V0~": "V0", "Vt0": "V0",
    "r+": "rp", "r₊": "rp",
}

SWEEPABLE = set(BOUNDARY_KEYS + BULK_KEYS) - {"N"}

#: First grid of one sweep point (4*panels + 1) from which a sweep runs on
#: every usable core; below it a sweep runs in the calling thread, since
#: threads only contend for the GIL.
THREADED_GRID_POINTS = 2**16


class _UsageError(Exception):
    pass


#: Failures of a computation (as opposed to a bad configuration): exit 2.
NUMERICAL_ERRORS = (LifshitzFidelityError, ArithmeticError, np.linalg.LinAlgError)


class _NumericalFailure(Exception):
    def __init__(self, op, cause):
        super().__init__(f"{op}: {cause}")
        self.op = op
        self.cause = cause


def _call(op, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except NUMERICAL_ERRORS as exc:
        raise _NumericalFailure(op, exc) from exc


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# ---------- configuration ----------

def _canonical_key(raw: str) -> str:
    key = raw.lstrip("-").strip()
    return KEY_ALIASES.get(key, key)


def _coerce(key: str, raw: str):
    if key in STR_KEYS:
        return _canonical_key(raw) if key == "axis" else raw  # an axis names a key
    try:
        if key in INT_KEYS:
            return int(raw)
        return float(raw)
    except ValueError:
        raise _UsageError(f"cannot parse value {raw!r} for key {key!r}")


def parse_config_file(path) -> dict:
    """Flat key = value lines; '#' starts a comment."""
    out = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise _UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, value = stripped.split("=", 1)
        out[_canonical_key(key)] = value.strip()
    return out


def _parse_extras(tokens) -> dict:
    out = {}
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if not tok.startswith("--"):
            raise _UsageError(f"unexpected argument {tok!r}")
        if "=" in tok:
            key, value = tok.split("=", 1)
            i += 1
        else:
            if i + 1 >= len(tokens):
                raise _UsageError(f"flag {tok!r} is missing a value")
            key, value = tok, tokens[i + 1]
            i += 2
        out[_canonical_key(key)] = value
    return out


def _sweep_side(axis: str) -> str:
    """The run a sweep repeats over its axis, "boundary" or "bulk"."""
    return "boundary" if axis in BOUNDARY_KEYS else "bulk"


def _effective_config(subcommand: str, *sources) -> dict:
    """Defaults from the parameter classes and CHOICES, then each source in
    turn (later sources win). r_inf, from, to and points have no default;
    they enter the configuration only when given. A sweep's axis (the last
    one given) is checked first: its side decides which keys the sweep reads."""
    keys = SUBCOMMAND_KEYS[subcommand] + ("format",)
    if subcommand == "sweep":
        axis = next((s["axis"] for s in reversed(sources) if "axis" in s), None)
        if axis is None:
            raise _UsageError("sweep requires 'axis'")
        if _canonical_key(axis) not in SWEEPABLE:
            raise _UsageError(f"cannot sweep {axis!r}; valid axes: {sorted(SWEEPABLE)}")
        keys += SUBCOMMAND_KEYS[_sweep_side(_canonical_key(axis))]
    cfg = {key: CHOICES[key][0] for key in keys if key in CHOICES}
    for cls, owned in PARAM_KEYS.items():
        defaults = cls()
        cfg.update((key, getattr(defaults, key)) for key in owned if key in keys)
    for source in sources:
        for key, raw in source.items():
            if key not in keys:
                raise _UsageError(f"key {key!r} is not used by subcommand {subcommand!r}")
            cfg[key] = _coerce(key, raw)
    for key, allowed in CHOICES.items():
        if key in cfg and cfg[key] not in allowed:
            raise _UsageError(f"{key} must be {' or '.join(allowed)}, got {cfg[key]!r}")
    return cfg


def _params(cls, cfg):
    return cls(**{k: cfg[k] for k in PARAM_KEYS[cls] if k in cfg})


# ---------- output ----------

def _fmt_csv(v) -> str:
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def _fmt_cfg(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _config_lines(cfg: dict) -> list:
    return [f"{k} = {_fmt_cfg(v)}" for k, v in sorted(cfg.items())]


def _write_json(path: Path, doc: dict):
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=lambda o: o.item())  # numpy scalars
        fh.write("\n")


def _write_csv(path: Path, cfg: dict, header, rows):
    with open(path, "w", newline="\n") as fh:
        for line in _config_lines(cfg):
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt_csv(v) for v in row) + "\n")


def _emit(outdir: Path, name: str, cfg: dict, results: dict, flags=(), invariants=()):
    doc = {
        "config": cfg,
        "results": results,
        "flags": list(flags),
        "invariants": [
            {"name": c.name, "passed": c.passed, "detail": c.detail} for c in invariants
        ],
    }
    _write_json(outdir / f"{name}.json", doc)
    if cfg.get("format") == "csv":
        keys = sorted(results)
        _write_csv(outdir / f"{name}.csv", cfg, keys, [[results[k] for k in keys]])
    for key in sorted(results):
        print(f"{key} = {_fmt_csv(results[key])}")
    for flag in flags:
        print(f"flag: {flag}")


# ---------- subcommands ----------

def _run_boundary_point(cfg, spec):
    p = _params(BosonGasParams, cfg)
    fit = _call("xi_f_from_fit", boundary.xi_f_from_fit, p, spec)
    exact = _call("xi_f_analytic", boundary.xi_f_analytic, p)
    return {
        "xi_f_analytic": exact,
        "xi_f_fitted": fit.c_sq,
        "fit_residual": fit.residual,
        "residual": abs(fit.c_sq - exact) / exact,
    }, ()


def _series_finite(p):
    coeffs = geometry.series_coeffs_z4(p)
    return volume.series_finite_part(coeffs.b1, coeffs.b_minus2, p.rp)


def _run_bulk_point(cfg, spec):
    p = _params(BulkParams, cfg)
    r_inf = cfg.get("r_inf", 100.0 * p.rp)
    eps = p.rp / r_inf
    v_exact = _call("volume_exact", volume.volume_exact, p, r_inf, spec)
    v_series = _call("volume_series_z4", volume.volume_series_z4, p, eps)
    xi_holo = _call("xi_f_holo_z4", volume.xi_f_holo_z4, p)
    finite = _call("series_finite_part", _series_finite, p)
    return {
        "v_exact": v_exact.value,
        "v_exact_error": v_exact.error_estimate,
        "v_series": v_series.value,
        "v_series_finite": finite,
        "xi_f_holo": xi_holo,
    }, ()


def _run_match_point(cfg, spec):
    p = _params(BulkParams, cfg)
    report = _call("verify_duality", duality.verify_duality, p)
    results = {
        "matched_N": report.matched_N,
        "matched_beta2_over_q": report.matched_beta2_over_q,
        "xi_f_bulk": report.xi_f_bulk,
        "xi_f_boundary": report.xi_f_boundary,
        "residual": report.residual,
    }
    return results, report.flags


#: The single-point runs, each (cfg, spec) -> (results, flags).
RUNNERS = {"boundary": _run_boundary_point, "bulk": _run_bulk_point, "match": _run_match_point}


def _cmd_point(subcommand, cfg, outdir):
    results, flags = RUNNERS[subcommand](cfg, _params(QuadratureSpec, cfg))
    _emit(outdir, subcommand, cfg, results, flags=flags)
    return 0


def _sweep_values(cfg):
    for key in ("from", "to", "points"):
        if key not in cfg:
            raise _UsageError(f"sweep requires {key!r}")
    lo, hi, n = cfg["from"], cfg["to"], cfg["points"]
    if n < 2:
        raise _UsageError("sweep needs points >= 2")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise _UsageError("sweep range must be finite")
    if lo == hi:
        raise _UsageError("sweep range is degenerate")
    if cfg["spacing"] == "log":
        if lo <= 0 or hi <= 0:
            raise _UsageError("log spacing needs positive endpoints")
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):  # the affinity mask, where there is one
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sweep_threads(spec) -> int:
    return _usable_cores() if 4 * spec.panels + 1 >= THREADED_GRID_POINTS else 1


def _cmd_sweep(cfg, outdir):
    axis = cfg["axis"]
    side = _sweep_side(axis)
    values = _sweep_values(cfg)
    spec = _params(QuadratureSpec, cfg)

    def eval_point(value):
        point_cfg = {**cfg, axis: float(value)}
        where = f"at {axis}={point_cfg[axis]!r}"
        try:
            results, _ = RUNNERS[side](point_cfg, spec)
            if side == "bulk":  # a bulk row also checks the dictionary
                m, _ = _run_match_point(point_cfg, spec)
                results.update(matched_N=m["matched_N"], duality_residual=m["residual"],
                               matched_beta2_over_q=m["matched_beta2_over_q"])
        except _NumericalFailure as exc:
            raise _NumericalFailure(f"{exc.op} {where}", exc.cause) from exc
        except NUMERICAL_ERRORS as exc:
            raise _NumericalFailure(f"sweep {where}", exc) from exc
        return results

    threads = _sweep_threads(spec)
    if threads == 1:
        rows_dicts = [eval_point(v) for v in values]
    else:
        with ThreadPoolExecutor(threads) as pool:
            rows_dicts = list(pool.map(eval_point, values))

    columns = [axis] + sorted(rows_dicts[0])
    rows = [[float(v)] + [d[k] for k in columns[1:]] for v, d in zip(values, rows_dicts)]
    _write_csv(outdir / "sweep.csv", cfg, columns, rows)
    for col_idx, col in enumerate(columns[1:], start=1):
        with open(outdir / f"plot_{col}.dat", "w", newline="\n") as fh:
            for row in rows:
                fh.write(f"{_fmt_csv(row[0])} {_fmt_csv(row[col_idx])}\n")
    doc_results = {"rows": len(rows), "columns": columns}
    _write_json(outdir / "sweep.json", {"config": cfg, "results": doc_results,
                                        "flags": [], "invariants": []})
    print(f"sweep: {len(rows)} points over {axis} -> {outdir / 'sweep.csv'}")
    return 0


def _cmd_verify(cfg, outdir):
    checks = verification.run_all()
    width = max(len(c.name) for c in checks)
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{status}  {c.name:<{width}}  {c.detail}")
    n_fail = sum(not c.passed for c in checks)
    print(f"{len(checks) - n_fail}/{len(checks)} invariant checks passed")
    _emit(outdir, "verify", cfg, {"checks": len(checks), "failures": n_fail},
          invariants=checks)
    return 0 if n_fail == 0 else 1


# ---------- entry point ----------

def main(argv=None) -> int:
    parser = _Parser(prog="lifshitz-fidelity", allow_abbrev=False)
    parser.add_argument("subcommand", choices=SUBCOMMAND_KEYS)
    parser.add_argument("--config", default=None)
    parser.add_argument("--out", default=".")
    parser.add_argument("--log", action="store_true")  # shorthand for --spacing log
    try:
        ns, extra = parser.parse_known_args(argv)
        flag_cfg = _parse_extras(extra)
        if ns.log:
            flag_cfg["spacing"] = "log"
        file_cfg = parse_config_file(ns.config) if ns.config else {}
        cfg = _effective_config(ns.subcommand, file_cfg, flag_cfg)
        outdir = Path(ns.out)
        outdir.mkdir(parents=True, exist_ok=True)
    except (_UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        if ns.subcommand == "sweep":
            return _cmd_sweep(cfg, outdir)
        if ns.subcommand == "verify":
            return _cmd_verify(cfg, outdir)
        return _cmd_point(ns.subcommand, cfg, outdir)
    except (_UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _NumericalFailure as exc:
        print(f"numerical failure in {exc.op}: {exc.cause}", file=sys.stderr)
        return 2
    except NUMERICAL_ERRORS as exc:  # raised outside a named operation
        print(f"numerical failure in {ns.subcommand}: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main())
