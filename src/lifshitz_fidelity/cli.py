"""Command-line front end.

    lifshitz-fidelity <subcommand> [--config PATH] [--key value]... [--log]
                      [--out DIR]

Subcommands: boundary, bulk, match, sweep, verify. Every setting is a key,
given as a --key value (or --key=value) flag or as a line of a flat
key = value --config file; flags win over the file. SUBCOMMAND_KEYS lists the
keys each subcommand reads (all of them also read format, csv or json); any
other key is a configuration error. Defaults come from the parameter classes
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
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import boundary, duality, geometry, verification, volume
from .errors import LifshitzFidelityError
from .params import BosonGasParams, BulkParams, QuadratureSpec

BOUNDARY_KEYS = ("N", "q", "m", "H", "beta", "k")
BULK_KEYS = ("L", "xi", "Qt", "V0", "z", "rp", "G")
QUAD_KEYS = ("panels", "levels", "tolerance", "halfwidth")
SWEEP_KEYS = ("axis", "from", "to", "points", "spacing")
RUN_KEYS = ("r_inf",)

#: The keys of each parameter class; their defaults are the CLI's defaults.
PARAM_KEYS = {BosonGasParams: BOUNDARY_KEYS, BulkParams: BULK_KEYS, QuadratureSpec: QUAD_KEYS}

#: The keys each subcommand reads; every subcommand also reads "format".
SUBCOMMAND_KEYS = {
    "boundary": BOUNDARY_KEYS + QUAD_KEYS,
    "bulk": BULK_KEYS + QUAD_KEYS + RUN_KEYS,
    "match": BULK_KEYS,
    "sweep": BOUNDARY_KEYS + BULK_KEYS + QUAD_KEYS + RUN_KEYS + SWEEP_KEYS,
    "verify": (),
}

INT_KEYS = {"N", "points", "panels", "levels"}
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

#: Finest grid of one sweep point (2*panels*2^(levels-1) + 1) from which a sweep
#: runs on every usable core; below it threads only contend for the GIL.
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
        return raw
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


def _effective_config(subcommand: str, *sources) -> dict:
    """Defaults from the parameter classes and CHOICES, then each source in
    turn (later sources win). r_inf, axis, from, to and points have no
    default; they enter the configuration only when given."""
    keys = SUBCOMMAND_KEYS[subcommand] + ("format",)
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
    return cls(**{k: cfg[k] for k in PARAM_KEYS[cls]})


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


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def _write_json(path: Path, doc: dict):
    with open(path, "w", newline="\n") as fh:
        json.dump(_jsonable(doc), fh, indent=2, sort_keys=True)
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
    fit = _call("xi_f_from_fit", boundary.xi_f_from_fit, p, None, spec)
    exact = _call("xi_f_analytic", boundary.xi_f_analytic, p)
    return {
        "xi_f_analytic": exact,
        "xi_f_fitted": fit.c_sq,
        "c_amp": fit.c_amp,
        "fit_residual": fit.residual,
        "residual": abs(fit.c_sq - exact) / exact,
    }


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
    }


def _run_match_point(cfg):
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


def _cmd_boundary(cfg, outdir):
    results = _run_boundary_point(cfg, _params(QuadratureSpec, cfg))
    _emit(outdir, "boundary", cfg, results)
    return 0


def _cmd_bulk(cfg, outdir):
    results = _run_bulk_point(cfg, _params(QuadratureSpec, cfg))
    _emit(outdir, "bulk", cfg, results)
    return 0


def _cmd_match(cfg, outdir):
    results, flags = _run_match_point(cfg)
    _emit(outdir, "match", cfg, results, flags=flags)
    return 0


def _sweep_values(cfg):
    lo, hi, n = cfg["from"], cfg["to"], cfg["points"]
    if n < 2:
        raise _UsageError("sweep needs points >= 2")
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
    finest = 2 * spec.panels * 2 ** (spec.levels - 1) + 1
    return _usable_cores() if finest >= THREADED_GRID_POINTS else 1


def _cmd_sweep(cfg, outdir):
    for key in ("axis", "from", "to", "points"):
        if key not in cfg:
            raise _UsageError(f"sweep requires {key!r}")
    axis = _canonical_key(cfg["axis"])
    if axis not in SWEEPABLE:
        raise _UsageError(f"cannot sweep {cfg['axis']!r}; valid axes: {sorted(SWEEPABLE)}")
    cfg["axis"] = axis
    values = _sweep_values(cfg)
    spec = _params(QuadratureSpec, cfg)
    is_boundary = axis in BOUNDARY_KEYS

    def eval_point(value):
        point_cfg = dict(cfg)
        point_cfg[axis] = float(value)
        where = f"at {axis}={point_cfg[axis]!r}"
        try:
            if is_boundary:
                return _run_boundary_point(point_cfg, spec)
            results = _run_bulk_point(point_cfg, spec)
            match_results, _ = _run_match_point(point_cfg)
        except _NumericalFailure as exc:
            raise _NumericalFailure(f"{exc.op} {where}", exc.cause) from exc
        except NUMERICAL_ERRORS as exc:
            raise _NumericalFailure(f"sweep {where}", exc) from exc
        results["matched_N"] = match_results["matched_N"]
        results["matched_beta2_over_q"] = match_results["matched_beta2_over_q"]
        results["duality_residual"] = match_results["residual"]
        return results

    with ThreadPoolExecutor(_sweep_threads(spec)) as pool:
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
        if ns.subcommand == "boundary":
            return _cmd_boundary(cfg, outdir)
        if ns.subcommand == "bulk":
            return _cmd_bulk(cfg, outdir)
        if ns.subcommand == "match":
            return _cmd_match(cfg, outdir)
        if ns.subcommand == "sweep":
            return _cmd_sweep(cfg, outdir)
        return _cmd_verify(cfg, outdir)
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
