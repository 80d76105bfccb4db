import contextlib
import io
import json
import math
import tempfile

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from lifshitz_fidelity import boundary, cli, geometry, kernels, volume
from lifshitz_fidelity.cli import main


def run(args):
    return main(list(args))


#: Every key a sweep could be given besides its axis, and a raw value each parses from.
SETTABLE = ("N", "q", "m", "H", "beta", "k", "L", "xi", "Qt", "V0", "rp", "G", "panels",
            "tolerance", "halfwidth", "r_inf", "from", "to", "points", "spacing", "format")
RAW = {"N": "2", "points": "3", "panels": "128", "spacing": "log", "format": "csv"}
AXES = sorted(cli.SWEEPABLE)
SPELLINGS = {**{a: a for a in AXES}, "β": "beta", "ξ": "xi", "Q̃": "Qt", "r₊": "rp"}


def _other_side(axis):
    """The keys a sweep over axis rejects: those only the other side reads."""
    if axis in ("q", "m", "H", "beta", "k"):
        return {"L", "xi", "Qt", "V0", "rp", "G", "r_inf"}
    return {"N", "q", "m", "H", "beta", "k", "halfwidth"}


def test_boundary_run_reports_closed_form(tmp_path):
    code = run(["boundary", "--N", "1", "--q", "1", "--H", "1", "--beta", "0",
                "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "boundary.json").read_text())
    assert doc["results"]["xi_f_analytic"] == 0.125
    assert abs(doc["results"]["xi_f_fitted"] - 0.125) < 1e-6
    assert doc["config"]["H"] == 1.0
    assert doc["flags"] == [] and doc["invariants"] == []


def test_bulk_run_emits_volumes_and_susceptibility(tmp_path):
    code = run(["bulk", "--out", str(tmp_path), "--format", "csv"])
    assert code == 0
    doc = json.loads((tmp_path / "bulk.json").read_text())
    res = doc["results"]
    assert res["xi_f_holo"] == pytest.approx(math.sqrt(5) / (48 * math.pi), rel=1e-12)
    assert res["v_exact"] > 0 and res["v_series"] > 0
    csv_lines = (tmp_path / "bulk.csv").read_text().splitlines()
    header = [ln for ln in csv_lines if not ln.startswith("#")][0]
    assert header == "v_exact,v_exact_error,v_series,v_series_finite,xi_f_holo"


def test_match_run_reports_flags(tmp_path):
    code = run(["match", "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "match.json").read_text())
    assert doc["results"]["residual"] <= 1e-10
    assert "negative-N" in doc["flags"]
    assert "negative-beta2-over-q" in doc["flags"]


def test_sweep_is_deterministic(tmp_path):
    args = ["sweep", "--axis", "Qt", "--from", "1", "--to", "10",
            "--points", "6", "--log"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


@pytest.mark.parametrize("axis, lo, hi", [("Qt", "1", "10"), ("rp", "0.5", "2")])
def test_sweep_rows_match_fresh_volume_calls(tmp_path, monkeypatch, axis, lo, hi):
    # at panels 8192 a first grid (32769 points) spans three radial blocks; a
    # Qt sweep reuses its cached grid, an rp sweep builds one per point, and
    # either way each row's volume is a fresh call's, bit for bit
    calls = []
    volume_exact = volume.volume_exact

    def recorded(*args):
        calls.append((args, volume_exact(*args)))
        return calls[-1][1]

    monkeypatch.setattr(volume, "volume_exact", recorded)
    assert run(["sweep", "--axis", axis, "--from", lo, "--to", hi, "--points", "4",
                "--log", "--panels", "8192", "--out", str(tmp_path)]) == 0
    rows = [ln.split(",") for ln in (tmp_path / "sweep.csv").read_text().splitlines()
            if not ln.startswith("#")]
    col = rows[0].index("v_exact")
    assert len(calls) == len(rows) - 1 == 4
    for (args, got), row in zip(calls, rows[1:]):
        volume._radial_grid.cache_clear()
        want = volume_exact(*args)
        assert got == want
        assert row[col] == format(want.value, ".12g")


def test_bulk_sweep_builds_one_radial_grid_while_rp_and_r_inf_hold(tmp_path):
    volume._radial_grid.cache_clear()
    assert run(["sweep", "--axis", "Qt", "--from", "0.5", "--to", "20", "--points", "16",
                "--log", "--panels", "65536", "--out", str(tmp_path / "Qt")]) == 0
    info = volume._radial_grid.cache_info()
    assert (info.misses, info.hits) == (1, 15)
    volume._radial_grid.cache_clear()
    assert run(["sweep", "--axis", "rp", "--from", "0.5", "--to", "2", "--points", "4",
                "--out", str(tmp_path / "rp")]) == 0
    info = volume._radial_grid.cache_info()
    assert (info.misses, info.hits) == (4, 0)


def test_boundary_sweep_blocks_stay_within_the_element_budget(tmp_path, monkeypatch):
    # a default sweep fits 15 points per (points x samples x grid) deficit
    # array; at panels 16384 one point's first grid alone exceeds the budget,
    # so each call holds one point
    shapes = []
    overlap_log_ratio = kernels.overlap_log_ratio

    def recorded(*args):
        y = overlap_log_ratio(*args)
        shapes.append(y.shape)
        return y

    monkeypatch.setattr(kernels, "overlap_log_ratio", recorded)
    assert run(["sweep", "--axis", "H", "--from", "0.5", "--to", "4", "--points", "128",
                "--out", str(tmp_path / "default")]) == 0
    assert max(math.prod(shape) for shape in shapes) <= boundary.FIT_BLOCK_ELEMENTS
    assert len(shapes) == 9 and sum(points for points, _, _ in shapes) == 128
    assert {samples for _, samples, _ in shapes} == {8}
    shapes.clear()
    assert run(["sweep", "--axis", "H", "--from", "0.5", "--to", "2", "--points", "3",
                "--panels", "16384", "--out", str(tmp_path / "fine")]) == 0
    assert shapes == [(1, 8, 4 * 16384 + 1)] * 3


@pytest.mark.parametrize("axis, extra", [("Qt", ["--r_inf", "150"]), ("H", [])],
                         ids=["Qt", "H"])
def test_sweep_roundtrip_from_echoed_config(tmp_path, axis, extra):
    out1 = tmp_path / "first"
    assert run(["sweep", "--axis", axis, "--from", "1", "--to", "4",
                "--points", "4", "--log", *extra, "--out", str(out1)]) == 0
    echoed = [ln[2:] for ln in (out1 / "sweep.csv").read_text().splitlines()
              if ln.startswith("# ")]
    expected = set(SETTABLE) - _other_side(axis) | {"axis"}
    assert sorted(ln.split(" = ")[0] for ln in echoed) == sorted(expected)
    cfg_file = tmp_path / "replay.cfg"
    cfg_file.write_text("\n".join(echoed) + "\n")
    out2 = tmp_path / "second"
    assert run(["sweep", "--config", str(cfg_file), "--out", str(out2)]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


def test_sweep_values_match_direct_evaluation(tmp_path):
    from lifshitz_fidelity import BulkParams, xi_f_holo_z4

    assert run(["sweep", "--axis", "Qt", "--from", "1", "--to", "10",
                "--points", "5", "--log", "--out", str(tmp_path)]) == 0
    rows = [ln for ln in (tmp_path / "sweep.csv").read_text().splitlines()
            if not ln.startswith("#")]
    header = rows[0].split(",")
    qt_idx, xi_idx = header.index("Qt"), header.index("xi_f_holo")
    for line in rows[1:]:
        cells = line.split(",")
        qt = float(cells[qt_idx])
        expected = xi_f_holo_z4(BulkParams(Qt=qt, xi=-1.0))
        assert float(cells[xi_idx]) == pytest.approx(expected, rel=1e-11)
    # plot data mirrors the swept column
    plot = (tmp_path / "plot_xi_f_holo.dat").read_text().splitlines()
    assert len(plot) == 5 and all(len(ln.split()) == 2 for ln in plot)


def test_sweep_respects_boundary_axis(tmp_path):
    assert run(["sweep", "--axis", "H", "--from", "0.5", "--to", "2.0",
                "--points", "3", "--out", str(tmp_path)]) == 0
    rows = [ln for ln in (tmp_path / "sweep.csv").read_text().splitlines()
            if not ln.startswith("#")]
    assert rows[0].split(",")[0] == "H"
    assert "xi_f_analytic" in rows[0]


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("H = 2.0\nbeta = 0.5\n")
    out = tmp_path / "out"
    assert run(["boundary", "--config", str(cfg), "--H", "4.0", "--out", str(out)]) == 0
    doc = json.loads((out / "boundary.json").read_text())
    assert doc["config"]["H"] == 4.0   # flag wins
    assert doc["config"]["beta"] == 0.5
    cfg.write_text("format = csv\n")
    out = tmp_path / "fmt"
    assert run(["boundary", "--config", str(cfg), "--format", "json", "--out", str(out)]) == 0
    assert json.loads((out / "boundary.json").read_text())["config"]["format"] == "json"
    assert not (out / "boundary.csv").exists()


def test_unicode_and_alias_keys(tmp_path):
    out1, out2 = tmp_path / "u", tmp_path / "a"
    assert run(["match", "--Q̃", "2.0", "--ξ", "-0.5", "--out", str(out1)]) == 0
    assert run(["match", "--Qtilde", "2.0", "--xi", "-0.5", "--out", str(out2)]) == 0
    assert (out1 / "match.json").read_bytes() == (out2 / "match.json").read_bytes()


@pytest.mark.parametrize("args", [
    ["boundary", "--nonsense", "1"],
    ["boundary", "--rp", "2.0"],              # bulk key on a boundary run
    ["sweep", "--axis", "Qt"],                # missing range
    ["sweep", "--axis", "weird", "--from", "1", "--to", "2", "--points", "3"],
    ["sweep", "--axis", "Qt", "--from", "-1", "--to", "2", "--points", "3", "--log"],
    ["sweep", "--axis", "Qt", "--from", "1", "--to", "2", "--points", "1"],
    ["boundary", "--H"],                      # dangling flag
    ["boundary", "--H", "abc"],
    ["nonsense"],
    ["sweep", "--axis", "Qt", "--from", "1", "--to", "2", "--points", "3", "--workers", "2"],
    ["boundary", "--config", "{tmp}/missing.cfg"],
    ["boundary", "--out", "{tmp}/file/sub"],  # output directory under a regular file
    ["boundary", "--scheme", "simpson"],      # removed keys are unknown keys
    ["bulk", "--gamma", "0"],
    ["boundary", "--out", "{tmp}/clash"],     # artifact path is a directory
    ["sweep", "--axis", "H", "--from", "1", "--to", "2", "--points", "2", "--out", "{tmp}/clash"],
    ["sweep", "--axis", "Qt", "--from", "1", "--to", "2", "--points", "3", "--spacing", "foo"],
    ["boundary", "--axis", "H"],              # sweep keys belong to sweep only
    ["bulk", "--log"],
    ["boundary", "--format", "xml"],
    ["bulk", "--z", "3.0"],                   # z is a library field, not a key
    ["sweep", "--axis", "z", "--from", "3.9", "--to", "4.1", "--points", "3"],
    ["sweep", "--axis", "H", "--from", "1", "--to", "inf", "--points", "3"],
    ["bulk", "--halfwidth", "3"],             # sizes only the Gaussian grids of boundary fits
    # a sweep takes only the keys of its axis's side
    ["sweep", "--axis", "H", "--from", "1", "--to", "2", "--points", "3", "--rp", "2"],
    ["sweep", "--axis", "H", "--from", "1", "--to", "2", "--points", "3", "--r_inf", "50"],
    ["sweep", "--axis", "Qt", "--from", "1", "--to", "2", "--points", "3", "--halfwidth", "3"],
    ["sweep", "--axis", "Qt", "--from", "1", "--to", "2", "--points", "3", "--N", "3"],
    ["sweep", "--from", "1", "--to", "2", "--points", "3"],  # missing axis
    ["boundary", "--config", "{tmp}/binary.cfg"],            # not UTF-8
])
def test_validation_failures_exit_1(tmp_path, capsys, args):
    (tmp_path / "file").write_text("")
    (tmp_path / "binary.cfg").write_bytes(b"\x7fELF\x02\x01\x01\x00H = 1.0\n\xff\xfe\n")
    (tmp_path / "clash" / "boundary.json").mkdir(parents=True)
    (tmp_path / "clash" / "sweep.csv").mkdir()
    args = [a.replace("{tmp}", str(tmp_path)) for a in args]
    if "--out" not in args:
        args += ["--out", str(tmp_path)]
    assert run(args) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_sweep_rejects_every_key_of_the_other_side():
    for axis in AXES:
        for key in SETTABLE:
            source = {"axis": axis, key: RAW.get(key, "1.5")}
            if key not in _other_side(axis):
                assert cli._effective_config("sweep", source)["axis"] == axis
            else:
                with pytest.raises(cli._UsageError, match=f"key '{key}' is not used"):
                    cli._effective_config("sweep", source)


@given(axis=st.sampled_from(sorted(SPELLINGS)), shadowed=st.sampled_from(AXES),
       keys=st.lists(st.sampled_from(SETTABLE), unique=True),
       split=st.integers(min_value=0, max_value=len(SETTABLE)))
def test_sweep_config_accepts_exactly_its_sides_keys(axis, shadowed, keys, split):
    # the flags' axis, in any spelling, beats the file's and alone decides the
    # keys the sweep takes
    canonical = SPELLINGS[axis]
    file_cfg = {"axis": shadowed, **{k: RAW.get(k, "1.5") for k in keys[:split]}}
    flag_cfg = {"axis": axis, **{k: RAW.get(k, "1.5") for k in keys[split:]}}
    if not _other_side(canonical) & set(keys):
        cfg = cli._effective_config("sweep", file_cfg, flag_cfg)
        assert cfg["axis"] == canonical and not _other_side(canonical) & set(cfg)
    else:
        with pytest.raises(cli._UsageError, match="is not used by subcommand 'sweep'"):
            cli._effective_config("sweep", file_cfg, flag_cfg)


def test_numerical_failures_exit_2(tmp_path, capsys):
    # positive coupling breaks the dictionary
    assert run(["match", "--xi", "1.0", "--out", str(tmp_path)]) == 2
    assert "verify_duality" in capsys.readouterr().err
    # invalid parameter values are numerical domain failures, not usage errors
    assert run(["boundary", "--H", "-1.0", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("numerical failure in boundary: H must be positive")


@pytest.mark.parametrize("args", [
    ["boundary", "--H", "1e-300"],    # FitError: the fitted susceptibility is inf (c_sq guard)
    ["bulk", "--rp", "1e200"],        # OverflowError
    ["bulk", "--Qt", "1e-200"],       # ZeroDivisionError in a named operation
    ["match", "--xi", "-1e-320"],
    ["bulk", "--L", "1e-200"],        # DomainError outside a named operation
    ["match", "--Qt", "inf"],         # DomainError: non-finite parameters
    ["match", "--xi", "nan"],
    ["bulk", "--L", "inf"],
    ["bulk", "--r_inf", "inf"],
    ["boundary", "--beta", "1e200"],  # DomainError: the overlap exponent overflows
    ["boundary", "--q", "1e36", "--H", "1e-75", "--beta", "1e116"],  # FitError: no overlap left
    ["boundary", "--H", "1e-160"],    # FitError: max|dH|^2 underflows, so c_sq is inf
    ["boundary", "--H", "1e150"],     # DomainError: the closed form's H^3 overflows
])
def test_arithmetic_failures_exit_2_without_traceback(tmp_path, capsys, args):
    assert run(args + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure")
    assert "Traceback" not in err


@pytest.mark.parametrize("args", [
    ["--N", "1000", "--beta", "2"],
    ["--N", "300", "--q", "0.3", "--H", "0.5", "--beta", "1"],
    ["--H", "1e-78"],
    ["--halfwidth", "500"],  # the deficit's expm1(...)^2 overflows on the far tail
    ["--halfwidth", "100000"],  # converges on the largest grid, 1048577 points
])
def test_many_body_and_extreme_field_fits_succeed(tmp_path, args):
    assert run(["boundary", *args, "--out", str(tmp_path)]) == 0
    res = json.loads((tmp_path / "boundary.json").read_text())["results"]
    assert res["residual"] <= 1e-12


@pytest.mark.parametrize("args, start", [
    # no grid up to kernels.MAX_GRID_POINTS meets the tolerance at 1e6 sigma
    (["boundary", "--halfwidth", "1000000"], "numerical failure in xi_f_from_fit: quadrature stalled"),
    # the radial grid's factor 2 (r_inf - rp) r_inf^2 overflows
    (["bulk", "--r_inf", "1e103"], "numerical failure in volume_exact: r_inf=1e+103"),
])
def test_out_of_reach_configurations_exit_2_naming_the_cause(tmp_path, capsys, args, start):
    assert run(args + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(start)


def test_unallocatable_sweep_exits_1_naming_the_subcommand(tmp_path, capsys):
    # 10**16 points are 80 PB, beyond the 128 TiB x86-64 user address space,
    # so the allocation is refused without touching memory
    args = ["sweep", "--axis", "H", "--from", "1", "--to", "2", "--points", str(10**16)]
    assert run(args + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: sweep ran out of memory: ")
    assert err.count("\n") == 1 and "Traceback" not in err


#: Every key some subcommand reads, and keys that none does.
ARGV_KEYS = sorted({k for keys in cli.SUBCOMMAND_KEYS.values() for k in keys} | {"format"}) + [
    "nonsense", "workers", "scheme", "z"]
#: Valid raw values per key, small enough that a run stays fast: points <= 40, panels <= 1024.
ARGV_VALID = {
    **dict.fromkeys(("q", "m", "H", "L", "Qt", "rp", "G", "from"), ("0.3", "1", "2.5")),
    "to": ("0.7", "1.5", "4"),
    **dict.fromkeys(("beta", "k", "V0"), ("-1", "0", "0.7")),
    "N": ("1", "7"), "xi": ("-1", "-0.3"), "r_inf": ("50", "250"),
    "panels": ("64", "100", "1024"), "tolerance": ("1e-10", "1e-6"),
    "halfwidth": ("10", "20", "500"), "points": tuple(str(n) for n in range(2, 41)),
    "spacing": ("linear", "log"), "format": ("json", "csv"), "axis": (*AXES, "β", "r₊"),
}
#: Values outside a key's domain or that do not parse. A tolerance gets no tiny
#: positive value, with which a quadrature refines to kernels.MAX_GRID_POINTS.
ARGV_INVALID = ("-1", "0", "1e-300", "1e300", "inf", "nan", "abc", "", "63", "z")
ARGV_INVALID_TOLERANCE = ("-1", "0", "inf", "nan", "abc", "")


@st.composite
def _argv(draw):
    """A subcommand with some of the keys it reads (a sweep always with its
    axis and range) and, one time in four, any other key, each with a valid
    value or, one time in six, an invalid one."""
    subcommand = draw(st.sampled_from([*cli.SUBCOMMAND_KEYS, "nonsense"]))
    keys = cli.SUBCOMMAND_KEYS.get(subcommand, ()) + ("format",)
    chosen = []
    if subcommand == "sweep":
        axis = cli._canonical_key(draw(st.sampled_from(ARGV_VALID["axis"])))
        keys += cli.SUBCOMMAND_KEYS[cli._sweep_side(axis)]
        chosen = ["axis", "from", "to", "points"]
    chosen += draw(st.lists(st.sampled_from(keys), max_size=4, unique=True))
    if draw(st.integers(0, 3)) == 0:
        chosen.append(draw(st.sampled_from(ARGV_KEYS)))
    argv = [subcommand]
    for key in chosen:
        if key == "axis" and subcommand == "sweep":
            value = axis
        elif draw(st.integers(0, 5)):
            value = draw(st.sampled_from(ARGV_VALID.get(key, ARGV_INVALID)))
        else:
            value = draw(st.sampled_from(
                ARGV_INVALID_TOLERANCE if key == "tolerance" else ARGV_INVALID))
        argv += [f"--{key}", value]
    return argv + ["--log"] * (subcommand == "sweep" and draw(st.booleans()))


@settings(max_examples=150, deadline=None)
@given(argv=_argv())
def test_any_argv_ends_with_exit_0_1_or_2(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = main(argv + ["--out", out])
    event(f"exit {code} {argv[0]}")
    assert code in (0, 1, 2)
    assert (code == 0) == (stderr.getvalue() == "")


def test_sweep_failure_names_the_parameter_point(tmp_path, capsys):
    args = ["sweep", "--axis", "H", "--from", "1", "--to", "1e308", "--points", "3"]
    assert run(args + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure in xi_f_from_fit at H=")


def test_verify_passes_on_correct_build(tmp_path):
    assert run(["verify", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert doc["results"]["failures"] == 0
    assert len(doc["invariants"]) >= 17
    assert all(entry["passed"] for entry in doc["invariants"])


def test_verify_fails_under_fault_injection(tmp_path, monkeypatch):
    true_blackening = geometry.blackening

    def skewed(r, p):
        return true_blackening(r, p) + 1e-6

    monkeypatch.setattr(geometry, "blackening", skewed)
    assert run(["verify", "--out", str(tmp_path)]) != 0
