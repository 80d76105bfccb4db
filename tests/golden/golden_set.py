"""The golden artifact set: fixed CLI configurations with every output pinned.

    python tests/golden/golden_set.py check   # re-run every case, compare bytes
    python tests/golden/golden_set.py write   # regenerate tests/golden/cases/

Each case runs `lifshitz_fidelity.cli.main(argv + ["--out", DIR])` in
process, with RuntimeWarning raised as an error, and is stored in
cases/<name>/: run.json holds the argv and the exit code, stdout.txt and
stderr.txt what the run printed (the out dir replaced by OUT), and out/ every
artifact it wrote. `check` requires the same bytes, for a change that keeps
every artifact; tests/test_golden.py re-runs the set with floats compared
within a relative bound, so it also holds on CPUs whose exp and log differ in
the last bit. A change that alters artifacts on purpose regenerates the set
and names every changed file.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
CASES_DIR = HERE / "cases"
#: Stands for the out dir in a stored stdout or stderr.
OUT = "OUT"

#: The configurations; every one runs with --out DIR appended.
CASES = [
    ["boundary"],
    ["boundary", "--N", "1000", "--beta", "2"],
    ["boundary", "--q", "0.3", "--H", "4.5", "--beta", "-1.2", "--k", "3"],
    ["boundary", "--halfwidth", "20"],
    ["boundary", "--halfwidth", "100", "--panels", "128"],
    ["boundary", "--format", "csv", "--N", "7", "--m", "2.5"],
    ["boundary", "--H", "1e-300"],
    ["boundary", "--beta", "1e200"],
    ["bulk"],
    ["bulk", "--V0", "0.7", "--rp", "1.3", "--r_inf", "250"],
    ["bulk", "--V0", "-2", "--xi", "-2", "--Qt", "1.7", "--L", "1.3", "--G", "0.8"],
    ["bulk", "--panels", "4096", "--format", "csv"],
    ["bulk", "--xi", "1"],
    # r_inf = rp/0.999999, just above the horizon
    ["bulk", "--xi", "-5", "--rp", "0.6", "--V0", "-2", "--r_inf", "0.6000006000006"],
    ["match"],
    ["match", "--Qt", "2", "--xi", "-0.7", "--rp", "0.9", "--L", "1.5", "--G", "1.1"],
    ["sweep", "--axis", "H", "--from", "0.5", "--to", "4", "--points", "16",
     "--q", "1.3", "--beta", "0.7"],
    ["sweep", "--axis", "beta", "--from", "-2", "--to", "2", "--points", "9"],
    # a boundary sweep fits its points in blocks that share a first grid; at a
    # tight tolerance all 12 of these converge on it (the block fallback runs
    # in the exit-2 beta sweep below)
    ["sweep", "--axis", "beta", "--from", "-5", "--to", "5", "--points", "12",
     "--halfwidth", "18", "--tolerance", "1e-12"],
    # crosses block edges
    ["sweep", "--axis", "q", "--from", "0.1", "--to", "9", "--points", "37", "--beta", "1.5"],
    # exit 2: a FitError at beta=555.5555555555555, in the middle of a block
    ["sweep", "--axis", "beta", "--from", "0", "--to", "1e4", "--points", "37"],
    # exit 2: the fit failure at the first point wins over the parameter failure at the second
    ["sweep", "--axis", "H", "--from", "1e-300", "--to", "-1", "--points", "3"],
    ["sweep", "--axis", "Qt", "--from", "1", "--to", "10", "--points", "8", "--log"],
    ["sweep", "--axis", "Qt", "--from", "1", "--to", "10", "--points", "4", "--log",
     "--panels", "16384"],
    ["sweep", "--axis", "rp", "--from", "0.5", "--to", "2", "--points", "5"],
    ["sweep", "--axis", "V0", "--from", "-1", "--to", "1", "--points", "5"],
    ["sweep", "--axis", "xi", "--from", "-2", "--to", "1", "--points", "4"],
    ["verify"],
]


def case_name(argv) -> str:
    """The directory name of a case: its argv joined by '-', flags without dashes."""
    return "-".join(tok[2:] if tok.startswith("--") else tok for tok in argv)


def run_case(argv, outdir: Path) -> dict:
    """Run one configuration into outdir. Its record maps run.json,
    stdout.txt, stderr.txt and out/<artifact> to their text, decoded from
    bytes with no newline translation, so a line-ending change shows."""
    from lifshitz_fidelity import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main([*argv, "--out", str(outdir)])
    record = {
        "run.json": json.dumps({"argv": list(argv), "exit_code": code}, indent=2) + "\n",
        "stdout.txt": stdout.getvalue().replace(str(outdir), OUT),
        "stderr.txt": stderr.getvalue().replace(str(outdir), OUT),
    }
    for path in sorted(outdir.iterdir()):
        record[f"out/{path.name}"] = path.read_bytes().decode("utf-8")
    return record


def stored_case(name: str) -> dict:
    """A stored case's record, in run_case's form."""
    root = CASES_DIR / name
    return {path.relative_to(root).as_posix(): path.read_bytes().decode("utf-8")
            for path in sorted(root.rglob("*")) if path.is_file()}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args not in (["write"], ["check"]):
        print("usage: golden_set.py write|check", file=sys.stderr)
        return 1
    write = args == ["write"]
    sys.path.insert(0, str(HERE.parents[1] / "src"))  # the working tree, not an installed copy
    if write:
        shutil.rmtree(CASES_DIR, ignore_errors=True)
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for argv in CASES:
            name = case_name(argv)
            outdir = Path(tmp) / name
            outdir.mkdir()
            got = run_case(argv, outdir)
            if write:
                for rel, text in got.items():
                    (CASES_DIR / name / rel).parent.mkdir(parents=True, exist_ok=True)
                    (CASES_DIR / name / rel).write_bytes(text.encode("utf-8"))
                continue
            want = stored_case(name)
            diff = sorted(rel for rel in set(got) | set(want) if got.get(rel) != want.get(rel))
            if diff:
                failed += 1
                print(f"DIFF  {name}: {', '.join(diff)}")
    if write:
        print(f"wrote {len(CASES)} cases to {CASES_DIR}")
    else:
        print(f"{len(CASES) - failed}/{len(CASES)} cases byte-identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
