"""Re-run the golden artifact set (tests/golden/) and compare with what is stored.

Exit codes, file names, keys, column order and all non-numeric text must match
exactly. Numbers match within REL relative plus ABS absolute, which covers
roundoff-level fields such as `residual` on CPUs whose SIMD exp and log
differ in the last bit; `python tests/golden/golden_set.py check` is the
byte-strict form. For `verify` only the check names and pass states are
pinned: its detail strings carry roundoff-level numbers.
"""
import importlib.util
import json
import re
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_set", Path(__file__).parent / "golden" / "golden_set.py")
golden_set = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_set)

REL, ABS = 1e-9, 1e-12
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _without_details(rel, text):
    """A verify record with each check reduced to its name and pass state."""
    if rel == "stdout.txt":
        return "\n".join(" ".join(line.split()[:2]) if line.startswith(("PASS", "FAIL")) else line
                         for line in text.splitlines())
    if rel.endswith(".json") and rel.startswith("out/"):
        doc = json.loads(text)
        for check in doc["invariants"]:
            check["detail"] = None
        return json.dumps(doc, indent=2, sort_keys=True)
    return text


def _mismatch(got, want):
    """None if got matches want, else the first differing piece."""
    if NUMBER.split(got) != NUMBER.split(want):
        return "non-numeric text differs"
    gnum, wnum = NUMBER.findall(got), NUMBER.findall(want)
    for g, w in zip(gnum, wnum):
        if not abs(float(g) - float(w)) <= ABS + REL * abs(float(w)):
            return f"{g} != {w}"
    return None


@pytest.mark.parametrize("argv", golden_set.CASES, ids=golden_set.case_name)
def test_golden_case_reproduces(argv, tmp_path):
    name = golden_set.case_name(argv)
    got, want = golden_set.run_case(argv, tmp_path), golden_set.stored_case(name)
    assert sorted(got) == sorted(want)
    assert json.loads(got["run.json"]) == json.loads(want["run.json"])
    for rel in sorted(want):
        g, w = got[rel], want[rel]
        if argv[0] == "verify":
            g, w = _without_details(rel, g), _without_details(rel, w)
        assert _mismatch(g, w) is None, f"{name}/{rel}: {_mismatch(g, w)}"
