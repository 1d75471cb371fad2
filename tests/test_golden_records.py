"""Golden CLI records: every command on every gallery chart, 3 points, seed 0.

A guard for changes that should only make the program faster: each record
must agree with the checked-in one within 1e-12 relative (scaled by
max(1, |x|)), with the same exit code and the same refusal kind.

Regenerate the file (only when a change of output is intended, and say so
in CHANGES.md) with

    PYTHONPATH=src python tests/test_golden_records.py --write
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from wintgen import gallery
from wintgen.cli import main

GOLDEN = Path(__file__).with_name("data") / "golden_records.json"
COMMANDS = ("ddvv", "invariants", "theorem-b", "hopf-check", "residuals")
REL_TOL = 1e-12


def _argvs():
    for name in gallery.names():
        for cmd in COMMANDS:
            gauges = ("raw", "v0") if cmd == "invariants" else ("raw",)
            for gauge in gauges:
                yield [cmd, "--example", name, "--points", "3", "--seed", "0",
                       "--gauge", gauge]


def _run(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    doc = json.loads(out.getvalue())
    refusal = doc.get("refusal")
    return {"argv": list(argv), "exit": code,
            "refusal": refusal["kind"] if refusal else None,
            "records": doc.get("records"), "aggregate": doc.get("aggregate")}


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _mismatches(want, got, path="", out=None):
    out = [] if out is None else out
    if isinstance(want, dict) and isinstance(got, dict):
        if set(want) != set(got):
            out.append(f"{path}: keys {sorted(want)} vs {sorted(got)}")
        for k in want.keys() & got.keys():
            _mismatches(want[k], got[k], f"{path}.{k}", out)
    elif isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            out.append(f"{path}: length {len(want)} vs {len(got)}")
        for i, (a, b) in enumerate(zip(want, got)):
            _mismatches(a, b, f"{path}[{i}]", out)
    elif _number(want) and _number(got):
        # the CLI writes 1.0 as 1, so ints and floats compare as numbers
        if abs(got - want) > REL_TOL * max(1.0, abs(want)):
            out.append(f"{path}: {want!r} vs {got!r}")
    elif want != got or type(want) is not type(got):
        out.append(f"{path}: {want!r} vs {got!r}")
    return out


def _golden():
    # empty while the file is being written; the coverage test then fails
    if not GOLDEN.exists():
        return []
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_chart_and_command():
    assert [g["argv"] for g in _golden()] == [list(a) for a in _argvs()]


@pytest.mark.parametrize("want", _golden(), ids=lambda g: " ".join(
    g["argv"][i] for i in (0, 2, 8)))
def test_record_matches_golden(want):
    got = _run(want["argv"])
    assert got["exit"] == want["exit"]
    assert got["refusal"] == want["refusal"]
    bad = _mismatches(want, got)
    assert not bad, "\n".join(bad[:20])


def test_mismatch_detects_a_last_digit_change_above_tolerance():
    assert _mismatches({"x": [1.0, 2.0]}, {"x": [1.0, 2.0 + 1e-11]})
    assert not _mismatches({"x": [1.0, 2.0]}, {"x": [1.0, 2.0 + 1e-12]})
    assert _mismatches({"k": "NotIdealPoint"}, {"k": "UmbilicPoint"})
    assert _mismatches({"ideal": True}, {"ideal": 1.0})


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_records.py "
                 "--write")
    GOLDEN.parent.mkdir(exist_ok=True)
    docs = [_run(argv) for argv in _argvs()]
    GOLDEN.write_text(json.dumps(docs, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(docs)} documents to {GOLDEN}")
