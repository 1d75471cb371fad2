"""The byte-identity tool tools/differential.py: its matrices, and a run
of its smoke matrix with this tree on both sides."""

import importlib.util
import pathlib
import subprocess
import sys

from _charts import TEXTS

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "differential.py"


def _tool():
    spec = importlib.util.spec_from_file_location("differential", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_full_matrix_holds_3470_distinct_runs_and_smoke_at_most_10():
    tool = _tool()
    full = tool.matrix("full")
    assert len(full) == 3470
    assert len({tuple(argv) for _, argv in full}) == 3470
    assert {group for group, _ in full} == {
        "gallery", "spec", "large", "flags", "failing", "late", "blowup",
        "fast-wave"}
    assert 0 < len(tool.matrix("smoke")) <= 10
    # every --spec file is a chart of tests/_charts.py
    specs = {argv[argv.index("--spec") + 1] for _, argv in full
             if "--spec" in argv}
    assert specs <= {f"{name}.imm" for name in TEXTS}


def test_the_smoke_matrix_of_a_tree_against_itself_is_identical():
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--matrix", "smoke", "--base-dir",
         str(ROOT)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "6 runs: identical"
