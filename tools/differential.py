"""Byte-identity check of the command line between two source trees.

    python tools/differential.py                  # HEAD^ against the tree
    python tools/differential.py --base 5287fed   # any revision
    python tools/differential.py --base-dir DIR   # a checkout on disk

The base revision is extracted with `git archive` into a temporary folder
(removed at exit); the other tree is this checkout.  Each tree runs the
same matrix of argument vectors in its own interpreter, which imports
`wintgen` from that tree's `src/` and calls `wintgen.cli.main(argv)` in
process, with the `--spec` files written once and shared.  Per group of
the matrix the tool prints the run count, the non-zero exit codes and one
sha256 over every (argv, exit code, stdout); at the first argv whose exit
code or stdout differ it prints both documents.  Exit 0 when every group
is identical, 1 when one differs, 2 when a tree cannot run.

Matrices: `full` (3,470 runs in eight groups: `gallery`, the five
analysis commands on the six gallery charts at --points 1, 2, 5, 20, 21
and seeds 0-2; `spec`, --spec on the so3 and veronese-hopf text forms,
hyperbolic-graph and const-graph at 1, 2, 21 points; `large`, 100 and 200
points on so3, hopf-generic and cone-veronese; `flags`, --gauge v0,
--tol 1e-3 --ltol 1e-2, --assert-expected, --ltol 1e-20 and --ltol 0.3
on the gallery at 2, 7, 21 points and seeds 0-1; and the failure path:
`failing`, the turned, cut and bent charts at 21 and 41 points and seeds
0-39, `late`, the late-failing turned chart at seeds 28, 0 and 1,
`blowup`, invariants and residuals on the blowup chart at seeds 0-399,
and `fast-wave`) and `smoke` (6 runs).  The --spec charts are the texts
of tests/_charts.py, which the tests read too.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMANDS = ("ddvv", "invariants", "theorem-b", "hopf-check", "residuals")
CHARTS = ("so3", "veronese-hopf", "hopf-generic", "cone-veronese",
          "generic-control", "umbilic-control")
# the --spec charts, by their names in tests/_charts.TEXTS
SPEC_CHARTS = ("so3", "veronese-hopf", "hyperbolic-graph", "const-graph")
FAILING_CHARTS = ("turned", "cut", "bent")
FLAGS = (("--gauge", "v0"), ("--tol", "1e-3", "--ltol", "1e-2"),
         ("--assert-expected",), ("--ltol", "1e-20"), ("--ltol", "0.3"))


def matrix(name: str) -> list:
    """(group, argv) pairs of a matrix, in run order."""
    def run(command, source, points, seed=0):
        return [command, *source, "--points", str(points), "--seed", str(seed)]

    def spec(chart):
        return ("--spec", f"{chart}.imm")
    if name == "smoke":
        return [("smoke", run(c, ("--example", "so3"), 2))
                for c in COMMANDS] + [
            ("smoke", run("invariants", spec("const-graph"), 1))]
    runs = [("gallery", run(c, ("--example", chart), n, seed))
            for c in COMMANDS for chart in CHARTS
            for n in (1, 2, 5, 20, 21) for seed in range(3)]
    runs += [("spec", run(c, spec(chart), n))
             for c in COMMANDS for chart in SPEC_CHARTS for n in (1, 2, 21)]
    runs += [("large", run(c, ("--example", chart), n))
             for c in COMMANDS for chart in ("so3", "hopf-generic",
                                            "cone-veronese")
             for n in (100, 200)]
    runs += [("flags", run(c, ("--example", chart), n, seed) + list(flags))
             for flags in FLAGS for c in COMMANDS for chart in CHARTS
             for n in (2, 7, 21) for seed in range(2)]
    runs += [("failing", run(c, spec(chart), n, seed))
             for c in COMMANDS for chart in FAILING_CHARTS
             for n in (21, 41) for seed in range(40)]
    runs += [("late", run(c, spec("turned-late"), 20, seed))
             for c in COMMANDS for seed in (28, 0, 1)]
    runs += [("blowup", run(c, spec("blowup"), 20, seed))
             for c in ("invariants", "residuals") for seed in range(400)]
    runs += [("fast-wave", run(c, spec("fast-wave"), n))
             for c in COMMANDS for n in (1, 3, 21)]
    return runs


def run_tree(tree: str) -> None:
    """The runner: argv lists on stdin (JSON), one JSON line out per run,
    with wintgen imported from tree/src; the cwd holds the --spec files."""
    sys.path.insert(0, os.path.join(tree, "src"))
    from wintgen import cli
    for argv in json.load(sys.stdin):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        print(json.dumps({"argv": argv, "code": code, "out": out.getvalue()}))


def _spec_files(folder: str) -> None:
    """Write the --spec files, <name>.imm for each text of this tree's
    tests/_charts.TEXTS."""
    dump = ("import json, sys; sys.path[:0] = ['src', 'tests']; "
            "import _charts; print(json.dumps(_charts.TEXTS))")
    texts = json.loads(subprocess.run(
        [sys.executable, "-c", dump], cwd=ROOT, check=True,
        capture_output=True, text=True).stdout)
    for name, text in texts.items():
        with open(os.path.join(folder, f"{name}.imm"), "w") as fh:
            fh.write(text)


def _start(tree: str, argvs: list, cwd: str) -> subprocess.Popen:
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--run-tree", tree],
        cwd=cwd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    proc.stdin.write(json.dumps(argvs))
    proc.stdin.close()
    return proc


def _results(proc: subprocess.Popen, tree: str) -> list:
    lines = proc.stdout.read().splitlines()
    if proc.wait() != 0:
        sys.exit(f"differential: the runner of {tree} failed "
                 f"(exit {proc.returncode})")
    return [json.loads(line) for line in lines]


def compare(base: str, runs: list, out=sys.stdout) -> bool:
    """Run the matrix in both trees (in parallel) and report; True when
    every run is identical."""
    argvs = [argv for _, argv in runs]
    with tempfile.TemporaryDirectory(prefix="differential-") as cwd:
        _spec_files(cwd)
        procs = [(_start(tree, argvs, cwd), tree) for tree in (base, ROOT)]
        got = [_results(proc, tree) for proc, tree in procs]
    identical = True
    groups = list(dict.fromkeys(group for group, _ in runs))
    for group in groups:
        idx = [k for k, (g, _) in enumerate(runs) if g == group]
        digests = []
        for res in got:
            h = hashlib.sha256()
            for k in idx:
                h.update(json.dumps([res[k]["argv"], res[k]["code"],
                                     res[k]["out"]]).encode())
            digests.append(h.hexdigest())
        nonzero = sum(got[1][k]["code"] != 0 for k in idx)
        same = digests[0] == digests[1]
        print(f"{group}: {len(idx)} runs, {nonzero} non-zero, "
              f"{'identical' if same else 'DIFFER'} {digests[1][:16]}",
              file=out)
        identical &= same
    first = next((k for k in range(len(runs))
                  if got[0][k]["code"] != got[1][k]["code"]
                  or got[0][k]["out"] != got[1][k]["out"]), None)
    if first is not None:
        print(f"first difference: {' '.join(runs[first][1])}", file=out)
        for label, res in (("base", got[0][first]), ("tree", got[1][first])):
            print(f"--- {label}: exit {res['code']}\n{res['out']}", file=out)
    print(f"{len(runs)} runs: "
          f"{'identical' if identical else 'stdout or exit codes differ'}",
          file=out)
    return identical


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", default="HEAD^",
                        help="the revision to compare with (default HEAD^)")
    parser.add_argument("--base-dir", help="a source tree to compare with, "
                        "in place of --base")
    parser.add_argument("--matrix", choices=("full", "smoke"), default="full")
    parser.add_argument("--run-tree", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.run_tree:
        run_tree(args.run_tree)
        return 0
    runs = matrix(args.matrix)
    if args.base_dir:
        return 0 if compare(os.path.abspath(args.base_dir), runs) else 1
    with tempfile.TemporaryDirectory(prefix="differential-base-") as base:
        archive = subprocess.run(["git", "archive", args.base, "src"],
                                 cwd=ROOT, capture_output=True)
        if archive.returncode != 0:
            print(archive.stderr.decode(), file=sys.stderr)
            return 2
        subprocess.run(["tar", "-x", "-C", base], input=archive.stdout,
                       check=True)
        return 0 if compare(base, runs) else 1


if __name__ == "__main__":
    sys.exit(main())
