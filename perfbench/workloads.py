"""The benchmark's workloads: argument vectors for `wintgen.cli.main`.

A workload is an endless sequence of rounds.  Every round holds the same
(command, chart) combinations in the same order; only the `--seed` given to
the program changes, drawn from the benchmark seed, and no argument vector
repeats within a run.  A round splits into groups of calls that all hold the
same mix of commands, charts and refusals.  A timed run takes whole groups
until its time is up, so its mix does not depend on how fast the program is,
and a statistic taken per group is drawn from one population.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from pathlib import Path

RESIDUAL_BOUND = 1e-7  # the bound --assert-expected applies to residuals

IDEAL_CHARTS = ("so3", "veronese-hopf", "hopf-generic")
ALL_CHARTS = IDEAL_CHARTS + ("cone-veronese", "umbilic-control",
                             "generic-control")
INVARIANT_COMMANDS = ("invariants", "theorem-b", "hopf-check")

# charts on which the invariant commands refuse, and the kind they refuse with
REFUSING_CHARTS = {
    "umbilic-control": "UmbilicPoint",
    "generic-control": "NotIdealPoint",
    "cone-veronese": "IntegrableDistribution",
}


@dataclass(frozen=True)
class Call:
    """One program call and what a correct run of it looks like."""

    argv: tuple
    command: str
    chart: str
    points: int
    exit: int = 0
    refusal: str | None = None      # expected refusal kind when exit == 3
    asserted: bool = False          # --assert-expected given
    residual_bound: float | None = None

    @property
    def points_evaluated(self) -> int:
        """Sample points the call works on: refusals stop at the first."""
        return 1 if self.refusal else self.points


@dataclass(frozen=True)
class Template:
    """A (command, chart) combination before a program seed is chosen."""

    command: str
    chart: str
    points: int
    refusal: str | None = None
    asserted: bool = False
    spec: bool = False              # load the chart from its text form

    def bind(self, seed: int, spec_dir: Path) -> Call:
        source = (["--spec", str(spec_dir / f"{self.chart}.imm")] if self.spec
                  else ["--example", self.chart])
        argv = [self.command, *source, "--points", str(self.points),
                "--seed", str(seed)]
        if self.asserted:
            argv.append("--assert-expected")
        bound = (RESIDUAL_BOUND if self.spec and self.command == "residuals"
                 else None)
        return Call(argv=tuple(argv), command=self.command, chart=self.chart,
                    points=self.points, exit=3 if self.refusal else 0,
                    refusal=self.refusal, asserted=self.asserted,
                    residual_bound=bound)


def _latin_square(n: int):
    """(row, column) pairs in n groups of n: each group covers every row and
    every column once."""
    return [[(r, (r + g) % n) for r in range(n)] for g in range(n)]


def _ideal_analysis_round() -> list[Template]:
    # three groups, each with every command and every chart once
    return [Template(INVARIANT_COMMANDS[c], IDEAL_CHARTS[h], 20, asserted=True)
            for group in _latin_square(3) for c, h in group]


def _residuals_round() -> list[Template]:
    return [Template("residuals", "so3", 2, spec=True),
            Template("residuals", "veronese-hopf", 2, spec=True),
            Template("residuals", "hopf-generic", 2),
            Template("residuals", "cone-veronese", 2),
            Template("residuals", "generic-control", 2)]


def _screen_round() -> list[Template]:
    ddvv = [Template("ddvv", chart, 20, asserted=True,
                     refusal="UmbilicPoint" if chart == "umbilic-control"
                     else None)
            for chart in ALL_CHARTS]
    return ddvv + [Template(cmd, chart, 20, refusal=kind)
                   for chart, kind in REFUSING_CHARTS.items()
                   for cmd in INVARIANT_COMMANDS]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    round: tuple            # tuple[Template, ...]
    group: int              # calls per group; every group has the same mix


WORKLOADS = {w.name: w for w in (
    Workload(
        name="ideal-analysis",
        # Nearly all the time goes to moebius.moebius_data and the ideal
        # canonical frame at jet orders 3-5, 20 points per call: the target
        # of removing duplicate routes and of batching jets over points.
        why="invariants, theorem-b and hopf-check at 20 points on the three "
            "ideal charts: time in moebius_data and the ideal canonical "
            "frame, where batching over points pays most",
        round=tuple(_ideal_analysis_round()),
        group=3),
    Workload(
        name="residuals",
        # Same order-5 moebius jets through covA/covB/riemann_frame plus the
        # immersion parser and expression trees; never reaches
        # ideal.CanonicalFields, so a change to ideal alone must leave it
        # unchanged.  Two points per call leave batching little to gain.
        why="many 2-point residuals calls, two charts parsed from --spec "
            "files: moebius and immersion without ideal, so a change to "
            "ideal alone must leave it unchanged",
        round=tuple(_residuals_round()),
        group=5),
    Workload(
        name="screen",
        # Order-2 classical forms plus per-call cli/gallery overhead and the
        # refusal gates.  Evaluating all points before refusing, or adding
        # per-call set-up, shows here while ideal-analysis improves.
        why="ddvv on all six charts and the invariant commands on the "
            "three refusing controls: order-2 classical, per-call overhead "
            "and refusals at the first point",
        round=tuple(_screen_round()),
        group=15),
)}


class CallSource:
    """Hands out rounds of calls with fresh program seeds.

    The program seeds come from the benchmark seed alone, so one benchmark
    seed always gives the same sequence of argument vectors.
    """

    def __init__(self, workload: Workload, seed: int, spec_dir: Path):
        self.workload = workload
        self.spec_dir = spec_dir
        self._rng = random.Random(f"{workload.name}:{seed}")
        self._seen: set[tuple] = set()

    def _fresh(self, template: Template) -> Call:
        while True:
            call = template.bind(self._rng.randrange(1 << 31), self.spec_dir)
            if call.argv not in self._seen:
                self._seen.add(call.argv)
                return call

    def stream(self):
        """Calls of one round after another, without end."""
        while True:
            yield from self.next_round()

    def next_round(self, max_points: int | None = None) -> list[Call]:
        out = []
        for t in self.workload.round:
            if max_points is not None and t.points > max_points:
                t = replace(t, points=max_points)
            out.append(self._fresh(t))
        return out


def write_specs(spec_dir: Path) -> None:
    """Write each gallery chart that has a text form to `<name>.imm`."""
    from wintgen import gallery

    spec_dir.mkdir(parents=True, exist_ok=True)
    for entry in gallery.all_entries():
        if entry.expression_text is not None:
            (spec_dir / f"{entry.name}.imm").write_text(
                entry.expression_text, encoding="utf-8")
