"""Benchmark of the wintgen command line, run in process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Drives `wintgen.cli.main(argv)` from the checkout's `src/` in a closed loop
with one client: each call starts when the previous one has returned, with
stdout and stderr captured.  Every call is checked by the correctness gate
(gate.py).  Workloads and the reason for each are in workloads.py.

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics from a traced pass, jet-operation counts from two counting passes,
and jet microbenchmarks.  Human-readable lines come first; the last line of
stdout is the JSON result.  A full record, with the spans of a traced run,
goes to `.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

import gate
import micro
import workloads
from tracing import ROOT as ROOT_SPAN
from tracing import OpCounter, Tracer

CHECKOUT = Path(__file__).resolve().parent.parent
SRC = CHECKOUT / "src"
OUT = CHECKOUT / ".bench_out"
SETUP_RUNS = 7
COUNT_POINTS = 2        # points per call in the counting passes
# The layer self times must add up to the separately timed wall time of the
# traced calls within this share; the rest is the root span's own wrapper.
SELF_TIME_TOLERANCE = 0.01
# The declared call times are scaled to a host on which one pass of the
# reference work (micro.reference_seconds) takes REF_SECONDS; a pass runs at
# every group boundary and before a call once REF_EVERY seconds of calls
# have passed since the last one.
REF_SECONDS = 0.020
REF_EVERY = 0.5

# per-layer time metrics: (metric, span name, per point or per call)
LAYER_TIMES = (
    ("cli.self_ms", ROOT_SPAN, "call"),
    ("cli.emit_ms", "cli.emit", "call"),
    ("gallery.by_name_ms", "gallery.by_name", "call"),
    ("immersion.sample_points_ms", "immersion.sample_points", "call"),
    ("immersion.parse_ms", "immersion.parse", "call"),
    ("classical.context_ms", "classical.context", "point"),
    ("classical.forms_ms", "classical.forms", "point"),
    ("moebius.moebius_data.self_ms", "moebius.moebius_data", "point"),
    ("moebius.integrability_residuals.self_ms",
     "moebius.integrability_residuals", "point"),
    ("ideal.canonical_fields.self_ms", "ideal.canonical_fields", "point"),
    ("ideal.package_invariants.self_ms", "ideal.package_invariants", "point"),
)
COUNT_KEYS = ("mul", *(f"mul.o{k}" for k in range(6)), "add", "div",
              "elementary", "derivative")


def count_metric(key):
    """jets.mul.o3 counts as metric jets.mul.count.o3."""
    op, _, order = key.partition(".")
    return f"jets.{op}.count" + (f".{order}" if order else "")


class BenchError(Exception):
    """The benchmark cannot run here; it prints no result."""


def load_program():
    if not (SRC / "wintgen" / "cli.py").is_file():
        raise BenchError(f"no wintgen sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import wintgen.cli

    if Path(wintgen.cli.__file__).resolve().parent != SRC / "wintgen":
        raise BenchError(f"imported wintgen from {wintgen.cli.__file__}, "
                         f"not from {SRC}")
    return wintgen.cli.main


@dataclass
class Outcome:
    call: workloads.Call
    exit: int
    stdout: str | None      # None once no check needs it any more
    seconds: float
    problems: list


def run_call(main, call, tracer=None, call_id=None) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    crash = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code = main(list(call.argv))
            else:
                code = tracer.run_call(call_id, main, list(call.argv))
        except Exception as exc:  # a crashing call counts as wrong
            code, crash = None, f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    text = out.getvalue()
    problems = gate.problems(call, code, text)
    if crash:
        problems.insert(0, crash)
    return Outcome(call, code, text, seconds, problems)


def median(values):
    return statistics.median(values) if values else None


def p90(values):
    """90th percentile, only with at least ten samples beyond it."""
    if len(values) < 100:
        return None
    return statistics.quantiles(values, n=10)[8]


def point_ms(outcomes):
    """Per successful call: wall time per sample point, in ms."""
    return [o.seconds / o.call.points * 1e3 for o in outcomes
            if not o.problems and o.call.refusal is None]


def mean_ms(outcomes, refusals):
    """Mean wall time of the passing calls in ms: per sample point of the
    successful calls (refusals=False) or per expected refusal (True)."""
    chosen = [o for o in outcomes if not o.problems
              and (o.call.refusal is not None) == refusals]
    done = len(chosen) if refusals else sum(o.call.points for o in chosen)
    return sum(o.seconds for o in chosen) / done * 1e3 if done else None


def groups_of(outcomes, group):
    """Consecutive groups of calls that each hold the workload's full mix."""
    return [outcomes[i:i + group]
            for i in range(0, len(outcomes) - group + 1, group)]


def group_rate(outcomes):
    """Sample points of the calls that passed the gate, divided by the wall
    time of all the calls, refusals included."""
    return (sum(o.call.points for o in outcomes
                if not o.problems and o.call.refusal is None)
            / sum(o.seconds for o in outcomes))


def scaled_setup():
    """One set-up sample in a fresh interpreter, unscaled and scaled like
    the calls, by the reference passes just before and just after it."""
    before = micro.reference_seconds()
    raw = micro.setup_seconds(SRC)
    ref = (before + micro.reference_seconds()) / 2
    return raw, raw * REF_SECONDS / ref


def scaled(outcomes, refs):
    """The outcomes with each call's seconds scaled to the reference host:
    times REF_SECONDS over the mean of the reference passes made just
    before and just after the call."""
    out, j = [], 0
    for i, o in enumerate(outcomes):
        while refs[j + 1][0] <= i:
            j += 1
        ref = (refs[j][1] + refs[j + 1][1]) / 2
        out.append(replace(o, seconds=o.seconds * REF_SECONDS / ref))
    return out


# ---------------------------------------------------------------------------
# untraced run: the end-to-end metrics


def end_to_end(main, source, workload, seconds, report):
    # The set-up samples are spread over the run, between calls and outside
    # the timed wall time, so their median sees the same machine as the calls.
    setups = []         # (unscaled, scaled) seconds
    refs = []           # (index of the next call, seconds of a reference pass)
    micro.reference_seconds()       # warm-up, not kept
    gc.collect()
    timed, wall, since_ref = [], 0.0, 0.0
    for i, call in enumerate(source.stream()):
        boundary = i % workload.group == 0
        if boundary or since_ref >= REF_EVERY:
            refs.append((i, micro.reference_seconds()))
            since_ref = 0.0
        if wall >= seconds and boundary:
            break
        if len(setups) < SETUP_RUNS and \
                wall >= len(setups) * seconds / SETUP_RUNS:
            setups.append(scaled_setup())
        t0 = time.perf_counter()
        timed.append(run_call(main, call))
        took = time.perf_counter() - t0
        wall += took
        since_ref += took
        # only the first group is rechecked; dropping the other documents
        # keeps the benchmark's own memory from growing with the call count
        if len(timed) > workload.group:
            timed[-1].stdout = None
    while len(setups) < SETUP_RUNS:
        setups.append(scaled_setup())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # byte-identity: the same argv must give the same stdout
    for o in timed[:workload.group]:
        again = run_call(main, o.call)
        if again.stdout != o.stdout:
            o.problems.append("stdout differs on a repeated call")

    # Each call's and each set-up sample's time is scaled by how fast the
    # host ran the reference work around it; the declared call values are
    # medians over the groups.
    # On a shared host the CPU at times runs 1.5-2x slower for seconds to
    # minutes, with CPU time following wall time; unscaled times over ten
    # runs then spread past their bound, scaled ones stay well within it.
    groups = groups_of(timed, workload.group)
    norm = groups_of(scaled(timed, refs), workload.group)
    pms = [mean_ms(g, refusals=False) for g in groups]
    rms = [v for v in (mean_ms(g, refusals=True) for g in groups)
           if v is not None]
    metrics = {
        "setup_s": median([k for _, k in setups]),
        "points_per_s.norm": median([group_rate(g) for g in norm]),
        "point_ms.p50.norm": median([v for v in (
            mean_ms(g, refusals=False) for g in norm) if v is not None]),
        "peak_rss_mb": rss_mb,
    }
    good_points = sum(o.call.points for o in timed
                      if not o.problems and o.call.refusal is None)
    per_call = point_ms(timed)
    tail = p90(per_call)
    over = f"median over {len(groups)} groups of {workload.group} calls"
    ref_ms = [r * 1e3 for _, r in refs]
    report.line(f"setup_s = {metrics['setup_s']:.4f} s (median of "
                f"{len(setups)} fresh interpreters, scaled to the reference "
                f"host; unscaled {median([r for r, _ in setups]):.4f} s)")
    report.line(f"reference pass = {median(ref_ms):.4f} ms (median of "
                f"{len(refs)}; {min(ref_ms):.4f} to {max(ref_ms):.4f})")
    report.line(f"points_per_s.norm = {_fmt(metrics['points_per_s.norm'])} "
                f"1/s ({over}, scaled to the reference host)")
    report.line(f"point_ms.p50.norm = {_fmt(metrics['point_ms.p50.norm'])} "
                f"ms ({over}, scaled to the reference host)")
    report.line(f"points_per_s = {good_points / wall:.4f} 1/s "
                f"({good_points} points in {wall:.2f} s, {len(timed)} calls)")
    report.line(f"point_ms.mean = {_fmt(mean_ms(timed, refusals=False))} ms "
                f"(over {len(per_call)} successful calls)")
    report.line(f"point_ms.p50 = {_fmt(median([v for v in pms if v]))} ms "
                f"({over})")
    report.line(f"point_ms.p90 = {_fmt(tail)} ms (per call)" if tail
                else f"point_ms.p90 omitted: {len(per_call)} calls leave "
                     "fewer than 10 beyond p90")
    if rms:
        report.line(f"refusal_ms.mean = {_fmt(mean_ms(timed, True))} ms")
        report.line(f"refusal_ms.p50 = {_fmt(median(rms))} ms ({over})")
    report.line(f"peak_rss_mb = {rss_mb:.1f} MB")
    report.record["setup_samples_s"] = setups
    report.record["reference_passes_s"] = refs
    report.record["call_seconds"] = [o.seconds for o in timed]
    report.record["group_point_ms"] = pms
    report.record["group_refusal_ms"] = rms
    report.record["per_combo"] = _per_combo(timed)
    return timed, metrics


def _per_combo(outcomes):
    acc = defaultdict(list)
    for o in outcomes:
        if not o.problems:
            acc[f"{o.call.command} {o.call.chart}"].append(
                o.seconds * 1e3 / o.call.points_evaluated)
    return {k: {"ms_per_point_p50": statistics.median(v), "calls": len(v)}
            for k, v in sorted(acc.items())}


# ---------------------------------------------------------------------------
# traced run: the per-layer metrics


def per_layer(main, source, workload, seconds, report):
    untraced, traced, calls_by_id = [], [], {}
    tracer = Tracer()
    missing = set()
    gc.collect()
    # untraced and traced calls alternate, so both see the same machine
    elapsed = 0.0
    for i, (a, b) in enumerate(zip(source.stream(), source.stream())):
        if elapsed >= seconds and i % workload.group == 0:
            break
        t0 = time.perf_counter()
        untraced.append(run_call(main, a))
        tracer.install()
        try:
            traced.append(run_call(main, b, tracer, len(traced)))
        finally:
            tracer.uninstall()
        elapsed += time.perf_counter() - t0
        calls_by_id[len(traced) - 1] = traced[-1]
        missing.update(tracer.missing)

    metrics = {}
    summary = tracer.summary()
    layered = 0.0
    for name, span, per in LAYER_TIMES:
        total, denom = 0.0, 0
        for (cid, sname), secs in summary.items():
            if sname == span:
                total += secs
                call = calls_by_id[cid].call
                denom += call.points_evaluated if per == "point" else 1
        layered += total
        metrics[name] = total / denom * 1e3 if denom else 0.0
        report.line(f"{name} = {metrics[name]:.4f} ms per {per} "
                    f"(over {denom} {per}s)")
    for label in sorted(missing):
        report.line(f"span missing: {label}")

    # The layer self times must account for the traced calls' wall time,
    # timed apart from the spans: a span outside every layer, or calls the
    # root span does not cover, fails the run.
    call_sum = sum(o.seconds for o in traced)
    accounted = abs(layered - call_sum) <= SELF_TIME_TOLERANCE * call_sum
    report.line(f"layer self times sum to {layered:.4f} s; traced calls "
                f"took {call_sum:.4f} s (ratio {layered / call_sum:.5f}, "
                f"tolerance {SELF_TIME_TOLERANCE}): "
                f"{'ok' if accounted else 'FAILED'}")

    plain, spanned = (mean_ms(untraced, refusals=False),
                      mean_ms(traced, refusals=False))
    overhead = (spanned - plain) / plain if plain and spanned else None
    metrics["trace.overhead_frac"] = overhead
    report.line(f"trace.overhead_frac = {_fmt(overhead)} (point_ms.mean "
                f"traced {_fmt(spanned)}, untraced {_fmt(plain)})")
    report.record["layers_by_combo"] = _layers_by_combo(summary, calls_by_id)
    report.record["spans"] = tracer.spans
    report.record["missing_spans"] = sorted(missing)
    return untraced + traced, metrics, accounted


def _layers_by_combo(summary, calls_by_id):
    acc = defaultdict(lambda: defaultdict(float))
    points = Counter()
    for cid, o in calls_by_id.items():
        points[f"{o.call.command} {o.call.chart}"] += o.call.points_evaluated
    for (cid, span), secs in summary.items():
        call = calls_by_id[cid].call
        acc[f"{call.command} {call.chart}"][span] += secs
    return {combo: {span: secs * 1e3 / points[combo]
                    for span, secs in sorted(spans.items())}
            for combo, spans in sorted(acc.items())}


def op_counts(main, source, report):
    """Jet-operation counts per point from two identical counting passes."""
    calls = source.next_round(max_points=COUNT_POINTS)
    passes, outcomes, by_combo = [], [], defaultdict(Counter)
    for _ in range(2):
        counter = OpCounter()
        counter.install()
        try:
            for c in calls:
                before = Counter(counter.counts)
                outcomes.append(run_call(main, c))
                by_combo[f"{c.command} {c.chart}"] += counter.counts - before
        finally:
            counter.uninstall()
        passes.append(counter.counts)
        for label in counter.missing:
            report.line(f"counting hook missing: {label}")
    agree = passes[0] == passes[1]
    report.line(f"jet-op counts of the two passes agree exactly: {agree}")
    points = sum(c.points_evaluated for c in calls)
    metrics = {count_metric(key): passes[0][key] / points
               for key in COUNT_KEYS}
    for name, v in metrics.items():
        report.line(f"{name} = {v:.2f} per point (over {points} points)")
    combo_points = Counter()
    for c in calls:
        combo_points[f"{c.command} {c.chart}"] += 2 * c.points_evaluated
    report.record["counts_by_combo"] = {
        combo: {k: n / combo_points[combo] for k, n in sorted(ops.items())}
        for combo, ops in sorted(by_combo.items())}
    return outcomes, metrics, agree


# ---------------------------------------------------------------------------
# reporting


def _fmt(v):
    return "n/a" if v is None else f"{v:.4f}"


class Report:
    def __init__(self, header):
        self.header = header
        self.record = {}

    def line(self, text):
        print(f"[{self.header}] {text}")


def environment():
    commit = None
    if (CHECKOUT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=CHECKOUT, timeout=10,
                capture_output=True, text=True, check=True).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "wintgen").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    import numpy

    return {"commit": commit, "source_sha256": digest.hexdigest(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    try:
        program = load_program()
        declared = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    except (BenchError, ImportError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    report = Report(f"{workload.name} seed={args.seed} trace={args.trace}")
    env = environment()
    report.line("environment: " + json.dumps(env, sort_keys=True))
    spec_dir = OUT / "specs"
    workloads.write_specs(spec_dir)
    source = workloads.CallSource(workload, args.seed,
                                  spec_dir.relative_to(CHECKOUT))
    os.chdir(CHECKOUT)

    checks_hold = True     # self times account for the calls; counts agree
    if args.trace == 0:
        outcomes, metrics = end_to_end(program, source, workload,
                                       args.seconds, report)
    else:
        outcomes, metrics, accounted = per_layer(
            program, source, workload, args.seconds, report)
        counted, counts, agree = op_counts(program, source, report)
        checks_hold = accounted and agree
        outcomes += counted
        metrics.update(counts)
        primitives = micro.jet_primitives()
        for name, v in primitives.items():
            report.line(f"{name} = {v:.3f} us (min of {micro.REPEATS})")
        metrics.update(primitives)

    failed = [o for o in outcomes if o.problems]
    report.line(f"wrong_frac = {len(failed) / len(outcomes):.4f} ratio "
                f"({len(failed)} of {len(outcomes)} calls)")
    for o in failed[:5]:
        report.line(f"wrong: {' '.join(o.call.argv)}: {'; '.join(o.problems)}")

    # the result line carries the metrics BENCHMARK.json lists for this mode
    listed = declared["end_to_end" if args.trace == 0 else "per_layer"]
    values = {m["name"]: metrics.get(m["name"]) for m in listed}
    result = {
        "correct": not failed and checks_hold
                   and all(v is not None for v in values.values()),
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }
    OUT.mkdir(exist_ok=True)
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "result": result, **report.record}
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
