"""Self-tests of the benchmark: the gate counts bad outcomes as wrong, and
the tracer and op counter account for what they wrap.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import OpCounter, Tracer  # noqa: E402

MAIN = run.load_program()
SPECS = Path("specs")


def _call(command, chart, points=2, **kw):
    return workloads.Template(command, chart, points, **kw).bind(7, SPECS)


def _outcome(call):
    o = run.run_call(MAIN, call)
    assert o.problems == [], o.problems
    return o


@pytest.fixture(scope="module")
def ddvv_ok():
    return _outcome(_call("ddvv", "so3", asserted=True))


@pytest.fixture(scope="module")
def refused():
    return _outcome(_call("invariants", "cone-veronese",
                          refusal="IntegrableDistribution"))


def test_tampered_document_counts_as_wrong(ddvv_ok):
    doc = json.loads(ddvv_ok.stdout)
    call = ddvv_ok.call
    dropped = dict(doc, records=doc["records"][:-1])
    failed = dict(doc, **{"assert": {"passed": False, "failures": ["x"]}})
    unversioned = dict(doc, schema=2)
    for bad in (json.dumps(dropped), json.dumps(failed),
                json.dumps(unversioned), ddvv_ok.stdout[:-20], ""):
        assert gate.problems(call, 0, bad)


def test_wrong_exit_code_counts_as_wrong(ddvv_ok, refused):
    assert gate.problems(ddvv_ok.call, 1, ddvv_ok.stdout)
    assert gate.problems(refused.call, 0, refused.stdout)


def test_wrong_refusal_kind_counts_as_wrong(refused):
    doc = json.loads(refused.stdout)
    doc["refusal"]["kind"] = "NotIdealPoint"
    assert gate.problems(refused.call, 3, json.dumps(doc))
    other = _call("invariants", "cone-veronese", refusal="UmbilicPoint")
    assert gate.problems(other, 3, refused.stdout)


def test_residual_bound_applies_to_spec_calls(tmp_path):
    workloads.write_specs(tmp_path)
    call = workloads.Template("residuals", "so3", 2, spec=True).bind(
        3, tmp_path)
    assert call.residual_bound == workloads.RESIDUAL_BOUND
    o = _outcome(call)
    doc = json.loads(o.stdout)
    doc["aggregate"]["max_overall"] = 2 * workloads.RESIDUAL_BOUND
    assert gate.problems(call, 0, json.dumps(doc))


def test_rounds_never_repeat_an_argv():
    for w in workloads.WORKLOADS.values():
        source = workloads.CallSource(w, 0, SPECS)
        argvs = [c.argv for _ in range(5) for c in source.next_round()]
        assert len(set(argvs)) == len(argvs)
        again = workloads.CallSource(w, 0, SPECS)
        assert [c.argv for c in again.next_round()] == argvs[:len(w.round)]


def test_layer_self_times_sum_to_traced_call_time():
    tracer = Tracer()
    wall = 0.0
    tracer.install()
    try:
        for i, call in enumerate((_call("invariants", "so3"),
                                  _call("theorem-b", "generic-control",
                                        refusal="NotIdealPoint"))):
            o = run.run_call(MAIN, call, tracer, i)
            assert o.problems == [], o.problems
            wall += o.seconds
    finally:
        tracer.uninstall()
    names = {s[0] for s in tracer.spans}
    assert {"cli.call", "moebius.moebius_data", "ideal.canonical_fields",
            "ideal.package_invariants", "cli.emit"} <= names
    # every span falls in a layer metric, and together the layers account
    # for the wall time of the calls, timed apart from the spans
    assert names <= {span for _, span, _ in run.LAYER_TIMES}
    assert tracer.missing == []
    assert sum(tracer.self_times()) == pytest.approx(
        wall, rel=run.SELF_TIME_TOLERANCE)
    # theorem-b calls moebius_data through ideal: a child of _analyze
    by_index = tracer.spans
    nested = [s for s in by_index if s[0] == "moebius.moebius_data"
              and s[3] is not None
              and by_index[s[3]][0] == "ideal.canonical_fields"]
    assert nested


def test_each_call_is_scaled_by_the_reference_passes_around_it():
    # (index of the next call, seconds): passes before calls 0, 2 and 3
    refs = [(0, 0.02), (2, 0.04), (3, 0.01)]
    calls = [run.Outcome(None, 0, None, 1.0, []) for _ in range(3)]
    assert [o.seconds for o in run.scaled(calls, refs)] == pytest.approx(
        [run.REF_SECONDS / 0.03, run.REF_SECONDS / 0.03,
         run.REF_SECONDS / 0.025])


def test_missing_name_is_reported_not_fatal(monkeypatch):
    from wintgen import cli

    monkeypatch.delattr(cli, "_analyze")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert any("_analyze" in m for m in tracer.missing)
    assert not hasattr(cli, "_analyze")


def test_op_counts_repeat_exactly():
    call = _call("ddvv", "hopf-generic")
    runs = []
    for _ in range(2):
        counter = OpCounter()
        counter.install()
        try:
            _outcome(call)
        finally:
            counter.uninstall()
        runs.append(counter.counts)
    assert runs[0] == runs[1]
    assert runs[0]["mul"] == sum(runs[0][f"mul.o{k}"] for k in range(6))
    from wintgen import jets
    assert not hasattr(jets.MultiJet.__mul__, "__wrapped__")


def test_benchmark_json_matches_the_workloads():
    declared = json.loads((run.CHECKOUT / "BENCHMARK.json").read_text())
    assert declared["paths"] == ["perfbench"]
    assert [(w["name"], w["why"]) for w in declared["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_carries_the_declared_metrics(trace, capsys):
    declared = json.loads((run.CHECKOUT / "BENCHMARK.json").read_text())
    listed = declared["end_to_end" if trace == 0 else "per_layer"]
    code = run.main(["--workload", "screen", "--seed", "0", "--seconds",
                     "0.5", "--trace", str(trace)])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    import shutil
    import subprocess

    shutil.copy(run.CHECKOUT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(__file__).resolve().parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "screen", "--seed",
         "0", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
        capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_a_crashing_call_counts_as_wrong():
    def crash(argv):
        raise RuntimeError("boom")

    o = run.run_call(crash, _call("ddvv", "so3"))
    assert o.exit is None
    assert o.problems[0] == "raised RuntimeError: boom"
