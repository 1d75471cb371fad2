"""Command line behavior: exit codes, document shape, determinism."""

import csv
import dataclasses
import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wintgen
from wintgen import cli, errors, gallery, ideal, moebius
from wintgen.cli import main
from wintgen.errors import IntegrableDistribution, NotIdealPoint, SchemaError
from wintgen.immersion import sample_points

from _charts import CONST_GRAPH


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_jdump_writes_each_type():
    # NaN and the infinities are null, floats carry 17 significant digits,
    # and strings and keys are written as json.dumps writes them
    cases = [(float("nan"), "null"), (float("inf"), "null"),
             (float("-inf"), "null"), (-0.0, "-0"),
             (0.1, "0.10000000000000001"), (1e-7, "9.9999999999999995e-08"),
             (True, "true"), (False, "false"), (None, "null"), (0, "0"),
             (-12, "-12"), (np.float64(0.1), "0.10000000000000001"),
             ((1, [2.5, (None, [])]), "[1,[2.5,[null,[]]]]"),
             ({"\u03c1": "\u00e9\"x", "k": {}},
              '{"\\u03c1":"\\u00e9\\"x","k":{}}'),
             ({1: True, 1.0: [float("nan")]}, '{"1":[null]}'),
             ({1.0: 2}, '{"1.0":2}'), ({True: 2}, '{"True":2}')]
    for value, text in cases:
        assert cli._jdump(value) == text, value
    with pytest.raises(TypeError, match="cannot serialize int64"):
        cli._jdump(np.int64(3))


def test_gallery_list_document(capsys):
    code, doc = run_json(capsys, "gallery", "list")
    assert code == 0
    assert doc["schema"] == 1
    assert doc["tool"]["name"] == "wintgen"
    assert [e["name"] for e in doc["entries"]] == gallery.names()
    so3 = doc["entries"][0]
    assert so3["ambient"]["kind"] == "sphere"
    assert so3["expected"]["classification"] == "sphere_minimal"
    assert len(so3["domain"]) == 3


def test_byte_identical_given_same_argv(capsys):
    argv = ("invariants", "--example", "so3", "--points", "3", "--seed", "7")
    code1, out1 = run_cli(capsys, *argv)
    code2, out2 = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(out1) > 200


def test_seed_changes_the_sample(capsys):
    _, out1 = run_cli(capsys, "ddvv", "--example", "so3", "--points", "3",
                      "--seed", "1")
    _, out2 = run_cli(capsys, "ddvv", "--example", "so3", "--points", "3",
                      "--seed", "2")
    assert out1 != out2


def test_ddvv_document_shape(capsys):
    code, doc = run_json(capsys, "ddvv", "--example", "so3", "--points", "4")
    assert code == 0
    assert doc["command"] == "ddvv"
    assert doc["source"] == {"example": "so3"}
    assert doc["parameters"]["points"] == 4
    assert len(doc["sample"]) == 4
    assert len(doc["records"]) == 4
    for idx, rec in enumerate(doc["records"]):
        assert rec["index"] == idx
        assert rec["point"] == doc["sample"][idx]
        assert abs(rec["slack"]) < 1e-10
        assert rec["ideal"] is True
    assert doc["aggregate"]["all_ideal"] is True


def test_umbilic_example_refused(capsys):
    code, doc = run_json(capsys, "ddvv", "--example", "umbilic-control",
                         "--points", "5")
    assert code == 3
    assert doc["refusal"]["kind"] == "UmbilicPoint"
    assert "records" not in doc


def test_generic_example_not_ideal(capsys):
    code, doc = run_json(capsys, "invariants", "--example",
                         "generic-control", "--points", "2")
    assert code == 3
    assert doc["refusal"]["kind"] == "NotIdealPoint"


def test_cone_torsion_refusals(capsys):
    for cmd in ("theorem-b", "hopf-check", "invariants"):
        code, doc = run_json(capsys, cmd, "--example", "cone-veronese",
                             "--points", "2")
        assert code == 3
        assert doc["refusal"]["kind"] == "IntegrableDistribution"


def test_cone_residuals_still_run(capsys):
    code, doc = run_json(capsys, "residuals", "--example", "cone-veronese",
                         "--points", "2")
    assert code == 0
    assert doc["aggregate"]["max_overall"] < 1e-7


def test_unknown_example_is_input_error(capsys):
    code, doc = run_json(capsys, "invariants", "--example", "no-such-entry")
    assert code == 2
    assert doc["error"]["kind"] == "KeyError"


def test_missing_file_is_input_error(capsys, tmp_path):
    code, doc = run_json(capsys, "ddvv", "--spec",
                         str(tmp_path / "missing.imm"))
    assert code == 2
    assert doc["error"]["kind"] == "FileNotFoundError"


def test_bad_file_reports_parse_location(capsys, tmp_path):
    path = tmp_path / "bad.imm"
    path.write_text("not a valid immersion description\n")
    code, doc = run_json(capsys, "ddvv", "--spec", str(path))
    assert code == 2
    assert doc["error"]["kind"] == "ParseError"
    assert doc["error"]["line"] == 1


# the chart does not depend on u3, so the induced metric is singular at
# every point
DEGENERATE = """\
ambient: sphere
name: degenerate
domain: u1 in [0.3,2.8]; u2 in [0.3,2.8]; u3 in [0.3,2.8]
x1 = cos(u1)
x2 = sin(u1)*cos(u2)
x3 = sin(u1)*sin(u2)
x4 = 0
x5 = 0
x6 = 0
"""


@pytest.mark.parametrize("command", ["ddvv", "invariants", "theorem-b",
                                     "hopf-check", "residuals"])
def test_degenerate_chart_refuses_not_immersed(capsys, tmp_path, command):
    path = tmp_path / "degenerate.imm"
    path.write_text(DEGENERATE)
    code, doc = run_json(capsys, command, "--spec", str(path), "--points",
                         "2")
    assert code == 3
    assert doc["refusal"]["kind"] == "NotImmersed"
    assert "induced metric degenerate" in doc["refusal"]["message"]


def test_one_process_runs_like_separate_processes(capsys):
    """The parser is built once and shared by later calls of main: a
    sequence of calls in one process prints what separate processes print,
    with the same exit codes."""
    runs = [["ddvv", "--example", "so3", "--points", "2"],
            ["invariants", "--example", "umbilic-control", "--points", "2"],
            ["--help"],
            ["ddvv", "--example", "so3", "--no-such-flag"]]
    together = []
    for argv in runs:
        code = main(argv)
        captured = capsys.readouterr()
        together.append((code, captured.out, captured.err))
    assert cli._build_parser() is cli._build_parser()
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    def untimed(err):
        return [line for line in err.splitlines()
                if not line.startswith("# elapsed")]

    for argv, (code, out, err) in zip(runs, together):
        proc = subprocess.run([sys.executable, "-m", "wintgen.cli", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert (proc.returncode, proc.stdout) == (code, out), argv
        assert untimed(proc.stderr) == untimed(err), argv
    assert [c for c, _, _ in together] == [0, 3, 0, 2]


def test_low_order_is_input_error(capsys):
    code, doc = run_json(capsys, "invariants", "--example", "so3",
                         "--points", "2", "--order", "4")
    assert code == 2
    assert doc["error"]["kind"] == "InsufficientOrder"


def test_bad_point_count_is_input_error(capsys):
    code, doc = run_json(capsys, "ddvv", "--example", "so3", "--points", "0")
    assert code == 2
    assert doc["error"]["kind"] == "SchemaError"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "0"])
@pytest.mark.parametrize("flag", ["--tol", "--ltol"])
def test_unusable_tolerance_is_input_error(capsys, flag, value):
    code, doc = run_json(capsys, "theorem-b", "--example", "cone-veronese",
                         "--points", "3", f"{flag}={value}")
    assert code == 2
    assert doc["error"]["kind"] == "SchemaError"
    assert flag in doc["error"]["message"]


def test_assert_expected_passes_on_so3(capsys):
    for cmd in ("ddvv", "invariants", "theorem-b", "hopf-check"):
        code, doc = run_json(capsys, cmd, "--example", "so3", "--points",
                             "3", "--assert-expected")
        assert code == 0, (cmd, doc.get("assert"))
        assert doc["assert"] == {"passed": True, "failures": []}


def test_assert_expected_passes_on_hopf_lift(capsys):
    code, doc = run_json(capsys, "invariants", "--example", "veronese-hopf",
                         "--points", "3", "--assert-expected")
    assert code == 0
    assert doc["assert"]["passed"] is True


def test_assert_expected_passes_for_generic_ddvv(capsys):
    code, doc = run_json(capsys, "ddvv", "--example", "generic-control",
                         "--points", "5", "--assert-expected")
    assert code == 0
    assert doc["aggregate"]["min_slack"] > 0.01


def test_assert_violation_exits_one(capsys):
    # an impossible tolerance turns the residual check into a failure
    code, doc = run_json(capsys, "residuals", "--example", "so3", "--points",
                         "2", "--tol", "1e-30", "--assert-expected")
    assert code == 1
    assert doc["assert"]["passed"] is False
    assert doc["assert"]["failures"]


def test_assert_expected_needs_example(capsys, tmp_path):
    path = tmp_path / "so3.imm"
    path.write_text(gallery.by_name("so3").expression_text)
    report = tmp_path / "report.json"
    code, out = run_cli(capsys, "ddvv", "--spec", str(path),
                        "--assert-expected", "--json", str(report))
    assert code == 2
    assert out.count("\n") == 1
    assert json.loads(out)["error"] == {
        "kind": "SchemaError",
        "message": "--assert-expected requires --example"}
    # a check made before any work is reported on stdout only
    assert not report.exists()


def test_spec_file_route(capsys, tmp_path):
    path = tmp_path / "so3.imm"
    path.write_text(gallery.by_name("so3").expression_text)
    code, doc = run_json(capsys, "ddvv", "--spec", str(path), "--points", "3")
    assert code == 0
    assert doc["source"] == {"file": str(path)}
    assert doc["aggregate"]["all_ideal"] is True


def test_json_file_matches_stdout(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out = run_cli(capsys, "theorem-b", "--example", "so3", "--points",
                        "2", "--json", str(path))
    assert code == 0
    assert path.read_text() == out


@pytest.mark.parametrize("flag", ["--json", "--csv"])
def test_a_file_write_that_fails_is_an_input_error(capsys, monkeypatch,
                                                   tmp_path, flag):
    # the folder check passes, then the write fails (a full disk, say): one
    # error document on stdout, exit 2, and the other file, where it can be
    # written, holds the stdout bytes
    full = tmp_path / "full"
    other = tmp_path / ("report.csv" if flag == "--json" else "report.json")

    def opened(path, *args, **kwargs):
        if Path(path) == full:
            raise OSError(28, "No space left on device")
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", opened, raising=False)
    code, out = run_cli(capsys, "ddvv", "--example", "so3", "--points", "2",
                        flag, str(full),
                        "--csv" if flag == "--json" else "--json", str(other))
    assert code == 2
    assert out.count("\n") == 1
    doc = json.loads(out)
    assert doc["error"] == {"kind": "OSError",
                            "message": "[Errno 28] No space left on device"}
    assert doc["command"] == "ddvv" and "records" not in doc
    assert not full.exists()
    if flag == "--csv":
        assert other.read_text() == out


@pytest.mark.parametrize("argv", [
    ("ddvv", "--example", "so3", "--points", "1", "--json"),
    ("ddvv", "--example", "so3", "--points", "1", "--csv"),
    ("invariants", "--example", "so3", "--points", "1", "--csv"),
    ("gallery", "list", "--json")], ids=" ".join)
@pytest.mark.parametrize("missing", [True, False], ids=["no-folder", "folder"])
def test_unwritable_output_path_is_an_input_error(capsys, monkeypatch,
                                                  tmp_path, argv, missing):
    def analyze(*args, **kwargs):
        raise AssertionError("a point was analyzed before the output check")

    monkeypatch.setattr(cli, "ClassicalContext", analyze)
    monkeypatch.setattr(cli, "_analyze", analyze)
    target = tmp_path / "missing" / "x" if missing else tmp_path
    code, out = run_cli(capsys, *argv, str(target))
    assert code == 2
    assert out.count("\n") == 1
    doc = json.loads(out)
    assert doc["error"]["kind"] == "SchemaError"
    assert doc["error"]["message"].startswith(f"{argv[-1]} {target}:")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags", [
    ("--spec", "same.imm", "--csv", "same.imm"),
    ("--spec", "same.imm", "--json", "./same.imm"),
    ("--example", "so3", "--csv", "x", "--json", "x")], ids=" ".join)
def test_outputs_that_name_one_file_are_refused(capsys, monkeypatch,
                                                tmp_path, flags):
    # an output over the chart would replace it, and --csv over --json
    # would be lost: refused before any point is analyzed
    def analyze(*args, **kwargs):
        raise AssertionError("a point was analyzed before the file check")

    monkeypatch.setattr(cli, "ClassicalContext", analyze)
    monkeypatch.chdir(tmp_path)
    chart = gallery.by_name("so3").expression_text
    (tmp_path / "same.imm").write_text(chart)
    code, out = run_cli(capsys, "ddvv", *flags, "--points", "2")
    assert code == 2
    assert json.loads(out)["error"] == {
        "kind": "SchemaError",
        "message": "--spec, --json and --csv must name different files"}
    assert (tmp_path / "same.imm").read_text() == chart
    assert sorted(p.name for p in tmp_path.iterdir()) == ["same.imm"]


def test_csv_columns(capsys, tmp_path):
    path = tmp_path / "rows.csv"
    code, _ = run_cli(capsys, "invariants", "--example", "so3", "--points",
                      "2", "--csv", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",") == [
        "index", "u1", "u2", "u3", "rho", "mu", "U", "V", "L", "G", "lam",
        "Fhat", "Ghat", "omega1", "omega2", "omega3", "domega12", "domega13",
        "domega23", "theta12_1", "theta12_2", "theta12_3"]
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0"
    assert abs(float(first[8]) - 1 / 6 ** 0.5) < 1e-8  # the L column


def test_v0_gauge_zeroes_second_coefficient(capsys):
    code, doc = run_json(capsys, "invariants", "--example", "hopf-generic",
                         "--points", "2", "--gauge", "v0")
    assert code == 0
    assert doc["parameters"]["gauge"] == "v0"
    for rec in doc["records"]:
        assert abs(rec["V"]) < 1e-12
        assert rec["U"] > 0.1


def test_theorem_b_verdict_fields(capsys):
    code, doc = run_json(capsys, "theorem-b", "--example", "so3", "--points",
                         "3")
    assert code == 0
    agg = doc["aggregate"]
    assert agg["classification"] == "sphere_minimal"
    assert agg["closed"] is True
    assert agg["Fhat_sign"] == "positive"
    assert agg["fhat_min"] == pytest.approx(1 / 12, abs=1e-7)


def test_hopf_document_fields(capsys):
    code, doc = run_json(capsys, "hopf-check", "--example", "veronese-hopf",
                         "--points", "3")
    assert code == 0
    assert doc["aggregate"]["satisfied"] is True
    assert doc["aggregate"]["max_G"] < 1e-7


def test_residual_columns_fixed(capsys, tmp_path):
    path = tmp_path / "res.csv"
    code, _ = run_cli(capsys, "residuals", "--example", "so3", "--points",
                      "2", "--csv", str(path))
    assert code == 0
    header = path.read_text().splitlines()[0].split(",")
    assert header == ["index", "u1", "u2", "u3", "codazzi_A", "ricci_C",
                      "codazzi_B", "gauss", "ricci_normal", "trace", "max"]


# argv (with {so3}, {bad}, {eval}, {ov}, {ov2}, {missing} and {nodir}
# standing for files the test writes or leaves missing), the document's
# command, the kind of its error or refusal (None for a report) and the
# exit code
OUTCOMES = [
    # usage errors
    (["ddvv", "--example", "so3", "--bogus"], "ddvv", "SchemaError", 2),
    (["ddvv"], "ddvv", "SchemaError", 2),
    (["gallery", "show"], "gallery-list", "SchemaError", 2),
    (["frobnicate"], None, "SchemaError", 2),
    ([], None, "SchemaError", 2),
    (["ddvv", "--example", "so3", "--points", "x"], "ddvv", "SchemaError",
     2),
    # checks made before any work
    (["ddvv", "--example", "so3", "--json", "{nodir}"], "ddvv",
     "SchemaError", 2),
    (["invariants", "--example", "so3", "--csv", "{nodir}"], "invariants",
     "SchemaError", 2),
    (["ddvv", "--spec", "{so3}", "--assert-expected"], "ddvv",
     "SchemaError", 2),
    # loading the chart
    (["invariants", "--example", "no-such-entry"], "invariants", "KeyError",
     2),
    (["ddvv", "--spec", "{missing}"], "ddvv", "FileNotFoundError", 2),
    (["ddvv", "--spec", "{bad}"], "ddvv", "ParseError", 2),
    # validation and evaluation
    (["ddvv", "--example", "so3", "--points", "0"], "ddvv", "SchemaError",
     2),
    (["theorem-b", "--example", "so3", "--tol", "nan"], "theorem-b",
     "SchemaError", 2),
    (["invariants", "--example", "so3", "--order", "4"], "invariants",
     "InsufficientOrder", 2),
    (["ddvv", "--example", "so3", "--order", "6"], "ddvv", "OrderError", 2),
    (["ddvv", "--spec", "{eval}", "--points", "1"], "ddvv", "EvalError", 2),
    # math.exp overflows, and math.sin of an infinite value fails
    (["ddvv", "--spec", "{overflow}", "--points", "5"], "ddvv", "EvalError",
     2),
    (["residuals", "--spec", "{infinite}", "--points", "5"], "residuals",
     "EvalError", 2),
    # a metric whose cube overflows, and first partials that overflow
    (["ddvv", "--spec", "{ov}", "--seed", "3", "--points", "2"], "ddvv",
     "NotImmersed", 3),
    (["theorem-b", "--spec", "{ov}", "--seed", "3", "--points", "2"],
     "theorem-b", "NotImmersed", 3),
    (["ddvv", "--spec", "{ov2}", "--points", "2"], "ddvv", "EvalError", 2),
    (["residuals", "--spec", "{ov2}", "--points", "2"], "residuals",
     "EvalError", 2),
    # so3 scaled onto the sphere of radius sqrt(2/3): off S^5 by 1/3
    (["ddvv", "--spec", "{r3}", "--points", "2"], "ddvv", "NotImmersed", 3),
    (["theorem-b", "--spec", "{r3}", "--points", "3"], "theorem-b",
     "NotImmersed", 3),
    # runs
    (["invariants", "--example", "umbilic-control", "--points", "1"],
     "invariants", "UmbilicPoint", 3),
    (["ddvv", "--example", "so3", "--points", "1"], "ddvv", None, 0),
    (["residuals", "--example", "so3", "--points", "1", "--tol", "1e-30",
      "--assert-expected"], "residuals", None, 1),
    (["gallery", "list"], "gallery-list", None, 0),
]


def test_every_outcome_prints_one_document(capsys, tmp_path):
    """Each argv prints exactly one schema-1 document on stdout, in process
    and in a separate process alike."""
    so3 = gallery.by_name("so3").expression_text
    files = {"so3": so3, "bad": "not a valid immersion description\n",
             "eval": so3.replace("x1 = (", "x1 = 1/(u1 - u1) + (", 1),
             "overflow": so3.replace("x1 = (", "x1 = exp(1000*u1) + (", 1),
             "infinite": so3.replace("x1 = (", "x1 = sin(u1 + 1e308*10) + (",
                                     1)}
    # const-graph with x4 + exp(1000 u1): |x_u1|^2 near 1e249 at the first
    # point of seed 3, and x_u1 beyond float range on the narrow domain
    files["ov"] = CONST_GRAPH.replace("x4 = ", "x4 = exp(1000*u1) + ")
    files["ov2"] = files["ov"].replace("u1 in [0.2,0.9]", "u1 in [0.705,0.708]")
    files["r3"] = so3.replace("/ sqrt(2)", "/ sqrt(3)")
    names = {"missing": tmp_path / "missing.imm",
             "nodir": tmp_path / "missing" / "out"}
    for key, text in files.items():
        names[key] = tmp_path / f"{key}.imm"
        names[key].write_text(text)
    runs = [[a.format(**names) for a in argv] for argv, *_ in OUTCOMES]

    outputs = [run_cli(capsys, *argv) for argv in runs]
    for argv, (code, out), (_, command, kind, want) in zip(
            runs, outputs, OUTCOMES):
        assert code == want, argv
        assert out.count("\n") == 1 and out.endswith("\n"), argv
        doc = json.loads(out)
        assert doc["schema"] == 1, argv
        assert doc["tool"] == {"name": "wintgen", "version":
                               cli.__version__}, argv
        assert doc["command"] == command, argv
        key = "refusal" if code == cli.EXIT_REFUSED else "error"
        assert {k: doc[k]["kind"] for k in ("error", "refusal") if k in doc} \
            == ({} if kind is None else {key: kind}), argv

    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    # a few processes at a time keep the wall time and memory small
    for start in range(0, len(runs), 4):
        procs = [(argv, subprocess.Popen(
            [sys.executable, "-m", "wintgen.cli", *argv], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True))
            for argv in runs[start:start + 4]]
        for (argv, proc), (code, out) in zip(procs,
                                             outputs[start:start + 4]):
            stdout, _ = proc.communicate(timeout=120)
            assert (proc.returncode, stdout) == (code, out), argv


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_each_error_belongs_to_one_exit_code_family():
    kinds = set(_subclasses(errors.WintgenError)) - {errors.Refusal,
                                                     errors.InputError}
    refusals = {k.__name__ for k in kinds if issubclass(k, errors.Refusal)}
    inputs = {k.__name__ for k in kinds if issubclass(k, errors.InputError)}
    assert not refusals & inputs
    assert refusals | inputs == {k.__name__ for k in kinds}
    assert refusals == {"UmbilicPoint", "NotImmersed", "NotIdealPoint",
                        "IntegrableDistribution", "DegenerateCurve",
                        "ChartBlowUp", "SingularJet", "DomainError"}
    assert inputs == {"ParseError", "UnknownIdentifier", "SchemaError",
                      "InsufficientOrder", "OrderError", "ShapeError",
                      "EvalError", "NotLorentz"}


def test_library_tolerance_defaults_are_the_command_line_defaults():
    """Every tol and ltol default in the package is the default of --tol or
    --ltol, so a library call and the command with default flags judge
    alike.  gallery.check_lorentz's tol bounds a matrix identity instead."""
    args = cli._build_parser().parse_args(["ddvv", "--example", "so3"])
    defaults = {}
    for info in pkgutil.iter_modules(wintgen.__path__):
        module = importlib.import_module(f"wintgen.{info.name}")
        for name, obj in vars(module).items():
            routine = inspect.isfunction(obj) or inspect.isclass(obj) \
                and not issubclass(obj, Exception)
            if not routine or obj.__module__ != module.__name__ or \
                    obj is gallery.check_lorentz:
                continue
            params = inspect.signature(obj).parameters
            for flag in ("tol", "ltol"):
                if flag in params and \
                        params[flag].default is not inspect.Parameter.empty:
                    defaults[f"{module.__name__}.{name} {flag}"] = (
                        params[flag].default, getattr(args, flag))
    assert "wintgen.ideal.classify_theorem_b tol" in defaults
    assert "wintgen.ideal.hopf_criterion ltol" in defaults
    assert {k: v for k, v in defaults.items() if v[0] != v[1]} == {}


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_source_flag_required(capsys):
    assert main(["ddvv"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("cmd", ["invariants", "theorem-b", "hopf-check"])
def test_tol_reaches_the_ideality_gate(capsys, cmd):
    code, doc = run_json(capsys, cmd, "--example", "so3", "--points", "3",
                         "--tol", "1e-30")
    assert code == 3
    assert doc["refusal"]["kind"] == "NotIdealPoint"


# ---------------------------------------------------------------------------
# refusal gates: each decided once, before the work it guards

IDEAL_COMMANDS = ["invariants", "theorem-b", "hopf-check"]


@pytest.mark.parametrize("cmd", IDEAL_COMMANDS)
def test_ideality_gate_runs_before_the_moebius_snapshot(capsys, monkeypatch,
                                                        cmd):
    # the ideality and torsion gates read the classical point pass, B and
    # covB, none of the snapshot
    def snapshot(*args, **kwargs):
        raise AssertionError("Moebius data built at a refused point")

    monkeypatch.setattr(ideal, "moebius_data", snapshot)
    for name, kind in (("generic-control", "NotIdealPoint"),
                       ("cone-veronese", "IntegrableDistribution")):
        code, doc = run_json(capsys, cmd, "--example", name, "--points", "2")
        assert code == 3
        assert doc["refusal"]["kind"] == kind


@pytest.mark.parametrize("cmd", IDEAL_COMMANDS)
def test_umbilic_gate_runs_before_the_ideality_gate(capsys, cmd):
    # with --tol 1e-30 no point is ideal, but the umbilic refusal comes first
    code, doc = run_json(capsys, cmd, "--example", "umbilic-control",
                         "--points", "3", "--tol", "1e-30")
    assert code == 3
    assert doc["refusal"]["kind"] == "UmbilicPoint"


@pytest.mark.parametrize("name", ["generic-control", "umbilic-control"])
@pytest.mark.parametrize("cmd", IDEAL_COMMANDS + ["residuals"])
def test_order_gate_runs_before_the_geometric_gates(capsys, cmd, name):
    code, doc = run_json(capsys, cmd, "--example", name, "--points", "2",
                         "--order", "4")
    assert code == 2
    assert doc["error"]["kind"] == "InsufficientOrder"
    assert doc["error"]["message"] == \
        "conformal frame data needs jet order >= 5, got 4"


def test_ddvv_records_are_the_same_at_every_accepted_order(capsys):
    docs = set()
    for order in (2, 3, 4, 5):
        code, out = run_cli(capsys, "ddvv", "--example", "hopf-generic",
                            "--points", "3", "--order", str(order))
        assert code == 0
        docs.add(out.replace(f'"order":{order},', '"order":K,', 1))
    assert len(docs) == 1


@pytest.mark.parametrize("order, kind, message", [
    (0, "InsufficientOrder",
     "second fundamental form needs jet order >= 2, got 0"),
    (1, "InsufficientOrder",
     "second fundamental form needs jet order >= 2, got 1"),
    (6, "OrderError", "jet order must be an integer in [0, 5], got 6"),
])
def test_ddvv_order_gate_runs_before_the_umbilic_gate(capsys, order, kind,
                                                       message):
    code, doc = run_json(capsys, "ddvv", "--example", "umbilic-control",
                         "--points", "2", "--order", str(order))
    assert code == 2
    assert doc["error"] == {"kind": kind, "message": message}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("cmd", IDEAL_COMMANDS)
def test_torsion_below_its_rounding_floor_is_refused(capsys, cmd, seed):
    # on the integrable cone the torsion is rounding noise (about 1e-17);
    # a positive --ltol below that must not let lambda = G/L divide it
    code, doc = run_json(capsys, cmd, "--example", "cone-veronese",
                         "--points", "3", "--seed", str(seed),
                         "--ltol", "1e-20")
    assert code == 3
    assert doc["refusal"]["kind"] == "IntegrableDistribution"
    assert "rounding floor" in doc["refusal"]["message"]


@pytest.mark.parametrize("name", ["so3", "veronese-hopf", "hopf-generic"])
@pytest.mark.parametrize("cmd", IDEAL_COMMANDS)
def test_rounding_floor_leaves_twisted_charts_alone(capsys, cmd, name):
    docs = []
    for ltol in ("1e-6", "1e-20"):
        code, doc = run_json(capsys, cmd, "--example", name, "--points", "3",
                             "--ltol", ltol)
        assert code == 0
        docs.append((doc["records"], doc["aggregate"]))
    assert docs[0] == docs[1]


def test_partial_fields_refuse_lambda_with_the_cli_message(capsys):
    code, doc = run_json(capsys, "invariants", "--example", "cone-veronese",
                         "--points", "1")
    assert code == 3
    spec = gallery.by_name("cone-veronese").spec
    p = sample_points(spec.domain, 1, 0)[0]
    cf = ideal.CanonicalFields(moebius.MoebiusContext(spec, p), partial=True)
    assert cf.integrable
    with pytest.raises(IntegrableDistribution) as exc:
        cf.lamf
    assert str(exc.value) == doc["refusal"]["message"]


def _invariant_records(capsys, *source, seed=0):
    code, doc = run_json(capsys, "invariants", *source, "--points", "5",
                         "--seed", str(seed))
    assert code == 0
    return doc["records"]


def _assert_records_close(a, b, tol):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra.keys() == rb.keys()
        for key in ra:
            va = ra[key] if isinstance(ra[key], list) else [ra[key]]
            vb = rb[key] if isinstance(rb[key], list) else [rb[key]]
            for x, y in zip(va, vb, strict=True):
                assert abs(x - y) <= tol * max(1.0, abs(x)), \
                    (ra["index"], key, x, y)


@pytest.mark.parametrize("name", ["so3", "veronese-hopf"])
def test_example_and_spec_routes_agree(capsys, tmp_path, name):
    # the frame, and with it Omega12, must not depend on the sign the SVD
    # happens to return for the kernel direction
    path = tmp_path / f"{name}.imm"
    path.write_text(gallery.by_name(name).expression_text)
    for seed in range(3):
        ex = _invariant_records(capsys, "--example", name, seed=seed)
        sp = _invariant_records(capsys, "--spec", str(path), seed=seed)
        _assert_records_close(ex, sp, 1e-10)


def test_negated_kernel_vector_leaves_records_unchanged(capsys, monkeypatch):
    names = ("so3", "veronese-hopf", "hopf-generic")
    before = [_invariant_records(capsys, "--example", n) for n in names]
    svd = np.linalg.svd

    def negated(a, *args, **kwargs):
        u, s, vt = svd(a, *args, **kwargs)
        return u, s, -vt

    monkeypatch.setattr(np.linalg, "svd", negated)
    after = [_invariant_records(capsys, "--example", n) for n in names]
    for a, b in zip(before, after):
        _assert_records_close(a, b, 1e-12)


TWISTED = ["so3", "veronese-hopf", "hopf-generic"]


@pytest.mark.parametrize("verdict, fold", [
    pytest.param(ideal.classify_theorem_b, ideal.theorem_b_verdict,
                 id="classify_theorem_b"),
    pytest.param(ideal.hopf_criterion, ideal.hopf_verdict,
                 id="hopf_criterion")])
def test_library_verdicts_refuse_an_empty_sample(verdict, fold):
    # --points must be >= 1 on the command line; the library says the same,
    # in the fold, so a fold of no invariants passes no verdict either
    with pytest.raises(SchemaError, match="no points"):
        verdict(gallery.by_name("so3").spec, [])
    with pytest.raises(SchemaError, match="no points"):
        fold([])


@pytest.mark.parametrize("name, n, seed, tol", [
    *(pytest.param(name, 4, 1, 1e-7, id=name) for name in TWISTED),
    # one tol sets the ideality gate in both: so3's equality holds to
    # rounding, not to 1e-30
    pytest.param("so3", 3, 0, 1e-30, id="so3-tol1e-30")])
def test_library_verdicts_equal_cli_aggregates(capsys, name, n, seed, tol):
    spec = gallery.by_name(name).spec
    pts = sample_points(spec.domain, n, seed)
    argv = ("--example", name, "--points", str(n), "--seed", str(seed),
            "--tol", repr(tol))
    code, tb = run_json(capsys, "theorem-b", *argv)
    if tol < 1e-20:
        assert code == 3
        assert tb["refusal"]["kind"] == "NotIdealPoint"
        for verdict in (ideal.classify_theorem_b, ideal.hopf_criterion):
            with pytest.raises(NotIdealPoint):
                verdict(spec, pts, tol=tol)
        return
    assert code == 0
    v = ideal.classify_theorem_b(spec, pts, tol=tol)
    assert tb["aggregate"] == {
        "n_points": v.n_points, "classification": v.classification,
        "closed": v.closed, "Fhat_sign": v.Fhat_sign,
        "max_domega": v.max_domega, "fhat_min": v.fhat_min,
        "fhat_max": v.fhat_max}
    code, hc = run_json(capsys, "hopf-check", *argv)
    assert code == 0
    rep = ideal.hopf_criterion(spec, pts, tol=tol)
    assert hc["aggregate"] == {"n_points": n, "satisfied": rep.satisfied,
                               "max_G": rep.max_G,
                               "max_domega": rep.max_domega}


def _readme_csv_columns():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = text.split("### CSV column order", 1)[1].split("\n#", 1)[0]
    return {m.group(1): m.group(2).split(",")
            for m in re.finditer(r"^- `([a-z-]+)`: `([^`]+)`$", section,
                                 re.MULTILINE)}


_VECTOR_COLUMNS = {
    "omega": ("omega1", "omega2", "omega3"),
    "domega": ("domega12", "domega13", "domega23"),
    "theta12": ("theta12_1", "theta12_2", "theta12_3"),
}


def _record_column(rec, column):
    if column in ("u1", "u2", "u3"):
        return rec["point"][int(column[1]) - 1]
    for key, columns in _VECTOR_COLUMNS.items():
        if column in columns:
            return rec[key][columns.index(column)]
    return rec[column]


@pytest.mark.parametrize("cmd", ["ddvv", "invariants", "theorem-b",
                                 "hopf-check", "residuals"])
def test_csv_matches_readme_columns_and_records(capsys, tmp_path, cmd):
    columns = _readme_csv_columns()[cmd]
    path = tmp_path / "rows.csv"
    code, doc = run_json(capsys, cmd, "--example", "veronese-hopf",
                         "--points", "2", "--csv", str(path))
    assert code == 0
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == columns
    assert len(rows) == 1 + len(doc["records"])
    for row, rec in zip(rows[1:], doc["records"]):
        want = [_record_column(rec, c) for c in columns]
        got = [json.loads(cell) for cell in row]
        assert got == want


def test_assert_expected_lists_each_violation(capsys, monkeypatch):
    so3 = gallery.by_name("so3")
    wrong = dataclasses.replace(so3, expected={
        "zeros": ("L",), "constants": {"Fhat": 0.5, "mu": 1 / 6 ** 0.5},
        "L_zero": False, "classification": "euclidean_minimal",
        "hopf": False})
    monkeypatch.setattr(gallery, "by_name", lambda name: wrong)
    argv = ("--example", "so3", "--points", "3", "--assert-expected")

    code, doc = run_json(capsys, "invariants", *argv)
    assert code == 1
    recs = doc["records"]
    worst_L = max(abs(r["L"]) for r in recs)
    worst_F = max(abs(r["Fhat"] - 0.5) for r in recs)
    assert doc["assert"] == {"passed": False, "failures": [
        f"expected L = 0, found |L| up to {worst_L:.17g}",
        f"expected Fhat = 0.5, off by {worst_F:.17g}"]}

    code, doc = run_json(capsys, "theorem-b", *argv)
    assert code == 1
    assert doc["assert"] == {"passed": False, "failures": [
        "expected classification euclidean_minimal, got sphere_minimal"]}

    code, doc = run_json(capsys, "hopf-check", *argv)
    assert code == 1
    assert doc["assert"] == {"passed": False, "failures": [
        "expected lift criterion False, got True"]}
