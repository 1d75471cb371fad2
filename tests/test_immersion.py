"""Parser, evaluation, and sampling."""

import dataclasses
import json
import re

import numpy as np
import pytest

from wintgen import cli, gallery, immersion, jets
from wintgen.errors import (EvalError, ParseError, SchemaError,
                            UnknownIdentifier)
from wintgen.immersion import (MAX_NESTING, SPHERE, eval_immersion_jet,
                               eval_immersion_values, parse_expression,
                               parse_immersion, sample_points)
from wintgen.jets import jet_seed

from _charts import TEXTS

GREAT_CIRCLE = """\
# great circle in the first coordinate plane
ambient: sphere
name: great-circle
domain: u1 in [-1.0,1.0]; u2 in [-1.0,1.0]; u3 in [-1.0,1.0]
x1 = cos(u1)
x2 = sin(u1)
x3 = 0
x4 = 0
x5 = 0
x6 = 0
"""


def test_parse_great_circle():
    spec = parse_immersion(GREAT_CIRCLE)
    assert spec.ambient is SPHERE
    assert spec.name == "great-circle"
    assert spec.domain == ((-1.0, 1.0),) * 3
    x = eval_immersion_values(spec, (0.0, 0.5, 0.5))
    assert len(x) == 6
    assert x == pytest.approx([1, 0, 0, 0, 0, 0], abs=1e-15)


def test_parse_precedence():
    e = parse_expression("1 + 2 * u1 ^ 2")
    assert e.eval([3.0, 0.0, 0.0]) == 19.0
    # unary minus binds looser than ^
    assert parse_expression("-u1^2").eval([3.0, 0, 0]) == -9.0
    # ^ right-associative: u1^(2^3)
    assert parse_expression("u1 ^ 2 ^ 3").eval([2.0, 0, 0]) == 256.0
    assert parse_expression("6 / 2 / 3").eval([0.0, 0, 0]) == 1.0
    assert parse_expression("1 - 2 - 3").eval([0.0, 0, 0]) == -4.0


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_expression("u1 +")
    with pytest.raises(ParseError):
        parse_expression("u1 ^ 2.5")
    with pytest.raises(ParseError):
        parse_expression("(u1 + 1")
    with pytest.raises(ParseError):
        parse_expression("u1 @ 2")
    err = None
    try:
        parse_expression("u1 + foo", line=12)
    except UnknownIdentifier as e:
        err = e
    assert err is not None and err.line == 12 and isinstance(err, ParseError)


def test_parse_error_positions():
    try:
        parse_expression("1 + * 2")
    except ParseError as e:
        assert e.col == 5
    else:
        raise AssertionError("no error raised")


def test_schema_errors():
    with pytest.raises(SchemaError):
        parse_immersion(GREAT_CIRCLE.replace("x6 = 0\n", ""))
    with pytest.raises(SchemaError):
        parse_immersion(GREAT_CIRCLE.replace("ambient: sphere", "ambient: torus"))
    with pytest.raises(SchemaError):
        parse_immersion(GREAT_CIRCLE.replace("name: great-circle\n", ""))
    with pytest.raises(SchemaError):
        parse_immersion(GREAT_CIRCLE.replace("u2 in [-1.0,1.0]", "u2 in [1.0,-1.0]"))
    with pytest.raises(SchemaError):
        parse_immersion(GREAT_CIRCLE + "x3 = 1\n")
    # euclidean wants exactly 5 components
    txt = GREAT_CIRCLE.replace("ambient: sphere", "ambient: euclidean")
    with pytest.raises(SchemaError):
        parse_immersion(txt)


def test_eval_jets_great_circle():
    spec = parse_immersion(GREAT_CIRCLE)
    js = eval_immersion_jet(spec, (0.0, 0.0, 0.0), 1)
    assert [j.value for j in js] == pytest.approx([1, 0, 0, 0, 0, 0], abs=1e-15)
    d1 = [j.coeff((1, 0, 0)) for j in js]
    assert d1 == pytest.approx([0, 1, 0, 0, 0, 0], abs=1e-15)

    js5 = eval_immersion_jet(spec, (0.1, 0.2, 0.3), 5)
    assert len(js5) == 6 and all(len(j.c) == 56 for j in js5)


# expressions nested one level past the bound, and the column of the token
# that opens that level
TOO_DEEP = {
    "parentheses": ("(" * 400 + "u1" + ")" * 400, MAX_NESTING + 1),
    "unary minus": ("-" * 1200 + "u1", MAX_NESTING + 1),
    "calls": ("sin(" * 150 + "u1" + ")" * 150, 4 * MAX_NESTING + 1),
    "exponent chain": ("u1" + "^1" * 150, 2 * MAX_NESTING + 5),
}


@pytest.mark.parametrize("case", list(TOO_DEEP))
def test_nesting_past_the_bound_is_a_parse_error(case):
    text, col = TOO_DEEP[case]
    with pytest.raises(ParseError, match="nested deeper than") as err:
        parse_expression(text, line=7)
    assert (err.value.line, err.value.col) == (7, col)


def test_nesting_at_the_bound_parses_and_evaluates():
    n = MAX_NESTING
    for text, value in (("(" * n + "u1" + ")" * n, 2.0),
                        ("-" * n + "u1", 2.0),
                        ("sqrt(" * n + "u1" + ")" * n, 2.0 ** 0.5 ** n),
                        ("u1" + "^1" * (n + 1), 2.0)):
        e = parse_expression(text)
        assert e.eval([2.0, 0.0, 0.0]) == pytest.approx(value, rel=1e-15)
        assert e.text()


def test_a_long_sum_is_one_flat_chain():
    # 3000 terms: no Python frame per term in parsing, evaluating or
    # printing, and the text and values of the nested left-to-right tree
    e = parse_expression("+".join(["u1"] * 3000))
    assert e.eval([1.0, 0.0, 0.0]) == 3000.0
    assert e.eval([jet_seed(1, 0.5, 2), 0.0, 0.0]).value == 1500.0
    assert e.text() == "(" * 2999 + "u1" + " + u1)" * 2999
    # a division by zero names the chain up to the failing operation
    e = parse_expression("u1 * 2 / (u1 - 1) / 3")
    with pytest.raises(EvalError) as err:
        e.eval([1.0, 0.0, 0.0])
    assert str(err.value) == \
        "division by zero in '((u1 * 2.0) / (u1 - 1.0))'"


def _so3_with_x1(capsys, monkeypatch, tmp_path, wrap):
    """(exit code, document) of ddvv on the so3 text form, x1 rewritten by
    wrap."""
    lines = gallery.by_name("so3").expression_text.splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith("x1 = "))
    lines[k] = "x1 = " + wrap(lines[k][len("x1 = "):])
    monkeypatch.chdir(tmp_path)
    (tmp_path / "so3.imm").write_text("\n".join(lines) + "\n")
    code = cli.main(["ddvv", "--spec", "so3.imm", "--points", "3"])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("wrap", [
    lambda x1: "(" * 400 + x1 + ")" * 400,
    lambda x1: "-" * 1200 + x1,
], ids=["parentheses", "unary minus"])
def test_a_deep_expression_is_an_input_error_at_the_command_line(
        capsys, monkeypatch, tmp_path, wrap):
    code, doc = _so3_with_x1(capsys, monkeypatch, tmp_path, wrap)
    assert code == 2
    assert doc["error"]["kind"] == "ParseError"
    assert "nested deeper than" in doc["error"]["message"]
    assert doc["error"]["col"] == MAX_NESTING + 1
    assert doc["error"]["line"] == next(
        i for i, line in enumerate(
            gallery.by_name("so3").expression_text.splitlines(), 1)
        if line.startswith("x1 = "))


def test_a_long_sum_runs_at_the_command_line(capsys, monkeypatch, tmp_path):
    code, doc = _so3_with_x1(capsys, monkeypatch, tmp_path,
                             lambda x1: "0*u1+" * 3000 + x1)
    assert code == 0 and doc["aggregate"]["all_ideal"]


def _unshared(text):
    """The chart of text with each component a tree of its own, evaluated
    whole at every evaluator call (as before the trees were shared)."""
    trees = [parse_expression(line.split("=", 1)[1])
             for line in text.splitlines() if re.match(r"x\d\s*=", line)]
    return dataclasses.replace(parse_immersion(text),
                               evaluator=lambda u: [t.eval(u) for t in trees])


@pytest.mark.parametrize("name, shared, unshared", [
    ("so3", 6, 24), ("veronese-hopf", 2, 10)])
def test_a_text_form_makes_each_distinct_elementary_call_once(
        monkeypatch, name, shared, unshared):
    calls = []
    elementary = jets.jet_elementary
    monkeypatch.setattr(jets, "jet_elementary",
                        lambda a, fn: calls.append(fn) or elementary(a, fn))
    spec = parse_immersion(TEXTS[name])
    pts = sample_points(spec.domain, 2, 0)
    for k in (1, 2):  # once per evaluator call
        eval_immersion_jet(spec, pts, 5)
        assert len(calls) == k * shared
    calls.clear()
    eval_immersion_jet(_unshared(TEXTS[name]), pts, 5)
    assert len(calls) == unshared


def test_a_repeated_subexpression_is_evaluated_once(monkeypatch):
    # veronese-hopf divides each of its six components by one sum
    texts = []
    chain = immersion.Chain.eval
    monkeypatch.setattr(immersion.Chain, "eval", lambda self, u: (
        texts.append(self.text()) or chain(self, u)))
    denominator = "((1.0 + (u1 ^ 2)) + (u2 ^ 2))"
    for spec, count in ((parse_immersion(TEXTS["veronese-hopf"]), 1),
                        (_unshared(TEXTS["veronese-hopf"]), 6)):
        texts.clear()
        eval_immersion_jet(spec, sample_points(spec.domain, 2, 0), 5)
        assert texts.count(denominator) == count


@pytest.mark.parametrize("name", list(TEXTS))
def test_shared_trees_give_the_unshared_jets_bit_for_bit(name):
    # or the same EvalError, text and lane, where the chart fails
    spec, unshared = parse_immersion(TEXTS[name]), _unshared(TEXTS[name])
    chunk = sample_points(spec.domain, 20, 0)
    for p in (chunk, chunk[7]):
        try:
            want = eval_immersion_jet(unshared, p, 5)
        except EvalError as exc:
            with pytest.raises(EvalError) as err:
                eval_immersion_jet(spec, p, 5)
            assert (str(err.value), err.value.lane) == (str(exc), exc.lane)
            continue
        got = eval_immersion_jet(spec, p, 5)
        assert len(got) == len(want)
        for x, y in zip(got, want):
            assert np.array_equal(x.c.view(np.int64), y.c.view(np.int64))


def test_a_shared_chart_nested_at_the_bound_evaluates():
    n = MAX_NESTING
    spec = parse_immersion(GREAT_CIRCLE.replace(
        "x1 = cos(u1)", "x1 = " + "-" * n + "u1").replace(
        "x2 = sin(u1)", "x2 = " + "sqrt(" * n + "u1" + ")" * n))
    x = eval_immersion_jet(spec, (0.5, 0.0, 0.0), 5)
    assert x[0].value == 0.5
    assert x[1].value == pytest.approx(0.5 ** 0.5 ** n, rel=1e-15)


def test_eval_outside_domain():
    spec = parse_immersion(GREAT_CIRCLE)
    with pytest.raises(EvalError):
        eval_immersion_jet(spec, (2.0, 0.0, 0.0), 2)


def test_eval_division_by_zero():
    e = parse_expression("1 / u1")
    with pytest.raises(EvalError):
        e.eval([jet_seed(1, 0.0, 2), 0.0, 0.0])
    with pytest.raises(EvalError):
        e.eval([0.0, 0.0, 0.0])


def ambient_residual(spec, sample):
    return max(spec.ambient.constraint_residual(eval_immersion_values(spec, p))
               for p in sample)


def test_ambient_constraint_residual_scaled_sphere():
    scaled = GREAT_CIRCLE.replace("x1 = cos(u1)", "x1 = 1.1 * cos(u1)") \
                         .replace("x2 = sin(u1)", "x2 = 1.1 * sin(u1)")
    spec = parse_immersion(scaled)
    res = ambient_residual(spec, [(0.3, 0.0, 0.0), (0.7, 0.0, 0.0)])
    assert res == pytest.approx(1.1 ** 2 - 1.0, abs=1e-12)

    good = parse_immersion(GREAT_CIRCLE)
    assert ambient_residual(good, sample_points(good.domain, 50, seed=1)) < 1e-12


def test_order0_jet_eval_matches_plain_exactly():
    spec = parse_immersion(GREAT_CIRCLE)
    p = (0.37, -0.2, 0.9)
    plain = eval_immersion_values(spec, p)
    jets0 = eval_immersion_jet(spec, p, 0)
    assert [j.value for j in jets0] == plain


def test_pi_constant():
    assert parse_expression("cos(pi)").eval([0.0, 0, 0]) == pytest.approx(-1.0, abs=1e-15)


def test_sample_points_deterministic_and_inside():
    dom = ((0.0, 1.0), (-2.0, 2.0), (5.0, 6.0))
    a = sample_points(dom, 25, seed=42)
    b = sample_points(dom, 25, seed=42)
    assert a == b
    c = sample_points(dom, 25, seed=43)
    assert a != c
    for p in a:
        for v, (lo, hi) in zip(p, dom):
            width = hi - lo
            assert lo + 0.009 * width <= v <= hi - 0.009 * width
