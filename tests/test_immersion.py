"""Parser, evaluation, and sampling."""

import pytest

from wintgen.errors import (EvalError, ParseError, SchemaError,
                            UnknownIdentifier)
from wintgen.immersion import (SPHERE, eval_immersion_jet,
                               eval_immersion_values, parse_expression,
                               parse_immersion, sample_points)
from wintgen.jets import jet_seed

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
    assert len(spec.components) == 6
    x = eval_immersion_values(spec, (0.0, 0.5, 0.5))
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
