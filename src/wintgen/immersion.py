"""Parametric immersions into the three ambient space forms.

An ImmersionSpec bundles an ambient model, a chart domain box in (u1,u2,u3),
and an evaluator mapping chart scalars to ambient coordinates.  Evaluators
are generic: fed floats they produce floats, fed MultiJets they produce jets,
so the same definition serves spot evaluation and differentiation.  The
ambient model owns its embedding's conventions; no other module reads kind.

Specs come from two sources: built-in gallery constructors (plain Python
closures) and a line-oriented text format with one expression per ambient
coordinate, whose repeated subexpressions are evaluated once (Shared).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import jetalg, jets
from .errors import (DomainError, EvalError, ParseError, SchemaError,
                     SingularJet, UnknownIdentifier)
from .jets import MultiJet, jet_seed

# ---------------------------------------------------------------------------
# ambient models


@dataclass(frozen=True)
class AmbientModel:
    """A 5-dimensional space form with its embedding; only it reads kind."""

    kind: str            # "sphere" | "euclidean" | "hyperbolic"
    c: float             # sectional curvature
    ncomp: int           # ambient coordinate count of the embedding

    @property
    def inner(self):
        """The inner product of the coordinates, Lorentz on the hyperboloid."""
        return jetalg.lorentz_dot if self.kind == "hyperbolic" else jetalg.dot

    @property
    def position_sign(self):
        """<x, x> on the model, or None where the position is no unit."""
        return {"sphere": 1.0, "hyperbolic": -1.0}.get(self.kind)

    def constraint_residual(self, x: Sequence[float]) -> float:
        """How far a coordinate vector is from the model's quadric."""
        sign = self.position_sign
        return 0.0 if sign is None else abs(self.inner(x, x) - sign)

    def lift(self, x):
        """Light-cone representative with conformal factor 1, generic over
        scalar type; the constant slots are plain numbers."""
        if self.kind == "euclidean":
            n2 = jetalg.dot(x, x)
            return [(1.0 + n2) * 0.5, (1.0 - n2) * 0.5] + list(x)
        return [1.0] + list(x) if self.kind == "sphere" else list(x) + [1.0]

    def lift_times(self, f, x, v=None):
        """f lift(x), plus the lift's differential at x on v when given, for
        stacked coordinate jets x and v (ncoef, ncomp[, lanes]) and a
        stacked scalar jet f (ncoef[, lanes]), as a stack (ncoef, ncomp + 1
        [, lanes]): the lift Y = rho lift(x), and the mean curvature sphere
        H lift(x) + dlift_x(n).  A constant slot 1 of the lift gives f."""
        fx = jets.stack_mul(f[:, None], x)
        if v is not None:
            fx = fx + v
        if self.kind == "sphere":
            return np.concatenate([f[:, None], fx], axis=1)
        if self.kind == "hyperbolic":
            return np.concatenate([fx, f[:, None]], axis=1)
        n2 = jets.contract(jets.stack_mul(x, x), 1)
        head = [n2.copy(), -n2]  # 1 + n2 and 1 - n2, halved
        for c in head:
            c[0] += 1.0
        head = [jets.stack_mul(f, c * 0.5) for c in head]
        if v is not None:
            xv = jets.contract(jets.stack_mul(x, v), 1)
            head = [head[0] + xv, head[1] - xv]
        return np.concatenate([np.stack(head, axis=1), fx], axis=1)


SPHERE = AmbientModel("sphere", 1.0, 6)
EUCLIDEAN = AmbientModel("euclidean", 0.0, 5)
HYPERBOLIC = AmbientModel("hyperbolic", -1.0, 6)

_AMBIENTS = {"sphere": SPHERE, "euclidean": EUCLIDEAN, "hyperbolic": HYPERBOLIC}


def ambient_by_name(name: str) -> AmbientModel:
    try:
        return _AMBIENTS[name]
    except KeyError:
        raise SchemaError(f"unknown ambient {name!r}; expected sphere, euclidean, or hyperbolic")


# ---------------------------------------------------------------------------
# expression trees


class Expr:
    __slots__ = ()

    def eval(self, u):
        raise NotImplementedError

    def text(self) -> str:
        raise NotImplementedError


class Var(Expr):
    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index  # 0-based

    def eval(self, u):
        return u[self.index]

    def text(self):
        return f"u{self.index + 1}"


class Num(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = value

    def eval(self, u):
        return self.value

    def text(self):
        return repr(self.value)


class Pi(Expr):
    __slots__ = ()

    def eval(self, u):
        return math.pi

    def text(self):
        return "pi"


class Neg(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        self.arg = arg

    def eval(self, u):
        return -self.arg.eval(u)

    def text(self):
        return f"-({self.arg.text()})"


class Chain(Expr):
    """A left-to-right chain of + and - (or of * and /): first, then each
    (op, operand) of rest in turn, so that a long sum costs no Python frame
    per term.  It evaluates and prints as the nested binary tree
    ((first op1 x1) op2 x2)..."""
    __slots__ = ("first", "rest")

    def __init__(self, first: Expr, rest: list):
        self.first = first
        self.rest = rest

    def eval(self, u):
        acc = self.first.eval(u)
        for k, (op, e) in enumerate(self.rest):
            b = e.eval(u)
            if op == "+":
                acc = acc + b
            elif op == "-":
                acc = acc - b
            elif op == "*":
                acc = acc * b
            else:
                try:
                    acc = acc / b
                except (ZeroDivisionError, SingularJet) as exc:
                    raise EvalError(
                        f"division by zero in '{self.text(k + 1)}'",
                        lane=getattr(exc, "lane", None))
        return acc

    def text(self, steps: int | None = None):
        """The text of the chain, or of its first steps operations."""
        rest = self.rest[:steps]
        return "(" * len(rest) + self.first.text() + "".join(
            f" {op} {e.text()})" for op, e in rest)


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int):
        self.base = base
        self.exponent = exponent

    def eval(self, u):
        try:
            return jets.powi(self.base.eval(u), self.exponent)
        except (SingularJet, ZeroDivisionError) as exc:
            raise EvalError(f"zero raised to negative power in '{self.text()}'",
                            lane=getattr(exc, "lane", None))

    def text(self):
        return f"({self.base.text()} ^ {self.exponent})"


_FUNCS = {"sqrt": jets.sqrt, "sin": jets.sin, "cos": jets.cos, "exp": jets.exp}


class Call(Expr):
    __slots__ = ("fn", "arg")

    def __init__(self, fn: str, arg: Expr):
        self.fn = fn
        self.arg = arg

    def eval(self, u):
        x = self.arg.eval(u)
        try:
            return _FUNCS[self.fn](x)
        except (DomainError, ValueError, OverflowError) as exc:  # math's
            what = "overflow" if isinstance(exc, OverflowError) \
                else "domain error"
            raise EvalError(f"{what} in '{self.text()}'",
                            lane=getattr(exc, "lane", None))

    def text(self):
        return f"{self.fn}({self.arg.text()})"


class Shared(Expr):
    """A distinct call, chain, power or negation of a parsed chart, one node
    evaluated once per evaluator call (u maps the chart scalars' indices and
    the nodes evaluated so far to values): no jet is written after it is
    made, so every occurrence reads the bits it would compute."""
    __slots__ = ("expr",)

    def __init__(self, expr: Expr):
        self.expr = expr

    def eval(self, u):
        if self not in u:
            u[self] = self.expr.eval(u)
        return u[self]

    def text(self):
        return self.expr.text()


def _shared(e: Expr, nodes: dict) -> Expr:
    """e with each call, chain, power and negation in it the Shared node of
    its text in nodes: one text is one sequence of operations."""
    key = e.text()
    if key not in nodes and not isinstance(e, (Var, Num, Pi)):
        if isinstance(e, Chain):
            e.first = _shared(e.first, nodes)
            e.rest = [(op, _shared(x, nodes)) for op, x in e.rest]
        elif isinstance(e, Pow):
            e.base = _shared(e.base, nodes)
        else:  # Neg, Call
            e.arg = _shared(e.arg, nodes)
        nodes[key] = Shared(e)
    return nodes.get(key, e)


# ---------------------------------------------------------------------------
# tokenizer + recursive-descent parser


_TOKEN_RE = re.compile(
    r"(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<ws>\s+)"
    r"|(?P<bad>.)")


def _tokenize(text: str, line: int):
    toks = []
    for m in _TOKEN_RE.finditer(text):
        col = m.start() + 1
        if m.lastgroup == "ws":
            continue
        if m.lastgroup == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", line, col)
        toks.append((m.lastgroup, m.group(), col))
    return toks


_VARS = {"u1": 0, "u2": 1, "u3": 2}
_INT_RE = re.compile(r"^\d+$")


# The deepest nesting of parentheses, calls, unary minus signs and exponent
# chains that an expression may have: parsing, evaluating and printing each
# recurse once or a few times per level.
MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens, line: int):
        self.toks = tokens
        self.i = 0
        self.line = line
        self.depth = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self):
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of expression", self.line,
                             self.toks[-1][2] + len(self.toks[-1][1]) if self.toks else 1)
        self.i += 1
        return t

    def expect_op(self, op: str):
        t = self.next()
        if t[0] != "op" or t[1] != op:
            raise ParseError(f"expected {op!r}, found {t[1]!r}", self.line, t[2])

    def parse(self) -> Expr:
        e = self.expr()
        t = self.peek()
        if t is not None:
            raise ParseError(f"unexpected token {t[1]!r}", self.line, t[2])
        return e

    def nested(self, t, parse):
        """parse() one level of nesting deeper, opened by the token t."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} "
                             "levels", self.line, t[2])
        self.depth += 1
        e = parse()
        self.depth -= 1
        return e

    def chain(self, operand, ops: str) -> Expr:
        first = operand()
        rest = []
        while (t := self.peek()) and t[0] == "op" and t[1] in ops:
            self.next()
            rest.append((t[1], operand()))
        return Chain(first, rest) if rest else first

    def expr(self) -> Expr:
        return self.chain(self.term, "+-")

    def term(self) -> Expr:
        return self.chain(self.factor, "*/")

    def factor(self) -> Expr:
        t = self.peek()
        if t and t[0] == "op" and t[1] == "-":
            self.next()
            return Neg(self.nested(t, self.factor))
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        t = self.peek()
        if t and t[0] == "op" and t[1] == "^":
            self.next()
            return Pow(base, self.int_exponent())
        return base

    def int_exponent(self) -> int:
        # right-associative chain of integer literals, e.g. 2^3 -> 8
        sign = 1
        t = self.peek()
        if t and t[0] == "op" and t[1] == "-":
            self.next()
            sign = -1
        t = self.next()
        if t[0] != "num" or not _INT_RE.match(t[1]):
            raise ParseError("integer exponent required after '^'", self.line, t[2])
        val = int(t[1])
        nxt = self.peek()
        if nxt and nxt[0] == "op" and nxt[1] == "^":
            self.next()
            val = val ** self.nested(nxt, self.int_exponent)
        if abs(val) > 1000:
            raise ParseError(f"exponent {sign * val} out of supported range", self.line, t[2])
        return sign * val

    def atom(self) -> Expr:
        t = self.next()
        if t[0] == "num":
            return Num(float(t[1]))
        if t[0] == "name":
            name = t[1]
            if name in _VARS:
                return Var(_VARS[name])
            if name == "pi":
                return Pi()
            if name in _FUNCS:
                self.expect_op("(")
                arg = self.nested(t, self.expr)
                self.expect_op(")")
                return Call(name, arg)
            raise UnknownIdentifier(f"unknown identifier {name!r}", self.line, t[2])
        if t[0] == "op" and t[1] == "(":
            e = self.nested(t, self.expr)
            self.expect_op(")")
            return e
        raise ParseError(f"unexpected token {t[1]!r}", self.line, t[2])


def parse_expression(text: str, line: int = 1) -> Expr:
    toks = _tokenize(text, line)
    if not toks:
        raise ParseError("empty expression", line, 1)
    return _Parser(toks, line).parse()


# ---------------------------------------------------------------------------
# immersion specs


@dataclass(frozen=True)
class ImmersionSpec:
    """A chart immersion: evaluator maps 3 chart scalars to ambient coords."""

    ambient: AmbientModel
    name: str
    domain: tuple  # ((lo,hi), (lo,hi), (lo,hi))
    evaluator: Callable

    def contains(self, p) -> bool:
        """Whether p lies in the domain box, widened by 1e-9 per side."""
        return all(lo - 1e-9 <= v <= hi + 1e-9
                   for v, (lo, hi) in zip(p, self.domain))


_DOMAIN_RE = re.compile(
    r"^u1\s+in\s+\[([^,\]]+),([^\]]+)\]\s*;\s*"
    r"u2\s+in\s+\[([^,\]]+),([^\]]+)\]\s*;\s*"
    r"u3\s+in\s+\[([^,\]]+),([^\]]+)\]$")

_COMPONENT_RE = re.compile(r"^x([1-9])\s*=\s*(.*)$")


def parse_immersion(text: str) -> ImmersionSpec:
    """Parse the line-oriented immersion file format, each distinct
    subexpression of the components one Shared node."""
    ambient = None
    name = None
    domain = None
    comps: dict[int, Expr] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _COMPONENT_RE.match(line)
        if m:
            k = int(m.group(1))
            if k in comps:
                raise SchemaError(f"component x{k} defined twice (line {lineno})")
            comps[k] = parse_expression(m.group(2), lineno)
            continue
        if ":" not in line:
            raise ParseError(f"unrecognized line {line!r}", lineno)
        key, _, val = line.partition(":")
        key = key.strip()
        val = val.strip()
        if key == "ambient":
            ambient = ambient_by_name(val)
        elif key == "name":
            if not val:
                raise SchemaError(f"empty name (line {lineno})")
            name = val
        elif key == "domain":
            m = _DOMAIN_RE.match(val)
            if not m:
                raise SchemaError(f"malformed domain line (line {lineno}): {val!r}")
            try:
                nums = [float(s) for s in m.groups()]
            except ValueError:
                raise SchemaError(f"non-numeric domain bound (line {lineno})")
            domain = tuple((nums[2 * i], nums[2 * i + 1]) for i in range(3))
            for lo, hi in domain:
                if not lo < hi:
                    raise SchemaError(f"empty domain interval [{lo}, {hi}] (line {lineno})")
        else:
            raise SchemaError(f"unknown field {key!r} (line {lineno})")

    if ambient is None:
        raise SchemaError("missing 'ambient:' line")
    if name is None:
        raise SchemaError("missing 'name:' line")
    if domain is None:
        raise SchemaError("missing 'domain:' line")
    want = ambient.ncomp
    got = sorted(comps)
    if got != list(range(1, want + 1)):
        raise SchemaError(
            f"ambient {ambient.kind} needs components x1..x{want}, got {['x%d' % k for k in got]}")
    nodes = {}
    trees = [_shared(comps[k], nodes) for k in range(1, want + 1)]

    def evaluate(u):
        u = dict(enumerate(u))  # the chart scalars, then Shared values
        return [t.eval(u) for t in trees]
    return ImmersionSpec(ambient=ambient, name=name, domain=domain,
                         evaluator=evaluate)


# ---------------------------------------------------------------------------
# evaluation


def eval_immersion_jet(spec: ImmersionSpec, p, order: int) -> list[MultiJet]:
    """Order-`order` jets of the ambient coordinates of x at chart point p,
    or at each point of a chunk (a list of points) along the jets' lanes.
    EvalError names the component and the first point where a coefficient
    is not finite (a product or a quotient overflowed)."""
    pts = jets.points(p)
    for l, q in enumerate(pts):
        if not spec.contains(q):
            raise EvalError(f"point {tuple(q)} outside domain of {spec.name}",
                            lane=l)
    seeds = [jet_seed(i + 1, jets.from_lanes([float(q[i]) for q in pts]), order)
             for i in range(3)]
    with np.errstate(all="ignore"):  # checked below
        out = spec.evaluator(seeds)
    if len(out) != spec.ambient.ncomp:
        raise SchemaError(
            f"{spec.name}: evaluator returned {len(out)} components, expected {spec.ambient.ncomp}")
    out = [v if isinstance(v, MultiJet) else MultiJet.constant(
        jets.from_lanes([float(v)] * len(pts)), order) for v in out]
    bad = np.reshape([~np.isfinite(v.c).all(axis=0) for v in out], (len(out), -1))
    i = jets.first_lane(bad.T)  # the first point, then its first component
    if i is not None:
        l, k = divmod(i, len(out))
        raise EvalError(f"{spec.name}: component x{k + 1} is not finite at "
                        f"{tuple(pts[l])}", lane=l)
    return out


def eval_immersion_values(spec: ImmersionSpec, p) -> list[float]:
    out = spec.evaluator([float(v) for v in p])
    return [jets.value_of(v) for v in out]


# ---------------------------------------------------------------------------
# deterministic sampling (counter-based, platform-independent)

_MASK64 = (1 << 64) - 1


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z = z ^ (z >> 31)
    return state, z


def unit_stream(seed: int):
    """Deterministic stream of floats in [0, 1)."""
    state = seed & _MASK64
    while True:
        state, z = _splitmix64(state)
        yield (z >> 11) * 2.0 ** -53


def sample_points(domain, n: int, seed: int) -> list[tuple]:
    """n points uniform in the domain box, inset from the walls by 1% of the
    side length so jets never sit on a chart boundary."""
    inset = 0.01
    stream = unit_stream(seed)
    pts = []
    for _ in range(n):
        coords = []
        for lo, hi in domain:
            u = next(stream)
            coords.append(lo + (inset + u * (1.0 - 2.0 * inset)) * (hi - lo))
        pts.append(tuple(coords))
    return pts
