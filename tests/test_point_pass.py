"""The classical point pass: the same formulas as the jet pass, run once on
floats, and the only pass the ddvv command and the refusal gates run."""

from functools import cached_property

import pytest

from wintgen import classical, gallery, jetalg, jets
from wintgen.classical import ClassicalContext
from wintgen.cli import main
from wintgen.immersion import parse_immersion, sample_points

from test_classical import HYPERBOLIC_GRAPH

FORMS = ("x", "xa", "xab", "induced_metric", "frame_chart", "tangent_amb",
         "normal_frame", "h", "H")


def _spec(name):
    if name == "hyperbolic-graph":
        return parse_immersion(HYPERBOLIC_GRAPH)
    return gallery.by_name(name).spec


def _pivot_rule(ctx):
    """The pivots by the float loop the jet pass ran before the point pass
    existed, on the values of the jet pass: at each step the standard basis
    vector with the largest residual against the position (sphere and
    hyperbolic ambients), the tangent frame and the normals so far; a later
    index wins only by more than 1e-15."""
    kind = ctx.spec.ambient.kind

    def inner(u, v):
        if kind == "hyperbolic":
            return -u[0] * v[0] + sum(a * b for a, b in zip(u[1:], v[1:]))
        return sum(a * b for a, b in zip(u, v))

    units = [] if kind == "euclidean" else [
        (jetalg.values(ctx.x), -1.0 if kind == "hyperbolic" else 1.0)]
    units += [(t, 1.0) for t in jetalg.values(ctx.tangent_amb)]
    normals = jetalg.values(ctx.normal_frame)
    ncomp = len(ctx.x)
    pivots = []
    for step in range(2):
        best_k, best_res = -1, -1.0
        for k in range(ncomp):
            if k in pivots:
                continue
            v = [1.0 if m == k else 0.0 for m in range(ncomp)]
            for u, s in units + [(n, 1.0) for n in normals[:step]]:
                coef = s * inner(v, u)
                v = [a - coef * b for a, b in zip(v, u)]
            res = inner(v, v)
            if res > best_res + 1e-15:
                best_k, best_res = k, res
        pivots.append(best_k)
    return tuple(pivots)


@pytest.mark.parametrize("order", [2, 5])
@pytest.mark.parametrize("name", gallery.names() + ["hyperbolic-graph"])
def test_point_pass_equals_jet_constant_terms(name, order):
    spec = _spec(name)
    pts = [p for seed in (0, 1) for p in sample_points(spec.domain, 5, seed)]
    for p in pts:
        ctx = ClassicalContext(spec, p, order=order)
        for form in FORMS:
            assert getattr(ctx.point, form) == \
                jetalg.values(getattr(ctx, form)), (form, p)
        assert ctx.point.pivots == _pivot_rule(ctx), p


class _Products:
    """Counts MultiJet products, and the products made inside the chart
    evaluation that classical calls."""

    def __init__(self, monkeypatch):
        self.total = 0
        self.in_chart = 0
        mul = jets.MultiJet.__mul__

        def counted(a, b):
            self.total += 1
            return mul(a, b)

        monkeypatch.setattr(jets.MultiJet, "__mul__", counted)
        monkeypatch.setattr(jets.MultiJet, "__rmul__", counted)
        chart = classical.eval_immersion_jet

        def evaluate(*args):
            before = self.total
            try:
                return chart(*args)
            finally:
                self.in_chart += self.total - before

        monkeypatch.setattr(classical, "eval_immersion_jet", evaluate)


def _record_jet_h(monkeypatch):
    """Points at which the jet h of a ClassicalContext gets computed."""
    built = []
    h = ClassicalContext.h.func

    def recorded(self):
        out = h(self)
        if isinstance(out[0][0][0], jets.MultiJet):
            built.append(self.p)
        return out

    prop = cached_property(recorded)
    prop.__set_name__(ClassicalContext, "h")
    monkeypatch.setattr(ClassicalContext, "h", prop)
    return built


@pytest.mark.parametrize("name", gallery.names())
def test_ddvv_makes_no_product_beyond_the_chart(monkeypatch, capsys, name):
    count = _Products(monkeypatch)
    built = _record_jet_h(monkeypatch)
    code = main(["ddvv", "--example", name, "--points", "3"])
    capsys.readouterr()
    assert code == (3 if name == "umbilic-control" else 0)
    assert count.in_chart > 0
    assert count.total == count.in_chart
    assert built == []


@pytest.mark.parametrize("command", ["invariants", "theorem-b", "hopf-check"])
@pytest.mark.parametrize("name, kind", [("umbilic-control", "UmbilicPoint"),
                                        ("generic-control", "NotIdealPoint")])
def test_refusal_gates_build_no_jet_h(monkeypatch, capsys, command, name,
                                      kind):
    count = _Products(monkeypatch)
    built = _record_jet_h(monkeypatch)
    code = main([command, "--example", name, "--points", "3"])
    out = capsys.readouterr().out
    assert code == 3
    assert f'"kind":"{kind}"' in out
    assert built == []
    assert count.total == count.in_chart
