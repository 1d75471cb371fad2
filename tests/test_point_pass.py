"""The classical point pass: the same formulas as the jet pass, run once per
context on the values (lane vectors over a chunk, floats for a point alone),
and the only pass the ddvv command and the refusal gates run."""

from functools import cached_property

import numpy as np
import pytest

from wintgen import classical, gallery, jetalg, jets
from wintgen.classical import ClassicalContext
from wintgen.cli import main
from wintgen.errors import NotImmersed
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


def _pivots(pt):
    """The pivots a point pass picks with its normal frame."""
    pt.normal_frame
    return pt.pivots


def _bits(pt, form):
    """A point pass's form as one array of its bits, lanes first over a
    chunk: equal bits are equal values, the sign of zero included."""
    return jetalg.value_array(list(getattr(pt, form))).view(np.int64)


@pytest.mark.parametrize("name", gallery.names() + ["hyperbolic-graph"])
def test_each_lane_of_the_chunk_pass_is_its_point_alone(name):
    spec = _spec(name)
    pts = [p for seed in range(4) for p in sample_points(spec.domain, 20, seed)]
    alone = [ClassicalContext(spec, p, order=2).point for p in pts]
    # the pivots vary over the sample, so the chunks pick them per lane
    assert len({_pivots(pt) for pt in alone}) > 1
    forms = FORMS + ("pivots",)
    want = {form: np.stack([_bits(pt, form) for pt in alone]) for form in forms}
    for lanes in (2, 7, 20):
        for lo in range(0, len(pts), lanes):
            chunk = ClassicalContext(spec, pts[lo:lo + lanes], order=2).point
            for form in forms:
                assert np.array_equal(_bits(chunk, form),
                                      want[form][lo:lo + lanes]), (form, lo)


def test_a_lane_whose_metric_overflows_refuses_at_its_point():
    # x = u exp(400 u1): det I is near 1e118 at u1 = 0.1 and beyond float
    # range at u1 = 1.2; the lanes overflow without a warning (tier-1 turns
    # RuntimeWarning into an error), as floats do, and the gate refuses
    spec = parse_immersion(
        "name: big\nambient: euclidean\n"
        "domain: u1 in [0,2]; u2 in [0,1]; u3 in [0,1]\n"
        "x1 = u1 * exp(400*u1)\nx2 = u2 * exp(400*u1)\n"
        "x3 = u3 * exp(400*u1)\nx4 = u1*u2\nx5 = 0\n")
    ctx = ClassicalContext(spec, [(0.1, 0.5, 0.5), (1.2, 0.5, 0.5)], order=2)
    with pytest.raises(NotImmersed, match=r"at \(1\.2, 0\.5, 0\.5\) \(det nan\)"):
        ctx.point.frame_chart


# a linear chart into the hyperboloid model's space whose tangent space is
# nearly degenerate and not spacelike: det I passes the gate, and the
# Cholesky factor of I meets a negative pivot
BAD_HYPERBOLIC = """\
name: bad-hyp
ambient: hyperbolic
domain: u1 in [0,1]; u2 in [0,1]; u3 in [0,1]
x1 = 1.8176*u1 - 38.54732*u2 + 76.86897315696*u3
x2 = -0.063*u1 - 4.888*u2 + 9.659340099999998*u3
x3 = 0.295*u1 + 6.739*u2 - 13.254720098*u3
x4 = 1.484*u1 - 11.765*u2 + 23.739899941*u3
x5 = 0.724*u1 + 8.261*u2 - 16.139579778999998*u3
x6 = 0.595*u1 - 1.717*u2 + 3.5781600350000002*u3
"""


@pytest.mark.parametrize("pts", [[(0.5, 0.5, 0.5)],
                                 [(0.5, 0.5, 0.5), (0.2, 0.3, 0.4)]])
def test_a_metric_that_is_not_positive_definite_refuses(pts):
    ctx = ClassicalContext(parse_immersion(BAD_HYPERBOLIC), pts, order=2)
    with pytest.raises(NotImmersed, match=r"not positive definite at "
                                          r"\(0\.5, 0\.5, 0\.5\)"):
        ctx.point.frame_chart


def test_ddvv_builds_one_point_pass_per_chunk(monkeypatch, capsys):
    built = []
    init = classical._PointPass.__init__

    def counted(self, ctx):
        built.append(len(ctx.p))
        init(self, ctx)

    monkeypatch.setattr(classical._PointPass, "__init__", counted)
    assert main(["ddvv", "--example", "so3", "--points", "20"]) == 0
    capsys.readouterr()
    assert built == [1, 19]  # the first point alone, then one chunk


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
