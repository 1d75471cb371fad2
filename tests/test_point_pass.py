"""The classical point pass: the same formulas as the jet pass, run once per
context on the values (lane vectors over a chunk, floats for a point alone),
and the only pass the ddvv command and the refusal gates run."""

import math
from functools import cached_property

import numpy as np
import pytest

from wintgen import classical, gallery, jetalg, jets
from wintgen.classical import ClassicalContext
from wintgen.cli import main
from wintgen.errors import NotImmersed
from wintgen.immersion import parse_immersion, sample_points

from _charts import HYPERBOLIC_GRAPH

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


def _report_bits(r):
    """A DDVV report as the bits of its floats and its flag: equal bits are
    equal values, the sign of zero included."""
    return (np.array([r.s, r.H_norm2, r.s_N, r.slack]).view(np.int64).tolist(),
            r.ideal)


def _bits(pt, form):
    """A point pass's form as one array of its bits, lanes first over a
    chunk: equal bits are equal values, the sign of zero included.  xab
    holds the pairs b <= a, one row each."""
    value = getattr(pt, form)
    if form == "xab":
        value = [d for row in value for d in row]
    return jetalg.value_array(list(value)).view(np.int64)


@pytest.mark.parametrize("name", gallery.names() + ["hyperbolic-graph"])
def test_each_lane_of_the_chunk_pass_is_its_point_alone(name):
    spec = _spec(name)
    pts = [p for seed in range(4) for p in sample_points(spec.domain, 20, seed)]
    alone = [ClassicalContext(spec, p, order=2).point for p in pts]
    # the pivots vary over the sample, so the chunks pick them per lane
    assert len({_pivots(pt) for pt in alone}) > 1
    forms = FORMS + ("pivots",)
    want = {form: np.stack([_bits(pt, form) for pt in alone]) for form in forms}
    c = spec.ambient.c
    want["ddvv"] = [_report_bits(*classical.ddvv_from_forms(
        *classical.form_blocks(pt), c)) for pt in alone]
    for lanes in (2, 7, 20):
        for lo in range(0, len(pts), lanes):
            chunk = ClassicalContext(spec, pts[lo:lo + lanes], order=2).point
            for form in forms:
                assert np.array_equal(_bits(chunk, form),
                                      want[form][lo:lo + lanes]), (form, lo)
            # the chunk's DDVV reports, one per block, are its points' alone
            reports = classical.ddvv_from_forms(
                *classical.form_blocks(chunk), c)
            assert [_report_bits(r) for r in reports] \
                == want["ddvv"][lo:lo + lanes], lo


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
    with pytest.raises(NotImmersed, match=r"^induced metric not finite at "
                                          r"\(1\.2, 0\.5, 0\.5\)$"):
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


def _cholesky_pivots_positive(G) -> bool:
    """Whether the Cholesky factorization of a symmetric 3x3 G meets only
    positive pivots, run pivot by pivot."""
    d0 = G[0][0]
    if not d0 > 0.0:
        return False
    l10, l20 = G[1][0] / math.sqrt(d0), G[2][0] / math.sqrt(d0)
    d1 = G[1][1] - l10 * l10
    if not d1 > 0.0:
        return False
    l21 = (G[2][1] - l20 * l10) / math.sqrt(d1)
    return G[2][2] - l20 * l20 - l21 * l21 > 0.0


def _metric_outcome(Gs, pts):
    """The metric gate's outcome for a pass whose induced metric is given:
    Gs [P, 3, 3] over the points pts of a chunk, or one G at one point.
    The chart is Euclidean, so no position constraint applies."""
    spec = parse_immersion("name: flat\nambient: euclidean\n"
                           "domain: u1 in [0,1]; u2 in [0,1]; u3 in [0,1]\n"
                           "x1 = u1\nx2 = u2\nx3 = u3\nx4 = 0\nx5 = 0\n")
    pt = ClassicalContext(spec, pts, order=2).point
    G = np.asarray(Gs)
    pt.__dict__["induced_metric"] = (
        G.tolist() if G.ndim == 2 else
        [[np.ascontiguousarray(G[:, a, b]) for b in range(3)]
         for a in range(3)])
    try:
        pt.frame_chart
    except NotImmersed as exc:
        return str(exc)
    return "ok"


def test_the_leading_minors_refuse_exactly_where_a_cholesky_pivot_fails():
    rng = np.random.default_rng(11)
    eta = np.diag([-1.0] + [1.0] * 5)
    grams = []
    for _ in range(300):  # Lorentz Gram matrices, definite or not
        B = rng.normal(size=(6, 3))
        B[0] *= rng.uniform(0.0, 3.0)
        grams.append(B.T @ eta @ B)
    for _ in range(100):  # symmetric, of every signature
        grams.append(rng.normal(size=(3, 3)))
    for _ in range(100):  # positive definite, condition numbers to 1e7
        Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        spread = 10.0 ** -rng.uniform([0.0, 0.0, 3.0], [0.0, 4.0, 7.0])
        grams.append(Q @ np.diag(spread) @ Q.T)
    grams = [(G + G.T) / 2.0 for G in grams]  # exactly symmetric
    pts = [(k / 1000.0, 0.5, 0.5) for k in range(len(grams))]

    alone = [_metric_outcome(G, p) for G, p in zip(grams, pts)]
    assert all(out == "ok" for out in alone[400:])
    pivots = [_cholesky_pivots_positive(G) for G in grams]
    refusal = "induced metric not positive definite at {}"
    for k, out in enumerate(alone):
        assert out == ("ok" if pivots[k] else refusal.format(pts[k])), k
    assert 50 < sum(pivots) < len(grams) - 50

    # a chunk refuses at its first lane with a pivot that is not positive
    for lo in range(0, len(grams), 7):
        want = next((out for out, ok in zip(alone[lo:lo + 7],
                                            pivots[lo:lo + 7]) if not ok),
                    "ok")
        assert _metric_outcome(grams[lo:lo + 7], pts[lo:lo + 7]) == want, lo


@pytest.mark.parametrize("diagonal", [(1.0, 1.0, -3.0), (1.0, -1.0, 0.0)])
def test_a_metric_with_a_mean_diagonal_at_most_zero_is_not_definite(diagonal):
    # no determinant scale applies: m <= 0 leaves no positive definite I
    p = (0.5, 0.5, 0.5)
    assert _metric_outcome(np.diag(diagonal), p) \
        == f"induced metric not positive definite at {p}"


@pytest.mark.parametrize("diagonal, cause", [
    ((-1.0, 4.0, 4.0), "not positive definite"),
    ((4.0, 4.0, -1e-6), "not positive definite"),
    ((1.0, 1.0, 1e-14), "degenerate"),
    ((1.0, 1.0, -1e-14), "degenerate")])
def test_a_negative_determinant_is_degenerate_only_near_zero(diagonal, cause):
    # with a positive mean diagonal m, det I < -1e-12 m^3 is no small
    # determinant: the metric is indefinite
    p = (0.5, 0.5, 0.5)
    assert _metric_outcome(np.diag(diagonal), p).startswith(
        f"induced metric {cause} at {p}")


def test_ddvv_builds_one_point_pass_per_chunk(monkeypatch, capsys):
    built = []
    init = classical._PointPass.__init__

    def counted(self, ctx):
        built.append(len(ctx.p))
        init(self, ctx)

    monkeypatch.setattr(classical._PointPass, "__init__", counted)
    assert main(["ddvv", "--example", "so3", "--points", "20"]) == 0
    capsys.readouterr()
    assert built == [20]  # one chunk from point 0, with no probe


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
