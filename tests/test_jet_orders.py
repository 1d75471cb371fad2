"""Each jet chain runs at the order its readers use (the table "Jet orders"
in the README): the metric, the frames and the normals at K - 2, the
inverse metric, Gamma and the adapted frame at K - 3.  A jet product's low
coefficients sum the same pairs in the same order at any order, so the
lowered chains equal the full-order chains, truncated, bit for bit; the
full-order chains are built here from their own formulas."""

import numpy as np
import pytest

from wintgen import classical, gallery, ideal, jetalg, jets, moebius
from wintgen.immersion import parse_immersion, sample_points

import _reference
from _charts import HYPERBOLIC_GRAPH
from _shared import JetOps

# sphere, sphere, Euclidean (the lift squares x), hyperbolic (a Lorentz
# position unit in the normal frame)
CHARTS = ["so3", "veronese-hopf", "hopf-generic", "cone-veronese",
          "hyperbolic-graph"]
IDEAL = {"so3", "veronese-hopf", "hopf-generic",
         "cone-veronese"}  # cone-veronese: partial


def _spec(name):
    if name == "hyperbolic-graph":
        return parse_immersion(HYPERBOLIC_GRAPH)
    return gallery.by_name(name).spec


def _full_chain(ctx):
    """frame_chart, normal_frame, h, rho and the moebius fields by the list
    formulas (_reference.moebius_fields), from the chart's first partials
    at K - 1, with the position and the basis constants at K and every
    field at the order of its inputs."""
    cl = ctx.classical
    inner, xa = cl.inner, cl.xa
    I = [[None] * 3 for _ in range(3)]
    for a in range(3):
        for b in range(a + 1):
            I[a][b] = I[b][a] = inner(xa[a], xa[b])
    eC = jetalg.inv_lower3(jetalg.cholesky3(I))
    sign = cl.spec.ambient.position_sign
    units = [] if sign is None else [(cl.x, sign)]
    units += [([jetalg.dot(eC[i], [x[k] for x in xa])
                for k in range(len(cl.x))], 1.0) for i in range(3)]
    cl.point.normal_frame  # picks the pivots
    normals = []
    for k in cl.point.pivots:
        v = [jets.MultiJet.constant(1.0 * (k == m), cl.order)
             for m in range(cl.spec.ambient.ncomp)]
        for u, s in units:
            coef = inner(v, u) * s
            v = [a - coef * b for a, b in zip(v, u)]
        n = jetalg.normalize(v, inner=inner)
        units.append((n, 1.0))
        normals.append(n)
    h = []
    for n in normals:
        hc = [[None] * 3 for _ in range(3)]
        for a in range(3):
            for b in range(a + 1):
                hc[a][b] = hc[b][a] = inner(cl.xab[a][b], n)
        h.append(_reference.lower_congruence(eC, hc))
    H = [(m[0][0] + m[1][1] + m[2][2]) * (1.0 / 3.0) for m in h]
    rho = jets.sqrt(1.5 * _reference.trace_free_sq(h, H))
    Y = jets.views(cl.spec.ambient.lift_times(
        rho.c, cl.x_stack[:len(rho.c)]), 1)
    full = _reference.moebius_fields(rho, I, eC, h, H, normals, Y,
                                     cl.lorentz)
    full.update(frame_chart=eC, normal_frame=normals, h=h, rho=rho)
    return full


def _full_Rf(cf, B):
    """CanonicalFields.Rf with no pregauge: the turned frame of B at its
    own order, with the kernel plane and the E3 sign of cf."""
    rows, _ = classical.turned_frame(B, cf.plane)
    sign = np.where(~cf.integrable & (cf.torsion < 0.0), -1.0, 1.0)[()]
    rows[2] = [sign * c for c in rows[2]]
    return rows


def _leaves(x):
    if isinstance(x, list):
        for y in x:
            yield from _leaves(y)
    else:
        yield x


def _assert_truncation(lowered, full, order, where):
    """Each jet of lowered has the given order and the coefficients of the
    jet of full truncated to it, bit for bit; float entries are equal."""
    pairs = list(zip(_leaves(lowered), _leaves(full), strict=True))
    for got, want in pairs:
        if not isinstance(got, jets.MultiJet):
            assert not isinstance(want, jets.MultiJet) and got == want, where
            continue
        assert got.order == order, where
        assert np.array_equal(got.c.view(np.int64),
                              want.truncate(order).c.view(np.int64)), where


K = moebius.JET_ORDER
# the order of each field of a MoebiusContext and of CanonicalFields
MOEBIUS_ORDERS = {"rho": K - 2, "g": K - 2, "EC": K - 2, "B": K - 2,
                  "ginv": K - 3, "Gamma": K - 3, "coframe": K - 3,
                  "Yi": K - 3, "C": K - 3, "ricci": K - 4, "A_gauss": K - 4}
CANONICAL_ORDERS = {"xi": K - 2, "frame_chart": K - 3, "coframe_can": K - 3,
                    "cfield": K - 3, "theta": K - 3, "Yi_can": K - 3,
                    "omega_can": K - 4, "Lf": K - 4, "A_can_field": K - 4}


@pytest.mark.parametrize("name", CHARTS)
def test_lowered_chains_equal_the_full_order_chains_bit_for_bit(name):
    # the stacked fields, lowered, against the list formulas at full order
    spec = _spec(name)
    chunk = sample_points(spec.domain, moebius.CHUNK_POINTS, 0)
    for p in (chunk, chunk[0]):  # 20 lanes, and one
        ctx = moebius.MoebiusContext(spec, p)
        full = _full_chain(ctx)
        where = (name, len(jets.points(p)))
        for field, order in (("frame_chart", K - 2), ("normal_frame", K - 2),
                             ("h", K - 2)):
            _assert_truncation(getattr(ctx.classical, field), full[field],
                               order, where + (field,))
        stacks = {"ginv": jets.views(ctx.ginv_stack, 2),
                  "coframe": [list(col) for col in zip(*jetalg.lower_entries(
                      jets.views(ctx.coframe_stack, 1)))]}
        for field, order in MOEBIUS_ORDERS.items():
            got = stacks[field] if field in stacks else getattr(ctx, field)
            _assert_truncation(got, full[field], order, where + (field,))
        if name not in IDEAL:
            continue
        partial = name == "cone-veronese"  # integrable: lambda undefined
        cf = ideal.CanonicalFields(ctx, partial=partial)
        Rf = _full_Rf(cf, full["B"])
        _assert_truncation(cf.Rf, Rf, K - 3, where + ("Rf",))
        canonical = _reference.canonical_fields(Rf, cf.Qf, full, ctx.xi)
        stacks = {"cfield": jets.views(cf.cfield_stack, 2),
                  "theta": jets.views(cf.theta_stack, 1)}
        for field, order in CANONICAL_ORDERS.items():
            got = stacks[field] if field in stacks else getattr(cf, field)
            _assert_truncation(got, canonical[field], order, where + (field,))
        _assert_truncation(jets.views(cf.b_stack, 1),
                           [canonical["b"][r][j] for r, _, j in ideal.B_READ],
                           K - 3, where + ("b",))
        _assert_truncation([cf.covc[k] for k in ideal._COVC],
                           [canonical["covc"][k] for k in ideal._COVC],
                           K - 4, where + ("covc",))
        if not partial:
            _assert_truncation(cf.omega_chart, canonical["omega_chart"],
                               K - 4, where + ("omega_chart",))


@pytest.mark.parametrize("name", ["so3", "hopf-generic"])
def test_connection_forms_run_at_the_order_of_the_frames_partials(
        monkeypatch, name):
    # connection_forms truncates g, Gamma and the frame to the order of the
    # frame's first partials before its four products: its forms are those
    # of the list formula on the untruncated inputs, bit for bit, and every
    # product runs at that order
    spec = _spec(name)
    chunk = sample_points(spec.domain, moebius.CHUNK_POINTS, 0)
    for p in (chunk, chunk[0]):
        cf = ideal.CanonicalFields(moebius.MoebiusContext(spec, p))
        args = (cf.frame_chart_stack, cf.ctx.g_stack, cf.ctx.Gamma_stack)
        with monkeypatch.context() as m:
            counter = JetOps(m)
            got = moebius.connection_forms(*args)
        full = _reference.connection_forms(cf.frame_chart, cf.ctx.g,
                                           cf.ctx.Gamma)
        _assert_truncation(jets.views(got, 3), full, K - 4, name)
        assert counter.total("product", "scalar") == 0, counter.counts
        assert counter.total("stacked") == \
            counter.total("stacked", order=K - 4) == 4, counter.counts
