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

from _shared import JetOps
from test_classical import HYPERBOLIC_GRAPH

# sphere, sphere, Euclidean (the lift squares x), hyperbolic (a Lorentz
# position unit in the normal frame)
CHARTS = ["so3", "hopf-generic", "cone-veronese", "hyperbolic-graph"]
IDEAL = {"so3", "hopf-generic", "cone-veronese"}  # cone-veronese: partial


def _spec(name):
    if name == "hyperbolic-graph":
        return parse_immersion(HYPERBOLIC_GRAPH)
    return gallery.by_name(name).spec


def _full_chain(ctx):
    """frame_chart, normal_frame, h, ginv and Gamma as the chain built them
    from the chart's first partials at K - 1, with the position and the
    basis constants at K and g inverted at its own order."""
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
        h.append(jetalg.lower_congruence(eC, hc))
    H = [(m[0][0] + m[1][1] + m[2][2]) * (1.0 / 3.0) for m in h]
    rho = jets.sqrt(1.5 * classical.trace_free_sq(h, H))
    rho2 = rho * rho
    g = [[rho2 * v for v in row] for row in I]
    ginv = jetalg.inv3(g)
    dg = [[[jets.derivative(g[a][b], d + 1) for b in range(3)]
           for a in range(3)] for d in range(3)]
    Gamma = [[[None] * 3 for _ in range(3)] for _ in range(3)]
    for c in range(3):
        for a in range(3):
            for b in range(a + 1):
                t = [dg[a][b][d] + dg[b][a][d] - dg[d][a][b] for d in range(3)]
                Gamma[c][a][b] = Gamma[c][b][a] = 0.5 * jetalg.dot(ginv[c], t)
    inv_rho = 1.0 / rho
    B = [[[inv_rho * (h[r][i][j] - (H[r] if i == j else 0.0))
           for j in range(3)] for i in range(3)] for r in range(2)]
    return {"frame_chart": eC, "normal_frame": normals, "h": h,
            "ginv": ginv, "Gamma": Gamma}, B


def _full_Rf(cf, B):
    """CanonicalFields.Rf with no pregauge: the turned frame of B at its
    own order, with the kernel plane and the E3 sign of cf."""
    rows, _ = classical.turned_frame(
        ideal._pregauged(B, np.eye(3), np.eye(2)), cf.plane)
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


@pytest.mark.parametrize("name", CHARTS)
def test_lowered_chains_equal_the_full_order_chains_bit_for_bit(name):
    spec = _spec(name)
    chunk = sample_points(spec.domain, moebius.CHUNK_POINTS, 0)
    K = moebius.JET_ORDER
    for p in (chunk, chunk[0]):  # 20 lanes, and one
        ctx = moebius.MoebiusContext(spec, p)
        full, B = _full_chain(ctx)
        where = (name, len(jets.points(p)))
        for field, order in (("frame_chart", K - 2), ("normal_frame", K - 2),
                             ("h", K - 2)):
            _assert_truncation(getattr(ctx.classical, field), full[field],
                               order, where + (field,))
        for field in ("ginv", "Gamma"):
            _assert_truncation(getattr(ctx, field), full[field], K - 3,
                               where + (field,))
        if name in IDEAL:
            cf = ideal.CanonicalFields(ctx, partial=name == "cone-veronese")
            _assert_truncation(cf.Rf, _full_Rf(cf, B), K - 3, where + ("Rf",))


@pytest.mark.parametrize("name", ["so3", "hopf-generic"])
def test_connection_forms_run_at_the_order_of_the_frames_partials(
        monkeypatch, name):
    # connection_forms truncates g, Gamma and the frame to the order of the
    # frame's first partials before its dots: its forms are those of the
    # untruncated inputs, bit for bit, and no product runs above that order
    spec = _spec(name)
    chunk = sample_points(spec.domain, moebius.CHUNK_POINTS, 0)
    cf = ideal.CanonicalFields(moebius.MoebiusContext(spec, chunk))
    args = (cf.frame_chart, cf.ctx.g, cf.ctx.Gamma)
    with monkeypatch.context() as m:
        counter = JetOps(m)
        got = moebius.connection_forms(*args)
    with monkeypatch.context() as m:
        m.setattr(jetalg, "truncate", lambda obj, order: obj)
        full = moebius.connection_forms(*args)
    order = moebius.JET_ORDER - 4
    _assert_truncation(got, full, order, name)
    assert counter.total("product") == counter.total("product", order=order)
