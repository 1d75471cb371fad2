"""Light-cone frame, conformal tensors, and integrability residuals."""

import math
import zlib

import numpy as np
import pytest

from wintgen import gallery, jetalg, jets, moebius
from wintgen.errors import ChartBlowUp, NotLorentz
from wintgen.immersion import parse_immersion, sample_points
from wintgen.moebius import MoebiusContext, ldot

import _reference
from _shared import context, entry, mdata, plan_points
from _charts import HYPERBOLIC_GRAPH

SQRT6 = math.sqrt(6.0)

CURVED = ["so3", "veronese-hopf", "hopf-generic", "cone-veronese", "generic-control"]


def _vals(x):
    return np.array(jetalg.values(x))


# ---------------------------------------------------------------------------
# frame normalization


@pytest.mark.parametrize("name", CURVED)
def test_lightcone_frame_relations(name):
    for p in plan_points(name, 3):
        d = mdata(name, p)
        Y, N, Yi, xi = d.Y, d.N, d.Yi, d.xi
        lz = lambda u, v: -u[0] * v[0] + float(np.dot(u[1:], v[1:]))
        assert abs(lz(Y, Y)) < 1e-9
        assert abs(lz(N, N)) < 1e-9
        assert abs(lz(N, Y) - 1.0) < 1e-9
        for i in range(3):
            assert abs(lz(N, Yi[i])) < 1e-9
            assert abs(lz(Y, Yi[i])) < 1e-9
            for j in range(3):
                assert abs(lz(Yi[i], Yi[j]) - (i == j)) < 1e-9
        for r in range(2):
            assert abs(lz(xi[r], Y)) < 1e-9
            # trace-free second form: the sphere congruence is the mean one
            assert abs(lz(xi[r], N)) < 1e-8
            for i in range(3):
                assert abs(lz(xi[r], Yi[i])) < 1e-9
            for s in range(2):
                assert abs(lz(xi[r], xi[s]) - (r == s)) < 1e-9


@pytest.mark.parametrize("name", ["so3", "hopf-generic", "cone-veronese"])
def test_conformal_metric_matches_lift_metric(name):
    # g_ab as rho^2 (dx.dx)_ab against the raw pullback <d_a Y, d_b Y>
    for p in plan_points(name, 2):
        d = mdata(name, p)
        Ya = [[jets.derivative(c, a + 1) for c in context(name, p).Y]
              for a in range(3)]
        for a in range(3):
            for b in range(3):
                direct = jets.value_of(ldot(Ya[a], Ya[b]))
                assert abs(direct - d.g[a, b]) < 1e-8


@pytest.mark.parametrize("name", CURVED)
def test_frame_duality(name):
    p = plan_points(name, 1)[0]
    d = mdata(name, p)
    # coframe rows against frame rows: omega_i(E_j) = delta_ij
    assert np.max(np.abs(d.coframe @ d.E.T - np.eye(3))) < 1e-9
    # frame orthonormal for g
    assert np.max(np.abs(d.E @ d.g @ d.E.T - np.eye(3))) < 1e-9


# ---------------------------------------------------------------------------
# structure equations


@pytest.mark.parametrize("name", CURVED)
def test_moving_frame_equation_for_dYi(name):
    for p in plan_points(name, 2):
        d = mdata(name, p)
        ctx = context(name, p)
        for i in range(3):
            for j in range(3):
                dYi = _vals(_reference.frame_vector_d(ctx.EC, ctx.Yi[i], j))
                rhs = -d.A[j, i] * d.Y - (1.0 if i == j else 0.0) * d.N
                for k in range(3):
                    rhs = rhs + d.omega_ij[i, k, j] * d.Yi[k]
                for r in range(2):
                    rhs = rhs + d.B[r, i, j] * d.xi[r]
                assert np.max(np.abs(dYi - rhs)) < 1e-7


@pytest.mark.parametrize("name", CURVED)
def test_dN_expansion_and_C_cross_route(name):
    # E_i(N) = sum_j A_ij Y_j + sum_r C^r_i xi_r, so pairing with xi_r must
    # reproduce the C computed from mean curvature and log-rho derivatives.
    for p in plan_points(name, 2):
        d = mdata(name, p)
        ctx = context(name, p)
        assert np.max(np.abs(d.C - ctx.C_dn)) < 1e-7
        for i in range(3):
            dN = _vals(_reference.frame_vector_d(ctx.EC, ctx.N, i))
            rhs = sum(d.A[i, j] * d.Yi[j] for j in range(3))
            rhs = rhs + sum(d.C[r, i] * d.xi[r] for r in range(2))
            assert np.max(np.abs(dN - rhs)) < 1e-7


@pytest.mark.parametrize("name", CURVED)
def test_connection_form_cross_route(name):
    p = plan_points(name, 1)[0]
    d = mdata(name, p)
    ctx = context(name, p)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                direct = jets.value_of(
                    ldot(_reference.frame_vector_d(ctx.EC, ctx.Yi[i], k), ctx.Yi[j]))
                assert abs(direct - d.omega_ij[i, j, k]) < 1e-8


def test_theta_frame_vs_chart_components():
    p = plan_points("hopf-generic", 1)[0]
    ctx = context("hopf-generic", p)
    via_chart = ctx.EC_values @ jets.stack_values(ctx.theta12_chart, 1)
    assert np.max(np.abs(via_chart - ctx.theta12_values)) < 1e-10


def test_blaschke_symmetric_and_dual_route():
    for name in ["so3", "hopf-generic", "generic-control"]:
        p = plan_points(name, 1)[0]
        d = mdata(name, p)
        assert np.max(np.abs(d.A - d.A.T)) < 1e-8
        gauss_A = _vals(context(name, p).A_gauss)
        assert np.max(np.abs(d.A - gauss_A)) < 1e-6


# ---------------------------------------------------------------------------
# ground truth on the homogeneous example


def test_so3_conformal_ground_truth():
    for p in plan_points("so3", 5):
        d = mdata("so3", p)
        assert abs(d.rho - SQRT6) < 1e-10
        assert np.max(np.abs(d.C)) < 1e-9
        assert np.max(np.abs(d.A - np.eye(3) / 12.0)) < 1e-7
        assert abs(float(np.sum(d.B ** 2)) - 2.0 / 3.0) < 1e-9
        for r in range(2):
            assert abs(float(np.trace(d.B[r]))) < 1e-10


# ---------------------------------------------------------------------------
# integrability residuals


@pytest.mark.parametrize("name", CURVED)
def test_integrability_residuals_vanish(name):
    for p in plan_points(name, 2):
        res, = moebius.integrability_residuals(context(name, p))
        assert res.max_residual() < 1e-7, res


def test_residuals_detect_wrong_tensors():
    # the identities are not vacuous: corrupting A must break them
    p = plan_points("hopf-generic", 1)[0]
    d = mdata("hopf-generic", p)
    covC = context("hopf-generic", p).covC_values
    A_bad = d.A + np.diag([0.05, 0.0, -0.02])
    worst = 0.0
    for r in range(2):
        for i in range(3):
            for j in range(3):
                lhs = covC[r, i, j] - covC[r, j, i]
                rhs = sum(d.B[r, i, k] * A_bad[k, j] - d.B[r, j, k] * A_bad[k, i]
                          for k in range(3))
                worst = max(worst, abs(lhs - rhs))
    assert worst > 1e-4


def _xi_by_model(ctx):
    """The mean curvature spheres written out with one branch per ambient
    model, as a reference for the single formula through the model's lift."""
    kind = ctx.spec.ambient.kind
    x = ctx.classical.x
    out = []
    for n, Hr in zip(ctx.classical.normal_frame, ctx.classical.H):
        if kind == "sphere":
            vec = [Hr] + [n[k] + Hr * x[k] for k in range(6)]
        elif kind == "hyperbolic":
            vec = [n[k] + Hr * x[k] for k in range(6)] + [Hr]
        else:
            n2 = x[0] * x[0]
            for v in x[1:]:
                n2 = n2 + v * v
            lift = [(1.0 + n2) * 0.5, (1.0 - n2) * 0.5] + list(x)
            xn = jetalg.dot(x, n)
            vec = [Hr * lift[0] + xn, Hr * lift[1] - xn]
            vec += [Hr * lift[2 + k] + n[k] for k in range(5)]
        out.append(vec)
    return out


@pytest.mark.parametrize("name", ["so3", "cone-veronese", "hyperbolic-graph"])
def test_xi_is_the_per_model_formula_bit_for_bit(name):
    # sphere, Euclidean and hyperbolic ambients; == on every coefficient,
    # and the same sign on every zero
    spec = parse_immersion(HYPERBOLIC_GRAPH) if name == "hyperbolic-graph" \
        else entry(name).spec
    for p in sample_points(spec.domain, 3, 0):
        ctx = MoebiusContext(spec, p)
        for got, want in zip(ctx.xi, _xi_by_model(ctx)):
            assert len(got) == len(want) == 7
            for a, b in zip(got, want):
                assert np.array_equal(a.c, b.c)
                assert np.array_equal(np.signbit(a.c), np.signbit(b.c))


# ---------------------------------------------------------------------------
# jet-order gating


def test_order_gating():
    # the context always builds JET_ORDER; the command line refuses other
    # orders before it builds one (tests/test_cli.py, --order 4 and 6)
    p = plan_points("so3", 1)[0]
    spec = entry("so3").spec
    ctx = MoebiusContext(spec, p)
    assert ctx.classical.order == moebius.JET_ORDER == 5
    d5 = moebius.moebius_data(ctx)
    assert np.all(np.isfinite(d5.A))
    assert abs(d5.rho - SQRT6) < 1e-10


# ---------------------------------------------------------------------------
# Moebius transformations


def _sq_invariants(d):
    """Quantities unchanged by Lorentz moves and normal-frame O(2) gauge."""
    BB = sum(d.B[r] @ d.B[r] for r in range(2))
    return {
        "g": d.g,
        "A": d.A,
        "BB": BB,
        "C_sq": float(np.sum(d.C ** 2)),
        "comm_sq": float(np.sum((d.B[0] @ d.B[1] - d.B[1] @ d.B[0]) ** 2)),
    }


@pytest.mark.parametrize("name", ["so3", "hopf-generic"])
def test_conformal_invariance_of_moebius_data(name):
    spec = entry(name).spec
    pts = plan_points(name, 2)
    for k in range(3):
        T = gallery.random_lorentz(
            seed=901 + 13 * k + zlib.crc32(name.encode()) % 101)
        moved = moebius.conformal_transform(spec, T)
        for p in pts:
            a = _sq_invariants(mdata(name, p))
            b = _sq_invariants(moebius.moebius_data(MoebiusContext(moved, p)))
            for key in a:
                assert np.max(np.abs(np.asarray(a[key]) - np.asarray(b[key]))) \
                    < 1e-7, (key, k, p)


def test_transformed_immersion_keeps_residuals_small():
    spec = entry("so3").spec
    T = gallery.random_lorentz(seed=424242)
    moved = moebius.conformal_transform(spec, T)
    p = plan_points("so3", 1)[0]
    res, = moebius.integrability_residuals(MoebiusContext(moved, p))
    assert res.max_residual() < 1e-7


def test_conformal_transform_rejects_bad_matrices():
    spec = entry("so3").spec
    with pytest.raises(NotLorentz):
        moebius.conformal_transform(spec, np.eye(6))
    bad = np.eye(7)
    bad[3, 4] = 0.1
    with pytest.raises(NotLorentz):
        moebius.conformal_transform(spec, bad)
    flip = np.diag([-1.0, 1, 1, 1, 1, 1, -1])
    with pytest.raises(NotLorentz):
        moebius.conformal_transform(spec, flip)


def test_readback_guards_chart_blowup():
    with pytest.raises(ChartBlowUp):
        moebius.readback_sphere([1e-12, 1.0, 0.0, 0.0, 0.0, 0.0, 1e-12])
    out = moebius.readback_sphere([2.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert out[0] == 1.0 and out[5] == 0.0


def test_canonical_lift_values():
    p = plan_points("so3", 1)[0]
    data = mdata("so3", p)
    assert abs(data.rho - SQRT6) < 1e-10
    vals = data.Y
    assert abs(-vals[0] ** 2 + float(np.dot(vals[1:], vals[1:]))) < 1e-12
    # sphere lift: time slot is rho itself
    assert abs(vals[0] - SQRT6) < 1e-12
