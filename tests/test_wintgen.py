"""Adapted-frame invariants: canonical pattern, named scalars, identities,
and the classification verdicts."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wintgen import gallery, ideal, jetalg, jets, moebius
from wintgen.classical import ddvv_report, kernel_plane, turned_frame
from wintgen.errors import (DegenerateCurve, IntegrableDistribution,
                            NotIdealPoint, UmbilicPoint)

from wintgen.immersion import SPHERE, ImmersionSpec, sample_points

import _reference
from _shared import JetOps, context, entry, mdata, plan_points

SQRT6 = math.sqrt(6.0)
MU = 1.0 / SQRT6

# ideal entries with non-integrable kernel distribution
TWISTED = ["so3", "veronese-hopf", "hopf-generic"]


def frame_of(name, p, gauge="raw", **kw):
    return ideal.CanonicalFields(context(name, p), gauge=gauge, **kw)


def invariants_of(name, p, gauge="raw"):
    return ideal.invariants_uvlg(context(name, p), gauge=gauge)


def _d(cf, f, k):
    """Derivative of a scalar jet field along adapted frame vector k."""
    return _reference.frame_scalar_d(cf.frame_chart, f, k)


# ---------------------------------------------------------------------------
# canonical frame


@pytest.mark.parametrize("name", TWISTED)
def test_canonical_pattern_and_mu(name):
    for p in plan_points(name, 4):
        cf = frame_of(name, p)
        assert cf.pattern_residual < 1e-8
        assert abs(cf.mu - MU) < 1e-9
        g = np.array(jetalg.values(context(name, p).g))
        E = cf.E_chart
        assert np.abs(E @ g @ E.T - np.eye(3)).max() < 1e-9
        xi = np.array(jetalg.values(cf.xi))
        for r in range(2):
            for s in range(2):
                want = 1.0 if r == s else 0.0
                got = -xi[r][0] * xi[s][0] + xi[r][1:] @ xi[s][1:]
                assert abs(got - want) < 1e-9


def test_recanonicalization_after_extra_rotation():
    # rotating the input frames by t = 0.3 (paired tangent/normal sense)
    # and re-canonicalizing lands on the same pattern with the same L, G
    p = plan_points("veronese-hopf", 1)[0]
    base = frame_of("veronese-hopf", p)
    rot = frame_of("veronese-hopf", p, pregauge=0.3)
    assert rot.pattern_residual < 1e-8
    assert abs(rot.L - base.L) < 1e-9
    assert abs(rot.G - base.G) < 1e-9


@pytest.mark.parametrize("name", TWISTED)
def test_gauge_angle_invariance(name):
    rng = np.random.default_rng(0xA11CE)
    p = plan_points(name, 1)[0]
    ctx = context(name, p)
    base = ideal.CanonicalFields(ctx)
    ref = (base.L, base.G, jets.value_of(base.Fhat_field),
           np.array([jets.value_of(c) for c in base.omega_chart]))
    for t in rng.uniform(-math.pi, math.pi, size=10):
        cf = ideal.CanonicalFields(ctx, pregauge=float(t))
        assert abs(cf.L - ref[0]) < 1e-8
        assert abs(cf.G - ref[1]) < 1e-8
        assert abs(jets.value_of(cf.Fhat_field) - ref[2]) < 1e-8
        om = np.array([jets.value_of(c) for c in cf.omega_chart])
        assert np.abs(om - ref[3]).max() < 1e-8


def test_raw_versus_v0_gauge():
    for name in TWISTED:
        p = plan_points(name, 1)[0]
        raw = invariants_of(name, p, gauge="raw")
        v0 = invariants_of(name, p, gauge="V0")
        assert abs(v0.V) < 1e-8
        assert v0.U >= -1e-12
        assert abs(v0.U - math.hypot(raw.U, raw.V)) < 1e-8
        assert abs(v0.L - raw.L) < 1e-8
        assert abs(v0.G - raw.G) < 1e-8
        assert abs(v0.Fhat - raw.Fhat) < 1e-8
        assert np.abs(np.array(v0.omega_chart)
                      - np.array(raw.omega_chart)).max() < 1e-8


@pytest.mark.parametrize("name", TWISTED)
def test_oriented_torsion_is_odd_in_e3(name):
    # the E3 sign rule rests on this: the torsion reads the kernel line
    # alone (E3 and -E3 give the same scalar), and a frame's handedness
    # gives it its sign, so reversing E3 with E1, E2 kept reverses the
    # frame's torsion, and the rule picks the orientation where it is
    # positive; in the adapted frame the scalar is L itself
    for p in plan_points(name, 3):
        cf = frame_of(name, p)
        E3 = cf.Rfv[2]
        flipped = cf.Rfv * np.array([[1.0], [1.0], [-1.0]])
        args = (context(name, p).covB_values, mdata(name, p).B)
        L = np.linalg.det(cf.Rfv) * ideal._oriented_torsion(*args, E3)
        assert L > 1e-3
        assert abs(L - cf.L) < 1e-12
        assert abs(np.linalg.det(flipped)
                   * ideal._oriented_torsion(*args, -E3) + L) < 1e-15


def _torsion_on_rows(covB, Bv, E1, E2, E3):
    """The torsion on a turned frame's rows: (3/2) sum_r
    tr((nabla_{E3} B^r)^T J B^r) with J = E2 E1^T - E1 E2^T."""
    J = E2[..., :, None] * E1[..., None, :] - E1[..., :, None] * E2[..., None, :]
    d3B = [jetalg.mat_vec(covB[..., r, :, :, :], E3[..., None, :])
           for r in range(2)]
    return 1.5 * ((d3B[0] * (J @ Bv[..., 0, :, :])).sum(axis=(-2, -1))
                  + (d3B[1] * (J @ Bv[..., 1, :, :])).sum(axis=(-2, -1)))


@pytest.mark.parametrize("t", [0.0, 0.4])
@pytest.mark.parametrize("name", TWISTED)
def test_kernel_line_torsion_is_the_turned_frame_torsion(name, t):
    # the gates read the kernel line alone: the torsion along plane.q is the
    # torsion on the turned rows E1, E2, E3 to rounding, with the same sign,
    # over a chunk and at points alone
    chunk = list(plan_points(name))
    for p in (chunk, chunk[0], chunk[1]):
        ctx = moebius.MoebiusContext(entry(name).spec, p)
        M0, Q0, plane, tor, _, _ = ideal.frame_gates(ctx, pregauge=t)
        rows, _ = turned_frame(ideal._pregauged(
            jetalg.unfold(ctx.B_stack[:1], 2), M0, Q0)[0], plane)
        E = jetalg.value_array(rows) @ M0
        want = _torsion_on_rows(ctx.covB_values, ctx.B_values, E[..., 0, :],
                                E[..., 1, :], E[..., 2, :])
        assert np.shape(tor) == np.shape(want)
        assert np.all(np.sign(tor) == np.sign(want))
        assert np.max(np.abs(tor - want) / np.abs(want)) < 1e-13


def test_the_identity_pregauge_makes_no_product(monkeypatch):
    # a coefficient exactly 1 makes no product and one exactly 0 adds no
    # term (jetalg.stack_lincomb): under the identity pregauge the
    # pregauged shape fields are the stack of the shape fields itself
    ctx = context("so3", plan_points("so3", 1)[0])
    M0, Q0 = ideal.frame_gates(ctx)[:2]
    B = jetalg.unfold(ctx.B_stack, 2)
    with monkeypatch.context() as m:
        counter = JetOps(m)
        out = ideal._pregauged(B, M0, Q0)
    assert not counter.counts
    assert out is B


def _mixed(pairs):
    """sum of c * x over the pairs whose c is not 0, in order."""
    terms = [c * x for c, x in pairs if c != 0.0]
    return sum(terms[1:], terms[0])


@pytest.mark.parametrize("t", [0.4, -1.3, 2.9])
def test_a_pregauge_mixes_as_the_sum_of_its_products(t):
    # away from the identity the rule drops the exact zeros of M0 and Q0 and
    # multiplies by every other entry, bit for bit
    ctx = context("so3", plan_points("so3", 1)[0])
    M0, Q0 = ideal.frame_gates(ctx, pregauge=t)[:2]
    B = ctx.B
    Bmix = [[[_mixed([(Q0[s][r], B[s][i][j]) for s in range(2)])
              for j in range(3)] for i in range(3)] for r in range(2)]
    want = [[[_mixed([(M0[i][a] * M0[j][b], Bmix[r][a][b])
                      for a in range(3) for b in range(3)])
              for j in range(3)] for i in range(3)] for r in range(2)]
    got = ideal._pregauged(jetalg.unfold(ctx.B_stack, 2), M0, Q0)
    for r in range(2):
        for i in range(3):
            for j in range(3):
                assert np.array_equal(got[:, r, i, j].view(np.int64),
                                      want[r][i][j].c.view(np.int64))


def _reference_rows(T):
    """A nested [r][i][j] list of jets as one stack (ncoef, 2, 3, 3[,
    lanes])."""
    return np.stack([np.stack([jets.stack(row) for row in Tr], axis=1)
                     for Tr in T], axis=1)


@pytest.mark.parametrize("name", ["so3", "hopf-generic"])
def test_the_stacked_pregauge_is_the_list_route_bit_for_bit(name):
    # on the jets CanonicalFields turns (B at K - 3) and on the values the
    # kernel plane reads, over a 20-lane chunk and a lone point
    spec = entry(name).spec
    chunk = sample_points(spec.domain, moebius.CHUNK_POINTS, 3)
    for p in (chunk, chunk[5]):
        ctx = moebius.MoebiusContext(spec, p)
        M0, Q0 = ideal.frame_gates(ctx, pregauge=0.3)[:2]
        B = ctx.B_stack[:jets.ncoef(ctx.classical.order - 3)]
        got = ideal._pregauged(jetalg.unfold(B, 2), M0, Q0)
        want = _reference.pregauged(
            list(map(jetalg.symmetric_entries, jets.views(B, 2))), M0, Q0)
        assert np.array_equal(
            got.view(np.int64),
            _reference_rows(want).view(np.int64)), len(jets.points(p))
        got = jets.stack_values(ideal._pregauged(
            jetalg.unfold(ctx.B_stack[:1], 2), M0, Q0), 3)
        want = jetalg.value_array(_reference.pregauged(
            jetalg.values(ctx.B), M0, Q0))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("t", [0.0, 0.4])
@pytest.mark.parametrize("name", TWISTED)
def test_turned_frame_values_are_the_float_run(name, t):
    # one construction: the frame field's value at the point is, bit for
    # bit, the frame built on floats from the values of the shape fields
    M0 = np.array([[math.cos(t), -math.sin(t), 0.0],
                   [math.sin(t), math.cos(t), 0.0], [0.0, 0.0, 1.0]])
    Q0 = np.array([[math.cos(2 * t), -math.sin(2 * t)],
                   [math.sin(2 * t), math.cos(2 * t)]])
    for p in plan_points(name, 5):
        Bw = jets.views(ideal._pregauged(
            jetalg.unfold(context(name, p).B_stack, 2), M0, Q0), 3)
        Bv = np.array(jetalg.values(Bw))
        plane = kernel_plane(Bv)
        rows, az = turned_frame(Bw, plane)
        rows_v, az_v = turned_frame(Bv, plane)
        assert jetalg.values(rows) == [[float(v) for v in r] for r in rows_v]
        assert jets.value_of(az) == az_v


@pytest.mark.parametrize("name", TWISTED)
def test_turned_frame_on_lane_values_is_the_float_run_per_lane(name):
    # the forms' values at several points, with a trailing lane axis: each
    # lane of the frame and of |z_1| is that point's float run, bit for bit
    Bv = np.array([jetalg.values(context(name, p).B)
                   for p in plan_points(name, 5)])
    rows, az = turned_frame(np.moveaxis(Bv, 0, -1), kernel_plane(Bv))
    for k, B in enumerate(Bv):
        rows_k, az_k = turned_frame(B, kernel_plane(B))
        assert [[v[k] for v in r] for r in rows] == \
            [[float(v) for v in r] for r in rows_k], k
        assert az[k] == az_k, k


# each swaps two chart variables, so each reverses the chart's orientation
SWAPS = [(1, 0, 2), (2, 1, 0), (0, 2, 1)]


def _chart_free(inv):
    """The record values that do not depend on the chart; the raw-gauge U
    and V do, through the frame's rotation, and only U^2 + V^2 is kept."""
    out = {"L": inv.L, "G": inv.G, "lam": inv.lam, "Fhat": inv.Fhat,
           "Ghat": inv.Ghat, "mu": inv.mu, "U2+V2": inv.U ** 2 + inv.V ** 2,
           "max_domega": max(abs(d) for d in inv.domega)}
    if inv.gauge == "V0":
        out.update(U=inv.U, V=inv.V)
    return out


@pytest.mark.parametrize("swap", SWAPS, ids=str)
@pytest.mark.parametrize("name", TWISTED)
def test_invariants_do_not_depend_on_the_chart(name, swap):
    # on the swapped charts the kernel sign leaves E3 with negative torsion
    # at every sample point, so this also covers the E3 flip
    spec = entry(name).spec
    swapped = ImmersionSpec(
        ambient=spec.ambient, name=f"{name}-swapped",
        domain=tuple(spec.domain[k] for k in swap),
        evaluator=lambda v: spec.evaluator([v[k] for k in swap]))
    for p in plan_points(name, 5):
        ctx = moebius.MoebiusContext(swapped, tuple(p[k] for k in swap))
        for gauge in ("raw", "V0"):
            cf = ideal.CanonicalFields(ctx, gauge=gauge)
            assert cf.torsion < 0.0
            got = _chart_free(ideal._package_invariants(cf)[0])
            want = _chart_free(invariants_of(name, p, gauge))
            assert got["L"] > 0.0
            for key, value in want.items():
                assert abs(got[key] - value) <= 1e-12 * max(1.0, abs(value)), \
                    (key, p, gauge)


def _reparametrized(spec, A):
    """phi and spec composed with it, phi(u) = c + w (s + A(s, s)) with
    s = (u - c) / w, c the centre and w the half-widths of the domain box:
    a near-identity quadratic change of chart, on floats and on jets."""
    c = [(lo + hi) / 2.0 for lo, hi in spec.domain]
    w = [(hi - lo) / 2.0 for lo, hi in spec.domain]

    def phi(u):
        s = [(u[j] - c[j]) * (1.0 / w[j]) for j in range(3)]
        return [c[i] + w[i] * (s[i] + sum(A[i][j][k] * (s[j] * s[k])
                                          for j in range(3) for k in range(3)))
                for i in range(3)]
    return phi, ImmersionSpec(
        ambient=spec.ambient, name=f"{spec.name}-reparametrized",
        domain=spec.domain, evaluator=lambda u: spec.evaluator(phi(u)))


@pytest.mark.parametrize("name", TWISTED)
@settings(max_examples=4, deadline=None, derandomize=True)
@given(st.lists(st.floats(-0.05, 0.05), min_size=27, max_size=27),
       st.lists(st.tuples(*[st.floats(-0.5, 0.5)] * 3), min_size=2,
                max_size=2))
def test_invariants_do_not_depend_on_a_change_of_chart(name, coeffs, offsets):
    # q in the central half of the box, so phi(q) stays in it; a sweep of
    # 130 maps x 3 points per chart differed by at most 1.3e-14 relative
    spec = entry(name).spec
    phi, moved = _reparametrized(spec, np.reshape(coeffs, (3, 3, 3)).tolist())
    qs = [tuple((lo + hi) / 2.0 + (hi - lo) / 2.0 * s
                for (lo, hi), s in zip(spec.domain, off)) for off in offsets]
    ps = [tuple(phi(list(q))) for q in qs]
    for gauge in ("raw", "V0"):
        got = ideal.sample_invariants(moved, qs, gauge=gauge)
        want = ideal.sample_invariants(spec, ps, gauge=gauge)
        for q, a, b in zip(qs, got, want):
            a, b = _chart_free(a), _chart_free(b)
            for key, value in b.items():
                assert abs(a[key] - value) <= 1e-12 * max(1.0, abs(value)), \
                    (key, q, gauge)
        tb = [ideal.theorem_b_verdict(invs) for invs in (got, want)]
        assert tb[0].classification == tb[1].classification \
            == "sphere_minimal"
        assert ideal.hopf_verdict(got).satisfied == \
            ideal.hopf_verdict(want).satisfied


# ---------------------------------------------------------------------------
# named scalars on the built-in examples


def test_homogeneous_example_scalars():
    for p in plan_points("so3", 5):
        inv = invariants_of("so3", p)
        assert abs(inv.U) < 1e-8
        assert abs(inv.V) < 1e-8
        assert abs(inv.G) < 1e-8
        assert abs(inv.L - MU) < 1e-8
        assert max(abs(d) for d in inv.domega) < 1e-8
        assert abs(inv.Fhat - 1.0 / 12.0) < 1e-8
        assert abs(2.0 * inv.Fhat - inv.L ** 2) < 1e-8
        assert abs(inv.Ghat) < 1e-8
        assert abs(inv.mu - MU) < 1e-10
        th = np.array(inv.theta12_coeffs)
        assert np.abs(th - np.array([0.0, 0.0, MU])).max() < 1e-7


def test_homogeneous_example_v0_kills_nothing():
    # the Moebius form already vanishes, so V0 is a no-op
    p = plan_points("so3", 1)[0]
    inv = invariants_of("so3", p, gauge="V0")
    assert abs(inv.U) < 1e-8 and abs(inv.V) < 1e-8
    assert inv.gauge == "V0"


def test_hopf_lift_has_flat_leaf_data():
    # fibration entries: G = 0 and closed omega, with the independent
    # route E3(nu)/nu for G/L through the conformal factor
    for name in ["veronese-hopf", "hopf-generic"]:
        for p in plan_points(name, 4):
            inv = invariants_of(name, p)
            assert abs(inv.G) < 1e-7
            assert max(abs(d) for d in inv.domega) < 1e-7
            cf = frame_of(name, p)
            nu = cf.ctx.rho / SQRT6
            e3_lognu = jets.value_of(_d(cf, nu, 2)) / jets.value_of(nu)
            assert abs(e3_lognu) < 1e-7
            assert abs(inv.G - inv.L * e3_lognu) < 1e-7


def test_theta_triple_matches_uvl():
    # the reported normal-connection triple must reproduce (U, V, L)
    for name in TWISTED:
        p = plan_points(name, 2)[1]
        inv = invariants_of(name, p)
        got = np.array(inv.theta12_coeffs)
        want = np.array([inv.U, inv.V, inv.L])
        assert np.abs(got - want).max() < 1e-8


def test_connection_cross_routes():
    # U = omega_23(E3), V = -omega_13(E3), L = omega_13(E2) = -omega_23(E1)
    for name in TWISTED:
        p = plan_points(name, 1)[0]
        inv = invariants_of(name, p)
        cf = frame_of(name, p)
        om = lambda i, j, k: jets.value_of(cf.omega_can[i][j][k])
        assert abs(inv.U - om(1, 2, 2)) < 1e-8
        assert abs(inv.V + om(0, 2, 2)) < 1e-8
        assert abs(inv.L - om(0, 2, 1)) < 1e-8
        assert abs(inv.L + om(1, 2, 0)) < 1e-8


# ---------------------------------------------------------------------------
# identity suite


@pytest.mark.parametrize("name", TWISTED)
def test_derivative_of_torsion_is_g(name):
    for p in plan_points(name, 3):
        cf = frame_of(name, p)
        assert abs(jets.value_of(_d(cf, cf.Lf, 2)) - cf.G) < 1e-7


@pytest.mark.parametrize("name", TWISTED)
def test_fhat_two_routes(name):
    for p in plan_points(name, 3):
        inv = invariants_of(name, p)
        hf = ideal.hat_frame(frame_of(name, p))
        assert abs(hf.hat_coframe[2, 2] - inv.Fhat) < 1e-7


def test_ghat_veries_linearly_in_lambda():
    p = plan_points("so3", 1)[0]
    inv = invariants_of("so3", p)
    assert abs(inv.Ghat) < 1e-8
    delta = 0.1
    hf = ideal.hat_frame(frame_of("so3", p), lam=inv.lam + delta)
    ghat = 0.5 * (hf.hat_coframe[0, 1] - hf.hat_coframe[1, 0])
    target = -delta * inv.L
    assert abs(ghat - target) < 1e-7 * abs(target)


@pytest.mark.parametrize("name", TWISTED)
def test_fhat_is_parallel_for_closed_omega(name):
    for p in plan_points(name, 3):
        cf = frame_of(name, p)
        Fv = jets.value_of(cf.Fhat_field)
        w = [jets.value_of(x) for x in cf.w_fields]
        for k in range(3):
            assert abs(jets.value_of(_d(cf, cf.Fhat_field, k))
                       + 2.0 * Fv * w[k]) < 1e-6


@pytest.mark.parametrize("name", TWISTED)
def test_omega_is_log_derivative_of_conformal_factor(name):
    # all three ideal twisted entries are minimal in the round sphere
    for p in plan_points(name, 3):
        inv = invariants_of(name, p)
        cf = frame_of(name, p)
        nu = cf.ctx.rho / SQRT6
        nu0 = jets.value_of(nu)
        for k, coeff in enumerate(inv.omega_coeffs):
            assert abs(jets.value_of(_d(cf, nu, k)) / nu0 - coeff) < 1e-7


@pytest.mark.parametrize("name", TWISTED)
def test_nonintegrability_and_normal_curvature_scales(name):
    for p in plan_points(name, 3):
        cf = frame_of(name, p)
        dw3 = cf.d_form_on(cf.coframe_can_stack[:, 2], 0, 1)
        assert abs(dw3 - 2.0 * cf.L) < 1e-7
        dth = cf.d_form_on(cf.theta_chart, 0, 1)
        assert abs(dth - 2.0 * cf.mu ** 2) < 1e-6


@pytest.mark.parametrize("name", TWISTED)
def test_normal_pair_is_holomorphic(name):
    for p in plan_points(name, 3):
        res = ideal.holomorphic_residual(frame_of(name, p))
        assert res < 1e-7


# ---------------------------------------------------------------------------
# hat frame


def test_hat_frame_algebra():
    for name in TWISTED:
        p = plan_points(name, 2)[1]
        cf = frame_of(name, p)
        hf = ideal.hat_frame(cf)
        Y = np.array(jetalg.values(cf.ctx.Y))
        lz = lambda u, v: -u[0] * v[0] + u[1:] @ v[1:]
        assert abs(lz(hf.Yhat, hf.Yhat)) < 1e-9
        assert abs(lz(Y, hf.Yhat) - 1.0) < 1e-9
        xi = np.array(jetalg.values(cf.xi))
        for i in range(3):
            assert abs(lz(hf.Yhat, hf.eta[i])) < 1e-9
            for j in range(3):
                target = 1.0 if i == j else 0.0
                assert abs(lz(hf.eta[i], hf.eta[j]) - target) < 1e-9
        for r in range(2):
            assert abs(lz(hf.Yhat, xi[r])) < 1e-9


def test_hat_coframe_is_fhat_multiple_when_lambda_matches():
    for p in plan_points("so3", 3):
        inv = invariants_of("so3", p)
        hf = ideal.hat_frame(frame_of("so3", p))
        assert abs(hf.hat_coframe[0, 1]) < 1e-8
        assert abs(hf.hat_coframe[1, 0]) < 1e-8
        assert abs(hf.hat_coframe[0, 0] - inv.Fhat) < 1e-8
        assert abs(hf.hat_coframe[1, 1] - inv.Fhat) < 1e-8
        assert hf.Omega13 == pytest.approx((inv.lam, inv.L, 0.0), abs=1e-9)
        assert hf.Omega23 == pytest.approx((-inv.L, inv.lam, 0.0), abs=1e-9)


# ---------------------------------------------------------------------------
# structure matrix


def _structure_target():
    q = MU
    F = 1.0 / 12.0
    T = np.zeros((7, 7, 3))
    T[0, 2] = (1, 0, 0); T[0, 3] = (0, 1, 0); T[0, 4] = (0, 0, 1)
    T[1, 2] = (F, 0, 0); T[1, 3] = (0, F, 0); T[1, 4] = (0, 0, F)
    T[2, 0] = (-F, 0, 0); T[2, 1] = (-1, 0, 0); T[2, 4] = (0, q, 0)
    T[2, 5] = (0, q, 0); T[2, 6] = (q, 0, 0)
    T[3, 0] = (0, -F, 0); T[3, 1] = (0, -1, 0); T[3, 4] = (-q, 0, 0)
    T[3, 5] = (q, 0, 0); T[3, 6] = (0, -q, 0)
    T[4, 0] = (0, 0, -F); T[4, 1] = (0, 0, -1); T[4, 2] = (0, -q, 0)
    T[4, 3] = (q, 0, 0)
    T[5, 2] = (0, -q, 0); T[5, 3] = (-q, 0, 0); T[5, 6] = (0, 0, q)
    T[6, 2] = (-q, 0, 0); T[6, 3] = (0, q, 0); T[6, 5] = (0, 0, -q)
    return T


def test_structure_matrix_constant_coefficients():
    target = _structure_target()
    for p in plan_points("so3", 3):
        labels, S = ideal.structure_matrix(frame_of("so3", p))
        assert labels == ideal.STRUCTURE_LABELS
        assert np.abs(S - target).max() < 1e-7


def test_readme_library_snippet_runs_as_written():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    code = text.split("## Library", 1)[1].split("```python\n", 1)[1]
    code = code.split("```", 1)[0]
    ns = {}
    exec(compile(code, "README.md", "exec"), ns)
    assert abs(ns["inv"].L - MU) < 1e-8
    assert ns["res"].max_residual() < 1e-7
    assert ns["labels"] == ideal.STRUCTURE_LABELS
    assert np.abs(ns["S"] - _structure_target()).max() < 1e-7
    assert abs(ns["hf"].hat_coframe[2, 2] - ns["inv"].Fhat) < 1e-7


# ---------------------------------------------------------------------------
# verdicts


def test_sphere_minimal_verdicts():
    for name in TWISTED:
        e = entry(name)
        v = ideal.classify_theorem_b(e.spec, plan_points(name, 5))
        assert v.classification == "sphere_minimal"
        assert v.closed and v.Fhat_sign == "positive"
        assert v.n_points == 5
        assert v.fhat_min > 0


def test_boosted_entry_keeps_its_verdict():
    so3 = entry("so3")
    T = gallery.random_lorentz(seed=424242)
    boosted = moebius.conformal_transform(so3.spec, T)
    v = ideal.classify_theorem_b(boosted, plan_points("so3", 3))
    assert v.classification == "sphere_minimal"
    assert abs(v.fhat_min - 1.0 / 12.0) < 1e-7
    assert abs(v.fhat_max - 1.0 / 12.0) < 1e-7


def test_integrable_cone_is_reported_not_skipped():
    cone = entry("cone-veronese")
    with pytest.raises(IntegrableDistribution):
        ideal.classify_theorem_b(cone.spec, plan_points("cone-veronese", 3))
    with pytest.raises(IntegrableDistribution):
        ideal.hopf_criterion(cone.spec, plan_points("cone-veronese", 3))
    with pytest.raises(IntegrableDistribution):
        ideal.invariants_uvlg(context("cone-veronese",
                                      plan_points("cone-veronese", 1)[0]))


def test_partial_invariants_on_integrable_entry():
    p = plan_points("cone-veronese", 1)[0]
    inv = ideal.invariants_uvlg(context("cone-veronese", p), partial=True)
    assert abs(inv.L) < 1e-6
    assert math.isfinite(inv.U) and math.isfinite(inv.V)
    assert math.isfinite(inv.G)
    assert math.isnan(inv.lam) and math.isnan(inv.Fhat)


def test_hopf_criterion_on_lift_entries():
    for name in ["so3", "veronese-hopf"]:
        e = entry(name)
        rep = ideal.hopf_criterion(e.spec, plan_points(name, 5))
        assert rep.satisfied
        assert rep.max_G < 1e-6
        assert rep.max_domega < 1e-6


# Random holomorphic curves in CP^2: gallery.hopf_lift_curve claims that
# every lift is minimal and ideal in S^5, with G = 0 and omega closed.  The
# bounds are about ten times the worst of 600 random curves of degree 2-4
# at two plan points each: slack 5.7e-14, |mu - 1/sqrt6| 6.7e-15,
# |G|/|L| 1.1e-11 and max|domega| 2.3e-9 (Fhat stayed above 2e-5).
_COEFF = st.complex_numbers(max_magnitude=1.0, allow_subnormal=False)


def _poly(degree):
    return st.lists(_COEFF, min_size=degree + 1, max_size=degree + 1)


@settings(max_examples=5, deadline=None, derandomize=True)
@given(st.integers(2, 4).flatmap(lambda d: st.lists(_poly(d), min_size=3,
                                                    max_size=3)))
def test_random_hopf_lifts_are_ideal_with_closed_form(polys):
    # a curve in a line of CP^2 is the umbilic case below
    assume(np.linalg.svd(np.array(polys), compute_uv=False)[-1] > 0.1)
    try:
        lift = gallery.hopf_lift_curve(polys=polys, name="random-hopf")
    except DegenerateCurve:
        assume(False)
    invs = []
    for p in lift.sample_plan[:2]:
        rep = ddvv_report(lift.spec, p)
        assert rep.ideal and abs(rep.slack) <= 1e-12
        inv = ideal.invariants_uvlg(moebius.MoebiusContext(lift.spec, p))
        assert abs(inv.mu - MU) <= 1e-13
        assert abs(inv.G) <= 1e-10 * abs(inv.L)
        assert max(abs(d) for d in inv.domega) <= 2e-8
        invs.append(inv)
    # the verdicts at their default tolerance, which is --tol's
    assert ideal.theorem_b_verdict(invs).classification == "sphere_minimal"
    assert ideal.hopf_verdict(invs).satisfied


@settings(max_examples=4, deadline=None, derandomize=True)
@given(st.lists(_COEFF, min_size=2, max_size=2),
       st.integers(1, 4).flatmap(_poly), st.permutations(range(3)))
def test_hopf_lift_of_a_line_is_umbilic(constants, poly, slots):
    """Two constant components put the curve in a line of CP^2, whose lift
    is a totally geodesic S^3."""
    assume(max(map(abs, constants)) > 0.1 and max(map(abs, poly[1:])) > 0.1)
    comps = [(constants[0],), (constants[1],), tuple(poly)]
    lift = gallery.hopf_lift_curve(polys=[comps[i] for i in slots],
                                   name="line-hopf")
    with pytest.raises(UmbilicPoint):
        ideal.invariants_uvlg(moebius.MoebiusContext(lift.spec,
                                                     lift.sample_plan[0]))


def _perturbed_hopf(eps):
    """The circle lift of z -> (1, z + eps conj(z), z^2) into the unit
    sphere of C^3, written out here apart from gallery.hopf_lift_curve; the
    middle component is holomorphic only at eps = 0."""
    def evaluate(u):
        x, y = u[0], u[1]
        comps = [(1.0, 0.0), ((1.0 + eps) * x, (1.0 - eps) * y),
                 (x * x - y * y, 2.0 * x * y)]
        norm2 = 0.0
        for re, im in comps:
            norm2 = norm2 + re * re + im * im
        inv = 1.0 / jets.sqrt(norm2)
        ct, st = jets.cos(u[2]), jets.sin(u[2])
        out = []
        for re, im in comps:
            out += [(re * ct - im * st) * inv, (re * st + im * ct) * inv]
        return out
    return ImmersionSpec(ambient=SPHERE, name="perturbed-hopf",
                         domain=((-0.8, 0.8), (-0.8, 0.8), (0.05, 6.2)),
                         evaluator=evaluate)


def test_anti_holomorphic_perturbation_breaks_equality_like_eps_squared():
    # a negative control: at (0.3, 0.4, 1.0) the slack was -5.6e-17 at
    # eps = 0 and 1.248e-6, 1.248e-4 and 1.239e-2 at eps = 1e-3, 1e-2 and
    # 0.1, so slack / eps^2 stays near 1.25
    p = (0.3, 0.4, 1.0)
    spec = _perturbed_hopf(0.0)
    rep = ddvv_report(spec, p)
    assert rep.ideal and abs(rep.slack) <= 1e-12
    assert len(ideal.sample_invariants(spec, [p])) == 1
    for eps in (1e-3, 1e-2, 0.1):
        spec = _perturbed_hopf(eps)
        rep = ddvv_report(spec, p)
        assert 1.2 <= rep.slack / eps ** 2 <= 1.3, eps
        assert not rep.ideal, eps
        with pytest.raises(NotIdealPoint, match="equality gap"):
            ideal.sample_invariants(spec, [p])


# ---------------------------------------------------------------------------
# refusals and gates


def test_non_ideal_point_is_refused():
    gc = entry("generic-control")
    with pytest.raises(NotIdealPoint):
        ideal.invariants_uvlg(moebius.MoebiusContext(
            gc.spec, plan_points("generic-control", 1)[0]))


def test_umbilic_point_is_refused():
    um = entry("umbilic-control")
    with pytest.raises(UmbilicPoint):
        ideal.invariants_uvlg(moebius.MoebiusContext(
            um.spec, plan_points("umbilic-control", 1)[0]))


def test_unknown_gauge_is_rejected():
    p = plan_points("so3", 1)[0]
    with pytest.raises(ValueError):
        ideal.CanonicalFields(context("so3", p), gauge="v0")
