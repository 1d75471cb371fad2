"""Adapted-frame invariants: canonical pattern, named scalars, identities,
and the classification verdicts."""

import math

import numpy as np
import pytest

from wintgen import gallery, ideal, jetalg, jets, moebius
from wintgen.errors import (InsufficientOrder, IntegrableDistribution,
                            NotIdealPoint, UmbilicPoint)

from _shared import entry, mdata, plan_points

SQRT6 = math.sqrt(6.0)
MU = 1.0 / SQRT6

# ideal entries with non-integrable kernel distribution
TWISTED = ["so3", "veronese-hopf", "hopf-generic"]


def frame_of(name, p, gauge="raw", **kw):
    return ideal.CanonicalFields(mdata(name, p).ctx, gauge=gauge, **kw)


def invariants_of(name, p, gauge="raw"):
    e = entry(name)
    return ideal.invariants_uvlg(e.spec, p, gauge=gauge, data=mdata(name, p))


# ---------------------------------------------------------------------------
# canonical frame


@pytest.mark.parametrize("name", TWISTED)
def test_canonical_pattern_and_mu(name):
    for p in plan_points(name, 4):
        cf = frame_of(name, p)
        assert cf.pattern_residual < 1e-8
        assert abs(cf.mu - MU) < 1e-9
        g = np.array(jetalg.values(mdata(name, p).ctx.g))
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
    data = mdata(name, p)
    base = ideal.CanonicalFields(data.ctx)
    ref = (base.L, base.G, jets.value_of(base.Fhat_field),
           np.array([jets.value_of(c) for c in base.omega_chart]))
    for t in rng.uniform(-math.pi, math.pi, size=10):
        cf = ideal.CanonicalFields(data.ctx, pregauge=float(t))
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
    # the E3 sign rule rests on this: reversing E3 reverses the torsion
    # scalar, and the rule picks the orientation where it is positive; in
    # the adapted frame the scalar is L itself
    for p in plan_points(name, 3):
        data = mdata(name, p)
        cf = ideal.CanonicalFields(data.ctx)
        E1, E2, E3 = cf.Rfv
        args = (data.ctx.covB_values, data.B, E1, E2)
        L = ideal._oriented_torsion(*args, E3)
        assert L > 1e-3
        assert abs(L - cf.L) < 1e-12
        assert abs(ideal._oriented_torsion(*args, -E3) + L) < 1e-15


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
            e3_lognu = jets.value_of(cf.d(nu, 2)) / jets.value_of(nu)
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
        assert abs(jets.value_of(cf.d(cf.Lf, 2)) - cf.G) < 1e-7


@pytest.mark.parametrize("name", TWISTED)
def test_fhat_two_routes(name):
    e = entry(name)
    for p in plan_points(name, 3):
        inv = invariants_of(name, p)
        hf = ideal.hat_frame(e.spec, p, data=mdata(name, p))
        assert abs(hf.hat_coframe[2, 2] - inv.Fhat) < 1e-7


def test_ghat_veries_linearly_in_lambda():
    e = entry("so3")
    p = plan_points("so3", 1)[0]
    inv = invariants_of("so3", p)
    assert abs(inv.Ghat) < 1e-8
    delta = 0.1
    hf = ideal.hat_frame(e.spec, p, lam=inv.lam + delta, data=mdata("so3", p))
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
            assert abs(jets.value_of(cf.d(cf.Fhat_field, k))
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
            assert abs(jets.value_of(cf.d(nu, k)) / nu0 - coeff) < 1e-7


@pytest.mark.parametrize("name", TWISTED)
def test_nonintegrability_and_normal_curvature_scales(name):
    for p in plan_points(name, 3):
        cf = frame_of(name, p)
        dw3 = cf.d_form_on(cf.coframe_can[2], 0, 1)
        assert abs(dw3 - 2.0 * cf.L) < 1e-7
        dth = cf.d_form_on(cf.theta_chart, 0, 1)
        assert abs(dth - 2.0 * cf.mu ** 2) < 1e-6


@pytest.mark.parametrize("name", TWISTED)
def test_normal_pair_is_holomorphic(name):
    e = entry(name)
    for p in plan_points(name, 3):
        res = ideal.holomorphic_residual(e.spec, p, data=mdata(name, p))
        assert res < 1e-7


# ---------------------------------------------------------------------------
# hat frame


def test_hat_frame_algebra():
    for name in TWISTED:
        e = entry(name)
        p = plan_points(name, 2)[1]
        data = mdata(name, p)
        hf = ideal.hat_frame(e.spec, p, data=data)
        Y = np.array(jetalg.values(data.ctx.Y))
        lz = lambda u, v: -u[0] * v[0] + u[1:] @ v[1:]
        assert abs(lz(hf.Yhat, hf.Yhat)) < 1e-9
        assert abs(lz(Y, hf.Yhat) - 1.0) < 1e-9
        xi = np.array(jetalg.values(ideal.CanonicalFields(data.ctx).xi))
        for i in range(3):
            assert abs(lz(hf.Yhat, hf.eta[i])) < 1e-9
            for j in range(3):
                target = 1.0 if i == j else 0.0
                assert abs(lz(hf.eta[i], hf.eta[j]) - target) < 1e-9
        for r in range(2):
            assert abs(lz(hf.Yhat, xi[r])) < 1e-9


def test_hat_coframe_is_fhat_multiple_when_lambda_matches():
    e = entry("so3")
    for p in plan_points("so3", 3):
        inv = invariants_of("so3", p)
        hf = ideal.hat_frame(e.spec, p, data=mdata("so3", p))
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
    e = entry("so3")
    target = _structure_target()
    for p in plan_points("so3", 3):
        labels, S = ideal.structure_matrix(e.spec, p, data=mdata("so3", p))
        assert labels == ideal.STRUCTURE_LABELS
        assert np.abs(S - target).max() < 1e-7


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
        ideal.invariants_uvlg(cone.spec, plan_points("cone-veronese", 1)[0])


def test_partial_invariants_on_integrable_entry():
    p = plan_points("cone-veronese", 1)[0]
    inv = ideal.invariants_uvlg(entry("cone-veronese").spec, p, partial=True)
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


# ---------------------------------------------------------------------------
# refusals and gates


def test_non_ideal_point_is_refused():
    gc = entry("generic-control")
    with pytest.raises(NotIdealPoint):
        ideal.invariants_uvlg(gc.spec, plan_points("generic-control", 1)[0])


def test_umbilic_point_is_refused():
    um = entry("umbilic-control")
    with pytest.raises(UmbilicPoint):
        ideal.invariants_uvlg(um.spec, plan_points("umbilic-control", 1)[0])


def test_low_order_is_refused():
    e = entry("so3")
    with pytest.raises(InsufficientOrder):
        ideal.invariants_uvlg(e.spec, plan_points("so3", 1)[0], order=4)


def test_unknown_gauge_is_rejected():
    p = plan_points("so3", 1)[0]
    with pytest.raises(ValueError):
        ideal.CanonicalFields(mdata("so3", p).ctx, gauge="v0")
