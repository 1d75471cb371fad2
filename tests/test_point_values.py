"""Quantities read at the point from first partials, against the jet fields
they replace: the same numbers up to rounding."""

import numpy as np
import pytest

from wintgen import cli, ideal, jetalg, jets, moebius
from wintgen.immersion import sample_points
from wintgen.moebius import ldot

from _shared import entry

TWISTED = ["so3", "veronese-hopf", "hopf-generic"]
TOL = 1e-12


def _points(name):
    """The first sample point of seeds 0-2, as the CLI draws them."""
    domain = entry(name).spec.domain
    return [sample_points(domain, 1, seed)[0] for seed in range(3)]


def _close(got, want, tol=TOL):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    scale = np.maximum(1.0, np.abs(want))
    assert np.all(np.abs(got - want) <= tol * scale), \
        float(np.max(np.abs(got - want) / scale))


def _vals(x):
    return np.array(jetalg.values(x))


def _fields(name, p, gauge="raw"):
    return ideal.CanonicalFields(
        moebius.MoebiusContext(entry(name).spec, p), gauge=gauge)


def _theta12_field(ctx):
    """theta_12(E_k) = <E_k(xi_1), xi_2> as jet fields."""
    return [ldot(moebius.frame_vector_d(ctx.EC, ctx.xi[0], k), ctx.xi[1])
            for k in range(3)]


def _omega_field(ctx):
    """The connection forms of the frame EC as jet fields."""
    return moebius.connection_forms(ctx.EC, ctx.g, ctx.Gamma)


def _cov2_field(ctx, T):
    """T_{ij,k} = E_k(T_ij) + T_lj omega_li(E_k) + T_il omega_lj(E_k) as jet
    fields, for a frame 2-tensor T."""
    om = _omega_field(ctx)
    return [[[moebius.frame_scalar_d(ctx.EC, T[i][j], k)
              + sum(T[i][l] * om[l][j][k] + T[l][j] * om[l][i][k]
                    for l in range(3))
              for k in range(3)] for j in range(3)] for i in range(3)]


def _covb_field(ctx):
    """covB[r][i][j][k] = B^r_{ij,k} as jet fields, the route the point
    read replaces."""
    th = _theta12_field(ctx)
    out = []
    for r in range(2):
        sgn = -1.0 if r == 0 else 1.0  # theta_{1-r, r} = sgn * theta_12
        cov = _cov2_field(ctx, ctx.B[r])
        out.append([[[cov[i][j][k] + ctx.B[1 - r][i][j] * (sgn * th[k])
                      for k in range(3)] for j in range(3)] for i in range(3)])
    return out


def _covc_field(ctx):
    """covC[r][i][j] = C^r_{i,j} as jet fields."""
    th = _theta12_field(ctx)
    om = _omega_field(ctx)
    out = []
    for r in range(2):
        sgn = -1.0 if r == 0 else 1.0
        out.append([[moebius.frame_scalar_d(ctx.EC, ctx.C[r][i], j)
                     + sum(ctx.C[r][k] * om[k][i][j] for k in range(3))
                     + ctx.C[1 - r][i] * (sgn * th[j])
                     for j in range(3)] for i in range(3)])
    return out


@pytest.mark.parametrize("name", TWISTED)
def test_point_reads_match_jet_fields(name):
    for p in _points(name):
        ctx = moebius.MoebiusContext(entry(name).spec, p)
        _close(ctx.covB_values, _vals(_covb_field(ctx)))
        _close(ctx.theta12_values, _vals(_theta12_field(ctx)))
        _close(ctx.Yi_values, _vals(ctx.Yi))
        dN = [moebius.frame_vector_d(ctx.EC, ctx.N, i) for i in range(3)]
        _close(ctx.A_dn, [[jets.value_of(ldot(dN[i], ctx.Yi[j]))
                           for j in range(3)] for i in range(3)])
        _close(ctx.C_dn, [[jets.value_of(ldot(dN[i], ctx.xi[r]))
                           for i in range(3)] for r in range(2)])


@pytest.mark.parametrize("name", TWISTED + ["generic-control"])
def test_covariant_derivative_reads_match_jet_fields(name):
    for p in _points(name):
        ctx = moebius.MoebiusContext(entry(name).spec, p)
        _close(ctx.covC_values, _vals(_covc_field(ctx)))
        _close(ctx.covA_values, _vals(_cov2_field(ctx, ctx.A_gauss)))


@pytest.mark.parametrize("name", TWISTED + ["generic-control"])
def test_riemann_symmetries_and_ricci_contraction(name):
    for p in _points(name):
        ctx = moebius.MoebiusContext(entry(name).spec, p)
        R = ctx.riemann_values  # [i][j][k][l] = <R(E_i,E_j)E_l, E_k>
        _close(R, -R.transpose(1, 0, 2, 3))
        _close(R, -R.transpose(0, 1, 3, 2))
        _close(R, R.transpose(2, 3, 0, 1))
        bianchi = R + np.einsum("jlki->ijkl", R) + np.einsum("likj->ijkl", R)
        _close(bianchi, np.zeros_like(R))
        _close(_vals(ctx.ricci), np.einsum("ijil->jl", R))


@pytest.mark.parametrize("name", TWISTED)
@pytest.mark.parametrize("gauge", ["raw", "V0"])
def test_fhat_from_dn_route_matches_gauss_field(name, gauge):
    for p in _points(name):
        cf = _fields(name, p, gauge)
        inv = ideal._package_invariants(cf)
        _close(inv.Fhat, jets.value_of(cf.Fhat_field))


@pytest.mark.parametrize("name", TWISTED)
def test_frame_derivative_matches_raw_frame_route(name):
    p = _points(name)[0]
    cf = _fields(name, p)
    ctx = cf.ctx
    f = ctx.rho * ctx.Y[3]
    for k in range(3):
        via_raw = sum(cf.Rf[k][j] * moebius.frame_scalar_d(ctx.EC, f, j)
                      for j in range(3))
        _close(moebius.frame_scalar_d(cf.frame_chart, f, k).c, via_raw.c,
               1e-11)
    _close(moebius.frame_d_values(cf.E_chart, ctx.Y),
           [_vals(moebius.frame_vector_d(cf.frame_chart, ctx.Y, k))
            for k in range(3)])


def _triangular_omega(ctx):
    """The raw frame's connection forms by the lower-triangular route that
    connection_forms replaced: E_i has chart components 0..i only."""
    EC, G = ctx.EC, ctx.Gamma
    low = [[jetalg.dot(ctx.g[a][:j + 1], EC[j][:j + 1]) for a in range(3)]
           for j in range(2)]
    out = [[[None] * 3 for _ in range(3)] for _ in range(3)]
    for i in range(1, 3):
        D = [[jets.derivative(EC[i][a], b + 1)
              + jetalg.dot(G[a][b][:i + 1], EC[i][:i + 1])
              for b in range(3)] for a in range(3)]
        for k in range(3):
            nab = [jetalg.dot(EC[k][:k + 1], D[a][:k + 1]) for a in range(3)]
            for j in range(i):
                out[i][j][k] = jetalg.dot(nab, low[j])
                out[j][i][k] = -out[i][j][k]
    return out


def _rotated_omega(cf, raw):
    """The adapted frame's connection forms by the route connection_forms
    replaced: the raw forms on the adapted vectors plus the derivative of
    the rotation Rf."""
    Rf = cf.Rf
    out = [[[None] * 3 for _ in range(3)] for _ in range(3)]
    for i in range(1, 3):
        dR = [moebius.frame_vector_d(cf.frame_chart, Rf[i], k)
              for k in range(3)]
        for j in range(i):
            for k in range(3):
                acc = sum(dR[k][a] * Rf[j][a] for a in range(3))
                for a in range(3):
                    for b in range(a):
                        raw_k = sum(Rf[k][c] * raw[a][b][c] for c in range(3))
                        acc = acc + (Rf[i][a] * Rf[j][b]
                                     - Rf[i][b] * Rf[j][a]) * raw_k
                out[i][j][k] = acc
                out[j][i][k] = -acc
    return out


def _close_forms(got, want):
    """Values and first partials of the off-diagonal forms agree."""
    for i, j in ((1, 0), (2, 0), (2, 1), (0, 1), (0, 2), (1, 2)):
        _close(_vals(got[i][j]), _vals(want[i][j]))
        _close(jetalg.gradients(got[i][j]), jetalg.gradients(want[i][j]))


@pytest.mark.parametrize("name", TWISTED)
@pytest.mark.parametrize("gauge", ["raw", "V0"])
def test_connection_forms_match_the_routes_they_replace(name, gauge):
    for p in _points(name):
        cf = _fields(name, p, gauge)
        raw = _triangular_omega(cf.ctx)
        _close_forms(_omega_field(cf.ctx), raw)
        _close_forms(cf.omega_can, _rotated_omega(cf, raw))


def test_connection_forms_match_the_rotation_route_under_a_pregauge():
    p = _points("so3")[0]
    cf = ideal.CanonicalFields(moebius.MoebiusContext(entry("so3").spec, p),
                               pregauge=0.4)
    _close_forms(cf.omega_can, _rotated_omega(cf, _triangular_omega(cf.ctx)))


@pytest.mark.parametrize("name", TWISTED + ["generic-control"])
def test_omega_values_are_the_raw_forms_at_the_point(name):
    for p in _points(name):
        ctx = moebius.MoebiusContext(entry(name).spec, p)
        om = ctx.omega_values
        _close(om, _vals(_omega_field(ctx)))
        assert np.array_equal(om, -om.transpose(1, 0, 2))
        assert not np.any(om[[0, 1, 2], [0, 1, 2]])


def test_lower_congruence_is_l_m_lt():
    rng = np.random.default_rng(7)
    for _ in range(5):
        L = np.tril(rng.normal(size=(3, 3)))
        M = rng.normal(size=(3, 3))
        M = M + M.T
        got = jetalg.lower_congruence(L.tolist(), M.tolist())
        _close(got, L @ M @ L.T)


@pytest.mark.parametrize("command, calls", [("invariants", 1),
                                            ("residuals", 0)])
def test_connection_forms_built_once_per_invariants_point(monkeypatch,
                                                          capsys, command,
                                                          calls):
    count = []
    build = moebius.connection_forms

    def counted(*args):
        count.append(1)
        return build(*args)

    monkeypatch.setattr(moebius, "connection_forms", counted)
    monkeypatch.setattr(ideal, "connection_forms", counted)
    assert cli.main([command, "--example", "so3", "--points", "1"]) == 0
    capsys.readouterr()
    assert len(count) == calls
