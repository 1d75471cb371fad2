"""The light-cone apparatus: canonical lift, conformal metric, frames in
Lorentz R^7_1, the tensors A, B, C, connection forms, covariant derivatives,
and the integrability residuals.

A MoebiusContext holds the lanes of a chunk of points (map_chunks, the chunk
loop of every analysis command; one point is a chunk of one).  Its tensors
are stacks (jets; symmetric ones over the LOWER pairs of jetalg): g, g^-1,
Gamma, the frame E and its coframe, Y, E_i(Y), N, xi, B, C, the Ricci
tensor and the Gauss-route A, each sum term by term in the order of the
per-jet formula it replaced, and g, Gamma, EC, B, C, ... are views.  Each
runs at the order its readers use (README, "Jet orders"); at K = 3, the
probe's order, g^-1 and Gamma run on values by np.multiply.  What is read
only at the point (E_i of a field, theta_12, the connection forms of E, A
via dN, the Riemann tensor, the covariant derivatives of B, C and A) is
computed once per chunk in numpy, lanes first, from the values and first
partials of the stacks.  connection_forms is the one construction of a
frame's connection forms; the adapted frame of ideal.py uses it.  Index
conventions follow classical.py, plus capital E_i for the frame orthonormal
in the conformal metric g = rho^2 dx.dx.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jetalg, jets
from .classical import ClassicalContext
from .errors import ChartBlowUp, NotLorentz, WintgenError
from .gallery import check_lorentz
from .immersion import SPHERE, ImmersionSpec
from .jetalg import LOWER, SYM

ldot = jetalg.lorentz_dot  # 7-component (-,+,...,+) inner product
LORENTZ = np.diag([-1.0] + [1.0] * 6)  # the same form as a matrix, for values


# The one jet order of this layer: the Blaschke tensor reads E_i(N), fifth
# partials of the chart (rho in Y reads 2, N takes 2 more, E_i one more).
JET_ORDER = 5

# jetalg.adjugate3 of a symmetric M, row by row: the products
# M[p] M[q] - M[r] M[s] of the digits "pq rs", as LOWER places
_ADJ = [[SYM[int(t[0])][int(t[1])] for t in e.split()] for e in (
    "11 22 12 21", "02 21 01 22", "01 12 02 11", "12 20 10 22", "00 22 02 20",
    "02 10 00 12", "10 21 11 20", "01 20 00 21", "00 11 01 10")]
# Gamma^c_ab = (1/2) g^cd (d_a g_bd + d_b g_ad - d_d g_ab) over the LOWER
# pairs (a, b): each partial of g as (LOWER place, d)
_CHRISTOFFEL = np.array([[[(SYM[b][d], a), (SYM[a][d], b), (SYM[a][b], d)]
                          for d in range(3)] for a, b in LOWER])
_symmetric = lambda v: [jetalg.symmetric_entries(e) for e in v]  # noqa
# the chart component a of the LOWER entries (i, a) of a triangular frame
_COL = [a for _, a in LOWER]
# Ric_bc over the LOWER pairs (b, c): the terms over e of tr_e Gamma^e_bc
# and of Gamma^a_be Gamma^e_ac for each a, as places in Gamma (3 x 6) and
# then tr (3)
_RIC = np.array([[[(18 + e, 6 * e + k) for e in range(3)]]
                 + [[(6 * a + SYM[b][e], 6 * e + SYM[a][c]) for e in range(3)]
                    for a in range(3)] for k, (b, c) in enumerate(LOWER)])
# (B^r)^2_jl over the LOWER pairs (j, l): the terms B^r_jm B^r_lm over m
_SQ = np.array([[(SYM[j][m], SYM[l][m]) for m in range(3)] for j, l in LOWER])


def connection_forms(E, g, Gamma):
    """omega_ij(E_k) = g(nabla_{E_k} E_i, E_j), [i][j][k], of a g-orthonormal
    frame with rows E (ncoef, 3, 3[, lanes]) in chart components, from g and
    Gamma^a_bc over the LOWER pairs (b, c), at the order of the frame's
    first partials.  Four products: E_j lowered by g, D = dE_i + Gamma E_i,
    S = g(D, E_j) and E_k(S), for j < i; negated across the diagonal, which
    holds 0.0 omega_10(E_0)."""
    dE = np.stack([jets.stack_derivative(E[:, 1:], b) for b in range(3)],
                  axis=3)  # [i - 1][a][b] = d_b E_i^a
    n, mul = len(dE), jets.stack_mul
    E, g, G = E[:n], g[:n], jetalg.unfold(Gamma[:n], 2)
    low = jets.contract(mul(jetalg.unfold(g, 1)[:, None], E[:, :2, None]), 3)
    D = dE + jets.contract(mul(G[:, None], E[:, 1:, None, None]), 4)
    # S and the forms of the pairs (i, j) = (1, 0), (2, 0), (2, 1)
    S = jets.contract(mul(low[:, [0, 0, 1], :, None], D[:, [0, 1, 1]]), 2)
    forms = jets.contract(mul(E[:, None], S[:, :, None]), 3)
    out = np.empty((n, 3, 3) + forms.shape[2:])
    for p, (i, j) in enumerate(((1, 0), (2, 0), (2, 1))):
        out[:, i, j], out[:, j, i] = forms[:, p], -forms[:, p]
    out[:, [0, 1, 2], [0, 1, 2]] = 0.0 * forms[:, :1, :1]
    return out


def _inverse(g, mul, recip):
    """g^-1 (ncoef, 3, 3[, lanes]) of g over the LOWER pairs: adj g by
    jetalg.adjugate3's products, times recip of det g by jetalg.det3's
    cofactors, which are adjugate products."""
    P = mul(g[:, [e[0] for e in _ADJ] + [e[2] for e in _ADJ]],
            g[:, [e[1] for e in _ADJ] + [e[3] for e in _ADJ]])
    adj = P[:, :9] - P[:, 9:]
    # adj[0][0], adj[1][0] the other way round, adj[2][0]
    t = mul(g[:, [0, 1, 3]],
            np.stack([adj[:, 0], P[:, 12] - P[:, 3], adj[:, 6]], axis=1))
    out = mul(adj, recip((t[:, 0] - t[:, 1]) + t[:, 2])[:, None])
    return out.reshape(out.shape[:1] + (3, 3) + out.shape[2:])


def _christoffel(ginv, dg, mul):
    """Gamma^c_ab (ncoef, 3, 6[, lanes]) over the LOWER pairs (a, b), from
    g^-1 and dg[:, xy, d] = d_d g_xy over the LOWER pairs xy."""
    x, d = _CHRISTOFFEL[..., 0], _CHRISTOFFEL[..., 1]
    t = dg[:, x[..., 0], d[..., 0]] + dg[:, x[..., 1], d[..., 1]] \
        - dg[:, x[..., 2], d[..., 2]]
    return 0.5 * jets.contract(mul(ginv[:, :, None], t[:, None]), 3)


def connection_chart(x, y):
    """The stacked chart components t_a = <d_a x, y> of <dx, y>, for two
    stacked 7-vectors (the normal connection of a sphere pair)."""
    dx = np.stack([jets.stack_derivative(x, a) for a in range(3)], axis=1)
    return jets.contract(jets.stack_mul(dx, y[:, None]), 2, True)


def frame_d_values(E, vec) -> np.ndarray:
    """[i][m] = E_i(vec[m]) at the point, for frame rows E (values, chart
    components) and a stacked vector vec."""
    return E @ np.swapaxes(jets.stack_gradients(vec, 1), -1, -2)


def d_form_values(chart_form) -> np.ndarray:
    """[a][b] = (d phi)(d/du_a, d/du_b) at the point, for a 1-form by its
    stacked chart components."""
    g = jets.stack_gradients(chart_form, 1)  # g[b][a] = d phi_b / du_a
    return np.swapaxes(g, -1, -2) - g


class MoebiusContext:
    """Lazy conformal-invariant jets at the points of a chunk (p a list of
    points, or one point), the chart jet at order K = JET_ORDER and the rest
    lower; values carry a leading lane axis.  An order-3 context gives the
    gates of ideal.frame_gates (third partials of the chart) bit for bit: a
    jet product's low coefficients sum the same pairs at any order."""

    def __init__(self, spec: ImmersionSpec, p, order: int = JET_ORDER):
        self.spec = spec
        self.classical = ClassicalContext(spec, p, order=order)
        self.p = self.classical.p

    # -- lift and metric ------------------------------------------------------

    @jets.field
    def rho(self):
        return self.classical.rho  # raises UmbilicPoint when undefined

    @jets.field
    def inv_rho(self):
        return 1.0 / self.rho

    @jets.field
    def Y_stack(self):
        """The lift rho lift(x), (ncoef, 7[, lanes])."""
        return self.spec.ambient.lift_times(self.rho.c, self.classical.x_low)

    @jets.field
    def g_stack(self):
        """g = rho^2 I over the LOWER pairs at K - 2."""
        rho2 = self.rho * self.rho
        return jets.stack_mul(rho2.c[:, None], self.classical.metric_stack)

    @jets.field
    def ginv_stack(self):
        """g^-1 (ncoef, 3, 3[, lanes]) at K - 3, the order of Gamma; at K = 3
        (the gates read Gamma's values) on values, by np.multiply."""
        if self.classical.order > 3:
            return _inverse(self.g_stack[:jets.ncoef(self.classical.order - 3)],
                            jets.stack_mul, lambda c: (1.0 / jets.views(c, 0)).c)
        return _inverse(self.g_stack[:1], np.multiply, lambda c: 1.0 / c)

    @jets.field
    def Gamma_stack(self):
        """Christoffel symbols Gamma^c_ab over the LOWER pairs (a, b),
        (ncoef, 3, 6[, lanes]) at K - 3 (values at K = 3, as ginv_stack)."""
        dg = np.stack([jets.stack_derivative(self.g_stack, d)
                       for d in range(3)], axis=2)
        return _christoffel(self.ginv_stack, dg, jets.stack_mul
                            if self.classical.order > 3 else np.multiply)

    @jets.field
    def EC_stack(self):
        """The frame for g, E_i = rho^-1 e_i = sum_{a <= i} EC[i][a] d/du_a,
        over the LOWER entries (i, a) at K - 2."""
        return jets.stack_mul(self.classical.frame_stack,
                              self.inv_rho.c[:, None])

    @jets.field
    def coframe_stack(self):
        """EC^-1 over the LOWER entries at K - 3, as jetalg.inv_lower3: the
        transpose of the coframe W, omega_i = sum_a W[i][a] du^a."""
        L = self.EC_stack[:jets.ncoef(self.classical.order - 3)]
        mul = jets.stack_mul
        i00, i11, i22 = ((1.0 / x).c for x in jets.views(L[:, [0, 2, 5]], 1))
        p = mul(L[:, [1, 3, 4]], np.stack([i00, i00, i11], axis=1))
        q = mul(-p[:, [0, 2]], np.stack([i11, i22], axis=1))  # i10, i21
        i20 = mul(-(p[:, 1] + mul(L[:, 4], q[:, 0])), i22)
        return np.stack([i00, q[:, 0], i11, i20, q[:, 1], i22], axis=1)

    @jets.field
    def Yi_stack(self):
        """E_i(Y), (ncoef, 3, 7[, lanes]) at K - 3."""
        dY = np.stack([jets.stack_derivative(self.Y_stack, a)
                       for a in range(3)], axis=1)
        return jets.contract(jets.stack_mul(self.EC_stack[:, :, None],
                                            dY[:, _COL]), 1, runs=(1, 2, 3))

    Y = jets.viewed("Y_stack", 1)
    g = jets.viewed("g_stack", 1, jetalg.symmetric_entries)
    Gamma = jets.viewed("Gamma_stack", 2, _symmetric)
    EC = jets.viewed("EC_stack", 1, jetalg.lower_entries)  # zeros as floats
    Yi = jets.viewed("Yi_stack", 2)
    g_values = jets.field(lambda self: jets.stack_values(
        jetalg.unfold(self.g_stack, 1), 2))
    Gamma_values = jets.field(lambda self: jets.stack_values(  # [.., c, a, b]
        jetalg.unfold(self.Gamma_stack, 2), 3))
    EC_values = jets.field(lambda self: jets.stack_values(
        jetalg.unfold(self.EC_stack, 1, lower=True), 2))
    Yi_values = jets.field(lambda self: frame_d_values(self.EC_values,
                                                       self.Y_stack))

    # -- mean curvature sphere and dual point ---------------------------------

    @jets.field
    def laplace_stack(self):
        """g^ab (d_a d_b Y - Gamma^c_ab d_c Y), summed over a <= b with the
        off-diagonal pairs doubled, and with the contraction
        g^ab Gamma^c_ab taken once for all seven components."""
        pairs = [(a, b) for a in range(3) for b in range(a, 3)]
        w = self.ginv_stack[:, [a for a, _ in pairs], [b for _, b in pairs]]
        w[:, [1, 2, 4]] *= 2.0
        G = self.Gamma_stack[:, :, [SYM[a][b] for a, b in pairs]]
        trG = jets.contract(jets.stack_mul(w[:, None], G), 2)
        dY = np.stack([jets.stack_derivative(self.Y_stack, a)
                       for a in range(3)], axis=1)
        ddY = np.stack([jets.stack_derivative(dY[:, a], b) for a, b in pairs],
                       axis=1)
        lap = jets.contract(jets.stack_mul(w[:, :, None], ddY), 1)
        return lap - jets.contract(jets.stack_mul(trG[:, :, None], dY), 1)[
            :len(lap)]

    @jets.field
    def N_stack(self):
        lap = self.laplace_stack
        lap2 = jets.contract(jets.stack_mul(lap, lap), 1, True)
        return (-1.0 / 3.0) * lap - jets.stack_mul(
            ((1.0 / 18.0) * lap2)[:, None], self.Y_stack)

    @jets.field
    def xi_stack(self):
        """Mean curvature spheres xi_r = H_r lift(x) + dlift_x(n_r),
        (ncoef, 2, 7[, lanes])."""
        cl = self.classical
        return np.stack([self.spec.ambient.lift_times(
            cl.H_stack[:, r], cl.x_low, cl.normal_stack[:, r])
            for r in range(2)], axis=1)

    N = jets.viewed("N_stack", 1)
    xi = jets.viewed("xi_stack", 2)

    # -- conformal tensors -----------------------------------------------------

    @jets.field
    def B_stack(self):
        """B^r_ij = rho^-1 (h^r_ij - H^r delta_ij) over the LOWER pairs,
        (ncoef, 2, 6[, lanes]) at K - 2."""
        return jets.stack_mul(self.inv_rho.c[:, None, None],
                              self.classical.tracefree_stack)

    @jets.field
    def C_stack(self):
        """C^r_i = -rho^-2 [H^r_,i + sum_j (h^r_ij - H^r d_ij) e_j(log rho)],
        (ncoef, 2, 3[, lanes]) at K - 3, with H^r_,i = e_i(H^r)
        + H^s <e_i(n_s), n_r> (s = 1 - r) and e_i the frame orthonormal for
        dx.dx, whose chart components are a <= i."""
        cl = self.classical
        f = np.stack([self.rho.c, cl.H_stack[:, 0], cl.H_stack[:, 1]], axis=1)
        nf = cl.normal_stack
        dn = np.stack([jets.stack_derivative(nf, a) for a in range(3)], axis=1)
        X = np.concatenate([  # d_a of rho, H^0, H^1; <d_a n_s, n_r>
            np.stack([jets.stack_derivative(f, a) for a in range(3)], axis=1),
            jets.contract(jets.stack_mul(dn[:, :, ::-1], nf[:, None]), 3,
                          cl.lorentz)], axis=2)
        eX = jets.contract(jets.stack_mul(cl.frame_stack[:, :, None],
                                          X[:, _COL]), 1, runs=(1, 2, 3))
        n = len(eX)
        inv_rho = self.inv_rho.c[:n, None]
        # e_j(log rho) = e_j(rho) rho^-1, then rho^-2
        d = jets.stack_mul(np.concatenate([eX[:, :, 0], inv_rho], axis=1),
                           inv_rho)
        # after e_i(H^r): H^s e_i(<d n_s, n_r>), (h - H)_ij e_j(log rho)
        left = np.empty((n, 2, 3, 4) + eX.shape[3:])
        left[:, :, :, 0] = cl.H_stack[:n, ::-1, None]
        left[:, :, :, 1:] = jetalg.unfold(cl.tracefree_stack[:n], 2)
        right = np.empty(left.shape)
        right[:, :, :, 0] = np.swapaxes(eX[:, :, 3:], 1, 2)
        right[:, :, :, 1:] = d[:, None, None, :3]
        terms = np.concatenate([np.swapaxes(eX[:, :, 1:3], 1, 2)[:, :, :, None],
                                jets.stack_mul(left, right)], axis=3)
        return jets.stack_mul(-d[:, 3, None, None], jets.contract(terms, 3))

    B = jets.viewed("B_stack", 2, _symmetric)
    C = jets.viewed("C_stack", 2)
    B_values = jets.field(lambda self: jets.stack_values(
        jetalg.unfold(self.B_stack, 2), 3))
    C_values = jets.field(lambda self: jets.stack_values(self.C_stack, 2))

    # -- connection ------------------------------------------------------------

    @jets.field
    def theta12_values(self):
        """theta_12(E_k) at the point."""
        xi = self.xi_stack
        return jetalg.mat_vec(frame_d_values(self.EC_values, xi[:, 0])
                              @ LORENTZ, jets.stack_values(xi[:, 1], 1))

    # chart components: theta_12 = sum_a t_a du^a
    theta12_chart = jets.field(lambda self: connection_chart(
        self.xi_stack[:, 0], self.xi_stack[:, 1]))

    # -- Blaschke tensor --------------------------------------------------------

    @jets.field
    def dN_values(self):
        """E_i(N) at the point, rows i."""
        return frame_d_values(self.EC_values, self.N_stack)

    @jets.field
    def A_dn(self):
        """A_ij = <E_i(N), Y_j> from the derivative of the dual point (values)."""
        return self.dN_values @ LORENTZ @ np.swapaxes(self.Yi_values, -1, -2)

    @jets.field
    def C_dn(self):
        """Cross-route C^r_i = <E_i(N), xi_r> (values)."""
        return jets.stack_values(self.xi_stack, 2) @ LORENTZ \
            @ np.swapaxes(self.dN_values, -1, -2)

    # -- curvature of g ----------------------------------------------------------

    @jets.field
    def riemann_values(self):
        """[i][j][k][l] = <R(E_i,E_j) E_l, E_k>_g at the point, from the values
        and first partials of Gamma."""
        G = self.Gamma_values  # G[..., d, a, e] = Gamma^d_ae
        # dG[..., d, b, c, a] = d_a Gamma^d_bc
        dG = jets.stack_gradients(jetalg.unfold(self.Gamma_stack, 2), 3)
        # R(d_a, d_b) d_c = R^d_cab d_d, antisymmetrized in (a, b) at the end
        R = np.moveaxis(dG, -3, -1) + np.einsum(  # Gamma^d_ae Gamma^e_bc
            "...dae,...ebc->...dcab", G, G)
        R = R - np.swapaxes(R, -1, -2)
        E = self.EC_values
        low = E @ self.g_values  # low[k] pairs with E_k
        return np.einsum("...ia,...jb,...kd,...lc,...dcab->...ijkl",
                         E, E, low, E, R)

    @jets.field
    def ricci_stack(self):
        """Ric(E_i, E_j) over the LOWER pairs at K - 4, congruent by EC to
        Ric_bc = d_a Gamma^a_bc - d_b Gamma^a_ac + Gamma^a_ae Gamma^e_bc
        - Gamma^a_be Gamma^e_ac, summed in that order."""
        G = self.Gamma_stack
        tr = G[:, 0, list(SYM[0])] + G[:, 1, list(SYM[1])] \
            + G[:, 2, list(SYM[2])]
        div = [jets.stack_derivative(G[:, a], a) for a in range(3)]
        dtr = np.stack([jets.stack_derivative(tr, b) for b in range(3)],
                       axis=1)[:, [b for b, _ in LOWER], _COL]
        n = len(dtr)
        src = np.concatenate([G[:n].reshape((n, 18) + G.shape[3:]), tr[:n]],
                             axis=1)
        dots = jets.contract(jets.stack_mul(src[:, _RIC[..., 0]],
                                            src[:, _RIC[..., 1]]), 3)
        Rc = div[0] + div[1] + div[2] - dtr + dots[:, :, 0]
        for a in range(3):
            Rc = Rc - dots[:, :, 1 + a]
        return jetalg.congruence(self.EC_stack, Rc, jets.stack_mul)

    @jets.field
    def A_stack(self):
        """The Blaschke tensor over the LOWER pairs at K - 4, from the trace
        of the conformal Gauss equation: A = Ric + sum_r (B^r)^2 - tr(A)
        delta with 4 tr(A) = Scal + 2/3; for the derivatives of A."""
        Ric = self.ricci_stack
        B = self.B_stack[:len(Ric)]
        sq = jets.contract(jets.stack_mul(B[:, :, _SQ[..., 0]],
                                          B[:, :, _SQ[..., 1]]), 3)
        tr = Ric[:, 0] + Ric[:, 2] + Ric[:, 5]
        tr[0] += 2.0 / 3.0
        out = Ric + sq[:, 0] + sq[:, 1]
        out[:, [0, 2, 5]] -= (0.25 * tr)[:, None]
        return out

    ricci = jets.viewed("ricci_stack", 1, jetalg.symmetric_entries)
    A_gauss = jets.viewed("A_stack", 1, jetalg.symmetric_entries)

    # -- covariant derivatives ---------------------------------------------------
    # Read at the point: the frame gradient of a field plus the omega and
    # theta_12 terms at their point values.

    @jets.field
    def omega_values(self):
        """omega_ij(E_k) at the point, from the values and first partials of
        EC and the values of Gamma and g: the antisymmetric part of
        g(nabla_{E_k} E_i, E_j), so exactly antisymmetric."""
        E = self.EC_values
        G = self.Gamma_values  # G[..., a, b, c] = Gamma^a_bc
        # D[..., i, a, b]: chart component a of nabla_{d/du_b} E_i
        D = jets.stack_gradients(jetalg.unfold(self.EC_stack, 1, lower=True),
                                 2) + np.einsum("...abc,...ic->...iab", G, E)
        low = E @ self.g_values  # low[j] pairs with E_j
        X = np.einsum("...kb,...iab,...ja->...ijk", E, D, low)
        return 0.5 * (X - np.swapaxes(X, -2, -3))

    def _cov2_terms(self, T, axis):
        """E_k(T_ij), T_lj omega_li(E_k) and T_il omega_lj(E_k) [..., i, j, k]
        at the point, for symmetric frame 2-tensor jet fields stacked over
        the LOWER pairs on axis (the coefficient axis counts)."""
        T = jetalg.unfold(T, axis)
        T0 = jets.stack_values(T, axis + 1)
        E, om = self.EC_values, self.omega_values
        # after the lanes, a unit axis per stacking axis of T (and i in E)
        pad = (1,) * (T0.ndim - om.ndim + 1)
        E = E.reshape(E.shape[:-2] + pad + (1, 3, 3))
        om = om.reshape(om.shape[:-3] + pad + om.shape[-3:])
        return [jets.stack_gradients(T, axis + 1) @ np.swapaxes(E, -1, -2),
                np.einsum("...il,...ljk->...ijk", T0, om),
                np.einsum("...lj,...lik->...ijk", T0, om)]

    @jets.field
    def covB_terms(self):
        """The terms covB_values sums: _cov2_terms', then theta_12's."""
        B = self.B_values
        th = self.theta12_values[..., None, None, :]
        return self._cov2_terms(self.B_stack, 2) + [np.stack(
            [-(B[..., 1, :, :, None] * th), B[..., 0, :, :, None] * th],
            axis=-4)]

    @jets.field
    def covB_values(self):
        """[r][i][j][k] = B^r_{ij,k} at the point (raw gauge)."""
        grad, om1, om2, th = self.covB_terms
        return grad + om1 + om2 + th

    @jets.field
    def covC_values(self):
        """[r][i][j] = C^r_{i,j} at the point (raw gauge)."""
        C, om = self.C_values, self.omega_values
        out = jets.stack_gradients(self.C_stack, 2) \
            @ np.swapaxes(self.EC_values, -1, -2)[..., None, :, :]
        out += np.einsum("...rk,...kij->...rij", C, om)
        th = self.theta12_values[..., None, :]
        out[..., 0, :, :] -= C[..., 1, :, None] * th
        out[..., 1, :, :] += C[..., 0, :, None] * th
        return out

    @jets.field
    def covA_values(self):
        """[i][j][k] = A_{ij,k} at the point, from the Gauss-trace field."""
        grad, om1, om2 = self._cov2_terms(self.A_stack, 1)
        return grad + om1 + om2


# The most points in a chunk.  It bounds peak memory and the prefix that a
# failing chunk reruns (map_chunks), not time: larger chunks run faster end
# to end (invariants on hopf-generic, 2-vCPU Xeon, median of 9: 100 points
# take 93.6 ms in chunks of 20 and 50.6 ms in one chunk; 200 points peak at
# 35.8 MB RSS in chunks of 20 and 46.5 MB in one chunk).
CHUNK_POINTS = 20


def map_chunks(analyze, pts, probe=None) -> list:
    """analyze's results over a sample, one per point, in order: the chunk
    rule of every analysis command.  analyze(chunk, start) maps a chunk (a
    list of points) to one result per point, where start is the sample
    index of the chunk's first point, so a refusal can name its point's
    index.  The sample runs in full chunks of CHUNK_POINTS from point 0.
    A chunk that raises a WintgenError at lane l (errors.WintgenError.lane,
    0 when None) runs the points before l again as one chunk, under this
    same rule, so that an earlier point's own error comes first; then
    point l runs probe (one lane at the lowest jet order its gates read)
    and the error propagates.  Every lane passed the steps before the one
    that raised, and rounds as its point alone, so the first failing point
    reports what it reports as a sample of one: the probe's refusal, else
    its own error.  The invariant commands, whose torsion gate sits behind
    the order-3 chain, probe point 0 before calling this.  Any other
    exception propagates from the chunk: it is a fault, not a property of
    a point."""
    out = []
    for lo in range(0, len(pts), CHUNK_POINTS):
        out += _analyzed(analyze, list(pts[lo:lo + CHUNK_POINTS]), lo, probe)
    return out


def _analyzed(analyze, chunk, start, probe) -> list:
    """analyze(chunk, start), or the error of the chunk's first failing
    point by the rule of map_chunks."""
    try:
        return analyze(chunk, start)
    except WintgenError as exc:
        l = exc.lane or 0
        if l:
            _analyzed(analyze, chunk[:l], start, probe)
        if probe is not None:
            probe(chunk[l])
        raise


# ---------------------------------------------------------------------------
# reporting types


@dataclass(frozen=True)
class MoebiusData:
    rho: float
    Y: np.ndarray          # 7
    Yi: np.ndarray         # 3x7
    N: np.ndarray          # 7
    xi: np.ndarray         # 2x7
    g: np.ndarray          # 3x3 chart components
    E: np.ndarray          # 3x3 frame rows in chart components
    coframe: np.ndarray    # 3x3 rows: omega_i in du^a
    omega_ij: np.ndarray   # 3x3x3, [i][j][k] = omega_ij(E_k)
    theta12: np.ndarray    # 3, theta_12(E_k)
    A: np.ndarray          # 3x3 Blaschke tensor (dN route)
    B: np.ndarray          # 2x3x3
    C: np.ndarray          # 2x3


def moebius_data(ctx: MoebiusContext) -> MoebiusData:
    """Snapshot of the values at the point of a context (over a chunk, with
    a leading lane axis)."""
    val = jets.stack_values
    # the coframe's rows are the columns of coframe_stack
    coframe = np.swapaxes(jetalg.unfold(ctx.coframe_stack, 1, lower=True), 1, 2)
    return MoebiusData(
        rho=jets.value_of(ctx.rho), Y=val(ctx.Y_stack, 1), Yi=ctx.Yi_values,
        N=val(ctx.N_stack, 1), xi=val(ctx.xi_stack, 2), g=ctx.g_values,
        E=ctx.EC_values, coframe=val(coframe, 2),
        omega_ij=ctx.omega_values, theta12=ctx.theta12_values,
        A=ctx.A_dn, B=ctx.B_values, C=ctx.C_values)


# ---------------------------------------------------------------------------
# integrability residuals


@dataclass(frozen=True)
class IntegrabilityResiduals:
    codazzi_A: float
    ricci_C: float
    codazzi_B: float
    gauss: float
    ricci_normal: float
    trace: float

    def max_residual(self) -> float:
        return max(self.codazzi_A, self.ricci_C, self.codazzi_B,
                   self.gauss, self.ricci_normal, self.trace)


def integrability_residuals(ctx: MoebiusContext) -> list:
    """Max absolute residuals at each point of the context, in order, of the
    structure-equation identities relating A, B, C, the curvature of g, and
    the normal curvature: one record per point, from values read once for
    the chunk."""
    A = ctx.A_dn
    B = ctx.B_values
    C = ctx.C_values
    n = len(ctx.p)

    def alt(T):
        """T minus T with its last two axes swapped."""
        return T - np.swapaxes(T, -1, -2)

    def worst(lhs, rhs=0.0):
        """Per point, the largest |lhs - rhs|."""
        return np.reshape(np.abs(lhs - rhs), (n, -1)).max(axis=1)

    d = np.eye(3)
    # A_ij,k - A_ik,j = sum_r (B^r_ik C^r_j - B^r_ij C^r_k)
    codazzi_A = worst(alt(ctx.covA_values),
                      -alt(np.einsum("...rij,...rk->...ijk", B, C)))
    # C^r_i,j - C^r_j,i = (B^r A - A B^r)_ij
    ricci_C = worst(alt(ctx.covC_values), alt(B @ A[..., None, :, :]))
    # B^r_ij,k - B^r_ik,j = d_ij C^r_k - d_ik C^r_j
    codazzi_B = worst(alt(ctx.covB_values),
                      alt(np.einsum("ij,...rk->...rijk", d, C)))
    # R_ijkl = sum_r (B^r_ik B^r_jl - B^r_il B^r_jk)
    #          + d_ik A_jl + d_jl A_ik - d_il A_jk - d_jk A_il
    gauss = worst(ctx.riemann_values,
                  alt(np.einsum("...rik,...rjl->...ijkl", B, B)
                      + np.einsum("ik,...jl->...ijkl", d, A)
                      + np.einsum("...ik,jl->...ijkl", A, d)))

    # normal curvature: d theta_12 (E_i, E_j) + [B^1, B^2]_ij = 0
    B0, B1 = B[..., 0, :, :], B[..., 1, :, :]
    E = ctx.EC_values
    dth = E @ d_form_values(ctx.theta12_chart) @ np.swapaxes(E, -1, -2)
    ricci_normal = worst(dth + (B0 @ B1 - B1 @ B0))

    trace = np.maximum(worst(np.trace(B, axis1=-2, axis2=-1)), np.abs(
        np.reshape(B ** 2, (n, -1)).sum(axis=1) - 2.0 / 3.0))

    return [IntegrabilityResiduals(*r) for r in zip(*(
        x.tolist()
        for x in (codazzi_A, ricci_C, codazzi_B, gauss, ricci_normal, trace)))]


# ---------------------------------------------------------------------------
# Moebius transformations


def readback_sphere(Z):
    """Round point for a future-pointing null vector: Z_{1..6} / Z_0."""
    z0 = jets.value_of(Z[0])
    l = jets.first_lane(np.abs(z0) <= 1e-10)
    if l is not None:
        raise ChartBlowUp(f"transformed point leaves the chart (lift "
                          f"0-component {np.ravel(z0)[l]:.2e})", lane=l)
    return [Z[k] / Z[0] for k in range(1, 7)]


def conformal_transform(spec: ImmersionSpec, T) -> ImmersionSpec:
    """The immersion whose light-cone lift is T applied to the lift of x,
    read back in the round model: x~ = spatial(Z)/Z_0 with Z = T L(x)."""
    T = np.asarray(T, dtype=float)
    if T.shape != (7, 7):
        raise NotLorentz(f"need a 7x7 matrix, got {T.shape}")
    check_lorentz(T)
    base = spec.evaluator
    ambient = spec.ambient
    rows = [list(map(float, row)) for row in T]

    def evaluate(u):
        lift = ambient.lift(base(u))
        return readback_sphere([jetalg.dot(row, lift) for row in rows])

    return ImmersionSpec(ambient=SPHERE, name=f"{spec.name}~moebius",
                         domain=spec.domain, evaluator=evaluate)
