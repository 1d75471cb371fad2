"""Adapted frames and scalar invariants of ideal points.

At an ideal point the trace-free conformal shape operators share a kernel
line and act on the orthogonal plane D as a fixed two-matrix pattern after
a rotation.  CanonicalFields takes a MoebiusContext, which fixes the
points; frame_gates, the one implementation of each gate, refuses at an
umbilic, then a non-ideal point (the gates of classical.py), then where the
torsion from the values of B, covB and the kernel line is at most ltol or
its rounding floor.  They read third partials of the chart at most, so
probe_frame, the probe of the invariants, decides them on an order-3
context.  Past them, classical.turned_frame, the one construction of the
adapted frame, runs per jet on the shape fields at K - 3 (README, "Jet
orders"), and all that is built on the frame is a stack (moebius), so U,
V, L, G, lambda, Fhat, Ghat and the 1-form omega are derivatives of smooth
fields whose values are the frame built on floats.  The pregauge (M0, Q0)
and the normal pair Qf mix by jetalg.lincomb's rule: an exact 0 adds no
term and an exact 1 makes no product.  E3 is oriented
at each point by the sign of the torsion L; the verdicts are folds over the
per-point invariants of a sample (sample_invariants, through map_chunks),
and refuse an empty one.  Over a chunk each gate runs once on lane masks
and refuses at its first failing lane, and what follows has a leading lane
axis, each lane summing as its point alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import jetalg, jets
from .classical import (LTOL, TOL, _pattern_matrices, form_blocks,
                        kernel_plane, require_ideal, turned_frame)
from .errors import IntegrableDistribution, SchemaError
from .immersion import ImmersionSpec
from .moebius import (LORENTZ, MoebiusContext, connection_chart,
                      connection_forms, d_form_values, frame_d_values,
                      map_chunks, moebius_data)

SQRT6 = math.sqrt(6.0)

# The torsion's rounding floor is this times the largest term that covB
# sums (ctx.covB_terms; |B|^2 = 2/3); at or below it the sign is noise.
TORSION_FLOOR = 128 * np.finfo(float).eps


def _oriented_torsion(covB, Bv, q):
    """The kernel-direction torsion scalar, computed gauge-independently:
    (3/2) sum_r tr((nabla_q B^r)^T (q x B^r)), q crossed into each column
    of B^r: that is J B^r, with J = E2 E1^T - E1 E2^T for any right-handed
    adapted frame (E1, E2, q).  Odd in q, even under the residual frame
    freedom, so it fixes the E3 sign.  covB and Bv are values in the raw
    frame; all arguments may carry a leading lane axis."""
    d3B = [jetalg.mat_vec(covB[..., r, :, :, :], q[..., None, :])
           for r in range(2)]
    # np.cross(q[..., :, None], B^r, axis=-2), values and layout
    qB = [np.swapaxes(jetalg.cross_last(
        q[..., None, :], np.swapaxes(Bv[..., r, :, :], -1, -2)), -1, -2)
          for r in range(2)]
    return 1.5 * ((d3B[0] * qB[0]).sum(axis=(-2, -1))
                  + (d3B[1] * qB[1]).sum(axis=(-2, -1)))


def _pregauged(B, M0, Q0):
    """The shape fields B, a stack (ncoef, 2, 3, 3[, lanes]), with the
    normal pair mixed by Q0 and components in the tangent frame rotated by
    M0, entry by entry by jetalg.stack_lincomb's rule: B itself under the
    identity pregauge."""
    if (M0 == np.eye(3)).all() and (Q0 == np.eye(2)).all():
        return B
    mix = np.stack([jetalg.stack_lincomb(Q0[:, r], [B[:, 0], B[:, 1]])
                    for r in range(2)], axis=1)
    terms = [mix[:, :, a, b] for a in range(3) for b in range(3)]
    out = np.stack([jetalg.stack_lincomb(
        [M0[i, a] * M0[j, b] for a in range(3) for b in range(3)], terms)
        for i in range(3) for j in range(3)], axis=2)
    return out.reshape(out.shape[:2] + (3, 3) + out.shape[3:])


# jetalg.quadform's terms (u_a M_ab) v_b, in its order
_QF = np.array([(a, jetalg.SYM[a][b], b) for a in range(3)
                for b in range(3)])
# the components B^r(E_i, E_j) read, (r, i, j): mu = B^0(E_0, E_1) and L's
B_READ = ((0, 0, 0), (0, 0, 1), (0, 0, 2), (1, 0, 0))
# frame_chart sums Rf[i][j] EC[j][a] over j >= a (EC is lower triangular),
# coframe_can Rf[i][j] W[j][a] over j <= a (the coframe W is upper
# triangular), in runs of a: the j, then the LOWER places (j, a) in EC
_FC = [(j, jetalg.SYM[j][a]) for a in range(3) for j in range(a, 3)]
_CO = [j for a in range(3) for j in range(a + 1)]
# the C^0_{i,j} read, (i, j) = (0, 0), (1, 0), (1, 1): E_j(c_i) over a,
# c_k omega_ki(E_j) for k != i and c^1_i (-theta(E_j)), as places in
# [frame_chart (3 x 3), c (2 x 3)] and [dc (3 a x 2 i), omega (27), -theta]
_COVC = ((0, 0), (1, 0), (1, 1))
_COVC_TERMS = np.array([[(3 * j + a, 2 * a + i) for a in range(3)]
                        + [(9 + k, 6 + 9 * k + 3 * i + j)
                           for k in range(3) if k != i]
                        + [(12 + i, 33 + j)] for i, j in _COVC])


def _quadforms(Rf, M, triples):
    """jetalg.quadform(Rf[i], M[m], Rf[j]) for the triples (m, i, j), on one
    axis, for stacked rows Rf and M[m] over the LOWER pairs (ncoef, k, 6)."""
    rows = sorted({t[:2] for t in triples})
    u = jets.stack_mul(Rf[:, [i for _, i in rows]][:, :, _QF[:, 0]],
                       M[:, [m for m, _ in rows]][:, :, _QF[:, 1]])
    return jets.contract(jets.stack_mul(
        u[:, [rows.index(t[:2]) for t in triples]],
        Rf[:, [t[2] for t in triples]][:, :, _QF[:, 2]]), 2)


def _rows(rows) -> np.ndarray:
    """A 3x3 nested list of jets as one stack (ncoef, 3, 3[, lanes])."""
    c = jets.stack([x for row in rows for x in row])
    return c.reshape(c.shape[:1] + (3, 3) + c.shape[2:])


class CanonicalFields:
    """The adapted frame at the ideal points of a chunk (those of ctx), as
    jet fields.  Rf rows are the adapted tangent frame in components of the
    raw (Gram-Schmidt) frame; Qf columns express the adapted normal sphere
    pair through the raw one; all component fields refer to this frame.
    The kernel plane (plane), the Moebius snapshot (data), the torsion, its
    floor and the integrable flags, and Rfv, E_chart, A_can and
    domega_values carry a leading lane axis (a point alone has none).
    Construction runs frame_gates, unless partial: partial fields are
    marked integrable and refuse at lamf instead.
    """

    def __init__(self, ctx: MoebiusContext, gauge: str = "raw", pregauge=None,
                 ltol: float = LTOL, partial: bool = False, tol: float = TOL):
        if gauge not in ("raw", "V0"):
            raise ValueError(f"unknown gauge {gauge!r}")
        self.ctx, self.gauge, self.ltol = ctx, gauge, float(ltol)
        M0, Q0, self.plane, self.torsion, self.floor, self.integrable = \
            frame_gates(ctx, pregauge, self.ltol, tol, partial)
        # the frame's readers take two partials of it: B at order K - 3
        B = ctx.B_stack[:jets.ncoef(ctx.classical.order - 3)]
        rows, self.mu_field0 = turned_frame(jets.views(_pregauged(
            jetalg.unfold(B, 2), M0, Q0), 3), self.plane)
        # E3 sign: the torsion is positive (it is odd in E3); below the
        # cutoff it is undefined and E3 stays as the kernel sign left it
        sign = np.where(~self.integrable & (self.torsion < 0.0), -1.0,
                        1.0)[()]
        if not jetalg.exactly(sign, 1.0):
            rows[2] = [sign * c for c in rows[2]]
        self.data = moebius_data(ctx)

        self.Rf = [[jetalg.lincomb(M0[:, j].tolist(), lambda k: R[k])
                    for j in range(3)] for R in rows]
        flip = self.plane.flip
        self.Qf = [[Q0[0][0], flip * Q0[0][1]], [Q0[1][0], flip * Q0[1][1]]]

        if gauge == "V0":
            self._apply_v0()

    # -- gauge refinement -----------------------------------------------------

    def _apply_v0(self):
        """Residual paired rotation making the second component of the
        adapted 1-form vanish, with the first one nonnegative; the lanes
        already in the reduced form keep their rows of Rf and Qf."""
        cU, cV = jets.views(self._contract_c(_rows(self.Rf))[:, 0, :2], 1)
        Uf = -(cU / self.mu_field0)
        Vf = cV / self.mu_field0
        reduced = np.hypot(jets.value_of(Uf), jets.value_of(Vf)) <= 1e-8
        if np.all(reduced):
            return
        hf = jets.sqrt(jets.where(reduced, 1.0, Uf * Uf + Vf * Vf))
        cst = Uf / hf
        sst = -(Vf / hf)
        Rf, Qf = self.Rf, self.Qf
        newE1 = [cst * Rf[0][j] - sst * Rf[1][j] for j in range(3)]
        newE2 = [sst * Rf[0][j] + cst * Rf[1][j] for j in range(3)]
        c2 = cst * cst - sst * sst
        s2 = 2.0 * cst * sst
        K = [[c2, -(s2)], [s2, c2]]
        newQ = [[Qf[s][0] * K[0][r] + Qf[s][1] * K[1][r] for r in range(2)]
                for s in range(2)]

        def keep(old, new):  # the old rows on the reduced lanes
            return [[jets.where(reduced, a, b) for a, b in zip(*rows)]
                    for rows in zip(old, new)]
        self.Rf, self.Qf = keep(Rf, [newE1, newE2, Rf[2]]), keep(Qf, newQ)

    def _qmix(self, X):
        """X (ncoef, 2, ...) on the raw normal pair, mixed by Qf."""
        mixed = [jetalg.stack_lincomb([self.Qf[0][r], self.Qf[1][r]],
                                      [X[:, 0], X[:, 1]]) for r in range(2)]
        n = min(map(len, mixed))
        return np.stack([m[:n] for m in mixed], axis=1)

    def _contract_c(self, Rf):
        """C paired with the adapted normals r and the rows i of the stacked
        Rf, [r][i] (ncoef, 2, 3[, lanes])."""
        return self._qmix(jets.contract(jets.stack_mul(
            Rf[:, None], self.ctx.C_stack[:, :, None]), 3))

    Rf_stack = jets.field(lambda self: _rows(self.Rf))
    xi_stack = jets.field(lambda self: self._qmix(self.ctx.xi_stack))
    cfield_stack = jets.field(lambda self: self._contract_c(self.Rf_stack))
    # b: B^r(E_i, E_j) for the (r, i, j) of B_READ
    b_stack = jets.field(lambda self: _quadforms(
        self.Rf_stack, self._qmix(self.ctx.B_stack), B_READ))
    # the normal connection of the adapted sphere pair, chart components
    theta_chart = jets.field(lambda self: connection_chart(
        self.xi_stack[:, 0], self.xi_stack[:, 1]))

    @jets.field
    def frame_chart_stack(self):
        """Rows: the adapted frame vectors in chart components."""
        Rf, EC = self.Rf_stack, self.ctx.EC_stack
        return jets.contract(jets.stack_mul(
            Rf[:, :, [j for j, _ in _FC]], EC[:, None, [k for _, k in _FC]]),
            2, runs=(3, 2, 1))

    @jets.field
    def coframe_can_stack(self):
        """Rows: the adapted coframe in chart components."""
        return jets.contract(jets.stack_mul(
            self.Rf_stack[:, :, _CO], self.ctx.coframe_stack[:, None]), 2,
            runs=(1, 2, 3))

    @jets.field
    def theta_stack(self):
        """theta_12 of the adapted sphere pair on the adapted frame."""
        return jets.contract(jets.stack_mul(self.frame_chart_stack,
                                            self.theta_chart[:, None]), 2)

    @jets.field
    def connection_stack(self):
        """omega[i][j][k]: connection forms of the adapted frame on its own
        vectors (moebius.connection_forms on frame_chart)."""
        return connection_forms(self.frame_chart_stack, self.ctx.g_stack,
                                self.ctx.Gamma_stack)

    @jets.field
    def covc_stack(self):
        """C^0_{i,j} in the adapted frame for the (i, j) of _COVC, read by G,
        Fhat and Ghat: E_j(c_i) + sum_{k != i} c_k omega_ki(E_j)
        - c^1_i theta(E_j), summed in that order."""
        c, om = self.cfield_stack, self.connection_stack
        n, lanes = len(om), om.shape[4:]
        dc = np.stack([jets.stack_derivative(c[:, 0, :2], a)
                       for a in range(3)], axis=1)
        left = np.concatenate([self.frame_chart_stack[:n].reshape(
            (n, 9) + lanes), c[:n].reshape((n, 6) + lanes)], axis=1)
        right = np.concatenate([dc.reshape((n, 6) + lanes), om.reshape(
            (n, 27) + lanes), -self.theta_stack[:n]], axis=1)
        return jets.contract(jets.stack_mul(left[:, _COVC_TERMS[..., 0]],
                                            right[:, _COVC_TERMS[..., 1]]), 2)

    frame_chart = jets.viewed("frame_chart_stack", 2)
    coframe_can = jets.viewed("coframe_can_stack", 2)
    xi = jets.viewed("xi_stack", 2)
    omega_can = jets.viewed("connection_stack", 3)
    covc = jets.viewed("covc_stack", 1, lambda v: dict(zip(_COVC, v)))
    Rfv = jets.field(lambda self: jets.stack_values(self.Rf_stack, 2))
    E_chart = jets.field(lambda self: jets.stack_values(
        self.frame_chart_stack, 2))
    Yi_can = jets.field(lambda self: jets.views(jets.contract(jets.stack_mul(
        self.Rf_stack[:, :, :, None], self.ctx.Yi_stack[:, None]), 2), 2))

    def d_form_on(self, chart_form, i, j):
        """Exterior derivative of a stacked chart 1-form, evaluated on
        adapted frame vectors i, j (a value)."""
        return float(self.E_chart[i] @ d_form_values(chart_form)
                     @ self.E_chart[j])

    @jets.field
    def A_can(self):
        return self.Rfv @ self.data.A @ np.swapaxes(self.Rfv, -1, -2)

    @jets.field
    def A_can_field(self):
        A = _quadforms(self.Rf_stack, self.ctx.A_stack[:, None],
                       [(0, i, j) for i in range(3) for j in range(3)])
        return jets.views(A.reshape(A.shape[:1] + (3, 3) + A.shape[2:]), 2)

    # -- named scalars -------------------------------------------------------------

    mu_field = jets.field(lambda self: jets.views(self.b_stack[:, 1], 0))
    mu = jets.field(lambda self: jets.value_of(self.mu_field))
    Uf = jets.field(lambda self: -(jets.views(self.cfield_stack[:, 0, 0], 0)
                                   / self.mu_field))
    Vf = jets.field(lambda self: jets.views(self.cfield_stack[:, 0, 1], 0)
                    / self.mu_field)
    L = jets.field(lambda self: jets.value_of(self.Lf))
    G = jets.field(lambda self: jets.value_of(self.Gf))

    @jets.field
    def Lf(self):
        """L = -B^0_{00,2} / mu, with the covariant derivative in the adapted
        frame E_2(b_00) + 2 sum_{l > 0} b_0l omega_l0(E_2) - B^1_00
        theta(E_2) (b = B^0): each product once, the terms in that order."""
        fc, b, om = self.frame_chart_stack, self.b_stack, self.connection_stack
        n = len(om)
        db = np.stack([jets.stack_derivative(b[:, 0], a) for a in range(3)],
                      axis=1)
        t = jets.stack_mul(
            np.concatenate([fc[:n, 2], b[:n, 1:]], axis=1),
            np.concatenate([db, om[:, 1:, 0, 2], -self.theta_stack[:n, 2:]],
                           axis=1))
        cov = jets.contract(t[:, [0, 1, 2, 3, 3, 4, 4, 5]], 1)
        return -(jets.views(cov, 0) / self.mu_field)

    @jets.field
    def Gf(self):
        return (self.covc[0, 0] - self.covc[1, 1]) / (2.0 * self.mu_field)

    @jets.field
    def lam_field(self):
        """G/L on every lane; on the integrable lanes of partial fields,
        where lambda is undefined, 1.0 stands in for L."""
        L = jets.where(self.integrable, 1.0, self.Lf) \
            if np.any(self.integrable) else self.Lf
        return self.Gf / L

    @jets.field
    def lamf(self):
        """G/L, past the torsion gate (partial fields refuse here)."""
        _refuse_integrable(self.torsion, self.floor, self.integrable,
                           self.ltol, self.ctx.p)
        return self.lam_field

    w_fields = jets.field(lambda self: [-(self.Vf), self.Uf, self.lamf])

    @jets.field
    def omega_stack(self):
        """The distinguished 1-form -V omega_0 + U omega_1 + lambda omega_2
        in chart components, from lam_field (on the integrable lanes of
        partial fields, undefined)."""
        w = jets.stack([-(self.Vf), self.Uf, self.lam_field])
        return jets.contract(jets.stack_mul(w[:, :, None],
                                            self.coframe_can_stack), 1)

    @jets.field
    def omega_chart(self):
        """The distinguished 1-form in chart components, past the torsion
        gate."""
        self.lamf
        return jets.views(self.omega_stack, 1)

    @jets.field
    def domega_values(self):
        """(domega(E1,E2), domega(E1,E3), domega(E2,E3)) [..., 3], from
        omega_stack."""
        dom = d_form_values(self.omega_stack)
        E = self.E_chart
        return np.stack([jetalg.vec_vec(jetalg.vec_mat(E[..., i, :], dom),
                                        E[..., j, :])
                         for i, j in ((0, 1), (0, 2), (1, 2))], axis=-1)

    @jets.field
    def Fhat_field(self):
        """Fhat as a field, through the Gauss-route Blaschke tensor; for
        derivatives of Fhat.  Its value is read in _package_invariants."""
        lam2 = self.lamf * self.lamf
        return self.A_can_field[0][0] \
            + 0.5 * (self.Uf * self.Uf + self.Vf * self.Vf - lam2) \
            - self.covc[1, 0] / self.mu_field

    @jets.field
    def pattern_residual(self):
        Bv = self.data.B
        Q = np.array(jetalg.values(self.Qf))
        R = self.Rfv
        bv = np.array([R @ (Q[0, r] * Bv[0] + Q[1, r] * Bv[1]) @ R.T
                       for r in range(2)])
        mu = (bv[0, 0, 1] + bv[0, 1, 0] + bv[1, 0, 0] - bv[1, 1, 1]) / 4.0
        target = np.array(_pattern_matrices(0.0, 0.0, mu))
        return float(np.max(np.abs(bv - target)))


# The jet order the gates of the adapted frame read: the torsion reads covB,
# first partials of B, which reads second partials of the chart.
GATE_ORDER = 3


def frame_gates(ctx: MoebiusContext, pregauge=None, ltol: float = LTOL,
                tol: float = TOL, partial: bool = False):
    """The gates of the adapted frame at the points of ctx, in order, each
    at its first failing lane: an umbilic point, then a point that is not
    ideal within tol (both on the point pass of ctx.classical), then the
    kernel plane, then a torsion at most ltol or its rounding floor, unless
    partial.  They read the values of B, covB and the kernel line, so a
    context of GATE_ORDER decides them as one of JET_ORDER does, bit for
    bit, and they make no jet arithmetic of their own.  Returns the
    pregauge rotations M0 and Q0, the kernel plane, the torsion, its floor
    and the integrable mask."""
    cl = ctx.classical
    cl.umbilic_gate  # refuses at the first umbilic point
    require_ideal(*form_blocks(cl), cl.spec.ambient.c, tol, ctx.p)

    t = 0.0 if pregauge is None else float(pregauge)
    M0 = np.array([[math.cos(t), -math.sin(t), 0.0],
                   [math.sin(t), math.cos(t), 0.0],
                   [0.0, 0.0, 1.0]])
    Q0 = np.array([[math.cos(2 * t), -math.sin(2 * t)],
                   [math.sin(2 * t), math.cos(2 * t)]])
    plane = kernel_plane(jets.stack_values(_pregauged(
        jetalg.unfold(ctx.B_stack[:1], 2), M0, Q0), 3), ctx.p)
    # the torsion along the kernel line (turned_frame's E3 is a positive
    # multiple of plane.q), rotated back by the pregauge
    tor = _oriented_torsion(ctx.covB_values, ctx.B_values, plane.q @ M0)
    floor = TORSION_FLOOR * np.abs(np.stack(ctx.covB_terms, axis=-5)).max(
        axis=(-5, -4, -3, -2, -1))
    integrable = np.abs(tor) <= np.maximum(ltol, floor)
    if not partial:
        _refuse_integrable(tor, floor, integrable, ltol, ctx.p)
    return M0, Q0, plane, tor, floor, integrable


def _refuse_integrable(torsion, floor, integrable, ltol, pts) -> None:
    """The torsion refusal, at the first point whose torsion is at most ltol
    or its rounding floor; IntegrableDistribution is raised nowhere else."""
    l = jets.first_lane(integrable)
    if l is not None:
        tor, floor = (np.ravel(x)[l] for x in (torsion, floor))
        cutoff = f"{ltol:g}" if abs(tor) <= ltol \
            else f"its rounding floor {floor:.3e}"
        raise IntegrableDistribution(
            f"torsion {tor:.3e} below {cutoff} at {pts[l]}: the "
            "kernel distribution is integrable and the E3 sign is undefined",
            lane=l)


def probe_frame(spec: ImmersionSpec, p, ltol: float = LTOL,
                tol: float = TOL) -> None:
    """Point p's refusal by frame_gates, decided on one lane at GATE_ORDER:
    the probe of the invariants."""
    frame_gates(MoebiusContext(spec, p, order=GATE_ORDER), ltol=ltol, tol=tol)


# ---------------------------------------------------------------------------
# public types


@dataclass(frozen=True)
class WintgenInvariants:
    U: float
    V: float
    L: float
    G: float
    lam: float
    Fhat: float
    Ghat: float
    omega_coeffs: tuple
    domega: tuple
    theta12_coeffs: tuple
    Omega12_coeffs: tuple
    mu: float
    gauge: str
    omega_chart: tuple


def _package_invariants(cf: CanonicalFields) -> list:
    """The invariants at each point of the canonical fields, in order, from
    values read once for a chunk (one record for a point alone)."""
    val = jets.stack_values
    U, V, mu = (jets.value_of(f) for f in (cf.Uf, cf.Vf, cf.mu_field))
    om12 = val(cf.connection_stack[:, 0, 1], 1)
    Omega12 = np.stack([om12[..., 0] + U, om12[..., 1] + V, om12[..., 2]],
                       axis=-1)
    # normal connection in the residual-rotation normal form: the raw
    # coefficients depend on how the frame field twists, but theta + 2 Omega12
    # does not, and it is the triple the constant-coefficient examples quote
    theta_c = val(cf.theta_stack, 1) + 2.0 * Omega12
    if np.all(cf.integrable):
        lam = Fhat = Ghat = np.full(np.shape(U), np.nan)
        domega = omega_chart = np.full(np.shape(om12), np.nan)
    else:
        lam = jets.value_of(cf.lam_field)
        # Fhat and Ghat from the dN-route Blaschke tensor at the point
        A, c = cf.A_can, val(cf.covc_stack[:, 1:], 1)
        Fhat = A[..., 0, 0] + 0.5 * (U * U + V * V - lam * lam) - c[..., 0] / mu
        Ghat = A[..., 0, 1] - c[..., 1] / mu - lam * cf.L
        domega, omega_chart = cf.domega_values, val(cf.omega_stack, 1)
        if np.any(cf.integrable):  # partial fields: lambda undefined there
            lam, Fhat, Ghat = (np.where(cf.integrable, np.nan, x)
                               for x in (lam, Fhat, Ghat))
            domega, omega_chart = (np.where(cf.integrable[:, None], np.nan, x)
                                   for x in (domega, omega_chart))
    n = len(cf.ctx.p)
    rows = (zip(*(np.reshape(x, n).tolist()  # per lane: floats, then triples
                  for x in (U, V, cf.L, cf.G, lam, Fhat, Ghat, mu))),
            zip(*(map(tuple, np.reshape(x, (n, 3)).tolist())
                  for x in (domega, theta_c, Omega12, omega_chart))))
    return [WintgenInvariants(
        U=u, V=v, L=l, G=g, lam=la, Fhat=f, Ghat=gh, omega_coeffs=(-v, u, la),
        domega=dw, theta12_coeffs=th, Omega12_coeffs=om, mu=m,
        gauge=cf.gauge, omega_chart=oc)
        for (u, v, l, g, la, f, gh, m), (dw, th, om, oc) in zip(*rows)]


def sample_invariants(spec: ImmersionSpec, sample, gauge: str = "raw",
                      ltol: float = LTOL, tol: float = TOL) -> list:
    """The invariants at each point of a sample, run in chunks by
    moebius.map_chunks after probe_frame on point 0; each depends on its
    point alone."""
    def analyze(chunk, _start):
        return _package_invariants(CanonicalFields(
            MoebiusContext(spec, chunk), gauge=gauge, ltol=ltol, tol=tol))
    probe = functools.partial(probe_frame, spec, ltol=ltol, tol=tol)
    if len(sample):
        probe(sample[0])
    return map_chunks(analyze, sample, probe)


def invariants_uvlg(ctx: MoebiusContext, gauge: str = "raw",
                    ltol: float = LTOL, pregauge=None, partial: bool = False,
                    tol: float = TOL) -> WintgenInvariants:
    """The scalar invariants at the context's point; tol is the DDVV
    equality tolerance of the ideality gate."""
    return _package_invariants(CanonicalFields(
        ctx, gauge=gauge, pregauge=pregauge, ltol=ltol, partial=partial,
        tol=tol))[0]


# ---------------------------------------------------------------------------
# hat frame


def _hat_fields(cf: CanonicalFields, w):
    """eta_i = Y_i - w_i Y and Yhat = N - |w|^2 Y / 2 + sum_i w_i Y_i (jets)
    for the 1-form coefficients w."""
    Y = cf.ctx.Y
    eta = [[cf.Yi_can[i][m] - w[i] * Y[m] for m in range(7)] for i in range(3)]
    w2 = w[0] * w[0] + w[1] * w[1] + w[2] * w[2]
    Yhat = [cf.ctx.N[m] - 0.5 * w2 * Y[m]
            + jetalg.dot(w, [cf.Yi_can[i][m] for i in range(3)])
            for m in range(7)]
    return eta, Yhat


@dataclass(frozen=True)
class HatFrameData:
    eta: np.ndarray          # (3,7)
    Yhat: np.ndarray         # (7,)
    hat_coframe: np.ndarray  # [i][j] = hat-omega_i(E_j)
    Omega13: tuple
    Omega23: tuple
    lam: float


def hat_frame(cf: CanonicalFields, lam: float | None = None) -> HatFrameData:
    """The hat frame on the canonical fields, with the third 1-form
    coefficient lam in place of lambda when given."""
    lamf = cf.lamf if lam is None else float(lam)
    lam_val = jets.value_of(lamf)
    eta_f, Yhat_f = _hat_fields(cf, [-(cf.Vf), cf.Uf, lamf])
    eta_v = np.array(jetalg.values(eta_f))
    hat_co = eta_v @ LORENTZ @ frame_d_values(cf.E_chart,
                                              jets.stack(Yhat_f)).T
    return HatFrameData(
        eta=eta_v, Yhat=np.array(jetalg.values(Yhat_f)), hat_coframe=hat_co,
        Omega13=(lam_val, cf.L, 0.0), Omega23=(-cf.L, lam_val, 0.0),
        lam=lam_val)


# ---------------------------------------------------------------------------
# theorem-level verdicts: folds over per-point invariants


def _require_points(invs) -> None:
    """The empty-sample check of the folds: no verdict is defined on a
    sample with no points."""
    if len(invs) == 0:
        raise SchemaError("the sample has no points: a verdict needs one")


def _max_domega(invs) -> float:
    return max((abs(d) for inv in invs for d in inv.domega), default=0.0)


@dataclass(frozen=True)
class TheoremBVerdict:
    max_domega: float
    closed: bool
    Fhat_sign: str
    classification: str
    fhat_min: float
    fhat_max: float
    n_points: int


def theorem_b_verdict(invs, tol: float = TOL) -> TheoremBVerdict:
    """The space-form verdict from per-point invariants: the distinguished
    1-form is closed when every d(omega) component is below tol, and the
    sign of Fhat then names the space form."""
    _require_points(invs)
    max_domega = _max_domega(invs)
    closed = max_domega < tol
    arr = np.array([inv.Fhat for inv in invs], dtype=float)
    signs = (("positive", arr > tol), ("negative", arr < -tol),
             ("zero", np.abs(arr) <= tol))
    sign = next((name for name, holds in signs if np.all(holds)), "mixed")
    cls = "not_moebius_minimal" if not closed else {
        "positive": "sphere_minimal", "zero": "euclidean_minimal",
        "negative": "hyperbolic_minimal", "mixed": "inconclusive"}[sign]
    return TheoremBVerdict(
        max_domega=max_domega, closed=closed, Fhat_sign=sign,
        classification=cls, fhat_min=float(arr.min()),
        fhat_max=float(arr.max()), n_points=len(arr))


def classify_theorem_b(spec: ImmersionSpec, sample, tol: float = TOL,
                       gauge: str = "raw",
                       ltol: float = LTOL) -> TheoremBVerdict:
    """Closedness of the distinguished 1-form plus the sign of Fhat over a
    sample, combined into the space-form verdict.  tol is also the ideality
    gate's tolerance, as --tol is on the command line."""
    return theorem_b_verdict(
        sample_invariants(spec, sample, gauge=gauge, ltol=ltol, tol=tol), tol)


@dataclass(frozen=True)
class HopfReport:
    satisfied: bool
    max_G: float
    max_domega: float


def hopf_verdict(invs, tol: float = TOL) -> HopfReport:
    """The circle-lift criterion from per-point invariants: G = 0 and the
    distinguished 1-form closed, both below tol."""
    _require_points(invs)
    max_g = max((abs(inv.G) for inv in invs), default=0.0)
    max_dw = _max_domega(invs)
    return HopfReport(satisfied=bool(max_g < tol and max_dw < tol),
                      max_G=max_g, max_domega=max_dw)


def hopf_criterion(spec: ImmersionSpec, sample, tol: float = TOL,
                   gauge: str = "raw", ltol: float = LTOL) -> HopfReport:
    """Lift test: the squared-torus fibration recognizer max(|G|, |domega|).
    tol is also the ideality gate's tolerance, as --tol is on the command
    line."""
    return hopf_verdict(
        sample_invariants(spec, sample, gauge=gauge, ltol=ltol, tol=tol), tol)


# ---------------------------------------------------------------------------
# holomorphicity of the normal pair


def holomorphic_residual(cf: CanonicalFields) -> float:
    """Residual of d(xi1 - i xi2) = i mu (omega1 + i omega2)(eta1 + i eta2)
    + i theta12 (xi1 - i xi2), maximized over frame directions."""
    U = jets.value_of(cf.Uf)
    V = jets.value_of(cf.Vf)
    Yv = np.array(jetalg.values(cf.ctx.Y))
    Yi_v = np.array(jetalg.values(cf.Yi_can))
    eta_c = (Yi_v[0] + V * Yv) + 1j * (Yi_v[1] - U * Yv)
    xi1 = np.array(jetalg.values(cf.xi[0]))
    xi2 = np.array(jetalg.values(cf.xi[1]))
    xi_c = xi1 - 1j * xi2
    theta = jets.stack_values(cf.theta_stack, 1)
    d1, d2 = (frame_d_values(cf.E_chart, cf.xi_stack[:, r]) for r in range(2))
    worst = 0.0
    for k in range(3):
        lhs = d1[k] - 1j * d2[k]
        form = (1.0 if k == 0 else 0.0) + 1j * (1.0 if k == 1 else 0.0)
        rhs = 1j * cf.mu * form * eta_c + 1j * theta[k] * xi_c
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


# ---------------------------------------------------------------------------
# full structure matrix


STRUCTURE_LABELS = ("Y", "Yhat", "eta1", "eta2", "eta3", "xi1", "xi2")


def structure_matrix(cf: CanonicalFields):
    """Connection coefficients of the full adapted light-cone frame: entry
    [row][col] holds the three coframe coefficients of the col-component of
    d(row).  The normal pair is re-gauged so the (eta1, eta2) slot vanishes,
    which is the normal form the flat examples are quoted in."""
    eta_f, Yhat_f = _hat_fields(cf, cf.w_fields)
    Y = cf.ctx.Y
    rows = [Y, Yhat_f, eta_f[0], eta_f[1], eta_f[2], cf.xi[0], cf.xi[1]]
    Yv = np.array(jetalg.values(Y))
    Yhat_v = np.array(jetalg.values(Yhat_f))
    eta_v = [np.array(jetalg.values(e)) for e in eta_f]
    xi_v = [np.array(jetalg.values(x)) for x in cf.xi]

    duals = np.array([Yhat_v, Yv] + eta_v + xi_v)  # pairing partner per column
    out = np.array([duals @ LORENTZ
                    @ frame_d_values(cf.E_chart, jets.stack(row)).T
                    for row in rows])
    # residual normal rotation: absorb the (eta1, eta2) slot into the
    # normal-pair connection
    c = out[2, 3].copy()
    out[2, 3] = 0.0
    out[3, 2] = 0.0
    out[5, 6] += 2.0 * c
    out[6, 5] -= 2.0 * c
    return STRUCTURE_LABELS, out
