"""Adapted frames and scalar invariants of ideal points.

At an ideal point the trace-free conformal shape operators share a kernel
line and act on the orthogonal plane D as a fixed two-matrix pattern after a
rotation.  The pregauge (M0, Q0) and the normal pair Qf mix fields by
jetalg.lincomb, where an exact 0 adds no term and an exact 1 makes no
product, so the identity pregauge costs nothing.  CanonicalFields runs
classical.turned_frame, the one construction of that adapted frame, on
jets of the shape fields truncated to K - 3 (its readers take two partials
of the frame at most; the table "Jet orders" in the README gives the order
of every field), so that covariant
derivatives of the adapted components (the scalars U, V, L, G, lambda, Fhat,
Ghat and the 1-form omega) are derivatives of smooth fields whose values are
the frame built on floats.  Its connection forms are moebius.connection_forms
of its chart components.  E3 is oriented at each point on its own, by the
sign of the torsion L, and the verdicts are folds over the per-point
invariants of a sample.  CanonicalFields takes a MoebiusContext, which fixes
the points; its gates are frame_gates, the one implementation of each: it
refuses at an umbilic, then a non-ideal point (the gates of classical.py),
then where the torsion from the values of B, covB and the kernel line is at
most ltol or its rounding floor, all before it builds the turned frame or
snapshots the Moebius data.  They read third partials of the chart at most,
so probe_frame, the probe the invariants hand to map_chunks, decides them
on an order-3 context.  Functions of one point take the context
(invariants_uvlg) or the canonical fields (hat_frame, holomorphic_residual,
structure_matrix); the verdicts take a chart and a sample, run through
map_chunks (sample_invariants), and refuse an empty one.  Over a chunk,
each gate runs once on lane masks and refuses at the first failing lane;
what follows is computed once for the chunk with a leading lane axis, each
lane summing as its point alone, and the kernel flip and the E3 sign are
sign vectors on the jets.
"""

from __future__ import annotations

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
                      frame_scalar_d, map_chunks, moebius_data)

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
    """The shape fields with the normal pair mixed by Q0 and components in
    the tangent frame rotated by M0, by jetalg.lincomb: under the identity
    pregauge they are the shape fields themselves."""
    M0, Q0 = np.asarray(M0).tolist(), np.asarray(Q0).tolist()
    Bmix = [[[jetalg.lincomb([Q0[0][r], Q0[1][r]], lambda s: B[s][i][j])
              for j in range(3)] for i in range(3)] for r in range(2)]
    return [[[jetalg.lincomb([M0[i][a] * M0[j][b] for a in range(3)
                              for b in range(3)],
                             lambda k: Bmix[r][k // 3][k % 3])
              for j in range(3)] for i in range(3)] for r in range(2)]


class CanonicalFields:
    """The adapted frame at the ideal points of a chunk (those of ctx), as
    jet fields.  The kernel plane (plane), the Moebius snapshot (data), the
    torsion, its floor and the integrable flags, and Rfv, E_chart, A_can
    and domega_values carry a leading lane axis (a point alone has none).
    A chunk here is one of map_chunks.

    Rf rows are the adapted tangent frame in components of the raw
    (Gram-Schmidt) frame; Qf columns express the adapted normal sphere pair
    through the raw one.  All component fields (b, c, connection and their
    covariant derivatives) refer to this frame.  Construction runs
    frame_gates: it refuses at an umbilic point, then at a point that is
    not ideal within tol, both decided on the point pass of ctx.classical,
    then at the kernel plane, then where the torsion is at most ltol or its
    rounding floor, unless partial: partial fields are marked integrable
    and refuse at lamf instead.  Past the gates it builds the turned frame
    (classical.turned_frame) once, on the pregauged shape fields.
    """

    def __init__(self, ctx: MoebiusContext, gauge: str = "raw", pregauge=None,
                 ltol: float = LTOL, partial: bool = False, tol: float = TOL):
        if gauge not in ("raw", "V0"):
            raise ValueError(f"unknown gauge {gauge!r}")
        self.ctx, self.gauge, self.ltol = ctx, gauge, float(ltol)
        M0, Q0, self.plane, self.torsion, self.floor, self.integrable = \
            frame_gates(ctx, pregauge, self.ltol, tol, partial)
        # the frame's readers take two partials of it: B at order K - 3
        B = jetalg.truncate(ctx.B, ctx.classical.order - 3)
        rows, self.mu_field0 = turned_frame(_pregauged(B, M0, Q0), self.plane)
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
        self._b = {}  # adapted-frame B components, filled by b()

    # -- gauge refinement -----------------------------------------------------

    def _apply_v0(self):
        """Residual paired rotation making the second component of the
        adapted 1-form vanish, with the first one nonnegative; the lanes
        already in the reduced form keep their rows of Rf and Qf."""
        cU = self._contract_c(0, 0)
        cV = self._contract_c(0, 1)
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

    def _contract_c(self, r, i):
        """C paired with the adapted normal r and tangent i (jet)."""
        return self._qmix(r, lambda s: jetalg.dot(self.Rf[i], self.ctx.C[s]))

    # -- frame derivative helpers ----------------------------------------------

    @jets.field
    def frame_chart(self):
        """Rows: the adapted frame vectors in chart components (jets).  EC is
        lower triangular, so E_j has no d/du_a component for a > j."""
        EC = self.ctx.EC
        return [[jetalg.dot(self.Rf[i][a:], [EC[j][a] for j in range(a, 3)])
                 for a in range(3)] for i in range(3)]

    # -- component fields --------------------------------------------------------

    @jets.field
    def Rfv(self):
        return jetalg.value_array(self.Rf)

    @jets.field
    def E_chart(self):
        return jetalg.value_array(self.frame_chart)

    def _qmix(self, r, term):
        """term(s) mixed into the adapted normal r by Qf (jetalg.lincomb)."""
        return jetalg.lincomb([self.Qf[0][r], self.Qf[1][r]], term)

    @jets.field
    def xi(self):
        xi = self.ctx.xi
        return [[self._qmix(r, lambda s: xi[s][m]) for m in range(7)]
                for r in range(2)]

    @jets.field
    def _bmix(self):
        """The shape fields with the normal pair mixed by Qf (raw tangent
        components)."""
        B = self.ctx.B
        return [[[self._qmix(r, lambda s: B[s][i][j]) for j in range(3)]
                 for i in range(3)] for r in range(2)]

    def b(self, r, i, j):
        """B^r_ij in the adapted frame (jet); built once per unordered i, j."""
        key = (r, min(i, j), max(i, j))
        if key not in self._b:
            self._b[key] = jetalg.quadform(self.Rf[i], self._bmix[r], self.Rf[j])
        return self._b[key]

    @jets.field
    def cfield(self):
        return [[self._contract_c(r, i) for i in range(3)] for r in range(2)]

    @jets.field
    def theta(self):
        """theta_12 of the adapted sphere pair on the adapted frame."""
        tc = self.theta_chart
        return [jetalg.dot(self.frame_chart[k], tc) for k in range(3)]

    @jets.field
    def theta_chart(self):
        """Normal connection of the adapted sphere pair in chart components."""
        return connection_chart(*(jets.stack(x) for x in self.xi))

    def d_form_on(self, chart_form, i, j):
        """Exterior derivative of a chart 1-form (jets), evaluated on adapted
        frame vectors i, j (a value)."""
        return float(self.E_chart[i] @ d_form_values(chart_form)
                     @ self.E_chart[j])

    @jets.field
    def omega_can(self):
        """omega[i][j][k]: connection form of the adapted frame on its own
        vectors (moebius.connection_forms on frame_chart)."""
        return connection_forms(self.frame_chart, self.ctx.g, self.ctx.Gamma)

    # Only a few components of the covariant derivatives are read, so they
    # are built one at a time; omega_can[l][l] vanishes and is skipped.

    def covb(self, r, i, j, k):
        """B^r_{ij,k} in the adapted frame (jet)."""
        s = 1 - r
        sgn = 1.0 if s == 0 else -1.0  # theta_sr relative to theta_12
        om = self.omega_can
        acc = frame_scalar_d(self.frame_chart, self.b(r, i, j), k)
        for l in range(3):
            if l != j:
                acc = acc + self.b(r, i, l) * om[l][j][k]
            if l != i:
                acc = acc + self.b(r, l, j) * om[l][i][k]
        return acc + self.b(s, i, j) * (sgn * self.theta[k])

    @jets.field
    def covc(self):
        """C^0_{i,j} in the adapted frame (jets), keyed (i, j), for the
        components G, Fhat and Ghat read; each C component's chart partials
        are taken once."""
        c, om = self.cfield, self.omega_can
        out = {}
        for i, js in ((0, (0,)), (1, (0, 1))):
            dc = [jets.derivative(c[0][i], a) for a in (1, 2, 3)]
            for j in js:
                acc = jetalg.dot(self.frame_chart[j], dc)
                for k in range(3):
                    if k != i:
                        acc = acc + c[0][k] * om[k][i][j]
                out[i, j] = acc + c[1][i] * (-1.0 * self.theta[j])  # theta_10
        return out

    @jets.field
    def Yi_can(self):
        Yi = self.ctx.Yi
        return [[jetalg.dot(self.Rf[i], [Yi[j][m] for j in range(3)])
                 for m in range(7)] for i in range(3)]

    @jets.field
    def coframe_can(self):
        """Rows: the adapted coframe in chart components (jets)."""
        co = self.ctx.coframe  # upper triangular: co[j][a] = 0 for j > a
        return [[jetalg.dot(self.Rf[i][:a + 1],
                            [co[j][a] for j in range(a + 1)])
                 for a in range(3)] for i in range(3)]

    @jets.field
    def A_can(self):
        return self.Rfv @ self.data.A @ np.swapaxes(self.Rfv, -1, -2)

    @jets.field
    def A_can_field(self):
        return [[jetalg.quadform(self.Rf[i], self.ctx.A_gauss, self.Rf[j])
                 for j in range(3)] for i in range(3)]

    # -- named scalars -------------------------------------------------------------

    @jets.field
    def mu_field(self):
        return self.b(0, 0, 1)

    @jets.field
    def mu(self):
        return jets.value_of(self.mu_field)

    @jets.field
    def Uf(self):
        return -(self.cfield[0][0] / self.mu_field)

    @jets.field
    def Vf(self):
        return self.cfield[0][1] / self.mu_field

    @jets.field
    def Lf(self):
        return -(self.covb(0, 0, 0, 2) / self.mu_field)

    @jets.field
    def Gf(self):
        return (self.covc[0, 0] - self.covc[1, 1]) / (2.0 * self.mu_field)

    @jets.field
    def L(self):
        return jets.value_of(self.Lf)

    @jets.field
    def G(self):
        return jets.value_of(self.Gf)

    @jets.field
    def lamf(self):
        """G/L, past the torsion gate (partial fields refuse here)."""
        _refuse_integrable(self.torsion, self.floor, self.integrable,
                           self.ltol, self.ctx.p)
        return self.Gf / self.Lf

    @jets.field
    def w_fields(self):
        return [-(self.Vf), self.Uf, self.lamf]

    @jets.field
    def omega_chart(self):
        """The distinguished 1-form in chart components (jets)."""
        w = self.w_fields
        co = self.coframe_can
        return [jetalg.dot(w, [co[i][a] for i in range(3)]) for a in range(3)]

    @jets.field
    def domega_values(self):
        """(domega(E1,E2), domega(E1,E3), domega(E2,E3)) [..., 3]."""
        dom = d_form_values(self.omega_chart)
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
    plane = kernel_plane(jetalg.value_array(
        _pregauged(jetalg.values(ctx.B), M0, Q0)), ctx.p)
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
    the probe of map_chunks for the invariants."""
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
    val = jetalg.value_array
    U, V, mu = (jets.value_of(f) for f in (cf.Uf, cf.Vf, cf.mu_field))
    om12 = val(cf.omega_can[0][1])
    Omega12 = np.stack([om12[..., 0] + U, om12[..., 1] + V, om12[..., 2]],
                       axis=-1)
    # normal connection in the residual-rotation normal form: the raw
    # coefficients depend on how the frame field twists, but theta + 2 Omega12
    # does not, and it is the triple the constant-coefficient examples quote
    theta_c = val(cf.theta) + 2.0 * Omega12
    if np.all(cf.integrable):
        lam = Fhat = Ghat = np.full(np.shape(U), np.nan)
        domega = omega_chart = np.full(np.shape(om12), np.nan)
    else:
        lam = jets.value_of(cf.lamf)
        # Fhat and Ghat from the dN-route Blaschke tensor at the point
        A, c = cf.A_can, val([cf.covc[1, 0], cf.covc[1, 1]])
        Fhat = A[..., 0, 0] + 0.5 * (U * U + V * V - lam * lam) - c[..., 0] / mu
        Ghat = A[..., 0, 1] - c[..., 1] / mu - lam * cf.L
        domega, omega_chart = cf.domega_values, val(cf.omega_chart)
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
    moebius.map_chunks; each depends on its point alone."""
    def analyze(chunk, _start):
        return _package_invariants(CanonicalFields(
            MoebiusContext(spec, chunk), gauge=gauge, ltol=ltol, tol=tol))
    return map_chunks(analyze, sample,
                      lambda p: probe_frame(spec, p, ltol=ltol, tol=tol))


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
    hat_co = eta_v @ LORENTZ @ frame_d_values(cf.E_chart, Yhat_f).T
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
    theta = [jets.value_of(t) for t in cf.theta]
    d1 = frame_d_values(cf.E_chart, cf.xi[0])
    d2 = frame_d_values(cf.E_chart, cf.xi[1])
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
    out = np.array([duals @ LORENTZ @ frame_d_values(cf.E_chart, row).T
                    for row in rows])
    # residual normal rotation: absorb the (eta1, eta2) slot into the
    # normal-pair connection
    c = out[2, 3].copy()
    out[2, 3] = 0.0
    out[3, 2] = 0.0
    out[5, 6] += 2.0 * c
    out[6, 5] -= 2.0 * c
    return STRUCTURE_LABELS, out
