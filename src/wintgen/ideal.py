"""Adapted frames and scalar invariants of ideal points.

At an ideal point the trace-free conformal shape operators share a kernel
line and act on the orthogonal plane D as a fixed two-matrix pattern after a
rotation.  CanonicalFields runs classical.turned_frame, the one construction
of that adapted frame, on jets of the shape fields, so that covariant
derivatives of the adapted components (the scalars U, V, L, G, lambda, Fhat,
Ghat and the 1-form omega) are derivatives of smooth fields whose values are
the frame built on floats.  Its connection forms are moebius.connection_forms
of its chart components.  E3 is oriented at each point on its own, by the
sign of the torsion L, and the verdicts are folds over the per-point
invariants of a sample.  CanonicalFields takes a MoebiusContext, which fixes
the point; it refuses at an umbilic, then a non-ideal point (the gates of
classical.py), then where the torsion from the values of B, covB and the
frame is at most ltol or its rounding floor, all before it snapshots the
Moebius data.  Functions of one point take the context (invariants_uvlg) or
the canonical fields (hat_frame, holomorphic_residual, structure_matrix);
the verdicts take a chart and a sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import jetalg, jets
from .classical import (LTOL, TOL, _pattern_matrices, kernel_plane,
                        require_ideal, turned_frame)
from .errors import IntegrableDistribution
from .immersion import ImmersionSpec
from .moebius import (LORENTZ, MoebiusContext, connection_chart,
                      connection_forms, d_form_values, frame_d_values,
                      frame_scalar_d, moebius_data)

SQRT6 = math.sqrt(6.0)

# The torsion's rounding floor is this times the largest term that covB
# sums (ctx.covB_terms; |B|^2 = 2/3); at or below it the sign is noise.
TORSION_FLOOR = 128 * np.finfo(float).eps


def _oriented_torsion(covB, Bv, E1, E2, E3):
    """The kernel-direction torsion scalar, computed gauge-independently:
    (3/2) sum_r tr((nabla_{E3} B^r)^T J B^r) with J the rotation by +pi/2
    of the plane oriented by (E1, E2).  Odd in E3, even under the residual
    frame freedom, so it fixes the E3 sign.  covB and Bv are values in the
    raw frame."""
    J = np.outer(E2, E1) - np.outer(E1, E2)
    total = 0.0
    for r in range(2):
        d3B = covB[r] @ E3
        total += float(np.sum(d3B * (J @ Bv[r])))
    return 1.5 * total


def _pregauged(B, M0, Q0):
    """The shape fields with the normal pair mixed by Q0 and components in
    the tangent frame rotated by M0."""
    Bmix = [[[sum_jets([Q0[s][r] * B[s][i][j] for s in range(2)
                        if Q0[s][r] != 0.0])
              for j in range(3)] for i in range(3)] for r in range(2)]
    return [[[sum_jets([(M0[i][a] * M0[j][b]) * Bmix[r][a][b]
                        for a in range(3) for b in range(3)
                        if M0[i][a] != 0.0 and M0[j][b] != 0.0])
              for j in range(3)] for i in range(3)] for r in range(2)]


class CanonicalFields:
    """The adapted frame at one ideal point, as jet fields.

    Rf rows are the adapted tangent frame in components of the raw
    (Gram-Schmidt) frame; Qf columns express the adapted normal sphere pair
    through the raw one.  All component fields (b, c, connection and their
    covariant derivatives) refer to this frame.  Construction refuses at an
    umbilic point, then at a point that is not ideal within tol, both
    decided on the point pass of ctx.classical, then where the torsion is
    at most ltol or its rounding floor, unless partial: partial fields are
    marked integrable and refuse at lamf instead.
    """

    def __init__(self, ctx: MoebiusContext, gauge: str = "raw", pregauge=None,
                 ltol: float = LTOL, partial: bool = False, tol: float = TOL):
        if gauge not in ("raw", "V0"):
            raise ValueError(f"unknown gauge {gauge!r}")
        self.ctx = ctx
        self.gauge = gauge
        self.ltol = float(ltol)

        cl = ctx.classical
        cl.require_not_umbilic()
        require_ideal(cl.point.h, cl.point.H, cl.spec.ambient.c, tol,
                      where=f" at {ctx.p}")

        t = 0.0 if pregauge is None else float(pregauge)
        M0 = np.array([[math.cos(t), -math.sin(t), 0.0],
                       [math.sin(t), math.cos(t), 0.0],
                       [0.0, 0.0, 1.0]])
        Q0 = np.array([[math.cos(2 * t), -math.sin(2 * t)],
                       [math.sin(2 * t), math.cos(2 * t)]])
        Bw = _pregauged(ctx.B, M0, Q0)
        plane = kernel_plane(np.array(jetalg.values(Bw)), where=f" at {ctx.p}")
        rows, self.mu_field0 = turned_frame(Bw, plane)  # |z1|, invariant

        # E3 sign: the torsion is positive (it is odd in E3); below the
        # cutoff it is undefined and E3 stays as the kernel sign left it
        E = np.array(jetalg.values(rows)) @ M0
        self.torsion = _oriented_torsion(ctx.covB_values, ctx.B_values, *E)
        self.floor = TORSION_FLOOR * float(np.max(np.abs(ctx.covB_terms)))
        self.integrable = abs(self.torsion) <= max(self.ltol, self.floor)
        if not partial:
            self.require_torsion()
        if not self.integrable and self.torsion < 0.0:
            rows[2] = [-c for c in rows[2]]
        self.data = moebius_data(ctx)

        self.Rf = [[sum_jets([R[k] * M0[k][j] for k in range(3)
                              if M0[k][j] != 0.0]) for j in range(3)]
                   for R in rows]
        self.Qf = [[Q0[0][0], plane.flip * Q0[0][1]],
                   [Q0[1][0], plane.flip * Q0[1][1]]]

        if gauge == "V0":
            self._apply_v0()
        self._b = {}  # adapted-frame B components, filled by b()
        self._covc = {}  # adapted-frame covariant derivatives of C, by covc()

    # -- gauge refinement -----------------------------------------------------

    def _apply_v0(self):
        """Residual paired rotation making the second component of the
        adapted 1-form vanish, with the first one nonnegative."""
        cU = self._contract_c(0, 0)
        cV = self._contract_c(0, 1)
        Uf = -(cU / self.mu_field0)
        Vf = cV / self.mu_field0
        h = math.hypot(jets.value_of(Uf), jets.value_of(Vf))
        if h <= 1e-8:
            return  # already in the reduced form
        hf = jets.sqrt(Uf * Uf + Vf * Vf)
        cst = Uf / hf
        sst = -(Vf / hf)
        Rf = self.Rf
        newE1 = [cst * Rf[0][j] - sst * Rf[1][j] for j in range(3)]
        newE2 = [sst * Rf[0][j] + cst * Rf[1][j] for j in range(3)]
        self.Rf = [newE1, newE2, Rf[2]]
        c2 = cst * cst - sst * sst
        s2 = 2.0 * cst * sst
        K = [[c2, -(s2)], [s2, c2]]
        Qf = self.Qf
        self.Qf = [[Qf[s][0] * K[0][r] + Qf[s][1] * K[1][r] for r in range(2)]
                   for s in range(2)]

    def _contract_c(self, r, i):
        """C paired with the adapted normal r and tangent i (jet)."""
        return sum_jets(self.Qf[s][r] * jetalg.dot(self.Rf[i], self.ctx.C[s])
                        for s in range(2))

    # -- frame derivative helpers ----------------------------------------------

    @cached_property
    def frame_chart(self):
        """Rows: the adapted frame vectors in chart components (jets).  EC is
        lower triangular, so E_j has no d/du_a component for a > j."""
        EC = self.ctx.EC
        return [[sum_jets([self.Rf[i][j] * EC[j][a] for j in range(a, 3)])
                 for a in range(3)] for i in range(3)]

    # -- component fields --------------------------------------------------------

    @cached_property
    def Rfv(self):
        return np.array(jetalg.values(self.Rf))

    @cached_property
    def E_chart(self):
        return np.array(jetalg.values(self.frame_chart))

    @cached_property
    def xi(self):
        xi = self.ctx.xi
        return [[sum_jets(self.Qf[s][r] * xi[s][m] for s in range(2))
                 for m in range(7)] for r in range(2)]

    @cached_property
    def _bmix(self):
        """The shape fields with the normal pair mixed by Qf (raw tangent
        components)."""
        B = self.ctx.B
        return [[[self.Qf[0][r] * B[0][i][j] + self.Qf[1][r] * B[1][i][j]
                  for j in range(3)] for i in range(3)] for r in range(2)]

    def b(self, r, i, j):
        """B^r_ij in the adapted frame (jet); built once per unordered i, j."""
        key = (r, min(i, j), max(i, j))
        if key not in self._b:
            self._b[key] = jetalg.quadform(self.Rf[i], self._bmix[r], self.Rf[j])
        return self._b[key]

    @cached_property
    def cfield(self):
        return [[self._contract_c(r, i) for i in range(3)] for r in range(2)]

    @cached_property
    def theta(self):
        """theta_12 of the adapted sphere pair on the adapted frame."""
        tc = self.theta_chart
        return [sum_jets([self.frame_chart[k][a] * tc[a] for a in range(3)])
                for k in range(3)]

    @cached_property
    def theta_chart(self):
        """Normal connection of the adapted sphere pair in chart components."""
        return connection_chart(self.xi[0], self.xi[1])

    def d_form_on(self, chart_form, i, j):
        """Exterior derivative of a chart 1-form (jets), evaluated on adapted
        frame vectors i, j (a value)."""
        return float(self.E_chart[i] @ d_form_values(chart_form)
                     @ self.E_chart[j])

    @cached_property
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

    def covc(self, r, i, j):
        """C^r_{i,j} in the adapted frame (jet); built once per component."""
        key = (r, i, j)
        if key not in self._covc:
            s = 1 - r
            sgn = 1.0 if s == 0 else -1.0
            c = self.cfield
            acc = frame_scalar_d(self.frame_chart, c[r][i], j)
            for k in range(3):
                if k != i:
                    acc = acc + c[r][k] * self.omega_can[k][i][j]
            self._covc[key] = acc + c[s][i] * (sgn * self.theta[j])
        return self._covc[key]

    @cached_property
    def Yi_can(self):
        Yi = self.ctx.Yi
        return [[sum_jets(self.Rf[i][j] * Yi[j][m] for j in range(3))
                 for m in range(7)] for i in range(3)]

    @cached_property
    def coframe_can(self):
        """Rows: the adapted coframe in chart components (jets)."""
        return [[sum_jets([self.Rf[i][j] * self.ctx.coframe[j][a]
                           for j in range(3)]) for a in range(3)]
                for i in range(3)]

    @cached_property
    def A_can(self):
        return self.Rfv @ self.data.A @ self.Rfv.T

    @cached_property
    def A_can_field(self):
        return [[jetalg.quadform(self.Rf[i], self.ctx.A_gauss, self.Rf[j])
                 for j in range(3)] for i in range(3)]

    # -- named scalars -------------------------------------------------------------

    @cached_property
    def mu_field(self):
        return self.b(0, 0, 1)

    @cached_property
    def mu(self):
        return jets.value_of(self.mu_field)

    @cached_property
    def Uf(self):
        return -(self.cfield[0][0] / self.mu_field)

    @cached_property
    def Vf(self):
        return self.cfield[0][1] / self.mu_field

    @cached_property
    def Lf(self):
        return -(self.covb(0, 0, 0, 2) / self.mu_field)

    @cached_property
    def Gf(self):
        return (self.covc(0, 0, 0) - self.covc(0, 1, 1)) / (2.0 * self.mu_field)

    @cached_property
    def L(self):
        return jets.value_of(self.Lf)

    @cached_property
    def G(self):
        return jets.value_of(self.Gf)

    def require_torsion(self):
        if self.integrable:
            cutoff = f"{self.ltol:g}" if abs(self.torsion) <= self.ltol \
                else f"its rounding floor {self.floor:.3e}"
            raise IntegrableDistribution(
                f"torsion {self.torsion:.3e} below {cutoff} at "
                f"{self.ctx.p}: the kernel distribution is integrable and "
                "the E3 sign is undefined")

    @cached_property
    def lamf(self):
        self.require_torsion()
        return self.Gf / self.Lf

    @cached_property
    def w_fields(self):
        return [-(self.Vf), self.Uf, self.lamf]

    @cached_property
    def omega_chart(self):
        """The distinguished 1-form in chart components (jets)."""
        w = self.w_fields
        co = self.coframe_can
        return [sum_jets([w[i] * co[i][a] for i in range(3)]) for a in range(3)]

    @cached_property
    def domega_values(self):
        """(domega(E1,E2), domega(E1,E3), domega(E2,E3))."""
        dom = d_form_values(self.omega_chart)
        E = self.E_chart
        pairs = [(0, 1), (0, 2), (1, 2)]
        return tuple(float(E[i] @ dom @ E[j]) for i, j in pairs)

    @cached_property
    def Fhat_field(self):
        """Fhat as a field, through the Gauss-route Blaschke tensor; for
        derivatives of Fhat.  Its value is read in _package_invariants."""
        lam2 = self.lamf * self.lamf
        return self.A_can_field[0][0] \
            + 0.5 * (self.Uf * self.Uf + self.Vf * self.Vf - lam2) \
            - self.covc(0, 1, 0) / self.mu_field

    @cached_property
    def pattern_residual(self):
        Bv = self.data.B
        Q = np.array(jetalg.values(self.Qf))
        R = self.Rfv
        bv = np.array([R @ (Q[0, r] * Bv[0] + Q[1, r] * Bv[1]) @ R.T
                       for r in range(2)])
        mu = (bv[0, 0, 1] + bv[0, 1, 0] + bv[1, 0, 0] - bv[1, 1, 1]) / 4.0
        target = np.array(_pattern_matrices(0.0, 0.0, mu))
        return float(np.max(np.abs(bv - target)))


def sum_jets(terms):
    acc = None
    for t in terms:
        acc = t if acc is None else acc + t
    return acc


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


def _package_invariants(cf: CanonicalFields) -> WintgenInvariants:
    U = jets.value_of(cf.Uf)
    V = jets.value_of(cf.Vf)
    mu = cf.mu
    om12 = tuple(jets.value_of(cf.omega_can[0][1][k]) for k in range(3))
    Omega12 = (om12[0] + U, om12[1] + V, om12[2])
    # normal connection in the residual-rotation normal form: the raw
    # coefficients depend on how the frame field twists, but theta + 2 Omega12
    # does not, and it is the triple the constant-coefficient examples quote
    theta_c = tuple(jets.value_of(cf.theta[k]) + 2.0 * Omega12[k]
                    for k in range(3))
    if cf.integrable:
        nan = float("nan")
        return WintgenInvariants(
            U=U, V=V, L=cf.L, G=cf.G, lam=nan, Fhat=nan, Ghat=nan,
            omega_coeffs=(-V, U, nan), domega=(nan, nan, nan),
            theta12_coeffs=theta_c, Omega12_coeffs=Omega12, mu=mu,
            gauge=cf.gauge, omega_chart=(nan, nan, nan))
    lam = jets.value_of(cf.lamf)
    # Fhat and Ghat from the dN-route Blaschke tensor at the point
    Fhat = cf.A_can[0, 0] + 0.5 * (U * U + V * V - lam * lam) \
        - jets.value_of(cf.covc(0, 1, 0)) / mu
    Ghat = cf.A_can[0, 1] - jets.value_of(cf.covc(0, 1, 1)) / mu - lam * cf.L
    return WintgenInvariants(
        U=U, V=V, L=cf.L, G=cf.G, lam=lam, Fhat=Fhat, Ghat=Ghat,
        omega_coeffs=(-V, U, lam), domega=cf.domega_values,
        theta12_coeffs=theta_c, Omega12_coeffs=Omega12, mu=mu, gauge=cf.gauge,
        omega_chart=tuple(jets.value_of(c) for c in cf.omega_chart))


def invariants_uvlg(ctx: MoebiusContext, gauge: str = "raw",
                    ltol: float = LTOL, pregauge=None, partial: bool = False,
                    tol: float = TOL) -> WintgenInvariants:
    """The scalar invariants at the context's point; tol is the DDVV
    equality tolerance of the ideality gate."""
    return _package_invariants(CanonicalFields(
        ctx, gauge=gauge, pregauge=pregauge, ltol=ltol, partial=partial,
        tol=tol))


# ---------------------------------------------------------------------------
# hat frame


def _hat_fields(cf: CanonicalFields, w):
    """eta_i = Y_i - w_i Y and Yhat = N - |w|^2 Y / 2 + sum_i w_i Y_i (jets)
    for the 1-form coefficients w."""
    Y = cf.ctx.Y
    eta = [[cf.Yi_can[i][m] - w[i] * Y[m] for m in range(7)] for i in range(3)]
    w2 = w[0] * w[0] + w[1] * w[1] + w[2] * w[2]
    Yhat = [cf.ctx.N[m] - 0.5 * w2 * Y[m]
            + sum_jets([w[i] * cf.Yi_can[i][m] for i in range(3)])
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
    max_domega = _max_domega(invs)
    closed = max_domega < tol
    arr = np.array([inv.Fhat for inv in invs], dtype=float)
    if np.all(arr > tol):
        sign = "positive"
    elif np.all(arr < -tol):
        sign = "negative"
    elif np.all(np.abs(arr) <= tol):
        sign = "zero"
    else:
        sign = "mixed"
    if not closed:
        cls = "not_moebius_minimal"
    elif sign == "mixed":
        cls = "inconclusive"
    else:
        cls = {"positive": "sphere_minimal", "zero": "euclidean_minimal",
               "negative": "hyperbolic_minimal"}[sign]
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
        [invariants_uvlg(MoebiusContext(spec, p), gauge=gauge, ltol=ltol,
                         tol=tol) for p in sample], tol)


@dataclass(frozen=True)
class HopfReport:
    satisfied: bool
    max_G: float
    max_domega: float


def hopf_verdict(invs, tol: float = TOL) -> HopfReport:
    """The circle-lift criterion from per-point invariants: G = 0 and the
    distinguished 1-form closed, both below tol."""
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
        [invariants_uvlg(MoebiusContext(spec, p), gauge=gauge, ltol=ltol,
                         tol=tol) for p in sample], tol)


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
