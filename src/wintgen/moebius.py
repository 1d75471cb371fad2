"""The light-cone apparatus: canonical lift, conformal metric, frames in
Lorentz R^7_1, the tensors A, B, C, connection forms, covariant derivatives,
and the integrability residuals.

Everything lives on the lanes of a chunk of points (map_chunks; one point
is a chunk of one), as jets in a MoebiusContext whose chart jet is built at
JET_ORDER (only the probe of the invariant commands builds one at order 3,
for its gates), each field at the order its readers use: Y, g and B at
K - 2, g^-1 and Gamma at K - 3 (the table "Jet orders" in the README).  At
K = 3, where the gates read only the values of Gamma, Gamma_values comes
from the same formulas on the values and first partials of g, with no
order-0 jet; g and its partials are built once per index pair and
mirrored.
map_chunks is the chunk loop of every analysis command, ddvv's order-2
ClassicalContexts included, and its docstring states the one rule it keeps
for every point.
The ambient model supplies the light-cone lift and its differential, so Y
and the mean curvature spheres xi have one formula for the three space
forms.  Functions of the points take the context:
integrability_residuals(ctx) reads its values and returns one record per
point, and moebius_data(ctx) snapshots its constant terms into MoebiusData.
A quantity whose value at the point is all that is read is computed in numpy
from the values and first partials of the jets it derives from, not built as
a jet field: E_i of a field (Y_i, E_i(N)), theta_12, the connection forms
omega of the frame E, the Blaschke tensor via dN, the Riemann tensor of g,
and the covariant derivatives of B, C and A.  These are computed once per
chunk, with a leading lane axis; each contraction is one np.einsum or a
stacked np.matmul over the lane axis, and the tier-1 lane tests check that
each lane equals its point alone bit for bit.  Only the
Ricci tensor, and with it the Gauss-route A, stays a jet field, because
derivatives of A are read.
connection_forms is the one construction of a frame's connection forms as
jets, at the order of the frame's first partials; the adapted frame of
ideal.py uses it.
Index conventions follow classical.py, plus capital E_i for the frame
orthonormal in the conformal metric g = rho^2 dx.dx.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jetalg, jets
from .classical import ClassicalContext
from .errors import ChartBlowUp, NotLorentz, Refusal, WintgenError
from .gallery import check_lorentz
from .immersion import SPHERE, ImmersionSpec

ldot = jetalg.lorentz_dot  # 7-component (-,+,...,+) inner product
LORENTZ = np.diag([-1.0] + [1.0] * 6)  # the same form as a matrix, for values


# The one jet order of this layer: the Blaschke tensor reads E_i(N), fifth
# partials of the chart (rho in Y reads 2, N takes 2 more, E_i one more).
JET_ORDER = 5


def frame_scalar_d(EC, f, k):
    """E_k(f) for a scalar jet f, frame rows EC in chart components."""
    return jetalg.dot(EC[k], [jets.derivative(f, a) for a in (1, 2, 3)])


def frame_vector_d(EC, vec, k):
    return [frame_scalar_d(EC, comp, k) for comp in vec]


def connection_forms(E, g, Gamma):
    """omega[i][j][k] = omega_ij(E_k) = g(nabla_{E_k} E_i, E_j) as jets, for
    a g-orthonormal frame with rows E[i] in chart components and the
    Christoffel symbols Gamma[a][b][c] = Gamma^a_bc of g.  Built for j < i
    and negated across the zero diagonal, at the order of the frame's first
    partials: g, Gamma and the frame are truncated to it before the dots,
    which leaves their low coefficients as they were."""
    dE = [[[jets.derivative(E[i][a], b + 1) for b in range(3)]
           for a in range(3)] for i in range(1, 3)]
    E, g, Gamma = (jetalg.truncate(x, dE[0][0][0].order)
                   for x in (E, g, Gamma))
    # E_j lowered by g, as a chart 1-form
    low = [[jetalg.dot(g[a], E[j]) for a in range(3)] for j in range(2)]
    out = [[[None] * 3 for _ in range(3)] for _ in range(3)]
    for i in range(1, 3):
        # D[a][b]: chart component a of nabla_{d/du_b} E_i
        D = [[dE[i - 1][a][b] + jetalg.dot(Gamma[a][b], E[i])
              for b in range(3)] for a in range(3)]
        for j in range(i):
            # S[b] = g(nabla_{d/du_b} E_i, E_j)
            S = [jetalg.dot(low[j], [D[a][b] for a in range(3)])
                 for b in range(3)]
            for k in range(3):
                acc = jetalg.dot(E[k], S)
                out[i][j][k] = acc
                out[j][i][k] = -acc
    zero = 0.0 * out[1][0][0]
    for i in range(3):
        out[i][i] = [zero] * 3
    return out


def _christoffel(ginv, dg):
    """Gamma[c][a][b] = (1/2) g^cd (d_a g_bd + d_b g_ad - d_d g_ab), from
    g^-1 and dg[a][b][d] = d_d g_ab, jets or numbers."""
    return [jetalg.symmetric3(lambda a, b: 0.5 * jetalg.dot(ginv[c], [
        dg[b][d][a] + dg[a][d][b] - dg[a][b][d] for d in range(3)]))
        for c in range(3)]


def connection_chart(x, y):
    """Chart components t_a = <d_a x, y> of the 1-form <dx, y>, for two
    7-component jet vectors (the normal connection of a sphere pair)."""
    return [ldot([jets.derivative(c, a + 1) for c in x], y) for a in range(3)]


def frame_d_values(E, vec) -> np.ndarray:
    """[i][m] = E_i(vec[m]) at the point, for frame rows E (values, chart
    components) and a list of jets vec, from the chart first partials."""
    return E @ np.swapaxes(jetalg.gradients(vec), -1, -2)


def d_form_values(chart_form) -> np.ndarray:
    """[a][b] = (d phi)(d/du_a, d/du_b) at the point, for a 1-form given by
    its chart components (3 jets)."""
    g = jetalg.gradients(chart_form)  # g[b][a] = d phi_b / du_a
    return np.swapaxes(g, -1, -2) - g


class MoebiusContext:
    """Lazy conformal-invariant jets at the points of a chunk (p a list of
    points, or one point), the chart jet at order K = JET_ORDER and the rest
    lower (README, "Jet orders"); values carry a leading lane axis.
    A lower order serves only the values that read fewer partials: the
    gates of ideal.frame_gates read third partials of the chart, and an
    order-3 context gives them bit for bit, since a jet product's low
    coefficients sum the same pairs in the same order at any order."""

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
    def Y(self):
        return [self.rho * v
                for v in self.spec.ambient.lift(self.classical.x_low)]

    @jets.field
    def g(self):
        rho2, I = self.rho * self.rho, self.classical.induced_metric
        return jetalg.symmetric3(lambda a, b: rho2 * I[a][b])

    @jets.field
    def ginv(self):
        """g^-1 at order K - 3, the order of Gamma, which pairs it with the
        first partials of g."""
        return jetalg.inv3(jetalg.truncate(self.g, self.classical.order - 3))

    @jets.field
    def Gamma(self):
        """Christoffel symbols of g in chart coordinates, Gamma[c][a][b]."""
        return _christoffel(self.ginv, jetalg.symmetric3(lambda a, b: [
            jets.derivative(self.g[a][b], d) for d in (1, 2, 3)]))

    @jets.field
    def Gamma_values(self):
        """The values of Gamma [..., c, a, b].  At K = 3, where Gamma and
        g^-1 have order 0 and the gates read these values alone, the same
        formulas run on the values and first partials of g, with no
        order-0 jet."""
        if self.classical.order > 3:
            return jetalg.value_array(self.Gamma)
        return jetalg.value_array(_christoffel(
            jetalg.inv3(jetalg.values(self.g)),
            jetalg.symmetric3(lambda a, b: list(jets.gradient(self.g[a][b])))))

    @jets.field
    def EC(self):
        """Frame rows for g: E_i = sum_a EC[i][a] d/du_a (lower triangular)."""
        return [[v * self.inv_rho for v in row]
                for row in self.classical.frame_chart]

    @jets.field
    def coframe(self):
        """Rows W[i]: omega_i = sum_a W[i][a] du^a, the dual basis of EC."""
        lower = jetalg.inv_lower3(self.EC)
        return jetalg.transpose(lower)

    @jets.field
    def Yi(self):
        return [frame_vector_d(self.EC, self.Y, i) for i in range(3)]

    @jets.field
    def EC_values(self):
        return jetalg.value_array(self.EC)

    @jets.field
    def Yi_values(self):
        return frame_d_values(self.EC_values, self.Y)

    # -- mean curvature sphere and dual point ---------------------------------

    @jets.field
    def laplace_Y(self):
        """g^ab (d_a d_b Y - Gamma^c_ab d_c Y), summed over a <= b with the
        off-diagonal pairs doubled, and with the contraction
        g^ab Gamma^c_ab taken once for all seven components."""
        gi = self.ginv
        pairs = [(a, b) for a in range(3) for b in range(a, 3)]
        w = [gi[a][b] if a == b else 2.0 * gi[a][b] for a, b in pairs]
        trG = [jetalg.dot(w, [self.Gamma[c][a][b] for a, b in pairs])
               for c in range(3)]
        out = []
        for comp in self.Y:
            dc = [jets.derivative(comp, a + 1) for a in range(3)]
            ddc = [jets.derivative(dc[a], b + 1) for a, b in pairs]
            out.append(jetalg.dot(w, ddc) - jetalg.dot(trG, dc))
        return out

    @jets.field
    def N(self):
        lap = self.laplace_Y
        lap2 = ldot(lap, lap)
        return [(-1.0 / 3.0) * lap[k] - (1.0 / 18.0) * lap2 * self.Y[k]
                for k in range(7)]

    @jets.field
    def xi(self):
        """Mean curvature spheres xi_r = H_r lift(x) + dlift_x(n_r)."""
        amb, cl = self.spec.ambient, self.classical
        lift = amb.lift(cl.x_low)
        return [[Hr * a if d is None else Hr * a + d
                 for a, d in zip(lift, amb.dlift(cl.x_low, n))]
                for n, Hr in zip(cl.normal_frame, cl.H)]

    # -- conformal tensors -----------------------------------------------------

    @jets.field
    def B(self):
        """B[r][i][j] = rho^{-1} (h^r_ij - H^r delta_ij)."""
        inv_rho = self.inv_rho
        out = []
        for r in range(2):
            h = self.classical.h[r]
            Hr = self.classical.H[r]
            out.append([[inv_rho * (h[i][j] - (Hr if i == j else 0.0))
                         for j in range(3)] for i in range(3)])
        return out

    @jets.field
    def B_values(self):
        return jetalg.value_array(self.B)

    @jets.field
    def C(self):
        """C[r][i] = -rho^{-2} [ H^r_{,i} + sum_j (h^r_ij - H^r d_ij) e_j(log rho) ],
        with H^r_{,i} the normal-connection derivative of the mean curvature
        and e_i the frame orthonormal for dx.dx."""
        cl = self.classical
        eC = cl.frame_chart
        nf = cl.normal_frame
        H = cl.H
        # E_i(f) for f = rho, H^0, H^1, each chart partial taken once
        dE = [jetalg.matvec(eC, [jets.derivative(f, a) for a in (1, 2, 3)])
              for f in (self.rho, *H)]
        dlog = [d * self.inv_rho for d in dE[0]]
        inv_rho2 = self.inv_rho * self.inv_rho
        out = []
        for r in range(2):
            s = 1 - r
            # the normal connection <d_a n_s, n_r> in chart components
            conn = [cl.inner([jets.derivative(c, a + 1) for c in nf[s]], nf[r])
                    for a in range(3)]
            row = []
            for i in range(3):
                acc = dE[1 + r][i] \
                    + H[s] * jetalg.dot(eC[i][:i + 1], conn[:i + 1])
                h = cl.h[r]
                for j in range(3):
                    acc = acc + (h[i][j] - (H[r] if i == j else 0.0)) * dlog[j]
                row.append(-inv_rho2 * acc)
            out.append(row)
        return out

    @jets.field
    def C_values(self):
        return jetalg.value_array(self.C)

    # -- connection ------------------------------------------------------------

    @jets.field
    def theta12_values(self):
        """theta_12(E_k) at the point."""
        return jetalg.mat_vec(frame_d_values(self.EC_values, self.xi[0])
                              @ LORENTZ, jetalg.value_array(self.xi[1]))

    @jets.field
    def theta12_chart(self):
        """Chart components: theta_12 = sum_a t_a du^a."""
        return connection_chart(self.xi[0], self.xi[1])

    # -- Blaschke tensor --------------------------------------------------------

    @jets.field
    def dN_values(self):
        """E_i(N) at the point, rows i."""
        return frame_d_values(self.EC_values, self.N)

    @jets.field
    def A_dn(self):
        """A_ij = <E_i(N), Y_j> from the derivative of the dual point (values)."""
        return self.dN_values @ LORENTZ @ np.swapaxes(self.Yi_values, -1, -2)

    @jets.field
    def C_dn(self):
        """Cross-route C^r_i = <E_i(N), xi_r> (values)."""
        return jetalg.value_array(self.xi) @ LORENTZ \
            @ np.swapaxes(self.dN_values, -1, -2)

    # -- curvature of g ----------------------------------------------------------

    @jets.field
    def riemann_values(self):
        """[i][j][k][l] = <R(E_i,E_j) E_l, E_k>_g at the point, from the values
        and first partials of Gamma."""
        G = self.Gamma_values  # G[..., d, a, e] = Gamma^d_ae
        dG = jetalg.gradients(self.Gamma)  # dG[..., d, b, c, a] = d_a Gamma^d_bc
        # R(d_a, d_b) d_c = R^d_cab d_d, antisymmetrized in (a, b) at the end
        R = np.moveaxis(dG, -3, -1) + np.einsum(  # Gamma^d_ae Gamma^e_bc
            "...dae,...ebc->...dcab", G, G)
        R = R - np.swapaxes(R, -1, -2)
        E = self.EC_values
        low = E @ jetalg.value_array(self.g)  # low[k] pairs with E_k
        return np.einsum("...ia,...jb,...kd,...lc,...dcab->...ijkl",
                         E, E, low, E, R)

    @jets.field
    def ricci(self):
        """Ric(E_i, E_j) as jets, from the contracted curvature
        Ric_bc = d_a Gamma^a_bc - d_b Gamma^a_ac + Gamma^a_ae Gamma^e_bc
        - Gamma^a_be Gamma^e_ac."""
        G = self.Gamma
        tr = [G[0][0][c] + G[1][1][c] + G[2][2][c] for c in range(3)]
        Rc = [[None] * 3 for _ in range(3)]
        for b in range(3):
            for c in range(b + 1):
                acc = jets.derivative(G[0][b][c], 1) \
                    + jets.derivative(G[1][b][c], 2) \
                    + jets.derivative(G[2][b][c], 3) \
                    - jets.derivative(tr[c], b + 1) \
                    + jetalg.dot(tr, [G[e][b][c] for e in range(3)])
                for a in range(3):
                    acc = acc - jetalg.dot(G[a][b], [G[e][a][c] for e in range(3)])
                Rc[b][c] = Rc[c][b] = acc
        # frame components; EC is lower triangular
        return jetalg.lower_congruence(self.EC, Rc)

    @jets.field
    def A_gauss(self):
        """The Blaschke tensor as a jet field, from the trace of the conformal
        Gauss equation: A = Ric + sum_r (B^r)^2 - tr(A) delta with
        4 tr(A) = Scal + 2/3.  Used where derivatives of A are needed."""
        Ric = self.ricci
        trA = 0.25 * (Ric[0][0] + Ric[1][1] + Ric[2][2] + 2.0 / 3.0)
        B = self.B
        out = [[None] * 3 for _ in range(3)]
        for j in range(3):
            for l in range(j + 1):
                # B^r is symmetric: (B^r)^2_jl = <row j, row l>
                acc = Ric[j][l] + jetalg.dot(B[0][j], B[0][l]) \
                    + jetalg.dot(B[1][j], B[1][l])
                out[j][l] = out[l][j] = acc - trA if j == l else acc
        return out

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
        D = jetalg.gradients(self.EC) + np.einsum("...abc,...ic->...iab", G, E)
        low = E @ jetalg.value_array(self.g)  # low[j] pairs with E_j
        X = np.einsum("...kb,...iab,...ja->...ijk", E, D, low)
        return 0.5 * (X - np.swapaxes(X, -2, -3))

    def _cov2_terms(self, T):
        """E_k(T_ij), T_lj omega_li(E_k) and T_il omega_lj(E_k) [..., i, j, k]
        at the point, for a (stack of) frame 2-tensor jet fields T."""
        T0 = jetalg.value_array(T)
        E, om = self.EC_values, self.omega_values
        # after the lanes, a unit axis per stacking axis of T (and i in E)
        pad = (1,) * (T0.ndim - om.ndim + 1)
        E = E.reshape(E.shape[:-2] + pad + (1, 3, 3))
        om = om.reshape(om.shape[:-3] + pad + om.shape[-3:])
        return [jetalg.gradients(T) @ np.swapaxes(E, -1, -2),
                np.einsum("...il,...ljk->...ijk", T0, om),
                np.einsum("...lj,...lik->...ijk", T0, om)]

    @jets.field
    def covB_terms(self):
        """The terms covB_values sums: _cov2_terms', then theta_12's."""
        B = self.B_values
        th = self.theta12_values[..., None, None, :]
        return self._cov2_terms(self.B) + [np.stack(
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
        out = jetalg.gradients(self.C) \
            @ np.swapaxes(self.EC_values, -1, -2)[..., None, :, :]
        out += np.einsum("...rk,...kij->...rij", C, om)
        th = self.theta12_values[..., None, :]
        out[..., 0, :, :] -= C[..., 1, :, None] * th
        out[..., 1, :, :] += C[..., 0, :, None] * th
        return out

    @jets.field
    def covA_values(self):
        """[i][j][k] = A_{ij,k} at the point, from the Gauss-trace field."""
        grad, om1, om2 = self._cov2_terms(self.A_gauss)
        return grad + om1 + om2


# The most points in a chunk.  It bounds peak memory and the points that a
# failing chunk reruns alone, not time: larger chunks run faster end to end
# (invariants on hopf-generic, 2-vCPU Xeon, median of 9: 100 points take
# 95.0 ms in chunks of 20 and 45.6 ms in one chunk; 200 points peak at
# 34.2 MB RSS in chunks of 20 and 45.9 MB in one chunk).
CHUNK_POINTS = 20


def map_chunks(analyze, pts, probe=None) -> list:
    """analyze's results over a sample, one per point, in order: the chunk
    rule of every analysis command.  analyze(chunk, start) maps a chunk (a
    list of points) to one result per point, where start is the sample
    index of the chunk's first point, so a refusal can name its point's
    index.  probe(pts[0]) runs first, on one lane at the lowest jet order
    its gates read, so that a chart refusing everywhere costs one cheap
    lane; then the sample runs in full chunks of CHUNK_POINTS from point 0.
    A chunk that raises a WintgenError reruns its points alone; a point
    that raises alone runs probe before its error propagates, so it reports
    as a sample of one: the probe's refusal, else its own error.  A
    refusal at lane 0 (errors.Refusal.lane) is already what the chunk's
    first point raises alone, since every earlier gate passed on every
    lane: that point runs probe and the refusal propagates, with no rerun.
    ddvv passes no probe: it reads order 2 only, and its first chunk's
    lane 0 decides point 0 as cheaply.  Any other exception propagates from the
    chunk: it is a fault, not a property of a point."""
    if probe is not None and len(pts):
        probe(pts[0])
    out = []
    for lo in range(0, len(pts), CHUNK_POINTS):
        chunk = list(pts[lo:lo + CHUNK_POINTS])
        try:
            out += analyze(chunk, lo)
        except WintgenError as exc:
            if isinstance(exc, Refusal) and exc.lane == 0:
                # its first point refuses alone as it did in the chunk
                if probe is not None:
                    probe(chunk[0])
                raise
            for idx, p in enumerate(chunk, lo):
                try:
                    out += analyze([p], idx)
                except WintgenError:
                    if probe is not None:
                        probe(p)
                    raise
    return out


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
    val = jetalg.value_array
    return MoebiusData(
        rho=jets.value_of(ctx.rho),
        Y=val(ctx.Y), Yi=ctx.Yi_values, N=val(ctx.N), xi=val(ctx.xi),
        g=val(ctx.g), E=ctx.EC_values, coframe=val(ctx.coframe),
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
