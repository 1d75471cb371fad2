"""Classical submanifold invariants at a chart point.

ClassicalContext carries the chart, the frames and the second fundamental
form as jets so later modules can differentiate.  Its point pass
(ClassicalContext.point) runs the same formulas once on floats, from the
chart jet's values and first and second partials: it decides the NotImmersed
gates and the normal-frame pivots, and the umbilic test, classical_data and
the ddvv command read only its values, so they build no jet beyond the
chart's.  umbilic is the one umbilic criterion, refuse_umbilic its one raise
site, and require_ideal the one slack gate.  check_order is the jet-order
gate (orders 2 to 5), also run by the ddvv command, whose records read only
second partials.  The reporting types (ClassicalData, DDVVReport,
AdaptedFrame) hold plain floats.  The adapted frame of an ideal point has one
construction: kernel_plane decides its gates on values and returns the kernel
line, the plane seed and the normal flip, and turned_frame, generic over
floats and jets, builds the frame from them; adapted_frame runs it on floats
and ideal.CanonicalFields on jets.  Over a chunk of points (see jets) the
point pass and the gates run per point, and the jet pass takes the pivots
and the half_angle branch as lane data.

Index conventions: a, b, c label chart coordinates; i, j, k label the
orthonormal tangent frame; r, s label the orthonormal normal frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import jetalg, jets
from .errors import (DomainError, InsufficientOrder, NotIdealPoint,
                     NotImmersed, ShapeError, UmbilicPoint)
from .immersion import ImmersionSpec, eval_immersion_jet

# The default tolerances of the library and of the command line: TOL is the
# DDVV equality tolerance of the ideality gate and of the verdicts, LTOL the
# torsion cutoff |L| of the canonical direction field.
TOL = 1e-7
LTOL = 1e-6


def check_order(order: int) -> None:
    """The jet-order gate of the classical forms: the second fundamental
    form reads second partials, and jets stop at jets.MAX_ORDER."""
    if order < 2:
        raise InsufficientOrder(
            f"second fundamental form needs jet order >= 2, got {order}")
    jets.check_order(order)


class ClassicalContext(jets.Lanes):
    """Lazy jet computations for one immersion at one chart point, or at
    the points of a chunk (p a list of points).

    `point` is the same context on floats.  It decides the NotImmersed
    gates (metric determinant, normal-frame residual) and picks the
    normal-frame pivots, which the jet pass reuses, and it supplies the
    values of induced_metric, frame_chart, tangent_amb, normal_frame, h and
    H that is_umbilic and classical_data read; over a chunk, each lane has
    its own."""

    def __init__(self, spec: ImmersionSpec, p, order: int = 5):
        check_order(order)
        self.p = [tuple(float(v) for v in q) for q in jets.points(p)]
        self.split_lanes([{"p": q} for q in self.p], spec=spec, order=order,
                         inner=spec.ambient.inner)

    @jets.field
    def x(self):
        return eval_immersion_jet(self.spec, self.p, self.order)

    @cached_property
    def point(self) -> "ClassicalContext":
        return _PointPass(self)

    @jets.field
    def xa(self):
        return [[jets.derivative(c, a + 1) for c in self.x] for a in range(3)]

    @jets.field
    def xab(self):
        return [[[jets.derivative(c, b + 1) for c in self.xa[a]]
                 for b in range(3)] for a in range(3)]

    @jets.field
    def induced_metric(self):
        I = [[None] * 3 for _ in range(3)]
        for a in range(3):
            for b in range(a + 1):
                I[a][b] = I[b][a] = self.inner(self.xa[a], self.xa[b])
        return I

    @jets.field
    def frame_chart(self):
        """Rows eC[i]: orthonormal tangent frame e_i = sum_a eC[i][a] d/du_a,
        lower-triangular (Gram-Schmidt in chart order)."""
        for lane in self.lanes:
            lane.point.frame_chart  # refuses where the metric is degenerate
        return jetalg.inv_lower3(jetalg.cholesky3(self.induced_metric))

    @jets.field
    def tangent_amb(self):
        # e_i = sum_a eC[i][a] x_a, component by component
        return [[jetalg.dot(self.frame_chart[i], [xa[k] for xa in self.xa])
                 for k in range(len(self.x))] for i in range(3)]

    def _units(self):
        """The vectors the normals are made orthogonal to, with the sign of
        their square: the position if it is a unit, then the tangent frame."""
        sign = self.spec.ambient.position_sign
        units = [] if sign is None else [(self.x, sign)]
        units.extend((t, 1.0) for t in self.tangent_amb)
        return units

    def _constant(self, value: float):
        return jets.MultiJet.constant(value, self.order)

    def _residual(self, k, units):
        """The k-th standard basis vector (k a lane vector over a chunk) with
        its components along the units projected away, one after another."""
        v = [self._constant(1.0 * (k == m))
             for m in range(self.spec.ambient.ncomp)]
        for u, s in units:
            coef = self.inner(v, u) * s
            v = [a - coef * b for a, b in zip(v, u)]
        return v

    @jets.field
    def normal_frame(self):
        """Two unit normals by Gram-Schmidt from the standard basis vectors
        the point passes picked."""
        for lane in self.lanes:
            lane.point.normal_frame  # picks the pivots, or refuses
        units = self._units()
        normals = []
        for ks in zip(*(lane.point.pivots for lane in self.lanes)):
            n = jetalg.normalize(self._residual(jets.from_lanes(ks), units),
                                 inner=self.inner)
            units.append((n, 1.0))
            normals.append(n)
        return normals

    @jets.field
    def h(self):
        """Second fundamental form h^r_ij in the orthonormal frames."""
        out = []
        for n in self.normal_frame:
            hc = [[None] * 3 for _ in range(3)]
            for a in range(3):
                for b in range(a + 1):
                    hc[a][b] = hc[b][a] = self.inner(self.xab[a][b], n)
            out.append(jetalg.lower_congruence(self.frame_chart, hc))
        return out

    @jets.field
    def H(self):
        return [(m[0][0] + m[1][1] + m[2][2]) * (1.0 / 3.0) for m in self.h]

    def is_umbilic(self) -> bool:
        """The umbilic criterion on the point pass's h and H."""
        return umbilic(self.point.h, self.point.H)

    def require_not_umbilic(self) -> None:
        """The umbilic gate of the conformal invariants, at each point."""
        for lane in self.lanes:
            if lane.is_umbilic():
                refuse_umbilic(self.spec.name, f" at {lane.p}",
                               "conformal invariants are undefined there")

    @jets.field
    def rho(self):
        """Conformal factor: rho^2 = (3/2)|II - (1/3)tr(II) I|^2."""
        self.require_not_umbilic()
        return jets.sqrt(1.5 * trace_free_sq(self.h, self.H))


@lru_cache(maxsize=None)
def _basis_squares(ambient) -> tuple:
    """<e_k, e_k> for the standard basis of the ambient coordinates."""
    return tuple(ambient.inner(e, e) for e in np.eye(ambient.ncomp).tolist())


class _PointPass(ClassicalContext):
    """A ClassicalContext's formulas on floats.  x and its first and second
    partials are read from the chart jet (jets.low_partials), so each value
    equals the constant term of the matching jet bit for bit.  The gates
    are decided here, on the values, and the pivots are picked here."""

    point = property(lambda self: self)  # not an attribute: no self-cycle

    def __init__(self, ctx: ClassicalContext):
        self.spec, self.p, self.order = ctx.spec, ctx.p, ctx.order
        self.inner = ctx.inner
        parts = [jets.low_partials(c) for c in ctx.x]
        self.x = [v for v, _, _ in parts]
        self.xa = [[d1[a] for _, d1, _ in parts] for a in range(3)]
        self.xab = [[[d2[a][b] for _, _, d2 in parts] for b in range(3)]
                    for a in range(3)]

    @cached_property
    def frame_chart(self):
        I = self.induced_metric
        det = (I[0][0] * (I[1][1] * I[2][2] - I[1][2] ** 2)
               - I[0][1] * (I[0][1] * I[2][2] - I[1][2] * I[0][2])
               + I[0][2] * (I[0][1] * I[1][2] - I[1][1] * I[0][2]))
        scale = (max(I[0][0] + I[1][1] + I[2][2], 0.0) / 3.0) ** 3
        if det <= 1e-12 * max(scale, 1e-300):
            raise NotImmersed(
                f"induced metric degenerate at {self.p} (det {det:.3e})")
        try:
            return jetalg.inv_lower3(jetalg.cholesky3(I))
        except (DomainError, ZeroDivisionError):
            raise NotImmersed(f"induced metric not positive definite at {self.p}")

    def _constant(self, value: float):
        return value

    @cached_property
    def normal_frame(self):
        """Each normal starts from the standard basis vector e_k with the
        largest residual, ranked in one pass by <e_k, e_k> - sum_u s_u u_k^2
        over the orthonormal units; a later index needs a score larger by
        1e-15.  Only the chosen residual is built, by Gram-Schmidt as in the
        jet pass, and the pass refuses where its square is at most 1e-12.
        The indices are kept in pivots."""
        units = self._units()
        squares = _basis_squares(self.spec.ambient)
        normals, pivots = [], []
        for _ in range(2):
            best_k, best_score = -1, -math.inf
            for k in range(len(squares)):
                if k in pivots:
                    continue
                score = squares[k]
                for u, s in units:
                    score -= s * u[k] * u[k]
                if score > best_score + 1e-15:
                    best_k, best_score = k, score
            v = self._residual(best_k, units)
            if self.inner(v, v) <= 1e-12:
                raise NotImmersed(f"cannot complete normal frame at {self.p}")
            pivots.append(best_k)
            n = jetalg.normalize(v, inner=self.inner)
            units.append((n, 1.0))
            normals.append(n)
        self.pivots = tuple(pivots)
        return normals


# ---------------------------------------------------------------------------
# reporting types


@dataclass(frozen=True)
class ClassicalData:
    induced_metric: np.ndarray   # 3x3
    tangent_frame: np.ndarray    # rows e_i in chart components
    normal_frame: np.ndarray     # rows n_r in ambient components
    h: np.ndarray                # (2,3,3) orthonormal-frame components
    H: np.ndarray                # (2,)
    c: float


def fundamental_forms(spec: ImmersionSpec, p) -> ClassicalData:
    """The forms at p from order-2 jets, all that they read."""
    return classical_data(ClassicalContext(spec, p, order=2))


def classical_data(ctx: ClassicalContext) -> ClassicalData:
    """The forms at the context's point, from its point pass."""
    pt = ctx.point
    return ClassicalData(
        induced_metric=np.array(pt.induced_metric),
        tangent_frame=np.array(pt.frame_chart),
        normal_frame=np.array(pt.normal_frame),
        h=np.array(pt.h), H=np.array(pt.H), c=ctx.spec.ambient.c)


@dataclass(frozen=True)
class DDVVReport:
    s: float
    H_norm2: float
    s_N: float
    slack: float
    ideal: bool


def ddvv_from_forms(h, H, c: float, tol: float = TOL) -> DDVVReport:
    """The normalized-curvature inequality report from frame components.

    s from the Gauss equation, s_N = (1/3)||R^perp|| with the Frobenius norm
    over independent index pairs (i<j, r<s)."""
    h = np.asarray(h, dtype=float)
    H = np.asarray(H, dtype=float)
    p = h.shape[0]
    s = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            s += c + sum(h[r, i, i] * h[r, j, j] - h[r, i, j] ** 2 for r in range(p))
    s /= 3.0
    norm_rperp_sq = 0.0
    for r in range(p):
        for q in range(r + 1, p):
            comm = h[r] @ h[q] - h[q] @ h[r]
            for i in range(3):
                for j in range(i + 1, 3):
                    norm_rperp_sq += comm[i, j] ** 2
    s_N = math.sqrt(norm_rperp_sq) / 3.0
    H2 = float(np.dot(H, H))
    slack = c + H2 - s_N - s
    scale = max(1.0, float(np.sum(h ** 2)))
    return DDVVReport(s=s, H_norm2=H2, s_N=s_N, slack=slack,
                      ideal=bool(abs(slack) <= tol * scale))


def require_ideal(h, H, c: float, tol: float, where: str = "") -> None:
    """The slack gate: refuses where DDVV equality fails within tol."""
    report = ddvv_from_forms(h, H, c, tol=tol)
    if not report.ideal:
        raise NotIdealPoint(
            f"equality gap {report.slack:.3e}{where}: not an ideal point")


def trace_free_sq(h, H):
    """|II - (1/3) tr(II) I|^2 from h and H, floats or jets."""
    acc = None
    for r in range(2):
        for i in range(3):
            for j in range(3):
                t = h[r][i][j] - (H[r] if i == j else 0.0)
                t = t * t
                acc = t if acc is None else acc + t
    return acc


def umbilic(h, H) -> bool:
    """The umbilic criterion, on values of h and H:
    |II - (1/3) tr(II) I|^2 <= 1e-10 max(|II|^2, 1e-8)."""
    sq = sum(v * v for r in range(2) for row in h[r] for v in row)
    return trace_free_sq(h, H) <= 1e-10 * max(sq, 1e-8)


def refuse_umbilic(subject: str, where: str, undefined: str) -> None:
    """The umbilic refusal; UmbilicPoint is raised nowhere else."""
    raise UmbilicPoint(f"{subject} is totally umbilic{where}; {undefined}")


def ddvv_report(spec: ImmersionSpec, p, tol: float = TOL) -> DDVVReport:
    data = fundamental_forms(spec, p)
    return ddvv_from_forms(data.h, data.H, data.c, tol=tol)


def ddvv_matrix_gap(B) -> float:
    """(sum_r |B_r|^2)^2 - 2 sum_{r<s} |[B_r, B_s]|^2 for trace-free
    symmetric matrices; non-negative, zero exactly at ideal configurations."""
    mats = [np.asarray(b, dtype=float) for b in B]
    if not mats:
        raise ShapeError("need at least one matrix")
    m = mats[0].shape[0]
    for b in mats:
        if b.shape != (m, m):
            raise ShapeError(f"matrix shapes disagree: {b.shape} vs ({m}, {m})")
        scale = max(1.0, float(np.max(np.abs(b))))
        if np.max(np.abs(b - b.T)) > 1e-10 * scale:
            raise ShapeError("matrices must be symmetric")
        if abs(np.trace(b)) > 1e-12 * max(1.0, float(np.sum(np.abs(np.diag(b))))):
            raise ShapeError("matrices must be trace-free")
    total = sum(float(np.sum(b * b)) for b in mats)
    comm = 0.0
    for r in range(len(mats)):
        for s in range(r + 1, len(mats)):
            cmat = mats[r] @ mats[s] - mats[s] @ mats[r]
            comm += float(np.sum(cmat * cmat))
    return total ** 2 - 2.0 * comm


# ---------------------------------------------------------------------------
# adapted frame (pointwise normal form)


@dataclass(frozen=True)
class AdaptedFrame:
    tangent_rotation: np.ndarray  # rows: adapted frame in the input frame basis
    normal_rotation: np.ndarray   # 2x2
    lambda1: float
    lambda2: float
    mu0: float
    pattern_residual: float


def _pattern_matrices(lam1, lam2, mu0):
    P1 = lam1 * np.eye(3)
    P1[0, 1] = P1[1, 0] = mu0
    P2 = lam2 * np.eye(3)
    P2[0, 0] += mu0
    P2[1, 1] -= mu0
    return P1, P2


def kernel_sign(v: np.ndarray) -> np.ndarray:
    """The kernel vector v with its sign fixed: its largest-magnitude
    component is positive.  The SVD returns either sign, and the two signs
    give the frames (E1, E2, E3, xi1, xi2) and (E2, E1, -E3, xi1, -xi2),
    which share the pattern but swap the components of Omega12 and of the
    raw-gauge U, V."""
    k = int(np.argmax(np.abs(v)))
    return v if v[k] >= 0.0 else -v


def half_angle(c2, s2):
    """cos t and sin t given cos 2t and sin 2t, with cos t >= 0 at the
    point.  The branch is picked from the values of c2 and s2 so the square
    root stays off zero: the root is cos t where c2 >= 0, else sin t with
    the sign of s2, picked per lane.  Works for floats and jets alike."""
    up = jets.value_of(c2) >= 0.0
    sgn = jets.where(up, 1.0, jets.where(jets.value_of(s2) >= 0.0, 1.0, -1.0))
    root = sgn * jets.sqrt((1.0 + jets.where(up, 1.0, -1.0) * c2) * 0.5)
    other = s2 / (2.0 * root)
    return jets.where(up, root, other), jets.where(up, other, root)


@dataclass(frozen=True)
class KernelPlane:
    """What the adapted frame of two trace-free symmetric forms T_1, T_2
    that share a kernel line takes from their values: the kernel vector q,
    the seed F1 of the plane, and flip = -1 where the second form is
    reversed so that Im(z_1 conj(z_2)) >= 0, with z_r = T_r(F1, F1)
    + i T_r(F1, F2) and F2 = q x F1."""
    q: np.ndarray
    F1: np.ndarray
    flip: float


def kernel_plane(T, where: str = "") -> KernelPlane:
    """The kernel plane of the forms T[0], T[1] (floats), given in one
    orthonormal basis; refuses with NotIdealPoint when they share no kernel
    line or the first one vanishes on the plane.  `where` ends the refusal
    messages."""
    _, sing, vt = np.linalg.svd(np.vstack([T[0], T[1]]))
    if sing[2] > 1e-6 * sing[0]:
        raise NotIdealPoint(
            f"trace-free forms have no common kernel{where} "
            f"(singular values {sing[2]:.3e} vs {sing[0]:.3e})")
    q = kernel_sign(vt[2])

    k0 = int(np.argmin(np.abs(q)))
    F1 = -q[k0] * q
    F1[k0] += 1.0
    F1 /= np.linalg.norm(F1)
    F2 = np.cross(q, F1)

    z = [complex(F1 @ T[r] @ F1, F1 @ T[r] @ F2) for r in range(2)]
    flip = 1.0 if (z[0] * z[1].conjugate()).imag >= 0.0 else -1.0
    if abs(z[0]) < 1e-12 * max(1.0, sing[0]):
        raise NotIdealPoint(f"degenerate shape pattern{where}")
    return KernelPlane(q=q, F1=F1, flip=flip)


def turned_frame(T, plane: KernelPlane):
    """The adapted frame of the forms T[0], T[1], floats or jets, as rows
    [E1, E2, E3], and |z_1|.  E3 is -(adj T_1 + adj T_2) q normalized, a
    positive multiple of q where the forms share the kernel line q; F1 is
    plane.F1 made orthogonal to E3 and F2 = E3 x F1; (E1, E2) is (F1, F2)
    turned by the angle t with e^{2it} z_1 = i|z_1|.  On jets the rows are
    smooth fields whose values are the float run's rows."""
    adj = [jetalg.adjugate3(T[r]) for r in range(2)]
    P = [[-(adj[0][i][j] + adj[1][i][j]) for j in range(3)] for i in range(3)]
    E3 = jetalg.normalize(jetalg.matvec(P, list(plane.q)))
    proj = jetalg.dot(list(plane.F1), E3)
    F1 = jetalg.normalize([plane.F1[j] - proj * E3[j] for j in range(3)])
    F2 = jetalg.cross3(E3, F1)
    p1 = jetalg.quadform(F1, T[0], F1)
    q1 = jetalg.quadform(F1, T[0], F2)
    az = jets.sqrt(p1 * p1 + q1 * q1)
    ct, st = half_angle(q1 / az, p1 / az)
    E1 = [ct * F1[j] - st * F2[j] for j in range(3)]
    E2 = [st * F1[j] + ct * F2[j] for j in range(3)]
    return [E1, E2, E3], az


def adapted_frame(data: ClassicalData, tol: float = TOL) -> AdaptedFrame:
    h = np.asarray(data.h, dtype=float)
    H = np.asarray(data.H, dtype=float)
    if umbilic(h, H):
        refuse_umbilic("second fundamental form", "", "no adapted frame")
    require_ideal(h, H, data.c, tol)
    T = h - H[:, None, None] * np.eye(3)[None, :, :]
    plane = kernel_plane(T)
    rows, mu0 = turned_frame(T, plane)
    R = np.array(rows)
    K = np.diag([1.0, plane.flip])
    lam1 = float(H[0])
    lam2 = float(H[1] * plane.flip)
    rotated = [R @ h[0] @ R.T, R @ (plane.flip * h[1]) @ R.T]
    P1, P2 = _pattern_matrices(lam1, lam2, mu0)
    residual = max(float(np.max(np.abs(rotated[0] - P1))),
                   float(np.max(np.abs(rotated[1] - P2))))
    return AdaptedFrame(tangent_rotation=R, normal_rotation=K,
                        lambda1=lam1, lambda2=lam2, mu0=mu0,
                        pattern_residual=residual)
