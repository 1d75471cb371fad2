"""Classical submanifold invariants at a chart point.

ClassicalContext carries everything as jets so later modules can
differentiate; check_order is its jet-order gate (orders 2 to 5), also run
by the ddvv command, whose records read only second partials.  The
reporting types (ClassicalData, DDVVReport, KernelPlane, AdaptedFrame) hold
plain floats.

Index conventions: a, b, c label chart coordinates; i, j, k label the
orthonormal tangent frame; r, s label the orthonormal normal frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import jetalg, jets
from .errors import (DomainError, InsufficientOrder, NotIdealPoint,
                     NotImmersed, ShapeError, UmbilicPoint)
from .immersion import ImmersionSpec, eval_immersion_jet


def _inner_for(ambient):
    # tangent/normal geometry of the hyperboloid model lives in Lorentz R^6_1
    return jetalg.lorentz_dot if ambient.kind == "hyperbolic" else jetalg.dot


def check_order(order: int) -> None:
    """The jet-order gate of the classical forms: the second fundamental
    form reads second partials, and jets stop at jets.MAX_ORDER."""
    if order < 2:
        raise InsufficientOrder(
            f"second fundamental form needs jet order >= 2, got {order}")
    jets.check_order(order)


class ClassicalContext:
    """Lazy jet computations for one immersion at one chart point."""

    def __init__(self, spec: ImmersionSpec, p, order: int = 5):
        check_order(order)
        self.spec = spec
        self.p = tuple(float(v) for v in p)
        self.order = order
        self.inner = _inner_for(spec.ambient)

    @cached_property
    def x(self):
        return eval_immersion_jet(self.spec, self.p, self.order)

    @cached_property
    def xa(self):
        return [[jets.derivative(c, a + 1) for c in self.x] for a in range(3)]

    @cached_property
    def xab(self):
        return [[[jets.derivative(c, b + 1) for c in self.xa[a]]
                 for b in range(3)] for a in range(3)]

    @cached_property
    def induced_metric(self):
        I = [[None] * 3 for _ in range(3)]
        for a in range(3):
            for b in range(a + 1):
                I[a][b] = I[b][a] = self.inner(self.xa[a], self.xa[b])
        return I

    @cached_property
    def frame_chart(self):
        """Rows eC[i]: orthonormal tangent frame e_i = sum_a eC[i][a] d/du_a,
        lower-triangular (Gram-Schmidt in chart order)."""
        I = self.induced_metric
        Ival = [[jets.value_of(v) for v in row] for row in I]
        det = (Ival[0][0] * (Ival[1][1] * Ival[2][2] - Ival[1][2] ** 2)
               - Ival[0][1] * (Ival[0][1] * Ival[2][2] - Ival[1][2] * Ival[0][2])
               + Ival[0][2] * (Ival[0][1] * Ival[1][2] - Ival[1][1] * Ival[0][2]))
        scale = (max(Ival[0][0] + Ival[1][1] + Ival[2][2], 0.0) / 3.0) ** 3
        if det <= 1e-12 * max(scale, 1e-300):
            raise NotImmersed(
                f"induced metric degenerate at {self.p} (det {det:.3e})")
        try:
            return jetalg.inv_lower3(jetalg.cholesky3(I))
        except DomainError:
            raise NotImmersed(f"induced metric not positive definite at {self.p}")

    @cached_property
    def tangent_amb(self):
        # e_i = sum_a eC[i][a] x_a, component by component
        return [[jetalg.dot(self.frame_chart[i], [xa[k] for xa in self.xa])
                 for k in range(len(self.x))] for i in range(3)]

    @cached_property
    def normal_frame(self):
        """Two unit normals by greedy Gram-Schmidt over the standard basis,
        pivoting on the largest residual at the point.  For sphere and
        hyperbolic ambients the position vector is part of the space to
        project away (with sign -1 for the timelike hyperbolic position)."""
        ncomp = self.spec.ambient.ncomp
        units = []
        if self.spec.ambient.kind == "sphere":
            units.append((self.x, 1.0))
        elif self.spec.ambient.kind == "hyperbolic":
            units.append((self.x, -1.0))
        units.extend((t, 1.0) for t in self.tangent_amb)

        vals = [[jets.value_of(c) for c in u] for u, _ in units]
        signs = [s for _, s in units]

        def val_inner(u, v):
            if self.spec.ambient.kind == "hyperbolic":
                return -u[0] * v[0] + sum(a * b for a, b in zip(u[1:], v[1:]))
            return sum(a * b for a, b in zip(u, v))

        normals = []
        used = set()
        for _ in range(2):
            # pivot selection on plain floats
            best_k, best_res = -1, -1.0
            for k in range(ncomp):
                if k in used:
                    continue
                v = [0.0] * ncomp
                v[k] = 1.0
                for uval, s in zip(vals, signs):
                    coef = s * val_inner(v, uval)
                    v = [a - coef * b for a, b in zip(v, uval)]
                res = val_inner(v, v)
                if res > best_res + 1e-15:
                    best_k, best_res = k, res
            if best_res <= 1e-12:
                raise NotImmersed(f"cannot complete normal frame at {self.p}")
            used.add(best_k)
            # the same elimination once more, in jets
            v = [jets.MultiJet.constant(1.0 if k == best_k else 0.0, self.x[0].order)
                 for k in range(ncomp)]
            for u, s in units:
                coef = self.inner(v, u) * s
                v = [a - coef * b for a, b in zip(v, u)]
            n = jetalg.normalize(v, inner=self.inner)
            units.append((n, 1.0))
            vals.append([jets.value_of(c) for c in n])
            signs.append(1.0)
            normals.append(n)
        return normals

    @cached_property
    def h(self):
        """Second fundamental form h^r_ij in the orthonormal frames (jets)."""
        eC = self.frame_chart  # lower triangular: eC[i][a] = 0 for a > i
        out = []
        for n in self.normal_frame:
            hc = [[None] * 3 for _ in range(3)]
            for a in range(3):
                for b in range(a + 1):
                    hc[a][b] = hc[b][a] = self.inner(self.xab[a][b], n)
            # T = eC hc, then h = T eC^T
            T = [[jetalg.dot(eC[i][:i + 1], [hc[a][b] for a in range(i + 1)])
                  for b in range(3)] for i in range(3)]
            mat = [[None] * 3 for _ in range(3)]
            for i in range(3):
                for j in range(i + 1):
                    mat[i][j] = mat[j][i] = jetalg.dot(T[i][:j + 1],
                                                       eC[j][:j + 1])
            out.append(mat)
        return out

    @cached_property
    def H(self):
        return [(m[0][0] + m[1][1] + m[2][2]) * (1.0 / 3.0) for m in self.h]

    @cached_property
    def trace_free_sq(self):
        """|II - (1/3) tr(II) I|^2 as a jet."""
        acc = None
        for r in range(2):
            for i in range(3):
                for j in range(3):
                    t = self.h[r][i][j] - (self.H[r] if i == j else 0.0)
                    t = t * t
                    acc = t if acc is None else acc + t
        return acc

    def is_umbilic(self) -> bool:
        """|II - (1/3) tr(II) I|^2 <= 1e-10 max(|II|^2, 1e-8) at the point,
        summed from the values of h and H in the order of trace_free_sq."""
        h = jetalg.values(self.h)
        H = jetalg.values(self.H)
        umb2 = 0.0
        sq = 0.0
        for r in range(2):
            for i in range(3):
                for j in range(3):
                    t = h[r][i][j] - (H[r] if i == j else 0.0)
                    umb2 += t * t
                    sq += h[r][i][j] * h[r][i][j]
        return umb2 <= 1e-10 * max(sq, 1e-8)

    @cached_property
    def rho(self):
        """Conformal factor: rho^2 = (3/2)|II - (1/3)tr(II) I|^2."""
        if self.is_umbilic():
            raise UmbilicPoint(
                f"{self.spec.name} is totally umbilic at {self.p}; "
                "conformal invariants are undefined there")
        return jets.sqrt(1.5 * self.trace_free_sq)


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
    return ClassicalData(
        induced_metric=np.array(jetalg.values(ctx.induced_metric)),
        tangent_frame=np.array(jetalg.values(ctx.frame_chart)),
        normal_frame=np.array(jetalg.values(ctx.normal_frame)),
        h=np.array(jetalg.values(ctx.h)),
        H=np.array(jetalg.values(ctx.H)),
        c=ctx.spec.ambient.c)


@dataclass(frozen=True)
class DDVVReport:
    s: float
    H_norm2: float
    s_N: float
    slack: float
    ideal: bool
    umbilic_measure: float


def ddvv_from_forms(h, H, c: float, tol: float = 1e-7) -> DDVVReport:
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
    tracefree = h - H[:, None, None] * np.eye(3)[None, :, :]
    umb = float(np.sqrt(np.sum(tracefree ** 2)))
    scale = max(1.0, float(np.sum(h ** 2)))
    return DDVVReport(s=s, H_norm2=H2, s_N=s_N, slack=slack,
                      ideal=bool(abs(slack) <= tol * scale), umbilic_measure=umb)


def ddvv_report(spec: ImmersionSpec, p, tol: float = 1e-7) -> DDVVReport:
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


def half_angle(c2_p, s2_p, c2, s2):
    """cos t and sin t given cos 2t and sin 2t, with cos t >= 0 at the base
    point.  The branch is picked from the base-point values c2_p, s2_p
    (floats) so the square root stays off zero.  Works for floats and jets
    alike."""
    if c2_p >= 0.0:
        ct = jets.sqrt((1.0 + c2) * 0.5)
        st = s2 / (2.0 * ct)
    else:
        sgn = 1.0 if s2_p >= 0.0 else -1.0
        st = sgn * jets.sqrt((1.0 - c2) * 0.5)
        ct = s2 / (2.0 * st)
    return ct, st


@dataclass(frozen=True)
class KernelPlane:
    """The pointwise adapted frame of two trace-free symmetric forms T_1, T_2
    that share a kernel line.  With z_r = T_r(F1, F1) + i T_r(F1, F2), the
    second form is reversed when flip = -1 so that Im(z_1 conj(z_2)) >= 0,
    and the plane is turned by the angle t with e^{2it} z_1 = i|z_1|."""
    R: np.ndarray   # rows e1, e2, e3: the turned plane and the kernel line
    F: np.ndarray   # rows F1, F2: the plane before the turn, F2 = e3 x F1
    flip: float
    c2: float       # cos 2t
    s2: float       # sin 2t
    mu0: float      # |z_1|


def kernel_plane(T, where: str = "") -> KernelPlane:
    """The adapted frame of the forms T[0], T[1], given in one orthonormal
    basis; refuses with NotIdealPoint when they share no kernel line or the
    first one vanishes on the plane.  `where` ends the refusal messages."""
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
    az = abs(z[0])
    if az < 1e-12 * max(1.0, sing[0]):
        raise NotIdealPoint(f"degenerate shape pattern{where}")
    c2 = z[0].imag / az
    s2 = z[0].real / az
    ct, st = half_angle(c2, s2, c2, s2)
    R = np.vstack([ct * F1 - st * F2, st * F1 + ct * F2, q])
    return KernelPlane(R=R, F=np.vstack([F1, F2]), flip=flip, c2=c2, s2=s2,
                       mu0=az)


def adapted_frame(data: ClassicalData, tol: float = 1e-7) -> AdaptedFrame:
    h = np.asarray(data.h, dtype=float)
    H = np.asarray(data.H, dtype=float)
    T = h - H[:, None, None] * np.eye(3)[None, :, :]
    ii2 = float(np.sum(h ** 2))
    umb = float(np.sqrt(np.sum(T ** 2)))
    if umb <= tol * max(1.0, math.sqrt(ii2)):
        raise UmbilicPoint("second fundamental form is umbilic; no adapted frame")

    report = ddvv_from_forms(h, H, data.c, tol=tol)
    if not report.ideal:
        raise NotIdealPoint(
            f"inequality slack {report.slack:.3e} exceeds tolerance; no common kernel")

    plane = kernel_plane(T)
    R = plane.R
    K = np.diag([1.0, plane.flip])
    lam1 = float(H[0])
    lam2 = float(H[1] * plane.flip)
    rotated = [R @ h[0] @ R.T, R @ (plane.flip * h[1]) @ R.T]
    P1, P2 = _pattern_matrices(lam1, lam2, plane.mu0)
    residual = max(float(np.max(np.abs(rotated[0] - P1))),
                   float(np.max(np.abs(rotated[1] - P2))))
    return AdaptedFrame(tangent_rotation=R, normal_rotation=K,
                        lambda1=lam1, lambda2=lam2, mu0=plane.mu0,
                        pattern_residual=residual)
