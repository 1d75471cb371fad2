"""Classical submanifold invariants at chart points.

ClassicalContext carries the chart, the frames and the second fundamental
form as jets, one lane per point of its chunk (see jets), so later modules
can differentiate.  Its point pass (ClassicalContext.point) runs the same
formulas once per context on the chart jet's values and first and second
partials, lane vectors over a chunk (floats for a point alone): it decides
the NotImmersed gates and the normal-frame pivots on lane masks, and the
umbilic test, form_blocks and ddvv_from_forms (once per chunk, on lane
arrays) read only its values, so they build no jet beyond the chart's.
Every gate refuses at its first failing lane (jets.first_lane).  umbilic is
the one umbilic criterion, refuse_umbilic its one raise site, and
require_ideal the one slack gate.
check_order is the jet-order gate (orders 2 to 5), also run by the ddvv
command, whose records read only second partials.  The reporting types
(ClassicalData, DDVVReport, AdaptedFrame) hold plain floats.  The adapted
frame of an ideal point has one construction: kernel_plane decides its
gates on values and returns the kernel line, the plane seed and the normal
flip, and turned_frame, generic over floats and jets, builds the frame from
them; adapted_frame runs it on floats and ideal.CanonicalFields on jets.
The jet pass takes the pivots and the half_angle branch as lane data.
It builds the chart jet x at the context's order K and the metric, the
frames, the normals and h at K - 2, from x and its first partials
truncated once (x_low, xa_low), and the second partials xab for b <= a
only, all that h reads: the table "Jet orders" in the README gives the
order of every field.  Every gate's refusal carries the lane it refused
at (errors.WintgenError.lane).

Index conventions: a, b, c label chart coordinates; i, j, k label the
orthonormal tangent frame; r, s label the orthonormal normal frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import jetalg, jets
from .errors import (InsufficientOrder, NotIdealPoint, NotImmersed,
                     ShapeError, UmbilicPoint)
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


class ClassicalContext:
    """Lazy jet computations for one immersion at the points of a chunk (p
    a list of points, or one point), one lane per point.

    The chain runs on stacks (jets): the chart jet x_stack (ncoef, ncomp[,
    lanes]), its partials, the metric, the tangent and normal frames and h
    over the LOWER pairs of jetalg, products by jets.stack_mul; x, xa, xab,
    induced_metric, frame_chart, tangent_amb, normal_frame, h and H are the
    same entries as nested lists of views.
    `point` is its point pass, the same context on values (lane vectors
    over a chunk, floats for a point alone).  It decides the NotImmersed
    gates (metric, ambient constraint, normal frame), picks the pivots the
    jet pass reuses, and supplies the values of the forms (induced_metric
    to H) that the umbilic gate, form_blocks and classical_data read."""

    def __init__(self, spec: ImmersionSpec, p, order: int = 5):
        check_order(order)
        self.spec, self.order, self.inner = spec, order, spec.ambient.inner
        self.lorentz = self.inner is jetalg.lorentz_dot
        self.p = [tuple(float(v) for v in q) for q in jets.points(p)]

    # -- the pass's arithmetic: jets here, values in the point pass ----------

    # _mul multiplies two stacks, _list gives a stack's entries as nested
    # lists (depth entry axes), _scalar a stacked scalar as a scalar of the
    # pass and _coefs a scalar's coefficients
    def _mul(self, a, b):
        return jets.stack_mul(a, b)

    def _inner(self, u, v, axis):
        """The ambient inner product of stacks over their component axis."""
        return jets.contract(self._mul(u, v), axis, self.lorentz)

    _list = staticmethod(jets.views)
    _scalar = staticmethod(lambda c: jets.views(c, 0))
    _coefs = staticmethod(lambda x: x.c)

    # -- the chain -------------------------------------------------------------

    @jets.field
    def x_stack(self):
        return jets.stack(eval_immersion_jet(self.spec, self.p, self.order))

    @jets.field
    def point(self) -> "_PointPass":
        return _PointPass(self)

    @jets.field
    def xa_stack(self):
        """The first partials (ncoef, 3, ncomp[, lanes])."""
        return np.stack([jets.stack_derivative(self.x_stack, a)
                         for a in range(3)], axis=1)

    @jets.field
    def xab_stack(self):
        """The second partials over the LOWER pairs, all that h reads."""
        xa = self.xa_stack
        return np.stack([jets.stack_derivative(xa[:, a], b)
                         for a, b in jetalg.LOWER], axis=1)

    # x and its first partials at order K - 2, the order of h: all that the
    # metric, the frames, the normals and the lift in moebius read
    x_low = jets.field(lambda self: self.x_stack[:jets.ncoef(self.order - 2)])
    xa_low = jets.field(
        lambda self: self.xa_stack[:jets.ncoef(self.order - 2)])

    @jets.field
    def metric_stack(self):
        """The induced metric over the LOWER pairs."""
        xa = self.xa_low
        return self._inner(xa[:, [a for a, _ in jetalg.LOWER]],
                           xa[:, [b for _, b in jetalg.LOWER]], 2)

    @jets.field
    def frame_chart(self):
        """Rows eC[i]: orthonormal tangent frame e_i = sum_a eC[i][a] d/du_a,
        lower-triangular (Gram-Schmidt in chart order)."""
        self.point.frame_chart  # refuses where the chart is not immersed
        return jetalg.inv_lower3(jetalg.cholesky3(self.induced_metric))

    @jets.field
    def frame_stack(self):
        """frame_chart over the LOWER entries."""
        return np.stack([self._coefs(self.frame_chart[i][a])
                         for i, a in jetalg.LOWER], axis=1)

    @jets.field
    def tangent_stack(self):
        """e_i = sum_{a <= i} eC[i][a] x_a, (ncoef, 3, ncomp[, lanes])."""
        terms = self._mul(self.frame_stack[:, :, None],
                          self.xa_low[:, [a for _, a in jetalg.LOWER]])
        return jets.contract(terms, 1, runs=(1, 2, 3))

    def _units(self):
        """The vectors the normals are made orthogonal to, with the sign of
        their square: the position if it is a unit, then the tangent frame."""
        sign = self.spec.ambient.position_sign
        units = [] if sign is None else [(self.x_low, sign)]
        units.extend((t, 1.0) for t in np.moveaxis(self.tangent_stack, 1, 0))
        return units

    def _residual(self, k, units):
        """The k-th standard basis vector (k a lane vector over a chunk) with
        its components along the units projected away, one after another."""
        v = np.zeros(self.x_low.shape)
        m = np.arange(v.shape[1]).reshape((-1,) + (1,) * (v.ndim - 2))
        v[0] = m == k
        for u, s in units:
            coef = self._inner(v, u, 1)
            if s != 1.0:
                coef = coef * s
            v = v - self._mul(coef[:, None], u)
        return v

    def _normalize(self, v):
        inv_n = 1.0 / jets.sqrt(self._scalar(self._inner(v, v, 1)))
        return self._mul(v, self._coefs(inv_n)[:, None])

    @jets.field
    def normal_stack(self):
        """Two unit normals (ncoef, 2, ncomp[, lanes]) by Gram-Schmidt from
        the standard basis vectors the point pass picked."""
        self.point.normal_stack  # picks the pivots, or refuses
        units = self._units()
        normals = []
        for k in self.point.pivots:
            n = self._normalize(self._residual(k, units))
            units.append((n, 1.0))
            normals.append(n)
        return np.stack(normals, axis=1)

    @jets.field
    def h_stack(self):
        """Second fundamental form h^r_ij in the orthonormal frames over the
        LOWER pairs, (ncoef, 2, 6[, lanes])."""
        forms = self._inner(self.xab_stack[:, None],
                            self.normal_stack[:, :, None], 3)
        return jetalg.congruence(self.frame_stack, forms, self._mul)

    @jets.field
    def H_stack(self):
        h = self.h_stack
        return (h[:, :, 0] + h[:, :, 2] + h[:, :, 5]) * (1.0 / 3.0)

    @jets.field
    def tracefree_stack(self):
        """h^r_ij - H^r delta_ij over the LOWER pairs."""
        t = self.h_stack.copy()
        t[:, :, [0, 2, 5]] -= self.H_stack[:, :, None]
        return t

    # the same entries as nested lists; xab[a] holds the pairs b <= a
    x = jets.field(lambda self: self._list(self.x_stack, 1))
    xa = jets.field(lambda self: self._list(self.xa_stack, 2))
    xab = jets.field(lambda self: (lambda e: [e[0:1], e[1:3], e[3:6]])(
        self._list(self.xab_stack, 2)))
    induced_metric = jets.field(lambda self: jetalg.symmetric_entries(
        self._list(self.metric_stack, 1)))
    tangent_amb = jets.field(lambda self: self._list(self.tangent_stack, 2))
    normal_frame = jets.field(lambda self: self._list(self.normal_stack, 2))
    h = jets.field(lambda self: [jetalg.symmetric_entries(
        self._list(self.h_stack[:, r], 1)) for r in range(2)])
    H = jets.field(lambda self: self._list(self.H_stack, 1))

    def is_umbilic(self):
        """The umbilic criterion on the point pass's h and H, per lane."""
        return umbilic(self.point.h, self.point.H)

    @jets.field
    def umbilic_gate(self) -> None:
        """The umbilic gate of the conformal invariants, decided once per
        context: it refuses at the first umbilic point."""
        l = jets.first_lane(self.is_umbilic())
        if l is not None:
            refuse_umbilic(self.spec.name, f" at {self.p[l]}",
                           "conformal invariants are undefined there", l)

    @jets.field
    def rho(self):
        """Conformal factor: rho^2 = (3/2)|II - (1/3)tr(II) I|^2."""
        self.umbilic_gate  # refuses where rho vanishes
        return jets.sqrt(1.5 * self._scalar(trace_free_sq(
            jetalg.unfold(self.tracefree_stack, 2), self._mul)))


_DIAGONAL = np.array([2.0 if a == b else 1.0 for a, b in jetalg.LOWER])


@lru_cache(maxsize=None)
def _basis_squares(ambient) -> tuple:
    """<e_k, e_k> for the standard basis of the ambient coordinates."""
    return tuple(ambient.inner(e, e) for e in np.eye(ambient.ncomp).tolist())


class _PointPass(ClassicalContext):
    """A ClassicalContext's formulas on values: lane vectors over a chunk,
    floats for a point alone, in stacks of one coefficient, products by
    np.multiply.  x and its first and second partials are read from the
    chart jet as jets.low_partials reads them (jets.SECOND), so each lane
    equals the constant term of the matching jet, and its point alone, bit
    for bit.
    The gates are decided here, at the first failing lane, and the pivots
    picked."""

    point = property(lambda self: self)  # not an attribute: no self-cycle

    def __init__(self, ctx: ClassicalContext):
        self.spec, self.p, self.order = ctx.spec, ctx.p, ctx.order
        self.inner, self.lorentz = ctx.inner, ctx.lorentz
        c = ctx.x_stack
        self.x_stack = self.x_low = c[:1]
        self.xa_stack = self.xa_low = c[None, 1:1 + 3]
        # the diagonal second partials carry the factor 2 of T_alpha
        self.xab_stack = (c[[jets.SECOND[a][b] for a, b in jetalg.LOWER]]
                          * _DIAGONAL.reshape((6,) + (1,) * (c.ndim - 1)))[None]

    _mul = staticmethod(np.multiply)
    _scalar = staticmethod(lambda c: c[0])
    _coefs = staticmethod(lambda x: np.asarray(x, dtype=float)[None])

    def _list(self, c, depth):
        """Floats for a point alone, lane vectors over a chunk."""
        v = c[0]
        if v.ndim == depth:
            return v.tolist()

        def build(v, d):
            return [build(w, d - 1) for w in v] if d else v
        return build(v, depth)

    @jets.field
    def frame_chart(self):
        """Refuses at the first lane where det I is not finite, then where
        |det I| <= 1e-12 m^3 for a mean diagonal m > 0 (at least 1e-100,
        divided out three times), then where a leading minor of I is not
        positive (a det below -1e-12 m^3 among them), then where x is off
        the ambient model by more than 1e-9; so the Cholesky factor meets
        only positive pivots."""
        with np.errstate(over="ignore", invalid="ignore"):  # lanes as floats
            I = self.induced_metric
            det = jetalg.det3(I)
            m = (I[0][0] + I[1][1] + I[2][2]) / 3.0
            s = np.maximum(m, 1e-100)
            minors = (I[0][0] > 0.0) & (det > 0.0) & (
                I[0][0] * I[1][1] - I[0][1] * I[0][1] > 0.0)
            off = self.spec.ambient.constraint_residual(self.x)
            causes = (  # (lanes that refuse, message, the value it names)
                (~np.isfinite(det), "induced metric not finite at {p}", det),
                ((m > 0.0) & (np.abs(det / s / s / s) <= 1e-12),
                 "induced metric degenerate at {p} (det {v:.3e})", det),
                (~np.asarray(minors),  # a lone point's bools: ~True is -2
                 "induced metric not positive definite at {p}", det),
                (off > 1e-9, "chart leaves the ambient model at {p} "
                             "(|<x, x> - sign| = {v:.3e})", off))
        for mask, why, v in causes:
            l = jets.first_lane(mask)
            if l is not None:
                raise NotImmersed(why.format(p=self.p[l], v=np.ravel(v)[l]),
                                  lane=l)
        return jetalg.inv_lower3(jetalg.cholesky3(I))

    @jets.field
    def normal_stack(self):
        """Each normal starts from the standard basis vector e_k with the
        largest residual, ranked in one pass by <e_k, e_k> - sum_u s_u u_k^2
        over the orthonormal units; a later index needs a score larger by
        1e-15.  Only the chosen residual is built, by Gram-Schmidt as in the
        jet pass, and the pass refuses where its square is at most 1e-12.
        The indices, picked per lane, are kept in pivots."""
        units = self._units()
        squares = _basis_squares(self.spec.ambient)
        normals, pivots = [], [-1]  # a step skips the last pivot (-1: none)
        for _ in range(2):
            best_k, best_score = -1, -math.inf
            rows = [(self._list(u, 1), s) for u, s in units]
            for k, score in enumerate(squares):
                for u, s in rows:
                    score -= s * u[k] * u[k]
                better = (score > best_score + 1e-15) & (pivots[-1] != k)
                best_k = jets.where(better, k, best_k)
                best_score = jets.where(better, score, best_score)
            v = self._residual(best_k, units)
            l = jets.first_lane(self._inner(v, v, 1)[0] <= 1e-12)
            if l is not None:
                raise NotImmersed(
                    f"cannot complete normal frame at {self.p[l]}", lane=l)
            pivots.append(best_k)
            n = self._normalize(v)
            units.append((n, 1.0))
            normals.append(n)
        self.pivots = tuple(pivots[1:])
        return np.stack(normals, axis=1)


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
    """The forms at the point of a one-point context, from its point pass."""
    pt = ctx.point
    return ClassicalData(
        induced_metric=np.array(pt.induced_metric),
        tangent_frame=np.array(pt.frame_chart),
        normal_frame=np.array(pt.normal_frame),
        h=np.array(pt.h), H=np.array(pt.H), c=ctx.spec.ambient.c)


def form_blocks(ctx: ClassicalContext):
    """h and H of the point pass, one block (2, 3, 3) and (2,) per point, in
    C order, so each block has a point alone's strides."""
    pt = ctx.point
    return (jetalg.value_array(pt.h).reshape(-1, 2, 3, 3),
            jetalg.value_array(pt.H).reshape(-1, 2))


@dataclass(frozen=True)
class DDVVReport:
    s: float
    H_norm2: float
    s_N: float
    slack: float
    ideal: bool


def ddvv_from_forms(h, H, c: float, tol: float = TOL) -> list[DDVVReport]:
    """The normalized-curvature inequality reports of the blocks h [P, 2, 3,
    3] and H [P, 2] of form_blocks, one per block, from lane arrays.

    s from the Gauss equation, s_N = (1/3)||R^perp|| with the Frobenius norm
    over independent index pairs (i<j, r<s)."""
    h = np.asarray(h, dtype=float)
    H = np.asarray(H, dtype=float)
    comm = h[:, 0] @ h[:, 1] - h[:, 1] @ h[:, 0]
    s = norm_rperp_sq = 0.0
    for i, j in ((0, 1), (0, 2), (1, 2)):
        t = h[:, :, i, i] * h[:, :, j, j] - h[:, :, i, j] ** 2
        s = s + (c + (t[:, 0] + t[:, 1]))
        norm_rperp_sq = norm_rperp_sq + comm[:, i, j] ** 2
    s = s / 3.0
    s_N = np.sqrt(norm_rperp_sq) / 3.0
    H2 = jetalg.vec_vec(H, H)
    slack = c + H2 - s_N - s
    scale = np.maximum(1.0, np.sum((h ** 2).reshape(len(h), -1), axis=-1))
    ideal = np.abs(slack) <= tol * scale
    return list(map(DDVVReport, s.tolist(), H2.tolist(), s_N.tolist(),
                    slack.tolist(), ideal.tolist()))


def _at(pts, l) -> str:
    """The end of lane l's refusal message: its point, if pts are given."""
    return "" if pts is None else f" at {pts[l]}"


def require_ideal(h, H, c: float, tol: float, pts=None) -> None:
    """The slack gate on the blocks of form_blocks: refuses at the first one
    where DDVV equality fails within tol, naming its point when pts are
    given."""
    reports = ddvv_from_forms(h, H, c, tol=tol)
    l = jets.first_lane([not r.ideal for r in reports])
    if l is not None:
        raise NotIdealPoint(f"equality gap {reports[l].slack:.3e}"
                            f"{_at(pts, l)}: not an ideal point", lane=l)


def trace_free_sq(T, mul):
    """|II - (1/3) tr(II) I|^2 from the trace-free h stacked (ncoef, 2, 3,
    3[, lanes]), jets or values as mul multiplies them: the squares summed
    in order."""
    sq = mul(T, T)
    return jets.contract(sq.reshape(sq.shape[:1] + (18,) + sq.shape[4:]), 1)


def umbilic(h, H):
    """The umbilic criterion, on values of h and H (a mask over lanes):
    |II - (1/3) tr(II) I|^2 <= 1e-10 max(|II|^2, 1e-8)."""
    T, H = np.array(h, dtype=float), np.asarray(H, dtype=float)
    sq = sum(v * v for r in range(2) for row in T[r] for v in row)
    T[:, [0, 1, 2], [0, 1, 2]] -= H[:, None]
    return trace_free_sq(T[None], np.multiply)[0] \
        <= 1e-10 * np.maximum(sq, 1e-8)


def refuse_umbilic(subject: str, where: str, undefined: str,
                   lane: int | None = None) -> None:
    """The umbilic refusal, at the lane of its chunk where it was found;
    UmbilicPoint is raised nowhere else."""
    raise UmbilicPoint(f"{subject} is totally umbilic{where}; {undefined}",
                       lane=lane)


def ddvv_report(spec: ImmersionSpec, p, tol: float = TOL) -> DDVVReport:
    data = fundamental_forms(spec, p)
    return ddvv_from_forms(data.h[None], data.H[None], data.c, tol=tol)[0]


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
    """The kernel vector v [..., 3] with its sign fixed: its
    largest-magnitude component is positive.  The SVD returns either sign,
    and the two signs give the frames (E1, E2, E3, xi1, xi2) and
    (E2, E1, -E3, xi1, -xi2), which share the pattern but swap the
    components of Omega12 and of the raw-gauge U, V."""
    k = np.argmax(np.abs(v), axis=-1)[..., None]
    return np.where(np.take_along_axis(v, k, -1) >= 0.0, v, -v)


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


def kernel_plane(T, pts=None) -> KernelPlane:
    """The kernel plane of the forms T[..., 0, :, :], T[..., 1, :, :]
    (floats, a leading lane axis over a chunk), given in one orthonormal
    basis; refuses with NotIdealPoint, at the first failing lane, when they
    share no kernel line or the first one vanishes on the plane, naming its
    point when pts are given."""
    T0, T1 = T[..., 0, :, :], T[..., 1, :, :]
    _, sing, vt = np.linalg.svd(np.concatenate([T0, T1], axis=-2))
    q = kernel_sign(vt[..., 2, :])

    k0 = np.argmin(np.abs(q), axis=-1)[..., None]
    F1 = -np.take_along_axis(q, k0, -1) * q
    F1 = np.where(np.arange(3) == k0, F1 + 1.0, F1)
    F1 = F1 / np.sqrt(jetalg.vec_vec(F1, F1))[..., None]
    F2 = jetalg.cross_last(q, F1)

    # z_r = T_r(F1, F1) + i T_r(F1, F2); flip from Im(z_0 conj(z_1))
    x, y = ([jetalg.vec_vec(jetalg.vec_mat(F1, Tr), F) for Tr in (T0, T1)]
            for F in (F1, F2))
    flip = np.where(x[0] * -y[1] + y[0] * x[1] >= 0.0, 1.0, -1.0)[()]
    no_kernel = sing[..., 2] > 1e-6 * sing[..., 0]
    degenerate = np.hypot(x[0], y[0]) < 1e-12 * np.maximum(1.0, sing[..., 0])
    l = jets.first_lane(no_kernel | degenerate)
    if l is not None:
        s = np.reshape(sing, (-1, 3))[l]
        raise NotIdealPoint(
            f"trace-free forms have no common kernel{_at(pts, l)} (singular "
            f"values {s[2]:.3e} vs {s[0]:.3e})" if np.ravel(no_kernel)[l]
            else f"degenerate shape pattern{_at(pts, l)}", lane=l)
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
    # the components of q and F1, each a lane vector over a chunk
    q, F1 = (list(np.moveaxis(v, -1, 0)) for v in (plane.q, plane.F1))
    E3 = jetalg.normalize(jetalg.matvec(P, q))
    proj = jetalg.dot(F1, E3)
    F1 = jetalg.normalize([F1[j] - proj * E3[j] for j in range(3)])
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
    require_ideal(h[None], H[None], data.c, tol)
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
