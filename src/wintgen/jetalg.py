"""Small dense linear algebra over jet scalars.

Vectors and matrices are plain Python lists (of lists); entries are MultiJet
or float.  Everything here is generic over the scalar type because the
geometric pipeline runs the same formulas on jets (for derivatives) and on
floats (for spot values).  congruence works on stacks (jets), with the
product of stacks as an argument, so the point pass runs it on values.
"""

from __future__ import annotations

import numpy as np

from . import jets
from .jets import contract


def dot(u, v):
    """Euclidean inner product of equal-length vectors."""
    acc = u[0] * v[0]
    for a, b in zip(u[1:], v[1:]):
        acc = acc + a * b
    return acc


def lorentz_dot(u, v):
    """Inner product with signature (-,+,...,+): first slot timelike."""
    acc = -(u[0] * v[0])
    for a, b in zip(u[1:], v[1:]):
        acc = acc + a * b
    return acc


def cross3(u, v):
    return [u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0]]


def cross_last(u, v):
    """u x v over the last axis of two arrays: cross3's terms, in np.cross's
    order and memory layout for its default axes, without its overhead."""
    return np.stack(cross3([u[..., k] for k in range(3)],
                           [v[..., k] for k in range(3)]), axis=-1)


def matvec(M, v):
    return [dot(row, v) for row in M]


def quadform(u, M, v):
    """u^T M v for 3-vectors, summed row by row."""
    return dot([u[i] * M[i][j] for i in range(3) for j in range(3)], list(v) * 3)


def transpose(M):
    return [list(col) for col in zip(*M)]


def det3(M):
    return (M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
            - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
            + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0]))


def adjugate3(M):
    return [
        [M[1][1] * M[2][2] - M[1][2] * M[2][1],
         M[0][2] * M[2][1] - M[0][1] * M[2][2],
         M[0][1] * M[1][2] - M[0][2] * M[1][1]],
        [M[1][2] * M[2][0] - M[1][0] * M[2][2],
         M[0][0] * M[2][2] - M[0][2] * M[2][0],
         M[0][2] * M[1][0] - M[0][0] * M[1][2]],
        [M[1][0] * M[2][1] - M[1][1] * M[2][0],
         M[0][1] * M[2][0] - M[0][0] * M[2][1],
         M[0][0] * M[1][1] - M[0][1] * M[1][0]],
    ]


def inv3(M):
    inv_d = 1.0 / det3(M)
    adj = adjugate3(M)
    return [[adj[i][j] * inv_d for j in range(3)] for i in range(3)]


def cholesky3(G):
    """Lower-triangular L with L L^T = G for symmetric positive-definite G.
    Raises DomainError (via jet sqrt) when a pivot is non-positive."""
    L00 = jets.sqrt(G[0][0])
    L10 = G[1][0] / L00
    L20 = G[2][0] / L00
    L11 = jets.sqrt(G[1][1] - L10 * L10)
    L21 = (G[2][1] - L20 * L10) / L11
    L22 = jets.sqrt(G[2][2] - L20 * L20 - L21 * L21)
    zero = 0.0
    return [[L00, zero, zero], [L10, L11, zero], [L20, L21, L22]]


def inv_lower3(L):
    """Inverse of a lower-triangular 3x3 matrix (forward substitution)."""
    i00 = 1.0 / L[0][0]
    i11 = 1.0 / L[1][1]
    i22 = 1.0 / L[2][2]
    i10 = -(L[1][0] * i00) * i11
    i20 = -(L[2][0] * i00 + L[2][1] * i10) * i22
    i21 = -(L[2][1] * i11) * i22
    zero = 0.0
    return [[i00, zero, zero], [i10, i11, zero], [i20, i21, i22]]


def symmetric3(entry):
    """The symmetric 3x3 matrix [a][b] = entry(a, b), each entry built once
    for b <= a and mirrored."""
    M = [[None] * 3 for _ in range(3)]
    for a in range(3):
        for b in range(a + 1):
            M[a][b] = M[b][a] = entry(a, b)
    return M


# The entries (a, b), b <= a, of a lower-triangular or symmetric 3x3 matrix
# in a stack's entry axis, row by row, and each (a, b)'s place among them.
LOWER = ((0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2))
SYM = ((0, 1, 3), (1, 2, 4), (3, 4, 5))


def symmetric_entries(e):
    """The symmetric 3x3 nested list of its LOWER entries e."""
    return [[e[SYM[a][b]] for b in range(3)] for a in range(3)]


# T = L M as the products L_ia M_ab over a <= i, in runs of (i, b); then
# (T L^T)_ij as the products T_ib L_jb over b <= j, in runs of (i, j) in
# LOWER order
_T_TERMS = [(i, a, b) for i in range(3) for b in range(3) for a in range(i + 1)]
_T_L = [SYM[i][a] for i, a, _ in _T_TERMS]
_T_M = [SYM[a][b] for _, a, b in _T_TERMS]
_OUT_TERMS = [(i, j, b) for i, j in LOWER for b in range(j + 1)]
_OUT_T = [3 * i + b for i, _, b in _OUT_TERMS]
_OUT_L = [SYM[j][b] for _, j, b in _OUT_TERMS]


def congruence(L, M, mul):
    """L M L^T for stacked lower-triangular L (ncoef, 6, ...) and symmetric
    M (ncoef, *batch, 6, ...), both over LOWER, as stacked LOWER entries;
    mul multiplies two stacks.  Each entry is the dots of lower_congruence,
    with the zero entries of L skipped."""
    axis = M.ndim - L.ndim + 1
    L = L.reshape(L.shape[:1] + (1,) * (axis - 1) + L.shape[1:])
    T = contract(mul(np.take(L, _T_L, axis), np.take(M, _T_M, axis)), axis,
                 runs=[i + 1 for i in range(3) for _ in range(3)])
    return contract(mul(np.take(T, _OUT_T, axis), np.take(L, _OUT_L, axis)),
                    axis, runs=[j + 1 for _, j in LOWER])


def lower_congruence(L, M):
    """L M L^T for a lower-triangular 3x3 L and a symmetric 3x3 M (nested
    lists, all jets or all numbers), by congruence."""
    lower = [[X[a][b] for a, b in LOWER] for X in (L, M)]
    if isinstance(lower[0][0], jets.MultiJet):
        out = congruence(*map(jets.stack, lower), jets.stack_mul)
        return symmetric_entries(jets.views(out, 1))
    out = congruence(*(np.asarray(e, dtype=float)[None] for e in lower),
                     np.multiply)
    return symmetric_entries(list(out[0]))


def exactly(c, v) -> bool:
    """Whether a coefficient is exactly v on every lane; a jet never is."""
    if isinstance(c, float):
        return c == v
    return isinstance(c, np.ndarray) and bool((c == v).all())


def lincomb(coefs, term):
    """sum_k coefs[k] * term(k), summed in order of k, over floats, lane
    vectors and jets.  A coefficient exactly 0 adds no term (term(k) is not
    built), and one exactly 1 adds term(k) with no product; None when every
    term drops."""
    acc = None
    for k, c in enumerate(coefs):
        if exactly(c, 0.0):
            continue
        t = term(k) if exactly(c, 1.0) else c * term(k)
        acc = t if acc is None else acc + t
    return acc


def normalize(u, inner=dot):
    inv_n = 1.0 / jets.sqrt(inner(u, u))
    return [a * inv_n for a in u]


def truncate(obj, order: int):
    """The jets of a nested list truncated to order; numbers pass."""
    if isinstance(obj, list):
        return [truncate(x, order) for x in obj]
    return obj.truncate(order) if isinstance(obj, jets.MultiJet) else obj


def values(obj):
    """Recursively replace jets by their constant terms (for reporting)."""
    if isinstance(obj, list):
        return [values(x) for x in obj]
    return jets.value_of(obj)


def _stack(obj, leaf) -> np.ndarray:
    """leaf(x, lanes) of each entry x of a nested list (lanes: the lane
    count of its first entry, jet or lane vector; None for a point alone)
    as one array, a chunk's lane axis moved first, in C order, so a lane's
    block has a point alone's strides."""
    first = obj
    while isinstance(first, list):
        first = first[0]
    v = first.c[0] if isinstance(first, jets.MultiJet) else np.asarray(first)
    lanes = len(v) if v.ndim else None

    def build(x):
        return [build(y) for y in x] if isinstance(x, list) else leaf(x, lanes)
    a = np.array(build(obj))
    return a if lanes is None else np.ascontiguousarray(np.moveaxis(a, -1, 0))


def value_array(obj) -> np.ndarray:
    """The values of a nested list of jets, floats or lane vectors as an
    array of the list's shape; over a chunk, behind a leading lane axis."""
    return _stack(obj, lambda x, lanes: x.c[0] if isinstance(x, jets.MultiJet)
                  else np.full(lanes or (), x))


def gradients(obj) -> np.ndarray:
    """First partials at the point of a nested list of jets: an array of the
    list's shape with a trailing axis of length 3; over a chunk, behind a
    leading lane axis; zeros for a number."""
    return _stack(obj, lambda x, lanes: jets.gradient(x)
                  if isinstance(x, jets.MultiJet)
                  else np.zeros((jets.NVARS,) + ((lanes,) if lanes else ())))


# u @ M, M @ v and u . v for values with a leading lane axis: np.matmul
# stacked over the lanes makes for each lane the BLAS call of a point alone.

def vec_mat(u, M):
    return (u[..., None, :] @ M)[..., 0, :]


def mat_vec(M, v):
    return (M @ v[..., None])[..., 0]


def vec_vec(u, v):
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]
