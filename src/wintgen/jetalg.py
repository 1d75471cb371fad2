"""Small dense linear algebra over jet scalars.

Vectors and matrices are plain Python lists (of lists); entries are MultiJet
or float.  Everything here is generic over the scalar type because the
geometric pipeline runs the same formulas on jets (for derivatives) and on
floats (for spot values).
"""

from __future__ import annotations

import numpy as np

from . import jets


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


def lower_congruence(L, M):
    """L M L^T for a lower-triangular 3x3 L and a symmetric 3x3 M, skipping
    the zero entries of L and building each symmetric pair once."""
    # T = L M, then out = T L^T
    T = [[dot(L[i][:i + 1], [M[a][b] for a in range(i + 1)]) for b in range(3)]
         for i in range(3)]
    return symmetric3(lambda i, j: dot(T[i][:j + 1], L[j][:j + 1]))


def _exactly(c, v) -> bool:
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
        if _exactly(c, 0.0):
            continue
        t = term(k) if _exactly(c, 1.0) else c * term(k)
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
    leading lane axis."""
    return _stack(obj, lambda x, lanes: jets.gradient(x))


# u @ M, M @ v and u . v for values with a leading lane axis: np.matmul
# stacked over the lanes makes for each lane the BLAS call of a point alone.

def vec_mat(u, M):
    return (u[..., None, :] @ M)[..., 0, :]


def mat_vec(M, v):
    return (M @ v[..., None])[..., 0]


def vec_vec(u, v):
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]
