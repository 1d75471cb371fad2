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


def matvec(M, v):
    return [dot(row, v) for row in M]


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


def lower_congruence(L, M):
    """L M L^T for a lower-triangular 3x3 L and a symmetric 3x3 M, skipping
    the zero entries of L and building each symmetric pair once."""
    # T = L M, then out = T L^T
    T = [[dot(L[i][:i + 1], [M[a][b] for a in range(i + 1)]) for b in range(3)]
         for i in range(3)]
    out = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i + 1):
            out[i][j] = out[j][i] = dot(T[i][:j + 1], L[j][:j + 1])
    return out


def normalize(u, inner=dot):
    inv_n = 1.0 / jets.sqrt(inner(u, u))
    return [a * inv_n for a in u]


def values(obj):
    """Recursively replace jets by their constant terms (for reporting)."""
    if isinstance(obj, list):
        return [values(x) for x in obj]
    return jets.value_of(obj)


def gradients(obj) -> np.ndarray:
    """First partials at the point of a nested list of jets: an array of the
    list's shape with a trailing axis of length 3."""
    if isinstance(obj, list):
        return np.array([gradients(x) for x in obj])
    return jets.gradient(obj)
