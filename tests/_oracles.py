"""Independent oracles used by the test suite.

Two differentiation oracles that share no code with the package:

* an exact Taylor-shift for explicit polynomials (binomial re-expansion), and
* 6th-order central finite differences with one Richardson step, nested per
  variable for mixed partials up to total order 3.

Plus a triangular-solve oracle for series division, and small random
generators for polynomials and smooth closures.
"""

from __future__ import annotations

import math

import numpy as np

STENCIL_OFFSETS = (-3, -2, -1, 0, 1, 2, 3)
STENCIL_WEIGHTS = (-1 / 60, 3 / 20, -3 / 4, 0.0, 3 / 4, -3 / 20, 1 / 60)


def poly_eval(poly: dict, q) -> float:
    """Evaluate a polynomial given as {(a,b,c): coeff} at point q."""
    total = 0.0
    for (a, b, c), coeff in poly.items():
        total += coeff * q[0] ** a * q[1] ** b * q[2] ** c
    return total


def poly_taylor_coeff(poly: dict, beta, q) -> float:
    """Normalized Taylor coefficient T_beta of the polynomial about q:
    T_beta = sum_{alpha >= beta} c_alpha * prod_i C(alpha_i, beta_i) * q^(alpha-beta)."""
    b0, b1, b2 = beta
    total = 0.0
    for (a0, a1, a2), coeff in poly.items():
        if a0 < b0 or a1 < b1 or a2 < b2:
            continue
        term = coeff * math.comb(a0, b0) * math.comb(a1, b1) * math.comb(a2, b2)
        term *= q[0] ** (a0 - b0) * q[1] ** (a1 - b1) * q[2] ** (a2 - b2)
        total += term
    return total


def poly_derivative(poly: dict, var: int) -> dict:
    out = {}
    for alpha, coeff in poly.items():
        if alpha[var] == 0:
            continue
        beta = list(alpha)
        beta[var] -= 1
        out[tuple(beta)] = out.get(tuple(beta), 0.0) + coeff * alpha[var]
    return out


def _fd_single(f, q, var: int, h: float) -> float:
    q = list(q)
    total = 0.0
    for off, w in zip(STENCIL_OFFSETS, STENCIL_WEIGHTS):
        if w == 0.0:
            continue
        qq = list(q)
        qq[var] += off * h
        total += w * f(qq)
    return total / h


def fd_partial(f, q, alpha, h: float = 1e-2) -> float:
    """Mixed partial d^alpha f(q) by nested 6th-order central differences
    with one Richardson extrapolation step (h and h/2)."""

    def nested(g, remaining):
        for var in (0, 1, 2):
            for _ in range(remaining[var]):
                g = (lambda gg, v: lambda qq: _fd_single(gg, qq, v, nested.h))(g, var)
        return g

    def run(step):
        nested.h = step
        return nested(f, alpha)(list(q))

    d1 = run(h)
    d2 = run(h / 2)
    return (64.0 * d2 - d1) / 63.0


def graded_monomials(order: int) -> list:
    """Trivariate exponents of total degree <= order in the coefficient
    layout of a jet: degree first, then the exponents in decreasing order."""
    out = []
    for deg in range(order + 1):
        for a in range(deg, -1, -1):
            for b in range(deg - a, -1, -1):
                out.append((a, b, deg - a - b))
    return out


def series_quotient(a, b, order: int) -> list:
    """Normalized Taylor coefficients q of a/b, truncated at order, by
    forward substitution in b*q = a over increasing degree:
    q_g = (a_g - sum_{0 < beta <= g} b_beta q_(g - beta)) / b_0."""
    monos = graded_monomials(order)
    pos = {m: i for i, m in enumerate(monos)}
    q = [0.0] * len(monos)
    for i, g in enumerate(monos):
        acc = float(a[i])
        for beta in monos[1:]:
            if all(beta[k] <= g[k] for k in range(3)):
                rest = tuple(g[k] - beta[k] for k in range(3))
                acc -= float(b[pos[beta]]) * q[pos[rest]]
        q[i] = acc / float(b[0])
    return q


def random_polynomial(rng: np.random.Generator, max_degree: int = 5, terms: int = 10) -> dict:
    monos = [(a, b, c)
             for a in range(max_degree + 1)
             for b in range(max_degree + 1 - a)
             for c in range(max_degree + 1 - a - b)]
    idx = rng.choice(len(monos), size=min(terms, len(monos)), replace=False)
    return {monos[i]: float(rng.uniform(-2, 2)) for i in idx}


def smooth_closures():
    """Named smooth test functions with generic-evaluator bodies: each entry
    is (name, f) where f accepts a 3-list of any scalar type supporting
    arithmetic plus the wintgen.jets helpers."""
    from wintgen import jets

    def f1(u):
        return jets.sin(2.0 * u[0] + u[1] * u[2]) * jets.exp(0.5 * u[1])

    def f2(u):
        return jets.sqrt(1.0 + u[0] * u[0] + u[1] * u[1]) * jets.cos(u[2])

    def f3(u):
        return jets.exp(jets.sin(u[0]) * jets.cos(u[1])) + u[2] * u[2] * u[0]

    def f4(u):
        return 1.0 / (2.0 + jets.sin(u[0] + u[1] + u[2]))

    return [("trig-exp", f1), ("sqrt-cos", f2), ("exp-sin-cos", f3), ("reciprocal", f4)]


# ---------------------------------------------------------------------------
# independent classical-invariant computation: plain finite differences and
# numpy, sharing no code with the package pipeline.


def fd_classical_invariants(f, p, c: float, lorentz: bool = False,
                            h_step: float = 1e-2) -> dict:
    """s, s_N, |H|^2, slack of the immersion f (floats -> floats) at p,
    via Richardson finite differences.  c is the ambient curvature; lorentz
    marks a (-,+,...,+) ambient form (hyperboloid model)."""
    p = list(p)
    x0 = np.asarray(f(p), dtype=float)
    ncomp = x0.size
    eta = np.ones(ncomp)
    if lorentz:
        eta[0] = -1.0

    def ip(u, v):
        return float(np.sum(eta * u * v))

    def vector_partial(alpha):
        return np.array([fd_partial(lambda q: f(list(q))[k], p, alpha, h=h_step)
                         for k in range(ncomp)])

    d1 = [vector_partial(tuple(int(i == v) for i in range(3))) for v in range(3)]
    d2 = [[vector_partial(tuple((int(i == a) + int(i == b)) for i in range(3)))
           for b in range(3)] for a in range(3)]

    # orthonormal tangent frame (Gram-Schmidt in chart order)
    tang = []
    for v in d1:
        w = v.copy()
        for t in tang:
            w = w - ip(w, t) * t
        tang.append(w / math.sqrt(ip(w, w)))

    # normal frame: project the standard basis, largest-residual pivoting
    project_away = []
    if c > 0:
        project_away.append((x0, 1.0))
    elif c < 0:
        project_away.append((x0, -1.0))
    project_away.extend((t, 1.0) for t in tang)
    normals = []
    for _ in range(2):
        best, best_res = None, -1.0
        for k in range(ncomp):
            w = np.zeros(ncomp)
            w[k] = 1.0
            for u, sgn in project_away:
                w = w - sgn * ip(w, u) * u
            for u in normals:
                w = w - ip(w, u) * u
            r = ip(w, w)
            if r > best_res:
                best, best_res = w, r
        normals.append(best / math.sqrt(best_res))

    # second fundamental form in the orthonormal frames
    G = np.array([[ip(a, b) for b in d1] for a in d1])
    L = np.linalg.cholesky(G)
    eC = np.linalg.inv(L)  # rows: frame in chart components
    hmat = np.zeros((2, 3, 3))
    for r in range(2):
        hc = np.array([[ip(d2[a][b], normals[r]) for b in range(3)] for a in range(3)])
        hmat[r] = eC @ hc @ eC.T
    Hvec = hmat.trace(axis1=1, axis2=2) / 3.0

    s = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            s += c + sum(hmat[r, i, i] * hmat[r, j, j] - hmat[r, i, j] ** 2
                         for r in range(2))
    s /= 3.0
    comm = hmat[0] @ hmat[1] - hmat[1] @ hmat[0]
    rperp = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            rperp += comm[i, j] ** 2
    s_N = math.sqrt(rperp) / 3.0
    H2 = float(np.dot(Hvec, Hvec))
    return {"s": s, "s_N": s_N, "H2": H2, "slack": c + H2 - s_N - s}
