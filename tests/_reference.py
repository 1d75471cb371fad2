"""The per-jet list formulas that the stacked tensors of moebius and ideal
replaced, kept as references only: nested lists of jets in, nested lists
out, each sum term by term in its own order.  A stack built from the same
inputs equals its reference bit for bit, at the lower of the two orders
(tests/test_jet_orders.py)."""

from wintgen import jetalg, jets
from wintgen.jetalg import dot, lincomb, lorentz_dot, quadform


def symmetric3(entry):
    """The symmetric 3x3 [a][b] = entry(a, b), built for b <= a and
    mirrored."""
    M = [[None] * 3 for _ in range(3)]
    for a in range(3):
        for b in range(a + 1):
            M[a][b] = M[b][a] = entry(a, b)
    return M


def trace_free_sq(h, H):
    """|II - (1/3) tr(II) I|^2 from h and H."""
    acc = None
    for r in range(2):
        for i in range(3):
            for j in range(3):
                t = h[r][i][j] - (H[r] if i == j else 0.0)
                t = t * t
                acc = t if acc is None else acc + t
    return acc


def inv3(M):
    inv_d = 1.0 / jetalg.det3(M)
    adj = jetalg.adjugate3(M)
    return [[adj[i][j] * inv_d for j in range(3)] for i in range(3)]


def transpose(M):
    return [list(col) for col in zip(*M)]


def lower_congruence(L, M):
    """L M L^T for a lower-triangular L and a symmetric M (nested lists of
    jets), by jetalg.congruence."""
    lower = [[X[a][b] for a, b in jetalg.LOWER] for X in (L, M)]
    out = jetalg.congruence(*map(jets.stack, lower), jets.stack_mul)
    return jetalg.symmetric_entries(jets.views(out, 1))


def pregauged(B, M0, Q0):
    """The shape fields B[r][i][j] (jets or values) with the normal pair
    mixed by Q0 and components in the tangent frame rotated by M0, by
    jetalg.lincomb entry by entry."""
    M0, Q0 = M0.tolist(), Q0.tolist()
    Bmix = [[[lincomb([Q0[0][r], Q0[1][r]], lambda s: B[s][i][j])
              for j in range(3)] for i in range(3)] for r in range(2)]
    return [[[lincomb([M0[i][a] * M0[j][b] for a in range(3)
                       for b in range(3)], lambda k: Bmix[r][k // 3][k % 3])
              for j in range(3)] for i in range(3)] for r in range(2)]


def frame_scalar_d(EC, f, k):
    """E_k(f) for a scalar jet f, frame rows EC in chart components."""
    return dot(EC[k], [jets.derivative(f, a) for a in (1, 2, 3)])


def frame_vector_d(EC, vec, k):
    return [frame_scalar_d(EC, comp, k) for comp in vec]


def christoffel(ginv, dg):
    """Gamma[c][a][b] = (1/2) g^cd (d_a g_bd + d_b g_ad - d_d g_ab), from
    g^-1 and dg[a][b][d] = d_d g_ab."""
    return [symmetric3(lambda a, b: 0.5 * dot(ginv[c], [
        dg[b][d][a] + dg[a][d][b] - dg[a][b][d] for d in range(3)]))
        for c in range(3)]


def connection_forms(E, g, Gamma):
    """omega[i][j][k] = g(nabla_{E_k} E_i, E_j) of a g-orthonormal frame
    with rows E in chart components, built for j < i and negated across
    the zero diagonal, at the order of the inputs."""
    dE = [[[jets.derivative(E[i][a], b + 1) for b in range(3)]
           for a in range(3)] for i in range(1, 3)]
    low = [[dot(g[a], E[j]) for a in range(3)] for j in range(2)]
    out = [[[None] * 3 for _ in range(3)] for _ in range(3)]
    for i in range(1, 3):
        D = [[dE[i - 1][a][b] + dot(Gamma[a][b], E[i])
              for b in range(3)] for a in range(3)]
        for j in range(i):
            S = [dot(low[j], [D[a][b] for a in range(3)]) for b in range(3)]
            for k in range(3):
                acc = dot(E[k], S)
                out[i][j][k] = acc
                out[j][i][k] = -acc
    zero = 0.0 * out[1][0][0]
    for i in range(3):
        out[i][i] = [zero] * 3
    return out


def moebius_fields(rho, I, eC, h, H, normals, Y, lorentz):
    """g, ginv, Gamma, EC, coframe, Yi, B, C, ricci and A_gauss of
    MoebiusContext by the list formulas, from rho, the induced metric I,
    the tangent frame eC (rows, chart components), h, H, the normal frame
    and the lift Y, each at the order of its inputs (g inverted at its
    own)."""
    inner = lorentz_dot if lorentz else dot
    rho2 = rho * rho
    g = [[rho2 * v for v in row] for row in I]
    ginv = inv3(g)
    Gamma = christoffel(ginv, symmetric3(lambda a, b: [
        jets.derivative(g[a][b], d) for d in (1, 2, 3)]))
    inv_rho = 1.0 / rho
    EC = [[v * inv_rho if a <= i else v for a, v in enumerate(row)]
          for i, row in enumerate(eC)]
    coframe = transpose(jetalg.inv_lower3(EC))
    Yi = [frame_vector_d(EC, Y, i) for i in range(3)]
    B = [[[inv_rho * (h[r][i][j] - (H[r] if i == j else 0.0))
           for j in range(3)] for i in range(3)] for r in range(2)]
    # C: E_i(f) of rho, H^0, H^1 over e_i's components a <= i, and the
    # normal connection conn[a][r] = <d_a n_s, n_r>, s = 1 - r
    dE = [[dot(eC[i][:i + 1], d[:i + 1]) for i in range(3)]
          for d in ([jets.derivative(f, a) for a in (1, 2, 3)]
                    for f in (rho, *H))]
    dlog = [d * inv_rho for d in dE[0]]
    inv_rho2 = inv_rho * inv_rho
    conn = [[inner([jets.derivative(c, a) for c in normals[1 - r]],
                   normals[r]) for r in range(2)] for a in (1, 2, 3)]
    C = []
    for r in range(2):
        s = 1 - r
        row = []
        for i in range(3):
            acc = dE[1 + r][i] + H[s] * dot(
                eC[i][:i + 1], [conn[a][r] for a in range(i + 1)])
            for j in range(3):
                acc = acc + (h[r][i][j] - (H[r] if i == j else 0.0)) * dlog[j]
            row.append(-inv_rho2 * acc)
        C.append(row)
    G = Gamma
    tr = [G[0][0][c] + G[1][1][c] + G[2][2][c] for c in range(3)]
    Rc = [[None] * 3 for _ in range(3)]
    for b in range(3):
        for c in range(b + 1):
            acc = jets.derivative(G[0][b][c], 1) \
                + jets.derivative(G[1][b][c], 2) \
                + jets.derivative(G[2][b][c], 3) \
                - jets.derivative(tr[c], b + 1) \
                + dot(tr, [G[e][b][c] for e in range(3)])
            for a in range(3):
                acc = acc - dot(G[a][b], [G[e][a][c] for e in range(3)])
            Rc[b][c] = Rc[c][b] = acc
    Ric = lower_congruence(EC, Rc)
    trA = 0.25 * (Ric[0][0] + Ric[1][1] + Ric[2][2] + 2.0 / 3.0)
    A = [[None] * 3 for _ in range(3)]
    for j in range(3):
        for l in range(j + 1):
            acc = Ric[j][l] + dot(B[0][j], B[0][l]) + dot(B[1][j], B[1][l])
            A[j][l] = A[l][j] = acc - trA if j == l else acc
    return {"g": g, "ginv": ginv, "Gamma": Gamma, "EC": EC,
            "coframe": coframe, "Yi": Yi, "B": B, "C": C, "ricci": Ric,
            "A_gauss": A}


def canonical_fields(Rf, Qf, m, xi):
    """The fields of CanonicalFields on the adapted rows Rf and the normal
    mixing Qf by the list formulas, from the moebius_fields m and the mean
    curvature spheres xi.  b holds B^r(E_0, E_j); lam and omega_chart are
    read on the lanes where lambda is defined."""
    def qmix(r, term):
        return lincomb([Qf[0][r], Qf[1][r]], term)
    EC, co, B, C = m["EC"], m["coframe"], m["B"], m["C"]
    frame_chart = [[dot(Rf[i][a:], [EC[j][a] for j in range(a, 3)])
                    for a in range(3)] for i in range(3)]
    xim = [[qmix(r, lambda s: xi[s][k]) for k in range(7)] for r in range(2)]
    bmix = [[[qmix(r, lambda s: B[s][i][j]) for j in range(3)]
             for i in range(3)] for r in range(2)]
    b = [[quadform(Rf[0], bmix[r], Rf[j]) for j in range(3)]
         for r in range(2)]
    c = [[qmix(r, lambda s: dot(Rf[i], C[s])) for i in range(3)]
         for r in range(2)]
    chart = [lorentz_dot([jets.derivative(x, a) for x in xim[0]], xim[1])
             for a in (1, 2, 3)]
    theta = [dot(frame_chart[k], chart) for k in range(3)]
    om = connection_forms(frame_chart, m["g"], m["Gamma"])
    # B^0_{00,2}: the list formula of B^r_{ij,k} at r = i = j = 0, k = 2
    acc = frame_scalar_d(frame_chart, b[0][0], 2)
    for l in (1, 2):
        acc = acc + b[0][l] * om[l][0][2]
        acc = acc + b[0][l] * om[l][0][2]
    covb = acc + b[1][0] * (-1.0 * theta[2])
    covc = {}
    for i, js in ((0, (0,)), (1, (0, 1))):
        dc = [jets.derivative(c[0][i], a) for a in (1, 2, 3)]
        for j in js:
            acc = dot(frame_chart[j], dc)
            for k in range(3):
                if k != i:
                    acc = acc + c[0][k] * om[k][i][j]
            covc[i, j] = acc + c[1][i] * (-1.0 * theta[j])
    mu = b[0][1]
    coframe_can = [[dot(Rf[i][:a + 1], [co[j][a] for j in range(a + 1)])
                    for a in range(3)] for i in range(3)]
    Lf = -(covb / mu)
    w = [-(c[0][1] / mu), -(c[0][0] / mu),
         (covc[0, 0] - covc[1, 1]) / (2.0 * mu) / Lf]
    return {
        "frame_chart": frame_chart, "xi": xim, "b": b, "cfield": c,
        "theta": theta, "omega_can": om, "Lf": Lf, "covc": covc,
        "coframe_can": coframe_can,
        "Yi_can": [[dot(Rf[i], [m["Yi"][j][k] for j in range(3)])
                    for k in range(7)] for i in range(3)],
        "A_can_field": [[quadform(Rf[i], m["A_gauss"], Rf[j])
                         for j in range(3)] for i in range(3)],
        "omega_chart": [dot(w, [coframe_can[i][a] for i in range(3)])
                        for a in range(3)]}
