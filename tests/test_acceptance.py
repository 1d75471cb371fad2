"""End-to-end acceptance gate: nine numbered criteria.

Each test prints exactly one PASS/FAIL line (visible under pytest -s, or
in the captured-output section on failure) before asserting, so the
printed record is complete either way.  Sample points are drawn with one
fixed seed so every criterion sees the same frozen point sets.
"""

import contextlib
import io
import math
from functools import lru_cache

import numpy as np

import _oracles as oracles
import _reference
from _shared import context, entry, mdata

from wintgen import gallery, ideal, jets, moebius
from wintgen.classical import ddvv_matrix_gap, ddvv_report
from wintgen.cli import main as cli_main
from wintgen.errors import IntegrableDistribution
from wintgen.immersion import parse_expression, sample_points
from wintgen.jets import extract_derivative, jet_seed

MU = 1.0 / math.sqrt(6.0)
SQRT6 = math.sqrt(6.0)
ACC_SEED = 0xACCE
TWISTED = ("so3", "veronese-hopf", "hopf-generic")
CURVED = TWISTED + ("cone-veronese", "generic-control")


@lru_cache(maxsize=None)
def acc_points(name, k):
    return tuple(sample_points(entry(name).spec.domain, k, seed=ACC_SEED))


def _verdict(num, label, problems):
    status = "FAIL" if problems else "PASS"
    print(f"[criterion {num}] {status}: {label}")
    assert not problems, "\n".join(str(x) for x in problems[:12])


# ---------------------------------------------------------------------------
# 1. the pointwise curvature inequality and its equality cases


def test_criterion_1_inequality_and_equality_cases():
    problems = []
    for e in gallery.all_entries():
        for p in e.sample_plan:
            rep = ddvv_report(e.spec, p)
            if rep.slack < -1e-10:
                problems.append(f"{e.name}: slack {rep.slack} at {p}")
    rng = np.random.default_rng(0xDDF1)
    for k in range(10_000):
        pair = []
        for _ in range(2):
            m = rng.normal(size=(3, 3))
            m = m + m.T
            m -= (np.trace(m) / 3.0) * np.eye(3)
            pair.append(m)
        gap = ddvv_matrix_gap(pair)
        if gap < -1e-10:
            problems.append(f"matrix pair {k}: gap {gap}")
    for name in ("so3", "veronese-hopf", "cone-veronese"):
        e = entry(name)
        for p in sample_points(e.spec.domain, 100, seed=ACC_SEED):
            rep = ddvv_report(e.spec, p)
            if abs(rep.slack) >= 1e-8:
                problems.append(f"{name}: |slack| {abs(rep.slack)} at {p}")
    for p in acc_points("generic-control", 5):
        rep = ddvv_report(entry("generic-control").spec, p)
        if rep.slack <= 0.01:
            problems.append(f"generic-control: slack {rep.slack} at {p}")
    _verdict(1, "inequality everywhere, equality exactly on the ideal "
                "entries", problems)


# ---------------------------------------------------------------------------
# 2. the conformal constants shared by every ideal chart


def test_criterion_2_conformal_constants():
    problems = []
    for name in TWISTED + ("cone-veronese",):
        partial = name == "cone-veronese"
        for p in acc_points(name, 20):
            data = mdata(name, p)
            bsq = float(np.sum(data.B ** 2))
            if abs(bsq - 2.0 / 3.0) > 1e-8:
                problems.append(f"{name}: sum B^2 = {bsq} at {p}")
            cf = ideal.CanonicalFields(context(name, p), partial=partial)
            if abs(cf.mu - MU) > 1e-8:
                problems.append(f"{name}: mu = {cf.mu} at {p}")
            if name == "so3" and abs(data.rho - SQRT6) > 1e-10:
                problems.append(f"so3: rho = {data.rho} at {p}")
    _verdict(2, "mu = 6^-1/2, sum B^2 = 2/3, homogeneous rho = sqrt(6)",
             problems)


# ---------------------------------------------------------------------------
# 3. the homogeneous orbit reproduces its closed-form record


def test_criterion_3_homogeneous_ground_truth():
    problems = []
    target = _structure_target()
    for p in acc_points("so3", 20):
        data = mdata("so3", p)
        if np.abs(data.C).max() > 1e-8:
            problems.append(f"C nonzero at {p}: {np.abs(data.C).max()}")
        inv = ideal.invariants_uvlg(context("so3", p))
        for label, val in (("U", inv.U), ("V", inv.V), ("G", inv.G)):
            if abs(val) > 1e-8:
                problems.append(f"{label} = {val} at {p}")
        if abs(inv.L - MU) > 1e-8:
            problems.append(f"L = {inv.L} at {p}")
        th = inv.theta12_coeffs
        if max(abs(th[0]), abs(th[1]), abs(th[2] - MU)) > 1e-8:
            problems.append(f"theta12 = {th} at {p}")
        if abs(2.0 * inv.Fhat - inv.L ** 2) > 1e-8:
            problems.append(f"2 Fhat != L^2 at {p}: {inv.Fhat}, {inv.L}")
        if abs(inv.Fhat - 1.0 / 12.0) > 1e-8:
            problems.append(f"Fhat = {inv.Fhat} at {p}")
        if max(abs(d) for d in inv.domega) > 1e-8:
            problems.append(f"domega = {inv.domega} at {p}")
        labels, S = ideal.structure_matrix(
            ideal.CanonicalFields(context("so3", p)))
        worst = float(np.abs(S - target).max())
        if worst > 1e-7:
            problems.append(f"structure matrix off by {worst} at {p}")
    _verdict(3, "homogeneous orbit: zeros, constants, and the full "
                "structure matrix", problems)


def _structure_target():
    q = MU
    F = 1.0 / 12.0
    T = np.zeros((7, 7, 3))
    T[0, 2] = (1, 0, 0); T[0, 3] = (0, 1, 0); T[0, 4] = (0, 0, 1)
    T[1, 2] = (F, 0, 0); T[1, 3] = (0, F, 0); T[1, 4] = (0, 0, F)
    T[2, 0] = (-F, 0, 0); T[2, 1] = (-1, 0, 0); T[2, 4] = (0, q, 0)
    T[2, 5] = (0, q, 0); T[2, 6] = (q, 0, 0)
    T[3, 0] = (0, -F, 0); T[3, 1] = (0, -1, 0); T[3, 4] = (-q, 0, 0)
    T[3, 5] = (q, 0, 0); T[3, 6] = (0, -q, 0)
    T[4, 0] = (0, 0, -F); T[4, 1] = (0, 0, -1); T[4, 2] = (0, -q, 0)
    T[4, 3] = (q, 0, 0)
    T[5, 2] = (0, -q, 0); T[5, 3] = (-q, 0, 0); T[5, 6] = (0, 0, q)
    T[6, 2] = (-q, 0, 0); T[6, 3] = (0, q, 0); T[6, 5] = (0, 0, -q)
    return T


# ---------------------------------------------------------------------------
# 4. the closed-form verdict: sign of Fhat picks the space form


def test_criterion_4_space_form_verdict():
    problems = []
    for name in ("so3", "veronese-hopf"):
        v = ideal.classify_theorem_b(entry(name).spec, acc_points(name, 5),
                                     tol=1e-6)
        if v.classification != "sphere_minimal":
            problems.append(f"{name}: {v.classification}")
    T = gallery.random_lorentz(seed=0xB0057)
    boosted = moebius.conformal_transform(entry("so3").spec, T)
    v = ideal.classify_theorem_b(boosted, acc_points("so3", 5), tol=1e-6)
    if v.classification != "sphere_minimal":
        problems.append(f"boosted orbit: {v.classification}")
    try:
        ideal.classify_theorem_b(entry("cone-veronese").spec,
                                 acc_points("cone-veronese", 5), tol=1e-6)
        problems.append("cone: no refusal despite integrable distribution")
    except IntegrableDistribution:
        pass
    _verdict(4, "sphere_minimal on the minimal entries, refusal on the "
                "cone", problems)


# ---------------------------------------------------------------------------
# 5. the circle-lift criterion


def test_criterion_5_circle_lift_criterion():
    problems = []
    for name in ("veronese-hopf", "hopf-generic"):
        rep = ideal.hopf_criterion(entry(name).spec, acc_points(name, 10),
                                   tol=1e-6)
        if not rep.satisfied:
            problems.append(f"{name}: criterion not satisfied")
        if rep.max_G >= 1e-6:
            problems.append(f"{name}: max |G| = {rep.max_G}")
        if rep.max_domega >= 1e-6:
            problems.append(f"{name}: max |domega| = {rep.max_domega}")
    _verdict(5, "G = 0 and the 1-form closed on both circle-lift entries",
             problems)


# ---------------------------------------------------------------------------
# 6. structure-equation residuals and the dual route for C


def test_criterion_6_structure_equation_residuals():
    problems = []
    for name in CURVED:
        for p in acc_points(name, 20):
            ctx = context(name, p)
            res, = moebius.integrability_residuals(ctx)
            if res.max_residual() >= 1e-7:
                problems.append(
                    f"{name}: residual {res.max_residual()} at {p}")
            gap = float(np.abs(mdata(name, p).C - ctx.C_dn).max())
            if gap >= 1e-7:
                problems.append(f"{name}: C route mismatch {gap} at {p}")
    _verdict(6, "all structure-equation residuals < 1e-7, C agrees across "
                "both routes", problems)


# ---------------------------------------------------------------------------
# 7. invariance under the conformal group and under gauge rotations


def test_criterion_7_invariance_suite():
    problems = []
    spec = entry("so3").spec
    pts = acc_points("so3", 3)
    base = {}
    for p in pts:
        base[p] = (mdata("so3", p).g, ddvv_report(spec, p).ideal,
                   ideal.invariants_uvlg(context("so3", p)))
    for k in range(5):
        T = gallery.random_lorentz(seed=7001 + k)
        moved = moebius.conformal_transform(spec, T)
        for p in pts:
            g0, ideal0, inv0 = base[p]
            ctx1 = moebius.MoebiusContext(moved, p)
            data1 = moebius.moebius_data(ctx1)
            if float(np.abs(data1.g - g0).max()) >= 1e-7:
                problems.append(f"transform {k}: metric moved at {p}")
            if ddvv_report(moved, p).ideal != ideal0:
                problems.append(f"transform {k}: ideality flag flipped")
            inv1 = ideal.invariants_uvlg(ctx1)
            for label, a, b in (("L", inv0.L, inv1.L),
                                ("G", inv0.G, inv1.G),
                                ("Fhat", inv0.Fhat, inv1.Fhat)):
                if abs(a - b) >= 1e-7:
                    problems.append(f"transform {k}: {label} moved by "
                                    f"{abs(a - b)} at {p}")
            dd = max(abs(a - b)
                     for a, b in zip(inv0.domega, inv1.domega))
            if dd >= 1e-7:
                problems.append(f"transform {k}: domega moved by {dd}")
    for name in ("so3", "hopf-generic"):
        p = acc_points(name, 1)[0]
        ctx = context(name, p)
        ref = ideal.CanonicalFields(ctx)
        ref_om = np.array([jets.value_of(c) for c in ref.omega_chart])
        ref_f = jets.value_of(ref.Fhat_field)
        rng = np.random.default_rng(0xA11CE)
        for t in rng.uniform(-math.pi, math.pi, size=10):
            cf = ideal.CanonicalFields(ctx, pregauge=float(t))
            om = np.array([jets.value_of(c) for c in cf.omega_chart])
            if (abs(cf.L - ref.L) >= 1e-8 or abs(cf.G - ref.G) >= 1e-8
                    or abs(jets.value_of(cf.Fhat_field) - ref_f) >= 1e-8
                    or float(np.abs(om - ref_om).max()) >= 1e-8):
                problems.append(f"{name}: gauge angle {t} moved an "
                                "invariant")
    _verdict(7, "invariants stable under 5 conformal transforms and 10 "
                "gauge angles", problems)


# ---------------------------------------------------------------------------
# 8. the identity suite tying all the invariants together


def _d(cf, f, k):
    """Derivative of a scalar jet field along adapted frame vector k."""
    return _reference.frame_scalar_d(cf.frame_chart, f, k)


def test_criterion_8_identity_suite():
    problems = []
    for name in TWISTED:
        for p in acc_points(name, 20):
            cf = ideal.CanonicalFields(context(name, p))
            val = jets.value_of
            if abs(val(_d(cf, cf.Lf, 2)) - cf.G) > 1e-7:
                problems.append(f"{name}: E3(L) != G at {p}")
            hf = ideal.hat_frame(cf)
            Fv = val(cf.Fhat_field)
            if abs(hf.hat_coframe[2, 2] - Fv) > 1e-7:
                problems.append(f"{name}: Fhat routes disagree at {p}")
            ghat = 0.5 * (hf.hat_coframe[0, 1] - hf.hat_coframe[1, 0])
            if abs(ghat) > 1e-8:
                problems.append(f"{name}: Ghat = {ghat} at {p}")
            lam = val(cf.lamf)
            hf2 = ideal.hat_frame(cf, lam=lam + 0.1)
            ghat2 = 0.5 * (hf2.hat_coframe[0, 1] - hf2.hat_coframe[1, 0])
            want = -0.1 * cf.L
            if abs(ghat2 - want) > 1e-7 * max(1.0, abs(want)):
                problems.append(f"{name}: Ghat response {ghat2} vs {want}")
            w = [val(x) for x in cf.w_fields]
            for k in range(3):
                if abs(val(_d(cf, cf.Fhat_field, k)) + 2.0 * Fv * w[k]) > 1e-6:
                    problems.append(f"{name}: dFhat + 2 Fhat omega != 0 "
                                    f"in direction {k} at {p}")
            nu = cf.ctx.rho / SQRT6
            nu0 = val(nu)
            for k in range(3):
                if abs(val(_d(cf, nu, k)) / nu0 - w[k]) > 1e-7:
                    problems.append(f"{name}: omega != dlog(nu) in "
                                    f"direction {k} at {p}")
            if abs(cf.d_form_on(cf.coframe_can_stack[:, 2], 0, 1)
                   - 2.0 * cf.L) > 1e-7:
                problems.append(f"{name}: d(omega3) != 2L at {p}")
            if abs(cf.d_form_on(cf.theta_chart, 0, 1)
                   - 2.0 * cf.mu ** 2) > 1e-6:
                problems.append(f"{name}: d(theta12) != 2 mu^2 at {p}")
            if ideal.holomorphic_residual(cf) > 1e-7:
                problems.append(f"{name}: holomorphic residual at {p}")
    _verdict(8, "derivative identities, hat-frame routes, and "
                "holomorphicity at 20 points per entry", problems)


# ---------------------------------------------------------------------------
# 9. numerics: jets vs finite differences, parsing, CLI determinism


def _linear_term(rng):
    a, b, c, d = (round(float(v), 3) for v in rng.uniform(-1.0, 1.0, 4))
    text = f"({a}*u1 + {b}*u2 + {c}*u3 + {d})"
    return text, (lambda u: a * u[0] + b * u[1] + c * u[2] + d)


def _factor(rng):
    t, g = _linear_term(rng)
    kind = int(rng.integers(0, 5))
    if kind == 0:
        return f"sin{t}", (lambda u: jets.sin(g(u)))
    if kind == 1:
        return f"cos{t}", (lambda u: jets.cos(g(u)))
    if kind == 2:
        return f"exp{t}", (lambda u: jets.exp(g(u)))
    if kind == 3:
        return f"sqrt(2.5 + sin{t})", (lambda u: jets.sqrt(2.5 + jets.sin(g(u))))
    return f"1/(2.5 + cos{t})", (lambda u: 1.0 / (2.5 + jets.cos(g(u))))


def _random_expression(rng):
    texts = []
    fns = []
    for _ in range(int(rng.integers(2, 4))):
        c = round(float(rng.uniform(-2.0, 2.0)), 3)
        t1, f1 = _factor(rng)
        if int(rng.integers(0, 2)):
            t2, f2 = _factor(rng)
            texts.append(f"{c}*{t1}*{t2}")
            fns.append(lambda u, c=c, f1=f1, f2=f2: c * f1(u) * f2(u))
        else:
            texts.append(f"{c}*{t1}")
            fns.append(lambda u, c=c, f1=f1: c * f1(u))
    text = " + ".join(texts)
    return text, (lambda u: sum(f(u) for f in fns))


_ALPHAS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0),
           (0, 1, 1), (3, 0, 0), (1, 1, 1), (2, 0, 1), (0, 2, 1)]


def test_criterion_9_numerics():
    problems = []
    rng = np.random.default_rng(0x9A11)
    for i in range(100):
        text, direct = _random_expression(rng)
        tree = parse_expression(text)
        q = [float(x) for x in rng.uniform(-0.7, 0.7, 3)]
        jet = tree.eval([jet_seed(k + 1, q[k], 5) for k in range(3)])
        fval = lambda pt: tree.eval([pt[0], pt[1], pt[2]])
        for alpha in _ALPHAS:
            want = oracles.fd_partial(fval, q, alpha, h=1e-2)
            got = extract_derivative(jet, alpha)
            if abs(got - want) > 1e-6 * (1.0 + abs(want)):
                problems.append(
                    f"expr {i} d^{alpha}: jet {got} vs fd {want}")
        for _ in range(3):
            qq = [float(x) for x in rng.uniform(-0.9, 0.9, 3)]
            a = tree.eval(qq)
            b = direct(qq)
            if abs(a - b) > 1e-12 * (1.0 + abs(b)):
                problems.append(f"expr {i}: round trip {a} vs {b}")
    argv = ["invariants", "--example", "so3", "--points", "2", "--seed", "3"]
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(list(argv))
        if code != 0:
            problems.append(f"cli exit {code}")
        outs.append(buf.getvalue())
    if not outs[0] or outs[0] != outs[1]:
        problems.append("cli output not byte-identical across runs")
    _verdict(9, "jets match finite differences, parsing round-trips, CLI "
                "is deterministic", problems)
