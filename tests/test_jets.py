"""Jet arithmetic against independent oracles."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wintgen import jets
from wintgen.errors import DomainError, OrderError, SingularJet
from wintgen.jets import (MultiJet, derivative, extract_derivative,
                          jet_elementary, jet_seed, ncoef)

import _oracles as oracles


def poly_to_jet(poly: dict, q, order: int) -> MultiJet:
    u = [jet_seed(i + 1, q[i], order) for i in range(3)]
    total = MultiJet.constant(0.0, order)
    pows = [[MultiJet.constant(1.0, order)] for _ in range(3)]
    for v in range(3):
        for _ in range(order):
            pows[v].append(pows[v][-1] * u[v])
    for (a, b, c), coeff in poly.items():
        total = total + coeff * (pows[0][a] * pows[1][b] * pows[2][c])
    return total


# ---------------------------------------------------------------------------
# construction


def test_seed_layout():
    j = jet_seed(1, 0.3, 2)
    assert j.value == 0.3
    assert j.coeff((1, 0, 0)) == 1.0
    assert j.coeff((0, 1, 0)) == 0.0
    assert j.coeff((2, 0, 0)) == 0.0

    j0 = jet_seed(2, 0.0, 0)
    assert j0.order == 0 and j0.value == 0.0 and len(j0.c) == 1

    j3 = jet_seed(3, -1.5, 5)
    assert j3.value == -1.5
    assert j3.coeff((0, 0, 1)) == 1.0
    assert len(j3.c) == 56


def test_ncoef():
    assert [ncoef(k) for k in range(6)] == [1, 4, 10, 20, 35, 56]


def test_seed_order_out_of_range():
    with pytest.raises(OrderError):
        jet_seed(1, 0.0, 6)
    with pytest.raises(OrderError):
        jet_seed(1, 0.0, -1)
    with pytest.raises(OrderError):
        jet_seed(4, 0.0, 2)


# ---------------------------------------------------------------------------
# arithmetic vs the exact polynomial oracle


def test_mul_simple():
    a = 1.0 + jet_seed(1, 0.0, 2) * 1.0
    b = 1.0 + jet_seed(2, 0.0, 2)
    p = a * b
    assert p.coeff((0, 0, 0)) == 1.0
    assert p.coeff((1, 0, 0)) == 1.0
    assert p.coeff((0, 1, 0)) == 1.0
    assert p.coeff((1, 1, 0)) == 1.0
    assert p.coeff((2, 0, 0)) == 0.0


def test_div_exact_cancellation():
    u = jet_seed(1, 2.0, 3)
    q = (u * u) / u
    assert np.allclose(q.c, u.c, rtol=0, atol=1e-15)


def test_div_zero_constant_term():
    u = jet_seed(1, 0.0, 3)
    with pytest.raises(SingularJet):
        (u * u) / u


def test_strict_arith_order_mismatch():
    a = jet_seed(1, 1.0, 3)
    b = jet_seed(1, 1.0, 2)
    # the dunders truncate to the lower order
    assert (a + b).order == 2


def test_random_polynomials_vs_taylor_shift():
    rng = np.random.default_rng(20260819)
    for trial in range(1000):
        poly = oracles.random_polynomial(rng, max_degree=5, terms=10)
        q = rng.uniform(-1, 1, size=3)
        jet = poly_to_jet(poly, q, 5)
        for k, mono in enumerate(jets._monomials(5)):
            want = oracles.poly_taylor_coeff(poly, mono, q)
            got = jet.c[k]
            assert abs(got - want) <= 1e-12 * (1.0 + abs(want)), (
                f"trial {trial}, monomial {mono}: {got} vs {want}")


def test_derivative_matches_polynomial_derivative():
    rng = np.random.default_rng(7)
    for _ in range(50):
        poly = oracles.random_polynomial(rng, max_degree=5, terms=8)
        q = rng.uniform(-1, 1, size=3)
        var = int(rng.integers(0, 3))
        dj = derivative(poly_to_jet(poly, q, 5), var + 1)
        dpoly = oracles.poly_derivative(poly, var)
        assert dj.order == 4
        for k, mono in enumerate(jets._monomials(4)):
            want = oracles.poly_taylor_coeff(dpoly, mono, q)
            assert abs(dj.c[k] - want) <= 1e-11 * (1.0 + abs(want))


def test_derivative_of_order0_rejected():
    with pytest.raises(OrderError):
        derivative(jet_seed(1, 1.0, 0), 1)


def test_extract_derivative_denormalizes():
    # f = u1^2 u2: d^(2,1,0) f = 2 everywhere
    u1 = jet_seed(1, 1.3, 3)
    u2 = jet_seed(2, -0.4, 3)
    f = u1 * u1 * u2
    assert extract_derivative(f, (2, 1, 0)) == pytest.approx(2.0, abs=1e-14)
    with pytest.raises(OrderError):
        extract_derivative(f, (2, 2, 0))


# ---------------------------------------------------------------------------
# elementary functions


def test_sqrt_constant():
    j = jet_elementary(MultiJet.constant(4.0, 3), "sqrt")
    assert j.value == 2.0
    assert np.all(j.c[1:] == 0.0)


def test_sqrt_third_derivative():
    # d^3/du^3 sqrt(1+u) at 0 is 3/8
    u = jet_seed(1, 0.0, 3)
    s = jet_elementary(1.0 + u, "sqrt")
    assert extract_derivative(s, (3, 0, 0)) == pytest.approx(3.0 / 8.0, rel=1e-12)


def test_sqrt_domain():
    with pytest.raises(DomainError):
        jet_elementary(MultiJet.constant(0.0, 2), "sqrt")
    with pytest.raises(DomainError):
        jet_elementary(MultiJet.constant(-1.0, 2), "sqrt")


def test_exp_series():
    e = jet_elementary(jet_seed(1, 0.0, 3), "exp")
    want = {(0, 0, 0): 1.0, (1, 0, 0): 1.0, (2, 0, 0): 0.5, (3, 0, 0): 1.0 / 6.0}
    for mono, w in want.items():
        assert e.coeff(mono) == pytest.approx(w, rel=1e-15)


def test_pythagorean_identity_order5():
    u = jet_seed(1, 0.7, 5)
    s = jet_elementary(u, "sin")
    c = jet_elementary(u, "cos")
    one = s * s + c * c
    assert one.value == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(one.c[1:])) < 1e-14


def test_pow_matches_repeated_multiplication():
    u = 0.3 + jet_seed(1, 1.1, 4)
    assert np.allclose((u ** 3).c, (u * u * u).c, rtol=1e-15, atol=0)
    inv2 = u ** -2
    direct = 1.0 / (u * u)
    assert np.allclose(inv2.c, direct.c, rtol=1e-14, atol=1e-16)
    assert (u ** 0).value == 1.0
    assert jet_elementary(u, "pow", 3).c == pytest.approx(list((u ** 3).c))


def test_float_and_jet_pow_share_constant_term():
    for base in (0.7, -1.3, 2.0):
        for k in (1, 2, 3, 5, 8, -1, -3):
            j = MultiJet.constant(base, 2)
            assert jets.powi(j, k).value == jets.powi(base, k)


# ---------------------------------------------------------------------------
# finite-difference cross-check on smooth compositions


def test_fd_agreement_smooth_functions():
    q = [0.23, -0.41, 0.57]
    alphas = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0),
              (0, 1, 1), (3, 0, 0), (1, 1, 1), (2, 0, 1), (0, 2, 1)]
    for name, f in oracles.smooth_closures():
        jet = f([jet_seed(i + 1, q[i], 5) for i in range(3)])
        fval = lambda pt: f([pt[0], pt[1], pt[2]])
        for alpha in alphas:
            want = oracles.fd_partial(fval, q, alpha, h=1e-2)
            got = extract_derivative(jet, alpha)
            assert abs(got - want) <= 1e-6 * (1.0 + abs(want)), (
                f"{name} d^{alpha}: jet {got} vs fd {want}")


# ---------------------------------------------------------------------------
# algebraic properties (hypothesis)


def _jet_strategy(order=5):
    n = ncoef(order)
    return st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False),
                    min_size=n, max_size=n).map(
                        lambda cs: MultiJet(order, np.asarray(cs)))


@settings(max_examples=60, deadline=None)
@given(_jet_strategy(), _jet_strategy())
def test_add_commutes_exactly(a, b):
    assert np.array_equal((a + b).c, (b + a).c)


@settings(max_examples=60, deadline=None)
@given(_jet_strategy(), _jet_strategy())
def test_mul_commutes(a, b):
    lhs, rhs = (a * b).c, (b * a).c
    scale = 1.0 + np.max(np.abs(lhs))
    assert np.max(np.abs(lhs - rhs)) <= 1e-14 * scale


@settings(max_examples=60, deadline=None)
@given(_jet_strategy(), _jet_strategy(), _jet_strategy())
def test_mul_associates(a, b, c):
    lhs = ((a * b) * c).c
    rhs = (a * (b * c)).c
    scale = 1.0 + np.max(np.abs(lhs)) + np.max(np.abs(rhs))
    assert np.max(np.abs(lhs - rhs)) <= 1e-14 * scale


def _jet3(value, u3=0.0):
    c = np.zeros(ncoef(3))
    c[0], c[3] = value, u3
    return MultiJet(3, c)


@settings(max_examples=60, deadline=None)
@given(_jet_strategy(3), _jet_strategy(3))
# a small b0 against b's first partial: the reciprocal series 1/b carried
# coefficients near 4e9 here and lost 1.5e-8 to cancellation in (a*b)/b
@example(_jet3(3.8700317385078247), _jet3(0.0078125, 2.5))
def test_div_inverts_mul(a, b):
    if abs(b.value) < 1e-3:
        return
    q = (a * b) / b
    scale = 1.0 + np.max(np.abs(a.c))
    assert np.max(np.abs(q.c - a.c)) <= 1e-9 * scale


def test_truncation_is_prefix():
    rng = np.random.default_rng(3)
    a = MultiJet(5, rng.normal(size=56))
    t = a.truncate(2)
    assert t.order == 2
    assert np.array_equal(t.c, a.c[:10])
    with pytest.raises(OrderError):
        t.truncate(4)


def test_order0_matches_plain_eval_exactly():
    q = [0.37, -1.2, 0.9]
    for _, f in oracles.smooth_closures():
        plain = f(list(q))
        jetted = f([jet_seed(i + 1, q[i], 0) for i in range(3)])
        assert jetted.value == plain


# ---------------------------------------------------------------------------
# the jet core: division, mixed orders, fresh results, checked construction


def _coeffs(order, lo=-1.0, hi=1.0):
    n = ncoef(order)
    return st.lists(st.floats(min_value=lo, max_value=hi, allow_nan=False),
                    min_size=n, max_size=n)


@st.composite
def _quotient_case(draw):
    order = draw(st.integers(0, 5))
    a = draw(_coeffs(order))
    b = draw(_coeffs(order))
    b0 = draw(st.floats(min_value=0.5, max_value=2.0))
    b[0] = b0 if draw(st.booleans()) else -b0
    return order, a, b


@settings(max_examples=80, deadline=None)
@given(_quotient_case())
def test_div_matches_triangular_solve_oracle(case):
    order, a, b = case
    got = (MultiJet(order, np.array(a)) / MultiJet(order, np.array(b))).c
    want = np.array(oracles.series_quotient(a, b, order))
    scale = 1.0 + np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


def test_div_oracle_layout_matches_jets():
    for k in range(6):
        assert tuple(oracles.graded_monomials(k)) == jets._monomials(k)


@st.composite
def _mixed_pair(draw):
    ka, kb = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    a = MultiJet(ka, np.array(draw(_coeffs(ka))))
    b = MultiJet(kb, np.array(draw(_coeffs(kb, 0.5, 1.0))))
    return a, b


@settings(max_examples=60, deadline=None)
@given(_mixed_pair())
def test_mixed_orders_equal_explicit_truncation(pair):
    a, b = pair
    k = min(a.order, b.order)
    ta, tb = a.truncate(k), b.truncate(k)
    for op in (lambda x, y: x + y, lambda x, y: x - y,
               lambda x, y: x * y, lambda x, y: x / y):
        mixed = op(a, b)
        assert mixed.order == k
        assert np.array_equal(mixed.c, op(ta, tb).c)


def _results(a, b):
    """Every arithmetic result of a and b, with the operands it came from."""
    yield a + b, (a, b)
    yield a - b, (a, b)
    yield a * b, (a, b)
    yield a / b, (a, b)
    yield -a, (a,)
    yield a + 1.5, (a,)
    yield 1.5 - a, (a,)
    yield 2.0 * a, (a,)
    yield a / 2.0, (a,)
    yield 2.0 / b, (b,)
    yield a ** 2, (a,)
    yield jets.sqrt(b * b), (b,)
    yield derivative(a, 2), (a,)


@pytest.mark.parametrize("orders", [(3, 3), (5, 2), (2, 5)])
def test_results_own_their_coefficients(orders):
    rng = np.random.default_rng(11)
    a = MultiJet(orders[0], rng.normal(size=ncoef(orders[0])))
    b = MultiJet(orders[1], rng.normal(size=ncoef(orders[1])))
    b.c[0] = 3.0
    snapshot = [a.c.copy(), b.c.copy()]
    for res, operands in _results(a, b):
        for x in operands:
            assert not np.shares_memory(res.c, x.c)
        res.c[:] = 7.0  # a later write to a result leaves the operands alone
    assert np.array_equal(a.c, snapshot[0])
    assert np.array_equal(b.c, snapshot[1])
    low = a.truncate(min(orders[0], 1))
    if low is not a:
        assert not np.shares_memory(low.c, a.c)


def test_public_constructor_checks_its_input():
    with pytest.raises(OrderError):
        MultiJet(6, np.zeros(84))
    with pytest.raises(OrderError):
        MultiJet(-1, np.zeros(1))
    with pytest.raises(OrderError):
        MultiJet(2.0, np.zeros(10))
    with pytest.raises(OrderError):
        MultiJet(2, np.zeros(11))
    j = MultiJet(1, [1, 2, 3, 4])
    assert j.c.dtype == float


def test_division_by_zero_constant_term_raises():
    z = jet_seed(2, 0.0, 4)
    one = MultiJet.constant(1.0, 5)
    for fn in (lambda: one / z, lambda: 1.0 / z, lambda: z ** -1,
               lambda: MultiJet.constant(0.0, 0).__rtruediv__(2.0)):
        with pytest.raises(SingularJet):
            fn()


def test_gradient_reads_first_partials():
    u = [jet_seed(i + 1, 0.2 * (i + 1), 3) for i in range(3)]
    f = u[0] * u[0] * u[1] + 3.0 * u[2]
    assert np.array_equal(jets.gradient(f),
                          [extract_derivative(f, (1, 0, 0)),
                           extract_derivative(f, (0, 1, 0)),
                           extract_derivative(f, (0, 0, 1))])
    assert np.array_equal(jets.gradient(2.5), np.zeros(3))
    with pytest.raises(OrderError):
        jets.gradient(MultiJet.constant(1.0, 0))
