"""Jet arithmetic against independent oracles."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wintgen import jetalg, jets
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


def _abs3(c):
    return MultiJet(3, np.abs(c))


GAMMA = ncoef(3) * 2.0 ** -53  # rounding of a sum of up to 20 terms


@settings(max_examples=60, deadline=None)
@given(_jet_strategy(3), _jet_strategy(3))
# a small b0 against b's first partial: the reciprocal series 1/b carried
# coefficients near 4e9 here and lost 1.5e-8 to cancellation in (a*b)/b
@example(_jet3(3.8700317385078247), _jet3(0.0078125, 2.5))
def test_div_inverts_mul(a, b):
    """q = (a*b)/b against the stored product p = a*b, the oracle and a.

    Per coefficient, a step q_g = (p_g - sum b_beta q_(g-beta)) / b_0 of the
    forward substitution rounds by at most c = 3 GAMMA (|p| + |b|*|q|), plus
    1e-300 for subnormal draws, and p itself by GAMMA |a|*|b|.  An error in
    a step reaches q through the series 1/b, whose coefficients grow like
    (|b_beta| / |b_0|)^k / |b_0|: with b_0 = 1e-2 and |b_beta| = 1, a
    rounding of 1e-16 in p can come back as 1e-8 at degree 3, which no
    division can avoid."""
    if abs(b.value) < 1e-3:
        return
    p = a * b
    q = p / b
    c = MultiJet(3, 3.0 * GAMMA * (np.abs(p.c) + (_abs3(b.c) * _abs3(q.c)).c)
                 + 1e-300)
    inv = _abs3(np.array(oracles.series_quotient(np.eye(ncoef(3))[0], b.c, 3)))
    # backward: b*q gives back the stored product up to the steps' rounding
    assert np.all(np.abs((b * q).c - p.c) <= c.c)
    # the oracle adds the same terms p_g and b_beta q_(g-beta) in another
    # order; a step with at most two nonzero terms rounds alike in both, so
    # when every step is such the quotients agree bit for bit
    nonzero = lambda x: MultiJet(3, (x != 0.0).astype(float))
    terms = (nonzero(b.c) * nonzero(q.c)).c - (q.c != 0.0) + (p.c != 0.0)
    gap = (inv * c).c if np.max(terms) > 2 else 0.0
    want = np.array(oracles.series_quotient(p.c, b.c, 3))
    assert np.all(np.abs(q.c - want) <= gap)
    # the round trip, wherever the rounding carried through 1/b stays
    # within its bound
    scale = 1.0 + np.max(np.abs(a.c))
    reach = inv * (c + GAMMA * (_abs3(a.c) * _abs3(b.c)))
    if np.max(reach.c) <= 1e-9 * scale:
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


def test_stack_gradients_read_first_partials():
    u = [jet_seed(i + 1, 0.2 * (i + 1), 3) for i in range(3)]
    f = u[0] * u[0] * u[1] + 3.0 * u[2]
    want = [extract_derivative(f, alpha)
            for alpha in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    got = jets.stack_gradients(jets.stack([u[1], f]), 1)
    assert got.shape == (2, 3) and np.array_equal(got[1], want)
    with pytest.raises(OrderError):
        jets.stack_gradients(MultiJet.constant(1.0, 0).c[:, None], 1)


# ---------------------------------------------------------------------------
# lanes: each lane of a chunk's jet is the one-point jet, bit for bit


def _same(x, y):
    """Equal arrays, the sign of zero included."""
    x, y = np.asarray(x), np.asarray(y)
    return (x.shape == y.shape and np.array_equal(x, y, equal_nan=True)
            and np.array_equal(np.signbit(x), np.signbit(y)))


def _one(x, l):
    """Lane l of a chunk's jet or lane vector, as a fresh one-point jet or a
    float; anything else as it is."""
    if isinstance(x, MultiJet) and x.c.ndim == 2:
        return MultiJet(x.order, x.c[:, l].copy())
    if isinstance(x, np.ndarray):
        return float(x[l])
    return x


def _partials(x):
    """jets.low_partials of x as one flat list."""
    value, d1, d2 = jets.low_partials(x)
    return [value, *d1, *(d for row in d2 for d in row)]


def _random_coeffs(rng, shape, c0=None):
    """Coefficients in [-2, 2] with some exact zeros of either sign, and the
    constant terms c0 when given."""
    c = rng.uniform(-2.0, 2.0, size=shape)
    c[rng.random(shape) < 0.1] = 0.0
    c[rng.random(shape) < 0.05] = -0.0
    if c0 is not None:
        c[0] = c0
    return c


@st.composite
def _lane_case(draw):
    ka, kb = (draw(st.integers(0, 5)) for _ in range(2))
    lanes = draw(st.sampled_from([1, 2, 7, 20]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    away = rng.uniform(0.5, 2.0, lanes) * rng.choice([-1.0, 1.0], lanes)
    a = MultiJet(ka, _random_coeffs(rng, (ncoef(ka), lanes)))
    b = MultiJet(kb, _random_coeffs(rng, (ncoef(kb), lanes), away))
    v = rng.uniform(-2.0, 2.0, lanes)
    v[rng.random(lanes) < 0.2] = -0.0
    return a, b, v


def _lane_operations(a, b, v):
    """(operation, operands) pairs over chunk jets a, b (b's constant terms
    away from zero) and a lane vector v."""
    pos = (b * b) + 0.25
    yield from [
        (lambda x, y: x + y, (a, b)), (lambda x, y: x - y, (a, b)),
        (lambda x, y: x * y, (a, b)), (lambda x, y: x / y, (a, b)),
        (lambda x: x + 1.5, (a,)), (lambda x: 1.5 - x, (a,)),
        (lambda x: x * -0.75, (a,)), (lambda x: x / 3.0, (a,)),
        (lambda x: 2.0 / x, (b,)), (lambda x: -x, (a,)),
        (lambda x, s: x + s, (a, v)), (lambda x, s: s - x, (a, v)),
        (lambda x, s: s * x, (a, v)), (lambda x, s: x / (s + 3.0), (a, v)),
        (lambda x, s: s / x, (b, v)),
        (lambda x: x ** 3, (a,)), (lambda x: x ** -2, (b,)),
        (lambda x: x ** 0, (a,)),
        (jets.sqrt, (pos,)), (jets.sin, (a,)), (jets.cos, (a,)),
        (jets.exp, (a,)),
    ]
    for var in range(1, 4) if a.order >= 1 else ():
        yield (lambda x, var=var: derivative(x, var)), (a,)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_lane_case())
def test_each_lane_of_a_chunk_jet_is_the_one_point_jet(case):
    a, b, v = case
    lanes = a.c.shape[1]
    for op, args in _lane_operations(a, b, v):
        got = op(*args)
        for l in range(lanes):
            want = op(*(_one(x, l) for x in args))
            assert _same(got.c[:, l], want.c), (op, l)
            assert got.order == want.order
    if a.order >= 2:
        chunk = _partials(a)  # lane vectors
        for l in range(lanes):
            assert _same([x[l] for x in chunk], _partials(_one(a, l)))


def test_coefficients_of_a_chunk_jet_are_read_per_lane():
    u = np.array([0.1, 0.2, -0.3])
    x = jets.jet_seed(1, u, 3)
    cube = x * x * x
    for alpha in [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0)]:
        got = cube.coeff(alpha)
        assert isinstance(got, np.ndarray) and got.shape == (3,)
        assert _same(got, [_one(cube, l).coeff(alpha) for l in range(3)])
        assert _same(jets.extract_derivative(cube, alpha),
                     [jets.extract_derivative(_one(cube, l), alpha)
                      for l in range(3)])
    assert _same(jets.extract_derivative(cube, (2, 0, 0)), 6.0 * u)
    assert isinstance(_one(cube, 0).coeff((1, 0, 0)), float)


@pytest.mark.parametrize("order, lanes", [(3, 20), (2, 10)])
def test_a_lone_points_jet_and_a_chunks_do_not_mix(order, lanes):
    # ncoef(order) == lanes, so numpy alone would broadcast these silently
    rng = np.random.default_rng(order)
    lone = MultiJet(order, _random_coeffs(rng, ncoef(order), 1.0))
    chunk = MultiJet(order, _random_coeffs(rng, (ncoef(order), lanes),
                                           np.ones(lanes)))
    v = rng.uniform(0.5, 2.0, lanes)
    mixes = [
        lambda: lone + chunk, lambda: chunk - lone, lambda: lone * chunk,
        lambda: chunk / lone, lambda: lone / chunk,
        lambda: lone + v, lambda: lone - v, lambda: v - lone,
        lambda: v * lone, lambda: lone / v, lambda: v / lone,
        lambda: jets.where(v > 1.0, lone, chunk),
        lambda: jets.where(v > 1.0, lone, lone),
    ]
    for k, mix in enumerate(mixes):
        with pytest.raises(TypeError):
            mix()
            pytest.fail(f"mix {k} did not raise")
    assert _same((chunk + v).c[0], chunk.c[0] + v)  # lane vectors still act


def _lane_jet(rng, order, lanes=4):
    return MultiJet(order, _random_coeffs(rng, (ncoef(order), lanes)))


def test_where_meets_two_jets_at_the_lower_order():
    rng = np.random.default_rng(7)
    mask = np.array([True, False, False, True])
    for a, b in ((_lane_jet(rng, 3), _lane_jet(rng, 2)),
                 (_lane_jet(rng, 1), _lane_jet(rng, 4))):
        low = min(a.order, b.order)
        got = jets.where(mask, a, b)
        assert got.order == low
        assert _same(got.c, np.where(mask, a.truncate(low).c,
                                     b.truncate(low).c))


def test_where_takes_a_number_as_a_constant_on_every_lane():
    rng = np.random.default_rng(8)
    mask = np.array([True, False, True, False])
    a = _lane_jet(rng, 3)
    one = MultiJet.constant(np.ones(4), 3)
    assert _same(jets.where(mask, a, 1.0).c, np.where(mask, a.c, one.c))
    assert _same(jets.where(mask, 1.0, a).c, np.where(mask, one.c, a.c))
    v = np.array([0.5, -1.0, 2.0, 3.0])  # a lane vector acts likewise
    assert _same(jets.where(mask, a, v).c,
                 np.where(mask, a.c, MultiJet.constant(v, 3).c))
    lone = MultiJet(2, _random_coeffs(rng, ncoef(2)))
    assert _same(jets.where(False, lone, -1.0).c,
                 MultiJet.constant(-1.0, 2).c)
    assert _same(jets.where(True, lone, -1.0).c, lone.c)


def test_where_keeps_a_lone_point_apart_from_a_chunk():
    rng = np.random.default_rng(9)
    mask = np.array([True, False, True, False])
    lone, chunk = MultiJet(2, _random_coeffs(rng, ncoef(2))), _lane_jet(rng, 3)
    for mix in (lambda: jets.where(mask, lone, chunk),
                lambda: jets.where(mask, chunk, lone),
                lambda: jets.where(mask, lone, 1.0),
                lambda: jets.where(True, lone, np.ones(4)),
                lambda: jets.where(mask, chunk, [1.0])):
        with pytest.raises(TypeError):
            mix()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_lane_case(), st.integers(0, 19))
def test_a_lane_at_a_pole_raises_for_the_chunk(case, k):
    a, b, _ = case
    k %= b.c.shape[1]
    zero = MultiJet(b.order, b.c.copy())
    zero.c[0, k] = 0.0
    for fn in (lambda: a / zero, lambda: 1.0 / zero, lambda: zero ** -1):
        with pytest.raises(SingularJet):
            fn()
    negative = MultiJet(b.order, b.c.copy())
    negative.c[0, k] = -abs(negative.c[0, k])
    with pytest.raises(DomainError):
        jets.sqrt(negative)


@pytest.mark.parametrize("fn", ["sin", "cos", "exp", "sqrt"])
def test_a_series_along_one_chart_variable_is_horners_bit_for_bit(
        monkeypatch, fn):
    # a jet affine in one chart variable takes its series on that
    # variable's powers, with no jet product from order 2 on; the
    # coefficients are Horner's, the sign of zero included
    series, compose = [], jets._compose
    monkeypatch.setattr(jets, "_compose",
                        lambda a, s: series.append(s) or compose(a, s))
    products = []
    for attr in ("__mul__", "__rmul__"):
        mul = getattr(MultiJet, attr)
        monkeypatch.setattr(MultiJet, attr, lambda a, b, _mul=mul: products
                            .append(isinstance(b, MultiJet)) or _mul(a, b))
    # at 0.0 and -0.0, sin and cos have zero terms of either sign
    values = (0.7, 10.0, np.array([0.7, 1.3, 2.9])) if fn == "sqrt" \
        else (0.0, -0.0, 0.7, np.array([-0.0, 0.7, 2.9]))
    for order in range(1, 6):
        for value in values:
            for slope in (1.0, -2.5):
                for var in (1, 2, 3):
                    a = jet_seed(var, value * 0.0, order) * slope + value
                    products.clear()
                    got = jet_elementary(a, fn)
                    if order >= 2:
                        assert not any(products), (order, slope, var)
                    want = jets._horner(a, series[-1])
                    assert np.array_equal(got.c.view(np.int64),
                                          want.c.view(np.int64)), \
                        (order, np.ndim(value), slope, var)


# ---------------------------------------------------------------------------
# stacks: the product kernel and the contraction


def _stack_bits(x):
    return np.asarray(x).view(np.int64)


def _random_stack(rng, order, shape):
    """Random coefficients with exact zeros of both signs among them."""
    c = rng.normal(size=(jets.ncoef(order),) + shape)
    c[1] = 0.0
    c[2] = -0.0
    return c


def _entrywise(a, b):
    """a * b entry by entry through MultiJet.__mul__, for stacks of one
    shape with a trailing lane axis."""
    out = np.empty(a.shape)
    for idx in np.ndindex(a.shape[1:-1]):
        s = (slice(None),) + idx
        out[s] = (MultiJet(jets.stack_order(a), a[s])
                  * MultiJet(jets.stack_order(b), b[s])).c
    return out


@pytest.mark.parametrize("order", [1, 3, 5])
@pytest.mark.parametrize("shape", [(6,), (6, 20)])
def test_stack_mul_is_the_entrywise_product_bit_for_bit(order, shape):
    # a lone point (its entries are 1-D jets) and a chunk of 20 lanes
    rng = np.random.default_rng(order)
    a, b = (_random_stack(rng, order, shape) for _ in range(2))
    got = jets.stack_mul(a, b)
    if len(shape) == 1:  # a lone point's jets, one per entry
        want = np.stack([(MultiJet(order, a[:, k])
                          * MultiJet(order, b[:, k])).c
                         for k in range(shape[0])], axis=1)
    else:
        want = _entrywise(a, b)
    assert np.array_equal(_stack_bits(got), _stack_bits(want))


def test_stack_mul_broadcasts_a_scalar_jet_over_components():
    rng = np.random.default_rng(11)
    f = _random_stack(rng, 3, (20,))
    x = _random_stack(rng, 3, (7, 20))
    got = jets.stack_mul(f[:, None], x)
    for k in range(7):  # f on the left, as in f * x_k
        assert np.array_equal(
            _stack_bits(got[:, k]),
            _stack_bits((MultiJet(3, f) * MultiJet(3, x[:, k])).c))


def test_stack_mul_splits_its_entries_into_tiles_bit_for_bit():
    # at order 5 a product has 462 pairs: 2 x 7 entries of 20 lanes make
    # 129,360 doubles, split over tiles of at most jets.TILE
    rng = np.random.default_rng(5)
    a = _random_stack(rng, 5, (2, 1, 7, 20))
    b = _random_stack(rng, 5, (1, 3, 7, 20))
    pairs = len(jets._mul_table(5)[0])
    assert pairs * 2 * 3 * 7 * 20 > 2 * jets.TILE
    got = jets.stack_mul(a, b)
    assert got.shape == (jets.ncoef(5), 2, 3, 7, 20)
    for r in range(2):
        for s in range(3):
            want = _entrywise(a[:, r, 0], b[:, 0, s])
            assert np.array_equal(_stack_bits(got[:, r, s]), _stack_bits(want))


@pytest.mark.parametrize("lanes", [(), (20,)])
def test_contract_sums_as_dot_and_lorentz_dot_bit_for_bit(lanes):
    rng = np.random.default_rng(3)
    u, v = (_random_stack(rng, 3, (7,) + lanes) for _ in range(2))
    uj, vj = ([MultiJet(3, c[:, k]) for k in range(7)] for c in (u, v))
    products = jets.stack_mul(u, v)
    for fn, lorentz in ((jetalg.dot, False), (jetalg.lorentz_dot, True)):
        got = jets.contract(products, 1, lorentz)
        assert np.array_equal(_stack_bits(got), _stack_bits(fn(uj, vj).c))
