"""Truncated trivariate Taylor arithmetic.

A MultiJet holds the normalized Taylor coefficients T_alpha = d^alpha f /
alpha! of a scalar function of three chart variables at a point, densely
over all multi-indices |alpha| <= order, in graded order (degree first), so
a product is a plain truncated convolution and truncation is a slice.  Its
tables are built on first use and cached; arithmetic makes results by the
unchecked constructor _jet, and MultiJet(order, coeffs) validates its input.

Chunks.  Coefficients may carry a trailing lane axis, (ncoef, P), one lane
per point of a chunk (moebius.map_chunks); a point alone has none.  A lone
point's jet and a chunk's (or a lane vector) do not mix: they raise
TypeError.  Floats, and lane vectors against a chunk's jet, act on every
lane.  A product is one bincount over the slots s * P + lane, which sums
each lane's pairs in one-point order, and division pivots and elementary
series (math.*) are taken per lane, so a record depends only on its point,
bit for bit.  low_partials reads lane vectors, and a gate refuses at
first_lane of its failure mask.

Stacks.  The jets of a tensor of one order share one coefficient array
(ncoef, *entries[, lanes]).  stack_mul multiplies two stacks entry by entry
(the entry axes broadcast), each entry summing the pairs of MultiJet.__mul__
in its order, and contract sums an entry axis in order as jetalg.dot and
jetalg.lorentz_dot do, so every entry and lane keeps the bits of the
per-jet route.  stack_mul splits its entries into tiles so that none of its
temporaries exceeds TILE doubles (128 KB): a larger array is its own mapping
in the allocator, paid for in page faults on every product.  views (and the
field viewed) gives scalar readers MultiJet views into a stack, never
written; stack_values and stack_gradients read values and first partials
with a chunk's lanes first.

Elementary functions compose their Taylor series by Horner's products,
except on a jet affine in one chart variable (a chart seed, or a multiple
of one): there the series lands on that variable's powers, each term
multiplied by the slope once per power, Horner's finite coefficients bit
for bit.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError, OrderError, SingularJet

NVARS = 3
MAX_ORDER = 5
_NCOEF = tuple((k + 1) * (k + 2) * (k + 3) // 6 for k in range(MAX_ORDER + 1))
_SCALARS = (float, int, np.ndarray)  # numbers, and lane vectors


def ncoef(order: int) -> int:
    """Number of trivariate monomials of total degree <= order (0..MAX_ORDER)."""
    return _NCOEF[order]


@lru_cache(maxsize=None)
def _monomials(order: int):
    monos = []
    for deg in range(order + 1):
        for a in range(deg, -1, -1):
            for b in range(deg - a, -1, -1):
                monos.append((a, b, deg - a - b))
    return tuple(monos)


@lru_cache(maxsize=None)
def _positions(order: int):
    return {m: i for i, m in enumerate(_monomials(order))}


@lru_cache(maxsize=None)
def _mul_table(order: int):
    monos = _monomials(order)
    pos = _positions(order)
    ia, ib, iout = [], [], []
    for i, a in enumerate(monos):
        for j, b in enumerate(monos):
            s = (a[0] + b[0], a[1] + b[1], a[2] + b[2])
            if s[0] + s[1] + s[2] <= order:
                ia.append(i)
                ib.append(j)
                iout.append(pos[s])
    return (np.asarray(ia, dtype=np.intp),
            np.asarray(ib, dtype=np.intp),
            np.asarray(iout, dtype=np.intp))


@lru_cache(maxsize=None)
def _deriv_table(order: int, var: int):
    # var is 0-based.  Monomial b of degree < order comes from b + e_var, so
    # the derivative is a gather: out[i] = fac[i] * c[src[i]].
    pos = _positions(order)
    src, fac = [], []
    for b in _monomials(order - 1):
        a = list(b)
        a[var] += 1
        src.append(pos[tuple(a)])
        fac.append(float(a[var]))
    return np.asarray(src, dtype=np.intp), np.asarray(fac, dtype=float)


@lru_cache(maxsize=None)
def _div_table(order: int):
    """Per degree d >= 1: the block [lo, hi) of degree-d slots, and the
    product pairs of _mul_table that land in it with a divisor index other
    than 0 (divisor index, quotient index, slot within the block).  The
    quotient indices then all have degree < d, so a forward pass over the
    blocks has them in hand."""
    ia, ib, iout = _mul_table(order)
    blocks = []
    for d in range(1, order + 1):
        lo, hi = _NCOEF[d - 1], _NCOEF[d]
        m = (ia != 0) & (iout >= lo) & (iout < hi)
        blocks.append((lo, hi, ia[m], ib[m], iout[m] - lo))
    return tuple(blocks)


@lru_cache(maxsize=None)
def _lane_slots(order: int, lanes: int, table: int):
    """The output slots of _mul_table (table 0) or of _div_table block
    table - 1, with slot s of lane l spread to s * lanes + l."""
    s = _mul_table(order)[2] if table == 0 else _div_table(order)[table - 1][4]
    return (s[:, None] * lanes + np.arange(lanes)).ravel()


def _lane_sum(order: int, table: int, w, n: int) -> np.ndarray:
    """Per lane, the weights w (pairs x lanes) summed by the output slots of
    _lane_slots(order, lanes, table)."""
    return np.bincount(_lane_slots(order, w.shape[1], table), w.ravel(),
                       n * w.shape[1]).reshape(n, -1)


_MIXED = "a lone point's jet meets a chunk's jet or a lane vector"


def check_order(order: int) -> None:
    if not isinstance(order, int) or order < 0 or order > MAX_ORDER:
        raise OrderError(f"jet order must be an integer in [0, {MAX_ORDER}], got {order!r}")


class MultiJet:
    """Dense truncated Taylor expansion in three variables."""

    __slots__ = ("order", "c")
    # numpy scalars on the left defer to the reflected operators below
    # instead of wrapping the jet in an object array
    __array_ufunc__ = None

    def __init__(self, order: int, coeffs: np.ndarray):
        check_order(order)
        c = np.asarray(coeffs, dtype=float)
        if c.ndim not in (1, 2) or c.shape[0] != ncoef(order):
            raise OrderError(f"coefficient array has shape {c.shape}, expected "
                             f"({ncoef(order)}[, lanes]) for order {order}")
        self.order = order
        self.c = c

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(value, order: int) -> "MultiJet":
        check_order(order)
        c = np.zeros((_NCOEF[order], len(value))
                     if isinstance(value, np.ndarray) else _NCOEF[order])
        c[0] = value
        return _jet(order, c)

    # -- basics --------------------------------------------------------------

    def _lanes_of(self, k: int):
        """Coefficient k: a float for a point alone, a lane vector for a
        chunk's jet."""
        v = self.c[k]
        return float(v) if v.ndim == 0 else v.copy()

    @property
    def value(self):
        return self._lanes_of(0)

    def coeff(self, alpha):
        """Normalized coefficient T_alpha (one value per lane, as value)."""
        a = tuple(int(k) for k in alpha)
        if len(a) != NVARS or min(a) < 0:
            raise OrderError(f"bad multi-index {alpha!r}")
        if sum(a) > self.order:
            raise OrderError(f"multi-index {a} exceeds jet order {self.order}")
        return self._lanes_of(_positions(self.order)[a])

    def truncate(self, order: int) -> "MultiJet":
        if order == self.order:
            return self
        if order > self.order:
            raise OrderError(f"cannot raise jet order {self.order} to {order}")
        check_order(order)
        return _jet(order, self.c[: _NCOEF[order]].copy())

    def __repr__(self) -> str:
        return f"MultiJet(order={self.order}, value={np.round(self.c[0], 6)})"

    # -- ring operations ------------------------------------------------------
    # Mixed orders truncate to the lower order.  Every result owns a fresh
    # coefficient array.

    def _operands(self, other):
        """order, a, b: self's and a jet other's coefficients at the lower
        order (views), or None when other is no jet."""
        if not isinstance(other, MultiJet):
            return None
        order, a, b = self.order, self.c, other.c
        if a.ndim != b.ndim:
            raise TypeError(_MIXED)
        if other.order < order:
            order, a = other.order, a[:_NCOEF[other.order]]
        elif other.order > order:
            b = b[:_NCOEF[order]]
        return order, a, b

    def _scalar(self, other) -> bool:
        """Whether other acts on every lane: a number, or a lane vector
        against a chunk's jet."""
        if not isinstance(other, _SCALARS):
            return False
        if self.c.ndim == 1 and isinstance(other, np.ndarray) and other.ndim:
            raise TypeError(_MIXED)
        return True

    def __add__(self, other):
        ops = self._operands(other)
        if ops is not None:
            order, a, b = ops
            return _jet(order, a + b)
        if self._scalar(other):
            c = self.c.copy()
            c[0] += other
            return _jet(self.order, c)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _jet(self.order, -self.c)

    def __sub__(self, other):
        ops = self._operands(other)
        if ops is not None:
            order, a, b = ops
            return _jet(order, a - b)
        if self._scalar(other):
            c = self.c.copy()
            c[0] -= other
            return _jet(self.order, c)
        return NotImplemented

    def __rsub__(self, other):
        if self._scalar(other):
            c = -self.c
            c[0] += other
            return _jet(self.order, c)
        return NotImplemented

    def __mul__(self, other):
        ops = self._operands(other)
        if ops is not None:
            order, a, b = ops
            ia, ib, iout = _mul_table(order)
            if a.ndim == 1:
                return _jet(order, np.bincount(iout, a[ia] * b[ib],
                                               _NCOEF[order]))
            return _jet(order, _lane_sum(order, 0, a.take(ia, 0) * b.take(ib, 0),
                                         _NCOEF[order]))
        if self._scalar(other):
            return _jet(self.order, self.c * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        ops = self._operands(other)
        if ops is not None:
            return _quotient(*ops)
        if self._scalar(other):
            return _jet(self.order, self.c / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if self._scalar(other):
            return _constant_like(self, other) / self
        return NotImplemented

    def __pow__(self, k):
        if isinstance(k, int):
            return powi(self, k)
        return NotImplemented


_new = object.__new__


def _jet(order: int, c: np.ndarray) -> MultiJet:
    """Unchecked constructor: c is a float array (ncoef(order)[, lanes]).
    Arithmetic passes a new array; only _operands makes views, and they are
    never written to."""
    j = _new(MultiJet)
    j.order = order
    j.c = c
    return j


def _constant_like(x: MultiJet, value) -> MultiJet:
    """The constant value as a jet of the order and layout of x."""
    c = np.zeros(x.c.shape)
    c[0] = value
    return _jet(x.order, c)


def _quotient(order: int, a: np.ndarray, b: np.ndarray) -> MultiJet:
    """a/b for coefficients of one order and layout, by forward substitution
    over degree blocks, per lane: q_g = (a_g - sum_{beta != 0} b_beta
    q_(g - beta)) / b_0."""
    b0 = b[0]
    if b0 == 0.0 if b.ndim == 1 else not b0.all():
        raise SingularJet("division by a jet with zero constant term",
                          lane=first_lane(b0 == 0.0))
    q = np.empty(b.shape)
    q[0] = a[0] / b0
    for k, (lo, hi, ib, iq, slot) in enumerate(_div_table(order)):
        w = b[ib] * q[iq]
        s = _lane_sum(order, k + 1, w, hi - lo) if q.ndim == 2 \
            else np.bincount(slot, weights=w, minlength=hi - lo)
        q[lo:hi] = (a[lo:hi] - s) / b0
    return _jet(order, q)


# ---------------------------------------------------------------------------
# public operations


def jet_seed(var_index: int, value, order: int) -> MultiJet:
    """Jet of the coordinate function u_{var_index} (1-based) at the point
    (or points: a lane vector)."""
    if var_index not in (1, 2, 3):
        raise OrderError(f"var_index must be 1, 2, or 3, got {var_index!r}")
    j = MultiJet.constant(value, order)
    if order >= 1:
        e = [0, 0, 0]
        e[var_index - 1] = 1
        j.c[_positions(order)[tuple(e)]] = 1.0
    return j


@lru_cache(maxsize=None)
def _axis_slots(order: int, var: int) -> np.ndarray:
    """The slots of the monomials u_var^k, k = 0..order (var 0-based)."""
    pos = _positions(order)
    return np.asarray([pos[tuple(k * (v == var) for v in range(NVARS))]
                       for k in range(order + 1)], dtype=np.intp)


def _affine_variable(a: MultiJet):
    """The chart variable (0-based) of a jet whose only non-zero
    coefficients past its value are the first partial along it, on every
    lane; otherwise None."""
    c = a.c[1:]
    hits = np.flatnonzero(c if c.ndim == 1 else c.any(axis=1))
    return int(hits[0]) if hits.size == 1 and hits[0] < NVARS else None


def _horner(a: MultiJet, series: list) -> MultiJet:
    """Horner evaluation of sum_k series[k] * (a - a0)^k, truncated, for a
    jet of order >= 1; series has a.order + 1 terms."""
    abar_c = a.c.copy()
    abar_c[0] = 0.0
    abar = _jet(a.order, abar_c)
    r = abar * series[-1] + series[-2]
    for k in range(len(series) - 3, -1, -1):
        r = r * abar + series[k]
    return r


def _compose(a: MultiJet, series: list) -> MultiJet:
    """sum_k series[k] * (a - a0)^k, truncated; series has a.order + 1
    terms.  By _horner, except for a jet of order >= 2 (at order 1 Horner
    makes no jet product) affine in one chart variable (a chart seed, or a
    multiple of one), whose series lands on the powers of that variable
    with no jet product: where they are finite, the coefficients are
    Horner's bit for bit."""
    if a.order == 0:
        return MultiJet.constant(series[0], 0)
    var = _affine_variable(a) if a.order >= 2 else None
    if var is None:
        return _horner(a, series)
    n, slope = a.order, a.c[1 + var]
    # each of Horner's products multiplies every term by the slope and adds
    # it to the 0.0 a product slot sums from, the sign of a zero included
    t = np.array(series, dtype=float) + 0.0
    for k in range(1, n + 1):
        t[k:] = t[k:] * slope + 0.0
    c = np.zeros(a.c.shape)
    c[_axis_slots(n, var)] = t
    return _jet(n, c)


def jet_elementary(a: MultiJet, fn: str) -> MultiJet:
    """Composition with an elementary function: sqrt, sin, cos, exp; the
    math.* values are taken per lane, and math's error carries its lane."""
    n = a.order
    a0 = a.value
    lanes = a.c.ndim == 2

    def at(f):
        out = []
        try:
            for x in a0.tolist() if lanes else [a0]:
                out.append(f(x))
        except (ValueError, OverflowError) as exc:  # math's, at lane len(out)
            exc.lane = len(out)
            raise
        return np.array(out) if lanes else out[0]
    if fn == "sqrt":
        if (a0 <= 0.0).any() if lanes else a0 <= 0.0:
            l = first_lane(a0 <= 0.0)
            raise DomainError("sqrt of jet with non-positive constant term "
                              f"{np.ravel(a0)[l]}", lane=l)
        series = [at(math.sqrt)]
        for k in range(1, n + 1):
            series.append(series[-1] * (0.5 - (k - 1)) / (k * a0))
        return _compose(a, series)
    if fn == "exp":
        series = [at(math.exp)]
        for k in range(1, n + 1):
            series.append(series[-1] / k)
        return _compose(a, series)
    if fn == "sin" or fn == "cos":
        s, co = at(math.sin), at(math.cos)
        cycle = (s, co, -s, -co) if fn == "sin" else (co, -s, -co, s)
        return _compose(a, [cycle[k % 4] / math.factorial(k)
                            for k in range(n + 1)])
    raise OrderError(f"unknown elementary function {fn!r}")


def derivative(a: MultiJet, var_index: int) -> MultiJet:
    """Partial derivative with respect to u_{var_index}; drops one order.
    0.0 for a plain float, which stands for a constant."""
    if var_index not in (1, 2, 3):
        raise OrderError(f"var_index must be 1, 2, or 3, got {var_index!r}")
    if not isinstance(a, MultiJet):
        return 0.0
    if a.order == 0:
        raise OrderError("cannot differentiate an order-0 jet")
    src, fac = _deriv_table(a.order, var_index - 1)
    c = a.c[src]
    return _jet(a.order - 1, (fac if c.ndim == 1 else fac[:, None]) * c)


# ---------------------------------------------------------------------------
# stacks: the jets of a tensor in one array (ncoef, *entries[, lanes])

# The most doubles in one temporary of stack_mul.
TILE = 16384


def stack_order(c: np.ndarray) -> int:
    """The jet order of stacked coefficients c."""
    return _NCOEF.index(len(c))


def _stack_product(order: int, a, b) -> np.ndarray:
    """stack_mul on operands of one order whose product fits in a tile."""
    ia, ib, _ = _mul_table(order)
    w = a.take(ia, 0) * b.take(ib, 0)
    return _lane_sum(order, 0, w.reshape(len(ia), -1),
                     _NCOEF[order]).reshape((-1,) + w.shape[1:])


def stack_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The jet products a * b of stacked coefficients, entry by entry at the
    lower order, the entry axes broadcast: each entry sums the pairs of
    MultiJet.__mul__ in its order, bit for bit.  The entries (lanes
    included) run in tiles of at most TILE doubles per temporary."""
    n = min(len(a), len(b))
    order = _NCOEF.index(n)
    a, b = a[:n], b[:n]
    pairs = len(_mul_table(order)[0])
    # the broadcast entry shape (numpy checks it where the operands meet)
    sa, sb = ((1,) * (max(a.ndim, b.ndim) - x.ndim) + x.shape[1:]
              for x in (a, b))
    shape = tuple(y if x == 1 else x for x, y in zip(sa, sb))
    if pairs * math.prod(shape) <= TILE:
        return _stack_product(order, a, b)
    # tile axis d of the entries, and every index of the axes before it
    d = next(d for d in range(len(shape))
             if pairs * math.prod(shape[d + 1:]) <= TILE)
    step = TILE // (pairs * math.prod(shape[d + 1:]))
    a, b = (np.broadcast_to(x, (n,) + shape) for x in (a, b))
    out = np.empty((n,) + shape)
    for idx in np.ndindex(shape[:d]):
        for lo in range(0, shape[d], step):
            s = (slice(None),) + idx + (slice(lo, lo + step),)
            out[s] = _stack_product(order, a[s], b[s])
    return out


def contract(p: np.ndarray, axis: int, lorentz: bool = False,
             runs=None) -> np.ndarray:
    """The sum of stacked coefficients p over an entry axis (axis counts
    the coefficient axis), term by term in order as jetalg.dot adds its
    products, the first term negated when lorentz, as in
    jetalg.lorentz_dot.  With runs, each run of that many consecutive
    entries is summed alone, and the sums stay on that axis."""
    at = (slice(None),) * axis
    sums, lo = [], 0
    for size in (p.shape[axis],) if runs is None else runs:
        acc = -p[at + (lo,)] if lorentz else p[at + (lo,)]
        for k in range(lo + 1, lo + size):
            acc = acc + p[at + (k,)]
        sums.append(acc)
        lo += size
    return sums[0] if runs is None else np.stack(sums, axis=axis)


def stack_derivative(c: np.ndarray, var: int) -> np.ndarray:
    """The partials along u_{var + 1} (var 0-based) of stacked
    coefficients, as derivative takes them."""
    src, fac = _deriv_table(stack_order(c), var)
    return fac.reshape((-1,) + (1,) * (c.ndim - 1)) * c[src]


def stack(entries) -> np.ndarray:
    """The coefficients of a list of jets, stacked at their lowest order."""
    n = min(len(e.c) for e in entries)
    return np.stack([e.c[:n] for e in entries], axis=1)


def views(c: np.ndarray, depth: int):
    """Stacked coefficients as nested lists (depth entry axes) of MultiJet
    views into c, which are never written."""
    order = stack_order(c)

    def build(c, d):
        return [build(c[:, k], d - 1) for k in range(c.shape[1])] if d \
            else _jet(order, c)
    return build(c, depth)


def stack_values(c: np.ndarray, depth: int) -> np.ndarray:
    """The values of stacked coefficients with depth entry axes, as
    jetalg.value_array reads views: a new array, a chunk's lanes first."""
    v = c[0]
    return np.array(np.moveaxis(v, -1, 0) if v.ndim > depth else v, order="C")


def stack_gradients(c: np.ndarray, depth: int) -> np.ndarray:
    """Their first partials, as stack_values, on a trailing axis of 3."""
    if len(c) == 1:
        raise OrderError("an order-0 jet carries no first partials")
    return stack_values(np.moveaxis(c[1:1 + NVARS], 0, depth)[None], depth + 1)


# the slots of the monomials e_a + e_b in graded order
SECOND = ((4, 5, 6), (5, 7, 8), (6, 8, 9))


def low_partials(x: MultiJet):
    """The value, the first partials [a] and the second partials [a][b] of
    a jet of order >= 2 at the base point, floats (lane vectors for a
    chunk's jet) equal to the constant terms of x, derivative(x, a + 1) and
    derivative(derivative(x, a + 1), b + 1) bit for bit: the diagonal
    second partials carry the factor 2 of T_alpha = d^alpha f / alpha!."""
    c = x.c[:_NCOEF[2]]
    c = c.tolist() if c.ndim == 1 else list(c)
    d2 = [[c[k] * (2.0 if a == b else 1.0) for b, k in enumerate(row)]
          for a, row in enumerate(SECOND)]
    return c[0], c[1:1 + NVARS], d2


def extract_derivative(a: MultiJet, alpha):
    """Raw partial derivative d^alpha f at the basepoint (coefficient times
    alpha!), one value per lane, as MultiJet.coeff."""
    t = tuple(int(k) for k in alpha)
    fac = 1.0
    for k in t:
        fac *= math.factorial(k)
    return a.coeff(t) * fac


# ---------------------------------------------------------------------------
# scalar-polymorphic helpers: work on MultiJet and on plain floats, so an
# expression tree or a built-in evaluator runs unchanged over either.


def _binpow(x, k: int):
    """x**k for k >= 1 by binary exponentiation.  Uses the identical
    multiplication tree for floats and jets so constant terms match bitwise."""
    result = None
    base = x
    while True:
        if k & 1:
            result = base if result is None else result * base
        k >>= 1
        if not k:
            return result
        base = base * base


def powi(x, k: int):
    if not isinstance(k, int):
        raise OrderError(f"integer exponent required, got {k!r}")
    if k == 0:
        return _constant_like(x, 1.0) if isinstance(x, MultiJet) else 1.0
    if k < 0:
        return 1.0 / _binpow(x, -k)  # SingularJet for a zero constant term
    return _binpow(x, k)


def sin(x):
    return jet_elementary(x, "sin") if isinstance(x, MultiJet) else math.sin(x)


def cos(x):
    return jet_elementary(x, "cos") if isinstance(x, MultiJet) else math.cos(x)


def exp(x):
    return jet_elementary(x, "exp") if isinstance(x, MultiJet) else math.exp(x)


def sqrt(x):
    if isinstance(x, MultiJet):
        return jet_elementary(x, "sqrt")
    lanes = isinstance(x, np.ndarray)  # DomainError if any lane is < 0
    if (x < 0.0).any() if lanes else x < 0.0:
        l = first_lane(x < 0.0)
        raise DomainError(f"sqrt of negative value {np.ravel(x)[l]}", lane=l)
    return np.sqrt(x) if lanes else math.sqrt(x)


def value_of(x):
    """Constant term of a jet, or the float or lane vector itself."""
    if isinstance(x, MultiJet):
        return x.value
    return x if np.ndim(x) else float(x)


# ---------------------------------------------------------------------------
# lanes: one jet per sample point of a chunk


def points(p) -> list:
    """The points of p: one chart point, or a chunk given as a list of them."""
    return p if isinstance(p[0], (list, tuple, np.ndarray)) else [p]


def from_lanes(values):
    """One value per lane, stacked along a trailing lane axis (if several)."""
    return values[0] if len(values) == 1 else np.stack(values, axis=-1)


def first_lane(mask):
    """The first lane where mask holds (0 for a true scalar), or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def where(mask, x, y):
    """x on the lanes where mask holds, else y.  Jets mix as in the ring
    operations: two jets meet at the lower order, and a number (or a lane
    vector, against a chunk's jet) is a constant of the jet's order and
    layout.  A lone point's jet meets no lane mask."""
    jet = x if isinstance(x, MultiJet) else y
    if not isinstance(jet, MultiJet):
        return np.where(mask, x, y) if isinstance(mask, np.ndarray) \
            else (x if mask else y)
    for v in (x, y):
        if not (isinstance(v, MultiJet) or jet._scalar(v)):
            raise TypeError(f"cannot mix a jet with {type(v).__name__}")
    x, y = (v if isinstance(v, MultiJet) else _constant_like(jet, v)
            for v in (x, y))
    order, a, b = x._operands(y)
    if a.ndim == 1 and np.ndim(mask):
        raise TypeError(_MIXED)
    return _jet(order, np.where(mask, a, b))


# ---------------------------------------------------------------------------
# the cached fields of the contexts (classical, moebius, ideal)


class field:
    """A cached attribute, as functools.cached_property but lock-free."""

    def __init__(self, func):
        self.func, self.attrname, self.__doc__ = func, func.__name__, func.__doc__

    def __set_name__(self, owner, name):
        self.attrname = name

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.attrname] = self.func(obj)
        return value


def viewed(stack: str, depth: int, arrange=None) -> field:
    """The field of views (depth entry axes) into the stack field named
    stack, as nested lists arranged by arrange when given."""
    return field(lambda self: (arrange or (lambda v: v))(
        views(getattr(self, stack), depth)))
