"""Truncated trivariate Taylor arithmetic.

A MultiJet holds the normalized Taylor coefficients T_alpha = d^alpha f / alpha!
of a scalar function of three chart variables at a point, densely over all
multi-indices |alpha| <= order.  Storing normalized coefficients makes the
product a plain truncated convolution and keeps magnitudes tame.

Monomials are listed in graded order (degree first), so the coefficient array
of a lower-order jet is a prefix of a higher-order one; truncation is a slice.

All tables (monomial lists, product index pairs, division blocks, derivative
maps, their output slots spread over lanes) are built on first use and cached.
Results of arithmetic are made by the unchecked constructor _jet; the public
MultiJet(order, coeffs) validates its input.

Lanes.  Coefficients may carry a trailing lane axis, (ncoef, P), one lane per
point of a chunk (moebius.map_chunks: the first point alone, then at most 20
points each, and a chunk that raises again point by point).  1-D jets, floats
and lane vectors (arrays (P,)) act on every lane.  A product is one bincount
over the slots s * P + lane, which sums each lane's pairs in one-point order,
and division pivots and elementary series (math.*) are taken per lane, so a
record depends only on its point, bit for bit.
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
def _lane_slots(order: int, lanes: int):
    """The output slots of _mul_table, then of each _div_table block, with
    slot s of lane l spread to s * lanes + l."""
    return [(s[:, None] * lanes + np.arange(lanes)).ravel()
            for s in (_mul_table(order)[2], *(b[4] for b in _div_table(order)))]


def _lane_sum(order: int, table: int, w, n: int) -> np.ndarray:
    """Per lane, the weights w (pairs x lanes) summed by the output slots of
    _lane_slots(order, lanes)[table]."""
    return np.bincount(_lane_slots(order, w.shape[1])[table], w.ravel(),
                       n * w.shape[1]).reshape(n, -1)


def _lanes(c: np.ndarray, other) -> np.ndarray:
    """c given the lanes of a lane vector `other` when it has none."""
    if isinstance(other, np.ndarray) and c.ndim == 1:
        return np.broadcast_to(c[:, None], (c.shape[0], other.shape[0]))
    return c


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

    @property
    def value(self):
        v = self.c[0]  # a lane vector for a chunk's jet
        return float(v) if v.ndim == 0 else v.copy()

    def coeff(self, alpha) -> float:
        """Normalized coefficient T_alpha."""
        a = tuple(int(k) for k in alpha)
        if len(a) != NVARS or min(a) < 0:
            raise OrderError(f"bad multi-index {alpha!r}")
        if sum(a) > self.order:
            raise OrderError(f"multi-index {a} exceeds jet order {self.order}")
        return float(self.c[_positions(self.order)[a]])

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
        order, a 1-D one given a lane axis against a chunk's (views)."""
        if not isinstance(other, MultiJet):
            return None
        order, a, b = self.order, self.c, other.c
        if other.order == order and a.ndim == b.ndim:
            return order, a, b
        if other.order < order:
            order, a = other.order, a[:_NCOEF[other.order]]
        elif other.order > order:
            b = b[:_NCOEF[order]]
        if a.ndim != b.ndim:
            a, b = (a[:, None], b) if a.ndim == 1 else (a, b[:, None])
        return order, a, b

    def __add__(self, other):
        ops = self._operands(other)
        if ops is not None:
            order, a, b = ops
            return _jet(order, a + b)
        if isinstance(other, _SCALARS):
            c = _lanes(self.c, other).copy()
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
        if isinstance(other, _SCALARS):
            c = _lanes(self.c, other).copy()
            c[0] -= other
            return _jet(self.order, c)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _SCALARS):
            c = -_lanes(self.c, other)
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
        if isinstance(other, _SCALARS):
            return _jet(self.order, _lanes(self.c, other) * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        ops = self._operands(other)
        if ops is not None:
            return _quotient(*ops)
        if isinstance(other, _SCALARS):
            return _jet(self.order, _lanes(self.c, other) / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _SCALARS):
            return MultiJet.constant(other, self.order) / self
        return NotImplemented

    def __pow__(self, k):
        if isinstance(k, int):
            return powi(self, k)
        return NotImplemented


_new = object.__new__


def _jet(order: int, c: np.ndarray) -> MultiJet:
    """Unchecked constructor: c is a float array (ncoef(order)[, lanes]).
    Arithmetic passes a new array; only _operands and lane make views, and
    theirs are never written to."""
    j = _new(MultiJet)
    j.order = order
    j.c = c
    return j


def _quotient(order: int, a: np.ndarray, b: np.ndarray) -> MultiJet:
    """a/b for coefficients as _operands leaves them, by forward substitution
    over degree blocks, per lane: q_g = (a_g - sum_{beta != 0} b_beta
    q_(g - beta)) / b_0."""
    b0 = b[0]
    if b0 == 0.0 if b.ndim == 1 else not b0.all():
        raise SingularJet("division by a jet with zero constant term")
    q = np.empty(b.shape if b.ndim == 1 else (len(b), max(a.shape[1], b.shape[1])))
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


def _compose(a: MultiJet, series: list) -> MultiJet:
    """Horner evaluation of sum_k series[k] * (a - a0)^k, truncated;
    series has a.order + 1 terms."""
    if a.order == 0:
        return MultiJet.constant(series[0], 0)
    abar_c = a.c.copy()
    abar_c[0] = 0.0
    abar = _jet(a.order, abar_c)
    r = abar * series[-1] + series[-2]
    for k in range(len(series) - 3, -1, -1):
        r = r * abar + series[k]
    return r


def jet_elementary(a: MultiJet, fn: str) -> MultiJet:
    """Composition with an elementary function: sqrt, sin, cos, exp; the
    math.* values are taken per lane."""
    n = a.order
    a0 = a.value
    lanes = a.c.ndim == 2

    def at(f):
        return np.array([f(x) for x in a0.tolist()]) if lanes else f(a0)
    if fn == "sqrt":
        if (a0 <= 0.0).any() if lanes else a0 <= 0.0:
            raise DomainError(f"sqrt of jet with non-positive constant term {a0}")
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
        fact = 1.0
        series = []
        for k in range(n + 1):
            if k > 0:
                fact *= k
            series.append(cycle[k % 4] / fact)
        return _compose(a, series)
    raise OrderError(f"unknown elementary function {fn!r}")


def derivative(a: MultiJet, var_index: int) -> MultiJet:
    """Partial derivative with respect to u_{var_index}; drops one order."""
    if var_index not in (1, 2, 3):
        raise OrderError(f"var_index must be 1, 2, or 3, got {var_index!r}")
    if a.order == 0:
        raise OrderError("cannot differentiate an order-0 jet")
    src, fac = _deriv_table(a.order, var_index - 1)
    c = a.c[src]
    return _jet(a.order - 1, (fac if c.ndim == 1 else fac[:, None]) * c)


def gradient(x) -> np.ndarray:
    """First partials (d/du_1, d/du_2, d/du_3) of a jet at the base point;
    zeros for a plain float, which stands for a constant."""
    if not isinstance(x, MultiJet):
        return np.zeros(NVARS)
    if x.order == 0:
        raise OrderError("an order-0 jet carries no first partials")
    return x.c[1:1 + NVARS].copy()


# the slots of the monomials e_a + e_b in graded order
_SECOND = ((4, 5, 6), (5, 7, 8), (6, 8, 9))


def low_partials(x: MultiJet):
    """The value, the first partials [a] and the second partials [a][b] of
    a jet of order >= 2 at the base point, as floats.  They equal the
    constant terms of x, derivative(x, a + 1) and
    derivative(derivative(x, a + 1), b + 1) bit for bit: the diagonal
    second partials carry the factor 2 of T_alpha = d^alpha f / alpha!."""
    c = x.c[:_NCOEF[2]].tolist()
    d2 = [[c[k] * (2.0 if a == b else 1.0) for b, k in enumerate(row)]
          for a, row in enumerate(_SECOND)]
    return c[0], c[1:1 + NVARS], d2


def extract_derivative(a: MultiJet, alpha) -> float:
    """Raw partial derivative d^alpha f at the basepoint (coefficient times alpha!)."""
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
        return MultiJet.constant(1.0, x.order) if isinstance(x, MultiJet) else 1.0
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
    if x < 0.0:
        raise DomainError(f"sqrt of negative value {x}")
    return math.sqrt(x)


def value_of(x) -> float:
    """Constant term of a jet, or the float itself."""
    return x.value if isinstance(x, MultiJet) else float(x)


# ---------------------------------------------------------------------------
# lanes: one jet per sample point of a chunk


def points(p) -> list:
    """The points of p: one chart point, or a chunk given as a list of them."""
    return p if isinstance(p[0], (list, tuple, np.ndarray)) else [p]


def from_lanes(values):
    """One value per lane, stacked along a trailing lane axis (if several)."""
    return values[0] if len(values) == 1 else np.stack(values, axis=-1)


def lane(obj, l: int):
    """Lane l of a chunk's jet or lane vector, or of lists or dicts of them
    (a jet's lane is a view); anything else is every lane's."""
    if isinstance(obj, (list, tuple)):
        return [lane(x, l) for x in obj]
    if isinstance(obj, dict):
        return {k: lane(x, l) for k, x in obj.items()}
    if isinstance(obj, MultiJet) and obj.c.ndim == 2:
        return _jet(obj.order, obj.c[:, l])
    return obj[..., l] if isinstance(obj, np.ndarray) else obj


def where(mask, x, y):
    """x on the lanes where mask holds, else y: jets of one order, or numbers."""
    if not isinstance(mask, np.ndarray):
        return x if mask else y
    if isinstance(x, MultiJet):
        return _jet(x.order, np.where(mask, *(c if c.ndim == 2 else c[:, None]
                                             for c in (x.c, y.c))))
    return np.where(mask, x, y)


class Lanes:
    """Base of the lazy objects over sample points.  One point is its own
    lane; a chunk keeps a state (attribute dict) per point and hands out views
    whose jet fields (field) are the chunk's cut to the lane.  It holds no
    view, so no reference cycle keeps its jets alive."""

    __slots__ = ("_chunk", "__dict__")

    @property
    def lanes(self) -> list:
        """One view per point: [self] for one point."""
        states = self.__dict__.get("_states")
        if states is None:
            return [self]
        views = [_new(type(self)) for _ in states]
        for view, state in zip(views, states):
            view.__dict__, view._chunk = state, self
        return views

    def split_lanes(self, per_lane: list, **shared) -> None:
        """Set the shared attributes, and each point's own (on self if one)."""
        self.__dict__.update(shared)
        if len(per_lane) == 1:
            self.__dict__.update(per_lane[0])
        else:
            self._states = [dict(attrs, **shared, _lane=l)
                            for l, attrs in enumerate(per_lane)]


class field:
    """A cached jet field of a Lanes object: on a view, the chunk's cut."""

    def __init__(self, func):  # as functools.cached_property, lock-free
        self.func, self.attrname, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        d = obj.__dict__
        value = d[self.attrname] = self.func(obj) if "_lane" not in d \
            else lane(getattr(obj._chunk, self.attrname), d["_lane"])
        return value
