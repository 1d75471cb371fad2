"""Truncated trivariate Taylor arithmetic.

A MultiJet holds the normalized Taylor coefficients T_alpha = d^alpha f / alpha!
of a scalar function of three chart variables at a point, densely over all
multi-indices |alpha| <= order.  Storing normalized coefficients makes the
product a plain truncated convolution and keeps magnitudes tame.

Monomials are listed in graded order (degree first), so the coefficient array
of a lower-order jet is a prefix of a higher-order one; truncation is a slice.

All tables (monomial lists, product index pairs, division blocks, derivative
maps) are built once per order and cached.  Results of arithmetic are made by
the unchecked constructor _jet; the public MultiJet(order, coeffs) validates
its input.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError, OrderError, SingularJet

NVARS = 3
MAX_ORDER = 5
_NCOEF = tuple((k + 1) * (k + 2) * (k + 3) // 6 for k in range(MAX_ORDER + 1))


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
        if c.shape != (ncoef(order),):
            raise OrderError(
                f"coefficient array has length {c.shape}, expected ({ncoef(order)},) for order {order}")
        self.order = order
        self.c = c

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(value: float, order: int) -> "MultiJet":
        check_order(order)
        c = np.zeros(_NCOEF[order])
        c[0] = value
        return _jet(order, c)

    # -- basics --------------------------------------------------------------

    @property
    def value(self) -> float:
        return float(self.c[0])

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
        return f"MultiJet(order={self.order}, value={self.c[0]:.6g})"

    # -- ring operations ------------------------------------------------------
    # Mixed orders truncate to the lower order.  Every result owns a fresh
    # coefficient array.

    def _coerce(self, other):
        # the truncated operand is a view: it only feeds the arithmetic below,
        # which writes its result to a new array
        if isinstance(other, MultiJet):
            if other.order == self.order:
                return self, other
            if other.order < self.order:
                return _jet(other.order, self.c[:_NCOEF[other.order]]), other
            return self, _jet(self.order, other.c[:_NCOEF[self.order]])
        return None

    def __add__(self, other):
        pair = self._coerce(other)
        if pair is not None:
            a, b = pair
            return _jet(a.order, a.c + b.c)
        if isinstance(other, (int, float)):
            c = self.c.copy()
            c[0] += other
            return _jet(self.order, c)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _jet(self.order, -self.c)

    def __sub__(self, other):
        pair = self._coerce(other)
        if pair is not None:
            a, b = pair
            return _jet(a.order, a.c - b.c)
        if isinstance(other, (int, float)):
            c = self.c.copy()
            c[0] -= other
            return _jet(self.order, c)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, float)):
            c = -self.c
            c[0] += other
            return _jet(self.order, c)
        return NotImplemented

    def __mul__(self, other):
        pair = self._coerce(other)
        if pair is not None:
            a, b = pair
            ia, ib, iout = _mul_table(a.order)
            return _jet(a.order, np.bincount(iout, weights=a.c[ia] * b.c[ib],
                                             minlength=_NCOEF[a.order]))
        if isinstance(other, (int, float)):
            return _jet(self.order, self.c * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        pair = self._coerce(other)
        if pair is not None:
            a, b = pair
            return _quotient(a.c, b)
        if isinstance(other, (int, float)):
            return _jet(self.order, self.c / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, float)):
            return _quotient(MultiJet.constant(other, self.order).c, self)
        return NotImplemented

    def __pow__(self, k):
        if isinstance(k, int):
            return powi(self, k)
        return NotImplemented


_new = object.__new__


def _jet(order: int, c: np.ndarray) -> MultiJet:
    """Unchecked constructor: c is a float array of length ncoef(order).
    Arithmetic passes a new array; only _coerce passes a view, which never
    leaves the operation."""
    j = _new(MultiJet)
    j.order = order
    j.c = c
    return j


def _quotient(a: np.ndarray, b: MultiJet) -> MultiJet:
    """a/b for coefficients a of b's order, by forward substitution over
    degree blocks: q_g = (a_g - sum_{beta != 0} b_beta q_(g - beta)) / b_0."""
    b0 = float(b.c[0])
    if b0 == 0.0:
        raise SingularJet("division by a jet with zero constant term")
    q = np.empty(_NCOEF[b.order])
    q[0] = a[0] / b0
    for lo, hi, ib, iq, slot in _div_table(b.order):
        q[lo:hi] = (a[lo:hi] - np.bincount(slot, weights=b.c[ib] * q[iq],
                                           minlength=hi - lo)) / b0
    return _jet(b.order, q)


# ---------------------------------------------------------------------------
# public operations


def jet_seed(var_index: int, value: float, order: int) -> MultiJet:
    """Jet of the coordinate function u_{var_index} (1-based) at the point."""
    check_order(order)
    if var_index not in (1, 2, 3):
        raise OrderError(f"var_index must be 1, 2, or 3, got {var_index!r}")
    c = np.zeros(_NCOEF[order])
    c[0] = value
    if order >= 1:
        e = [0, 0, 0]
        e[var_index - 1] = 1
        c[_positions(order)[tuple(e)]] = 1.0
    return _jet(order, c)


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
    """Composition with an elementary function: sqrt, sin, cos, exp."""
    n = a.order
    a0 = float(a.c[0])
    if fn == "sqrt":
        if a0 <= 0.0:
            raise DomainError(f"sqrt of jet with non-positive constant term {a0}")
        series = [math.sqrt(a0)]
        for k in range(1, n + 1):
            series.append(series[-1] * (0.5 - (k - 1)) / (k * a0))
        return _compose(a, series)
    if fn == "exp":
        series = [math.exp(a0)]
        for k in range(1, n + 1):
            series.append(series[-1] / k)
        return _compose(a, series)
    if fn == "sin" or fn == "cos":
        s, co = math.sin(a0), math.cos(a0)
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
    return _jet(a.order - 1, fac * a.c[src])


def gradient(x) -> np.ndarray:
    """First partials (d/du_1, d/du_2, d/du_3) of a jet at the base point;
    zeros for a plain float, which stands for a constant."""
    if not isinstance(x, MultiJet):
        return np.zeros(NVARS)
    if x.order == 0:
        raise OrderError("an order-0 jet carries no first partials")
    return x.c[1:1 + NVARS].copy()


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
