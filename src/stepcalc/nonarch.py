"""Exact arithmetic in a non-Archimedean ordered field of rational functions.

``RatFunc`` elements are quotients of univariate polynomials with exact
rational coefficients.  The indeterminate plays the role of a positive
infinitesimal: ordering is decided by the sign of the lowest-order
coefficients, so the indeterminate is positive yet smaller than every
positive rational.  The ``std`` map discards infinitesimals (extracts the
order-zero part), and ``deriv_at`` computes exact derivatives of rational
functions with no limit concept: substitute ``x0 + eps``, discard eps^2 and
higher at each step, and read off the coefficient of eps (Berz 1992).
``RatFunc`` values are immutable and canonically normalized by Euclid's gcd,
so structural equality is semantic equality.

``Jet`` is the same calculation without the canonical form: a rational
function is kept as the Taylor coefficients of a numerator and a
denominator at ``x0 + eps``, discarding eps^P and higher, with degree bounds
that make its zero test exact (Taylor arithmetic in Q[eps]; Griewank and
Walther, *Evaluating Derivatives*, ch. 13).  That one test decides a divisor,
the base of a negative power and, applied to e - c, whether a non-constant
exponent e is the constant integer c.  ``deriv_by_series`` reads the
derivative off it, raising P only where the denominator vanishes at x0.  No
gcd is taken until the answer is reduced.  The command line uses this path;
``RatFunc`` and ``deriv_at`` are the reference the tests check it against.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import total_ordering
from typing import Callable, Sequence, Union

RationalLike = Union[int, Fraction]


class NoStandardPartError(ArithmeticError):
    """Raised when the standard part of an infinite element is requested."""


class Poly:
    """Dense univariate polynomial over exact rationals, lowest power first.

    The coefficient tuple never has a trailing zero; the zero polynomial is
    the empty tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[RationalLike] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def constant(cls, c: RationalLike) -> "Poly":
        return cls((Fraction(c),))

    @classmethod
    def identity(cls) -> "Poly":
        """The polynomial x."""
        return cls((Fraction(0), Fraction(1)))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def order(self) -> int:
        """Index of the lowest nonzero coefficient."""
        if self.is_zero:
            raise ValueError("order of the zero polynomial is undefined")
        return next(i for i, c in enumerate(self.coeffs) if c != 0)

    def coeff(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def scale(self, c: RationalLike) -> "Poly":
        c = Fraction(c)
        return Poly(tuple(a * c for a in self.coeffs))

    def monic(self) -> "Poly":
        return self.scale(1 / self.leading())

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(tuple(self.coeff(i) + other.coeff(i) for i in range(n)))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero or other.is_zero:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(tuple(out))

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(0, self.degree - other.degree + 1)
        rem = list(self.coeffs)
        d = other.degree
        lead = other.leading()
        while len(rem) > d:  # rem never has a trailing zero here
            k = len(rem) - 1 - d
            factor = rem[-1] / lead
            q[k] = factor
            for j, c in enumerate(other.coeffs):
                rem[k + j] -= factor * c
            rem.pop()
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly(tuple(q)), Poly(tuple(rem))

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ValueError("inexact polynomial division")
        return q

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if self.is_zero:
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*eps")
            else:
                terms.append(f"{c}*eps^{i}")
        return "Poly(" + " + ".join(terms) + ")"


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm over exact rationals."""
    while not b.is_zero:
        a, b = b, a % b
    if a.is_zero:
        return a
    return a.monic()


@total_ordering
class RatFunc:
    """A rational function num/den in one infinitesimal indeterminate.

    Canonical form: gcd(num, den) = 1 and den is monic, so two equal field
    elements have identical representations.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, Poly):
            num = Poly.constant(num)
        if den is None:
            den = Poly.constant(1)
        elif not isinstance(den, Poly):
            den = Poly.constant(den)
        if den.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        if num.is_zero:
            num, den = Poly(), Poly.constant(1)
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
            lc = den.leading()
            if lc != 1:
                num = num.scale(1 / lc)
                den = den.scale(1 / lc)
        self.num = num
        self.den = den

    @classmethod
    def from_fraction(cls, q: RationalLike) -> "RatFunc":
        return cls(Poly.constant(q))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def degree(self) -> int:
        return max(self.num.degree, self.den.degree)

    @property
    def bits(self) -> int:
        """For a constant, the bit length of its numerator or denominator,
        whichever is longer."""
        q = self.num.coeff(0)  # over a monic constant denominator
        return max(abs(q.numerator), q.denominator).bit_length()

    def constant_integer(self) -> int | None:
        """The value if the element is a constant integer, else None."""
        if self.den.degree == 0 and self.num.degree <= 0 and self.std().denominator == 1:
            return int(self.std())
        return None

    def order(self) -> int:
        """Valuation: order(num) - order(den).  Positive means infinitesimal,
        negative means infinite."""
        if self.is_zero:
            raise ValueError("order of zero is undefined")
        return self.num.order() - self.den.order()

    def sign(self) -> int:
        """Sign of the element in the non-Archimedean order."""
        if self.is_zero:
            return 0
        a = self.num.coeffs[self.num.order()]
        b = self.den.coeffs[self.den.order()]
        return (1 if a > 0 else -1) * (1 if b > 0 else -1)

    def std(self) -> Fraction:
        """Standard part: the order-zero coefficient, discarding infinitesimals.

        Defined for finite elements only; an infinite element raises
        :class:`NoStandardPartError`.
        """
        if self.is_zero:
            return Fraction(0)
        d = self.den.order()
        if self.num.order() < d:
            raise NoStandardPartError("no standard part: element is infinite")
        return self.num.coeff(d) / self.den.coeff(d)

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction)):
            return RatFunc.from_fraction(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return RatFunc.from_fraction(1) / self ** (-n)
        out = RatFunc.from_fraction(1)
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot compare RatFunc with {type(other)!r}")
        return (self - o).sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __repr__(self) -> str:
        return f"RatFunc({self.num!r}, {self.den!r})"


#: The infinitesimal indeterminate.  The same generator doubles as the free
#: variable when building rational functions for ``deriv_at``.
EPSILON = RatFunc(Poly.identity())


def compare(a: RatFunc, b) -> int:
    """Three-way comparison in the field order: -1, 0 or +1."""
    return a._cmp(b)


def _at_x0_plus_eps(p: Poly, x0: Fraction) -> tuple[Fraction, Fraction]:
    """(p(x0), p'(x0)) by Horner's rule at x0 + eps in Q[eps]/(eps^2)."""
    value = slope = Fraction(0)
    for c in reversed(p.coeffs):
        value, slope = value * x0 + c, slope * x0 + value
    return value, slope


def deriv_at(f: RatFunc, x0: RationalLike) -> Fraction:
    """Exact derivative of the rational function ``f`` at the rational ``x0``.

    No limits: substitute ``x0 + eps``, discard eps^2 and higher at each step
    and read off the coefficient of eps (Berz 1992), in O(deg f) rational
    operations.  ``f`` is gcd-cancelled, so removable singularities are
    differentiable while true poles raise ``ZeroDivisionError``.
    """
    x0 = Fraction(x0)
    num0, num1 = _at_x0_plus_eps(f.num, x0)
    den0, den1 = _at_x0_plus_eps(f.den, x0)
    if den0 == 0:
        raise ZeroDivisionError(f"pole at {x0}")
    return (num1 * den0 - num0 * den1) / (den0 * den0)


# ---------------------------------------------------------------------------
# Truncated series at a point

def _coeff(a: list, i: int):
    return a[i] if i < len(a) else 0


def _pad(a: list, n: int) -> list:
    return a + [0] * (n - len(a))


def _mul(a: list, b: list, n: int) -> list:
    """The first n Taylor coefficients of a product, skipping zero terms."""
    out = [0] * n
    terms = [(j, y) for j, y in enumerate(b[:n]) if y]
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in terms:
                if i + j >= n:
                    break
                out[i + j] += x * y
    return out


def _pow(a: list, k: int, n: int) -> list:
    """The first n Taylor coefficients of a^k, k >= 0, by J. C. P. Miller's
    recurrence on the part after the leading zeros (Knuth, TAOCP vol. 2,
    §4.7): O(n len(a)) operations whatever k is.  The coefficients of an
    integer series' power are integers, so each division is exact."""
    if k == 0:
        return [1]
    v = next((i for i, c in enumerate(a) if c), len(a))
    if k * v >= n:
        return [0] * n
    u = a[v:]
    c = [u[0] ** k]
    for m in range(1, n - k * v):
        s = sum(((k + 1) * j - m) * u[j] * c[m - j] for j in range(1, min(m, len(u) - 1) + 1))
        c.append(s // (m * u[0]))
    return [0] * (k * v) + c


class Jet:
    """A rational function N/D of one variable x, kept as the Taylor
    coefficients of N and D at x = x0 + eps, mod eps^order.

    N and D are the polynomials the operations build: products and
    quotients cross-multiply, sums over the same constant denominator add
    numerators, and nothing is gcd-cancelled, so no coefficient is ever
    divided.  A rational x0 or literal p/q enters as numerator p over
    denominator q, so every coefficient is an integer.  The degrees of N
    and D are at most ``dn`` and ``dd``, and ``num`` and ``den`` hold
    ``min(order, degree + 1)`` coefficients each: a list that fits its
    degree bound holds the whole polynomial.  D is never the zero
    polynomial, because a divisor and the base of a negative power are
    tested with ``is_zero`` first.

    Each element keeps the operation and operands that built it.
    ``is_zero`` is the one exact decision: a numerator that vanishes to
    every kept order is tested by replaying that recipe at degree + 1
    integer points, since a nonzero polynomial of degree d has at most d
    roots.  ``constant_integer`` asks it whether ``self - c`` is zero, for a non-constant.
    """

    __slots__ = ("num", "den", "dn", "dd", "order", "_op", "_args")

    def __init__(self, num: list, den: list, dn: int, dd: int, order: int, op=None, args: tuple = ()):
        self.num = num
        self.den = den
        self.dn = dn
        self.dd = dd
        self.order = order
        self._op = op
        self._args = args

    @classmethod
    def variable(cls, x0: RationalLike, order: int) -> "Jet":
        """x at x0 + eps, mod eps^order: (p + q eps) / q for x0 = p/q."""
        x0 = Fraction(x0)
        return cls([x0.numerator, x0.denominator][:order], [x0.denominator], 1, 0, order)

    @classmethod
    def from_fraction(cls, q: RationalLike) -> "Jet":
        """A constant, ``q`` (an int or Fraction) taken as it is: its one
        coefficient is the whole polynomial at any order."""
        return cls([q.numerator], [q.denominator], 0, 0, 1)

    @property
    def degree(self) -> int:
        return max(self.dn, self.dd)

    @property
    def bits(self) -> int:
        """For a constant (``degree`` 0), the bit length of its reduced
        numerator or denominator, whichever is longer, as ``RatFunc.bits``."""
        q = Fraction(self.num[0], self.den[0])
        return max(abs(q.numerator), q.denominator).bit_length()

    def _product(self, other: "Jet", op, num: list, den: list, dn: int, dd: int) -> "Jet":
        order = max(self.order, other.order)
        return Jet(_mul(self.num, num, min(order, dn + 1)), _mul(self.den, den, min(order, dd + 1)),
                   dn, dd, order, op, (self, other))

    def __mul__(self, other: "Jet") -> "Jet":
        return self._product(other, operator.mul, other.num, other.den,
                             self.dn + other.dn, self.dd + other.dd)

    def __truediv__(self, other: "Jet") -> "Jet":
        """The caller tests ``other.is_zero`` first."""
        return self._product(other, operator.truediv, other.den, other.num,
                             self.dn + other.dd, self.dd + other.dn)

    def _sum(self, other: "Jet", op) -> "Jet":
        order = max(self.order, other.order)
        if self.dd == other.dd == 0 and self.den[0] == other.den[0]:
            dn, dd, den = max(self.dn, other.dn), 0, self.den
            left, right = self.num, other.num
        else:
            dn, dd = max(self.dn + other.dd, other.dn + self.dd), self.dd + other.dd
            left = _mul(self.num, other.den, min(order, dn + 1))
            right = _mul(other.num, self.den, min(order, dn + 1))
            den = _mul(self.den, other.den, min(order, dd + 1))
        n = min(order, dn + 1)
        return Jet(list(map(op, _pad(left, n), _pad(right, n))), den, dn, dd, order, op, (self, other))

    def __add__(self, other: "Jet") -> "Jet":
        return self._sum(other, operator.add)

    def __sub__(self, other: "Jet") -> "Jet":
        return self._sum(other, operator.sub)

    def __neg__(self) -> "Jet":
        return Jet([-c for c in self.num], self.den, self.dn, self.dd, self.order, operator.neg, (self,))

    def __pow__(self, k: int) -> "Jet":
        """An integer power; for k < 0 the caller tests ``is_zero`` first."""
        num, den, dn, dd = self.num, self.den, self.dn, self.dd
        if k < 0:
            num, den, dn, dd = den, num, dd, dn
        n = abs(k)
        return Jet(_pow(num, n, min(self.order, n * dn + 1)), _pow(den, n, min(self.order, n * dd + 1)),
                   n * dn, n * dd, self.order, operator.pow, (self, k))

    def _at(self, t: int) -> "Jet":
        """The recipe of this element replayed at x = t, to one term: its
        ``num`` and ``den`` are [N(t)] and [D(t)]."""
        nodes, stack = [], [self]
        while stack:  # children after parents; reversed, children first
            jet = stack.pop()
            nodes.append(jet)
            stack.extend(a for a in jet._args if isinstance(a, Jet))
        x = Jet.variable(t, 1)
        values = {}
        for jet in reversed(nodes):
            if jet._op is None:  # a leaf: the variable (degree 1) or a constant
                values[id(jet)] = x if jet.dn else jet
            else:
                values[id(jet)] = jet._op(*[values[id(a)] if isinstance(a, Jet) else a for a in jet._args])
        return values[id(self)]

    @property
    def is_zero(self) -> bool:
        """Exact: whether N is the zero polynomial.  A nonzero kept term
        says no and a list that holds the whole polynomial says yes;
        otherwise N is replayed at the dn + 1 integer points 0..dn, since a
        nonzero polynomial of degree dn has at most dn roots."""
        if any(self.num):
            return False
        if len(self.num) > self.dn:
            return True
        return not any(self._at(t).num[0] for t in range(self.dn + 1))

    def constant_integer(self) -> int | None:
        """The value if the element is a constant integer, else None.

        A constant (``dn == dd == 0``) holds all of N and D, D not zero, so
        it is c = N/D with no zero test.  Otherwise the candidate c is N/D at
        x0, or, where D(x0) = 0, at the first of the integer points 0..dd where
        D does not vanish (D has at most dd roots); the element is c exactly
        when ``self - c`` is zero."""
        p = self if self.den[0] else next(p for p in map(self._at, range(self.dd + 1)) if p.den[0])
        c, rem = divmod(p.num[0], p.den[0])
        if rem or not (self.dn == self.dd == 0 or (self - Jet.from_fraction(c)).is_zero):
            return None
        return c


def deriv_by_series(f: Callable[[Jet], Jet], x0: RationalLike) -> Fraction:
    """Exact f'(x0) at the rational ``x0``, where ``f`` builds a rational
    function of its argument by rational operations on ``Jet`` values.

    ``f`` runs at x0 + eps mod eps^P from P = 2.  With w the valuation of
    D (the index of its first nonzero coefficient), f(x0) and f'(x0) are
    read off the eps^w and eps^(w+1) coefficients of N and D, which needs
    P >= w + 2; otherwise P grows and ``f`` runs again.  P stays at most
    dd + 2, as w <= deg D <= dd.  A numerator of lower valuation than D is
    a pole and raises ``ZeroDivisionError``, as ``deriv_at`` does.
    """
    x0 = Fraction(x0)
    order = 2
    while True:
        y = f(Jet.variable(x0, order))
        w = next((i for i, c in enumerate(y.den) if c), order)
        if any(y.num[:w]):
            raise ZeroDivisionError(f"pole at {x0}")
        if w + 2 <= order:
            break
        order = w + 2 if w < order else min(2 * order, y.dd + 2)
    d0 = y.den[w]
    value = Fraction(_coeff(y.num, w), d0)
    return Fraction(_coeff(y.num, w + 1), d0) - value * Fraction(_coeff(y.den, w + 1), d0)
