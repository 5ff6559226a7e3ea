"""Exact arithmetic in a non-Archimedean ordered field of rational functions.

Elements are quotients of univariate polynomials with exact rational
coefficients.  The indeterminate plays the role of a positive infinitesimal:
ordering is decided by the sign of the lowest-order coefficients, so the
indeterminate is positive yet smaller than every positive rational.  The
``std`` map discards infinitesimals (extracts the order-zero part), and
``deriv_at`` computes exact derivatives of rational expressions with no
limit concept: substitute ``x0 + eps``, discard eps^2 and higher at each
step, and read off the coefficient of eps (Berz 1992).

All values are immutable and canonically normalized, so structural equality
is semantic equality.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

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
        while len(rem) - 1 >= d and any(c != 0 for c in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            k = len(rem) - 1 - d
            factor = rem[-1] / lead
            q[k] = factor
            for j, c in enumerate(other.coeffs):
                rem[k + j] -= factor * c
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

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

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
