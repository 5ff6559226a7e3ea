"""Independent reference values and helper oracles for the test suite.

Nothing here touches the integration paths under test: pi is a frozen
rational-arithmetic constant, e comes from the factorial series, K(k) from
the arithmetic-geometric mean, Jacobi's sn, cn and dn from the descending
AGM, high-precision sine from a Taylor series in 50-digit decimal
arithmetic, and exact derivatives of factored rational functions from the
logarithmic derivative.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

# Frozen output of derive_constants.py (Machin identity, exact rationals,
# 40 significant digits).
PI_STR = "3.141592653589793238462643383279502884197"
PI = float(PI_STR)
PI_DECIMAL = Decimal(PI_STR)
PI_FRACTION = Fraction(PI_DECIMAL)


def e_fraction(terms: int = 20) -> Fraction:
    """e as the exact partial sum of 1/n! (truncation error < 1/terms!)."""
    total = Fraction(0)
    fact = 1
    for n in range(terms):
        if n:
            fact *= n
        total += Fraction(1, fact)
    return total


E = float(e_fraction())


def agm(a: float, b: float) -> float:
    """Arithmetic-geometric mean; quadratic convergence, rounding-safe stop."""
    for _ in range(60):
        if abs(a - b) <= 1e-15 * abs(a):
            break
        a, b = (a + b) / 2.0, math.sqrt(a * b)
    return (a + b) / 2.0


def elliptic_K_agm(k: float) -> float:
    """Complete elliptic integral of the first kind via the AGM."""
    return PI / (2.0 * agm(1.0, math.sqrt(1.0 - k * k)))


def inv_gudermannian(x: float) -> float:
    """ln tan(pi/4 + x/2), written as atanh(sin x) to keep full accuracy near 0."""
    return math.atanh(math.sin(x))


def sin_taylor(x: Decimal, prec: int = 50) -> Decimal:
    """sin by its Taylor series in high-precision decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = prec
        term = x
        total = x
        n = 1
        xx = x * x
        while abs(term) > Decimal(10) ** (-prec + 2):
            term = -term * xx / ((2 * n) * (2 * n + 1))
            total += term
            n += 1
        return +total


def sqrt_decimal(x: Decimal, prec: int = 50) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = prec
        return x.sqrt()


def factored_derivative(c: Fraction, factors, x0: Fraction) -> Fraction:
    """d/dx of c * prod (x - r)**e at x0, by the logarithmic derivative.

    ``factors`` holds (r, e) pairs with integer e of either sign.  Equal
    roots are first merged into one net exponent, so a factor shared by
    numerator and denominator cancels.  A negative net exponent at x0 is a
    pole and raises ZeroDivisionError.
    """
    net: dict[Fraction, int] = {}
    for r, e in factors:
        net[Fraction(r)] = net.get(Fraction(r), 0) + e
    x0 = Fraction(x0)
    e0 = net.pop(x0, 0)
    if e0 < 0:
        raise ZeroDivisionError(f"pole at {x0}")
    rest = Fraction(c)
    for r, e in net.items():
        rest *= (x0 - r) ** e
    if e0 == 0:
        # f'/f = sum of e / (x0 - r) over the factors
        return rest * sum((Fraction(e) / (x0 - r) for r, e in net.items()), Fraction(0))
    # f = (x - x0)**e0 * g with g(x0) = rest, so f'(x0) = g(x0) for e0 = 1, else 0
    return rest if e0 == 1 else Fraction(0)


def jacobi(u: float, k: float) -> tuple[float, float, float]:
    """sn, cn and dn by the descending AGM (Abramowitz & Stegun 16.4) for
    0 <= k < 1, and by tanh and sech at k = 1.  dn is sqrt(1 - k^2 sn^2):
    A&S 16.4.3, cos(phi0)/cos(phi1 - phi0), loses up to 7e-14 at k = 0.1."""
    if k == 1.0:
        return math.tanh(u), 1.0 / math.cosh(u), 1.0 / math.cosh(u)
    a, b, c = [1.0], math.sqrt(1.0 - k * k), [k]
    while abs(c[-1]) > 1e-16 * a[-1]:
        a_prev = a[-1]
        a.append(0.5 * (a_prev + b))
        c.append(0.5 * (a_prev - b))
        b = math.sqrt(a_prev * b)
    n = len(a) - 1
    phis = [2.0**n * a[n] * u]
    for i in range(n, 0, -1):
        phis.append(0.5 * (phis[-1] + math.asin(c[i] / a[i] * math.sin(phis[-1]))))
    sn = math.sin(phis[-1])
    return sn, math.cos(phis[-1]), math.sqrt(1.0 - k * k * sn * sn)
