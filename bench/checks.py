"""Independent answers for the benchmark's requests.

Nothing here imports stepcalc: every reference value comes from a closed
form evaluated with the host ``math`` library, from the arithmetic-geometric
mean, from Carlson's duplication algorithm, or from exact ``Fraction``
arithmetic on the factored form a request was generated from.
"""

from __future__ import annotations

import math
from fractions import Fraction

#: Smallest relative error reported.  Distinct doubles differ relatively by
#: more than 2**-53 (about 1.1e-16), so this floor lies below every nonzero
#: error a float answer can show; it keeps the metric positive.
REL_ERR_FLOOR = 1e-17


class CheckFailed(Exception):
    """An answer that is malformed or outside its tolerance."""


def rel_err(got: float, ref: float, scale: float = 0.0) -> float:
    """|got - ref| relative to max(|ref|, scale)."""
    if not math.isfinite(got):
        raise CheckFailed(f"non-finite answer {got!r}")
    denom = max(abs(ref), scale)
    return abs(got - ref) / denom if denom else abs(got - ref)


def within(err: float, tol: float, what: str) -> float:
    if not err <= tol:
        raise CheckFailed(f"{what}: error {err:.3g} exceeds tolerance {tol:.3g}")
    return err


def parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise CheckFailed(f"not a number: {text!r}") from None


def parse_fields(line: str) -> dict[str, str]:
    """Split 'a=1 b=2' output into a dict."""
    out = {}
    for part in line.split():
        key, sep, value = part.partition("=")
        if sep:
            out[key] = value
    return out


# ---------------------------------------------------------------------------
# Elliptic integrals and functions

def agm(a: float, b: float) -> float:
    for _ in range(64):
        if abs(a - b) <= 1e-16 * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)


def elliptic_k(k: float) -> float:
    """K(k) = pi / (2 AGM(1, sqrt(1 - k^2)))."""
    return math.pi / (2.0 * agm(1.0, math.sqrt(1.0 - k * k)))


def carlson_rf(x: float, y: float, z: float) -> float:
    """Carlson's symmetric integral R_F by the duplication theorem."""
    for _ in range(64):
        mu = (x + y + z) / 3.0
        dx, dy, dz = 1.0 - x / mu, 1.0 - y / mu, 1.0 - z / mu
        if max(abs(dx), abs(dy), abs(dz)) < 1e-4:
            break
        lam = math.sqrt(x * y) + math.sqrt(y * z) + math.sqrt(z * x)
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
    e2 = dx * dy - dz * dz
    e3 = dx * dy * dz
    return (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / math.sqrt(mu)


def elliptic_f(phi: float, k: float) -> float:
    """F(phi, k) = sin(phi) R_F(cos^2 phi, 1 - k^2 sin^2 phi, 1), 0 <= phi <= pi/2."""
    s, c = math.sin(phi), math.cos(phi)
    return s * carlson_rf(c * c, 1.0 - k * k * s * s, 1.0)


def jacobi(u: float, k: float) -> tuple[float, float, float]:
    """sn, cn, dn by the descending AGM (Abramowitz & Stegun 16.4), 0 < k < 1."""
    a, b, c = [1.0], math.sqrt(1.0 - k * k), [k]
    while abs(c[-1]) > 1e-16 * a[-1]:
        a_prev = a[-1]
        a.append(0.5 * (a_prev + b))
        c.append(0.5 * (a_prev - b))
        b = math.sqrt(a_prev * b)
    n = len(a) - 1
    phi = (2 ** n) * a[n] * u
    phis = [phi]
    for i in range(n, 0, -1):
        phi = 0.5 * (phi + math.asin(c[i] / a[i] * math.sin(phi)))
        phis.append(phi)
    phi0 = phis[-1]
    phi1 = phis[-2] if n else phi0
    return math.sin(phi0), math.cos(phi0), math.cos(phi0) / math.cos(phi1 - phi0)


def inv_gudermannian(x: float) -> float:
    """ln tan(pi/4 + x/2), written as atanh(sin x) to keep full accuracy near 0."""
    return math.atanh(math.sin(x))


# ---------------------------------------------------------------------------
# Exact derivatives of factored rational functions

def factored_value(coeff: Fraction, factors, x: Fraction) -> Fraction:
    """coeff * prod (x - r)^e over the (r, e) pairs."""
    out = Fraction(coeff)
    for r, e in factors:
        out *= (x - r) ** e
    return out


def factored_deriv(coeff: Fraction, factors, x: Fraction) -> Fraction:
    """d/dx of coeff * prod (x - r)^e at x, by the logarithmic-derivative rule.

    Away from the roots f'/f = sum e/(x - r).  At a root of multiplicity
    e >= 1 the derivative is the cofactor for e = 1 and 0 for e >= 2.  The
    exponents are net ones: factors shared by numerator and denominator have
    already cancelled, so a removable singularity needs no special case.
    """
    on_root = [(r, e) for r, e in factors if r == x and e != 0]
    if on_root:
        ((r, e),) = on_root
        if e < 0:
            raise ZeroDivisionError(f"pole at {x}")
        if e >= 2:
            return Fraction(0)
        rest = [(s, f) for s, f in factors if s != r]
        return factored_value(coeff, rest, x)
    log_deriv = sum((Fraction(e) / (x - r) for r, e in factors if e), Fraction(0))
    return factored_value(coeff, factors, x) * log_deriv
