import operator
import random
from fractions import Fraction

import pytest

import oracles
from stepcalc.nonarch import (
    EPSILON,
    NoStandardPartError,
    Poly,
    RatFunc,
    compare,
    deriv_at,
    poly_gcd,
)

ONE = RatFunc.from_fraction(1)
ZERO = RatFunc.from_fraction(0)


def random_poly(rng: random.Random, max_degree: int = 2, allow_zero: bool = True) -> Poly:
    while True:
        coeffs = [
            Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            for _ in range(rng.randint(0, max_degree) + 1)
        ]
        p = Poly(coeffs)
        if allow_zero or not p.is_zero:
            return p


def random_ratfunc(rng: random.Random) -> RatFunc:
    return RatFunc(random_poly(rng), random_poly(rng, allow_zero=False))


class TestPoly:
    def test_trailing_zeros_stripped(self):
        assert Poly((1, 2, 0, 0)).coeffs == (Fraction(1), Fraction(2))
        assert Poly((0, 0)).is_zero

    def test_divmod_roundtrip(self):
        a = Poly((1, 0, 2, 3))
        b = Poly((1, 1))
        q, r = divmod(a, b)
        assert q * b + r == a

    def test_gcd_is_monic_common_factor(self):
        common = Poly((1, 1))
        g = poly_gcd(common * Poly((2, 3)), common * Poly((-1, 0, 1)))
        assert g == common


class TestFieldOps:
    def test_eps_plus_eps(self):
        assert EPSILON + EPSILON == RatFunc(Poly((0, 2)))

    def test_eps_times_inverse(self):
        assert EPSILON * (ONE / EPSILON) == ONE

    def test_div_roundtrip(self):
        r = ONE / (ONE + EPSILON)
        assert r * (ONE + EPSILON) == ONE

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO

    def test_canonical_form_makes_equality_semantic(self):
        a = RatFunc(Poly((0, 2)), Poly((2,)))
        b = RatFunc(Poly((0, 1)))
        assert a == b
        assert hash(a) == hash(b)


# the results the field arithmetic above does not reach: zero polynomials,
# constants taken as operands, reprs, and operands of the wrong type
@pytest.mark.parametrize("call, expected", [
    (lambda: Poly((1, 2)) - Poly((1,)), Poly((0, 2))),
    (lambda: repr(Poly((0, 2))), "Poly(2*eps)"),
    (lambda: repr(Poly()), "Poly(0)"),
    (lambda: repr(Poly((1, 0, 3))), "Poly(1 + 3*eps^2)"),
    (lambda: Poly().order(), ValueError("order of the zero polynomial is undefined")),
    (lambda: Poly().leading(), ValueError("zero polynomial has no leading coefficient")),
    (lambda: divmod(Poly((1,)), Poly()), ZeroDivisionError("polynomial division by zero")),
    (lambda: Poly((1, 0, 1)).exact_div(Poly((0, 1))), ValueError("inexact polynomial division")),
    (lambda: Poly((1,)) == 1, False),
    (lambda: poly_gcd(Poly(), Poly()), Poly()),
    (lambda: repr(RatFunc(3)), "RatFunc(Poly(3), Poly(1))"),
    (lambda: repr(RatFunc(Poly.identity(), 2)), "RatFunc(Poly(1/2*eps), Poly(1))"),
    (lambda: RatFunc(1, Poly()), ZeroDivisionError("division by the zero rational function")),
    (lambda: repr(1 - EPSILON), "RatFunc(Poly(1 + -1*eps), Poly(1))"),
    (lambda: EPSILON == "x", False),
    (lambda: EPSILON + "x", TypeError),
    (lambda: EPSILON - "x", TypeError),
    (lambda: "x" - EPSILON, TypeError),
    (lambda: EPSILON * "x", TypeError),
    (lambda: EPSILON / "x", TypeError),
    (lambda: "x" / EPSILON, TypeError),
    (lambda: EPSILON ** 0.5, TypeError),
    (lambda: EPSILON < "x", TypeError("cannot compare RatFunc with <class 'str'>")),
], ids=["poly sub", "poly repr", "poly repr 0", "poly repr eps^2", "order 0", "leading 0", "divmod 0",
        "inexact div", "poly == int", "gcd 0 0", "int numerator", "int denominator", "zero denominator",
        "int - eps", "== str", "+ str", "- str", "str -", "* str", "/ str", "str /", "** float", "< str"])
def test_edges_of_the_exact_arithmetic(call, expected):
    if isinstance(expected, (type, Exception)):  # an exception class is Python's own refusal, its text not ours
        kind = expected if isinstance(expected, type) else type(expected)
        with pytest.raises(kind) as err:
            call()
        assert kind is expected or str(err.value) == str(expected)
    else:
        assert call() == expected


class TestOrderAndSign:
    def test_order_examples(self):
        assert EPSILON.order() == 1
        assert (ONE / EPSILON).order() == -1
        assert ((EPSILON**2 + EPSILON**3) / EPSILON).order() == 1

    def test_order_of_zero_undefined(self):
        with pytest.raises(ValueError):
            ZERO.order()

    def test_eps_is_positive_infinitesimal(self):
        assert compare(EPSILON, 0) > 0
        for q in (Fraction(1), Fraction(1, 1000), Fraction(1, 10**9)):
            assert compare(EPSILON, q) < 0

    def test_infinite_element_dominates(self):
        assert compare(ONE / EPSILON, 10**6) > 0

    def test_non_archimedean_witness(self):
        for n in (1, 7, 1000, 99991, 10**6):
            assert n * EPSILON < ONE

    def test_order_operators_agree_with_compare(self):
        rng = random.Random(23)
        for _ in range(200):
            a = random_ratfunc(rng)
            for b in (random_ratfunc(rng), RatFunc(a.num, a.den), rng.randint(-2, 2)):
                c = compare(a, b)
                assert (a <= b, a > b, a >= b) == (c <= 0, c > 0, c >= 0)
                assert (b <= a, b > a, b >= a) == (c >= 0, c < 0, c <= 0)
        for op in (operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                op(EPSILON, 0.5)


class TestStandardPart:
    def test_examples(self):
        assert ((ONE + EPSILON) ** 2).std() == 1
        assert RatFunc(Poly((3, 2, 1))).std() == 3
        assert ZERO.std() == 0

    def test_infinitesimal_has_zero_standard_part(self):
        assert (EPSILON / (ONE + EPSILON)).std() == 0

    def test_infinite_element_raises(self):
        with pytest.raises(NoStandardPartError):
            (ONE / EPSILON).std()


class TestDerivAt:
    def test_square(self):
        assert deriv_at(EPSILON**2, 3) == 6

    def test_reciprocal(self):
        assert deriv_at(ONE / EPSILON, 2) == Fraction(-1, 4)

    def test_removable_singularity(self):
        # (x^2 - 1)/(x - 1) cancels to x + 1 before substitution
        x = EPSILON
        assert deriv_at((x**2 - 1) / (x - 1), 1) == 1

    def test_true_pole_raises(self):
        with pytest.raises(ZeroDivisionError):
            deriv_at(ONE / EPSILON, 0)

    def test_pole_left_after_cancellation_raises(self):
        # (x - 1)/(x - 1)^2 cancels to 1/(x - 1), still a pole at 1
        x = EPSILON
        with pytest.raises(ZeroDivisionError):
            deriv_at((x - 1) / (x - 1) ** 2, 1)

    def test_quotients_against_log_derivative_oracle(self):
        rng = random.Random(20261017)
        roots = [Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3)]
        seen = {"plain": 0, "removable": 0, "pole": 0}
        for _ in range(300):
            c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
            factors = [(rng.choice(roots), rng.randint(1, 3)) for _ in range(rng.randint(0, 3))]
            # a non-constant denominator
            factors += [(rng.choice(roots), -rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
            # a factor shared by numerator and denominator, half the time at x0
            shared = rng.choice(roots)
            factors += [(shared, rng.randint(1, 3)), (shared, -rng.randint(1, 3))]
            x0 = shared if rng.random() < 0.5 else Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            num, den = Poly.constant(c), Poly.constant(1)
            for r, e in factors:
                for _ in range(abs(e)):
                    if e > 0:
                        num = num * Poly((-r, 1))
                    else:
                        den = den * Poly((-r, 1))
            f = RatFunc(num, den)
            try:
                want = oracles.factored_derivative(c, factors, x0)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    deriv_at(f, x0)
                seen["pole"] += 1
                continue
            assert deriv_at(f, x0) == want
            seen["removable" if x0 == shared else "plain"] += 1
        assert min(seen.values()) >= 30, seen


class TestFieldProperties:
    def test_field_axioms_on_random_samples(self):
        rng = random.Random(20260823)
        for _ in range(300):
            a, b, c = (random_ratfunc(rng) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + (-a) == ZERO
            if not a.is_zero:
                assert a * (ONE / a) == ONE

    def test_order_compatibility(self):
        rng = random.Random(7)
        seen = 0
        while seen < 200:
            a, b = random_ratfunc(rng), random_ratfunc(rng)
            if a.sign() > 0 and b.sign() > 0:
                assert (a + b).sign() > 0
                assert (a * b).sign() > 0
                seen += 1

    def test_std_is_a_homomorphism_on_finite_elements(self):
        rng = random.Random(11)
        seen = 0
        while seen < 200:
            a, b = random_ratfunc(rng), random_ratfunc(rng)
            try:
                sa, sb = a.std(), b.std()
            except NoStandardPartError:
                continue
            assert (a + b).std() == sa + sb
            assert (a * b).std() == sa * sb
            seen += 1

    def test_deriv_matches_coefficient_rule(self):
        rng = random.Random(99)
        for _ in range(100):
            coeffs = [
                Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                for _ in range(rng.randint(1, 9))
            ]
            x0 = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            p = RatFunc(Poly(coeffs))
            # independent oracle: term-by-term power rule
            expected = sum(
                (i * c * x0 ** (i - 1) for i, c in enumerate(coeffs) if i > 0),
                Fraction(0),
            )
            assert deriv_at(p, x0) == expected
