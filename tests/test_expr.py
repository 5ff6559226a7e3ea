import random

import pytest

from stepcalc.expr import (
    BinOp,
    Call,
    ExprError,
    ExprEvalError,
    ExprSyntaxError,
    Neg,
    NotRationalError,
    Num,
    Var,
    evaluate,
    evaluate_exact,
    parse,
    to_source,
    variables,
)
from stepcalc.nonarch import EPSILON, RatFunc


def ev(source, env=None):
    return evaluate(parse(source), env or {})


class TestParseAndEvaluate:
    def test_basic_env(self):
        assert ev("2*t + y1", {"t": 1, "y1": 3}) == 5

    def test_unary_minus_binds_looser_than_power(self):
        assert ev("-3^2") == -9

    def test_power_is_right_associative(self):
        assert ev("2^3^2") == 512

    def test_builtins(self):
        assert ev("sin(0)") == 0
        assert ev("exp(0)+1") == 2
        assert ev("abs(0-3)") == 3

    def test_precedence_mix(self):
        assert ev("2+3*4") == 14
        assert ev("(2+3)*4") == 20
        assert ev("2-3-4") == -5
        assert ev("12/2/3") == 2
        assert ev("-2^2 + 1") == -3

    def test_division_by_zero(self):
        with pytest.raises(ExprEvalError):
            ev("1/0")

    def test_domain_errors(self):
        with pytest.raises(ExprEvalError):
            ev("sqrt(0-1)")
        with pytest.raises(ExprEvalError):
            ev("ln(0)")

    def test_unbound_variable(self):
        with pytest.raises(ExprEvalError) as err:
            ev("2*zz")
        assert err.value.pos == 2

    def test_unknown_function(self):
        with pytest.raises(ExprSyntaxError):
            parse("foo(1)")

    def test_wrong_arity(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("sin(1, 2)")
        assert "1 argument" in str(err.value)

    def test_variables(self):
        assert variables(parse("2*t + y1 - sin(y2)")) == {"t", "y1", "y2"}


class TestErrorPositions:
    @pytest.mark.parametrize(
        "source",
        ["2*+3", "2**3", "(1+2", "1+", "sin 3", "3..5", "1 @ 2", "2 3", "x\u00b2", "\u0663"],
    )
    def test_rejected_with_meaningful_position(self, source):
        with pytest.raises(ExprSyntaxError) as err:
            parse(source)
        pos = err.value.pos
        assert 0 <= pos <= len(source)
        if pos == len(source):
            return  # the error is "input ended too early"; position is the end
        # truncating at the reported position changes the outcome
        prefix = source[:pos].strip()
        if prefix:
            try:
                parse(prefix)
            except ExprSyntaxError as exc:
                assert (exc.pos, exc.message) != (pos, err.value.message)


def random_tree(rng: random.Random, depth: int):
    choices = ["num", "var"]
    if depth > 0:
        choices += ["bin", "bin", "neg", "call"]
    kind = rng.choice(choices)
    if kind == "num":
        value = rng.choice([0.0, 1.0, 2.0, 3.5, 0.25, 10.0])
        return Num(value, repr(value))
    if kind == "var":
        return Var(rng.choice(["t", "y1", "y2"]))
    if kind == "neg":
        return Neg(random_tree(rng, depth - 1))
    if kind == "call":
        return Call(rng.choice(["sin", "cos", "exp"]), random_tree(rng, depth - 1))
    op = rng.choice(["+", "-", "*", "/", "^"])
    left = random_tree(rng, depth - 1)
    right = random_tree(rng, depth - 1)
    if op == "^":
        # keep exponents as small literals so evaluation stays finite
        n = rng.randint(0, 3)
        right = Num(float(n), str(n))
    return BinOp(op, left, right)


class TestRoundTrip:
    def test_print_parse_roundtrip(self):
        rng = random.Random(20260823)
        for _ in range(300):
            tree = random_tree(rng, 4)
            assert parse(to_source(tree)) == tree

    def test_fully_parenthesized_form_agrees(self):
        def paren(e) -> str:
            if isinstance(e, Num):
                return e.text
            if isinstance(e, Var):
                return e.name
            if isinstance(e, Neg):
                return f"(-{paren(e.operand)})"
            if isinstance(e, Call):
                return f"{e.name}({paren(e.arg)})"
            return f"({paren(e.left)} {e.op} {paren(e.right)})"

        rng = random.Random(4)
        env = {"t": 0.7, "y1": 1.3, "y2": -0.4}
        for _ in range(300):
            tree = random_tree(rng, 4)
            try:
                want = evaluate(tree, env)
            except ExprEvalError:
                continue
            assert evaluate(parse(to_source(tree)), env) == want
            assert evaluate(parse(paren(tree)), env) == want


class TestFuzz:
    # ASCII pieces plus a superscript two, an Arabic-Indic three and an e-acute
    PIECES = list("0123456789.eE+-*/^(), xyt") + ["sin(", "sqrt(", "ln(", "\u00b2", "\u0663", "\u00e9"]

    def test_only_expression_errors_escape(self):
        rng = random.Random(20261018)
        env = {"x": 0.7, "y": -1.3, "t": 2.0}
        for _ in range(2000):
            source = "".join(rng.choice(self.PIECES) for _ in range(rng.randint(0, 14)))[:14]
            try:
                # float evaluation only: an exact power such as 9^99^9 has no bounded cost
                evaluate(parse(source), env)
            except ExprError:
                pass


class TestExactEvaluation:
    def test_rational_expression(self):
        tree = parse("(x^2 - 1)/(x - 1)")
        f = evaluate_exact(tree, {"x": EPSILON})
        assert f == EPSILON + 1

    def test_exact_decimal_literals(self):
        from fractions import Fraction

        f = evaluate_exact(parse("0.1"), {})
        assert f == RatFunc.from_fraction(Fraction(1, 10))

    def test_negative_integer_exponent(self):
        f = evaluate_exact(parse("x^-2"), {"x": EPSILON})
        assert f == 1 / EPSILON**2

    def test_transcendental_rejected(self):
        with pytest.raises(NotRationalError):
            evaluate_exact(parse("sin(x)"), {"x": EPSILON})

    def test_fractional_exponent_rejected(self):
        with pytest.raises(NotRationalError):
            evaluate_exact(parse("x^0.5"), {"x": EPSILON})
