import math
import random
import sys
from fractions import Fraction

import pytest

from stepcalc import expr
from stepcalc.expr import (
    BUILTINS,
    MAX_DEPTH,
    BinOp,
    Call,
    ExprError,
    ExprEvalError,
    ExprSyntaxError,
    Neg,
    NotRationalError,
    Num,
    Var,
    compile_guarded,
    emit_float,
    evaluate,
    evaluate_exact,
    parse,
    to_source,
    variables,
    walker,
)
from stepcalc.nonarch import EPSILON, Jet, RatFunc, deriv_at, deriv_by_series


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

    def test_fold_asks_each_node_for_its_children_once(self):
        tree = parse("-(x + 2) * sin(x)^3 / 4 - x")
        asked = []

        def counting(node):
            asked.append(id(node))
            return expr._children(node)

        assert expr._fold(tree, expr._print, counting)[0] == to_source(tree)
        assert sorted(asked) == sorted(id(node) for node, _ in expr._postorder(tree))

    def test_a_value_that_is_not_a_node_is_refused(self):
        for walk in (expr.evaluate, expr.evaluate_exact):
            with pytest.raises(TypeError) as err:
                walk(1.5, {})
            assert str(err.value) == "not an expression node: 1.5"


class TestErrorPositions:
    @pytest.mark.parametrize(
        "source",
        ["2*+3", "2**3", "(1+2", "1+", "sin 3", "3..5", "1 @ 2", "2 3", "x\u00b2", "\u0663",
         "1e999", "2*1e999"],
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


class TestTokenize:
    """The lexical edge cases: an exponent needs a digit, a fraction may be
    empty, identifiers start with an ASCII letter, any Unicode whitespace
    separates tokens, and any other character is refused where it stands."""

    @pytest.mark.parametrize("source, tokens", [
        ("1e", [("number", "1", 0), ("identifier", "e", 1)]),
        ("1.e5", [("number", "1.e5", 0)]),
        ("1e+", [("number", "1", 0), ("identifier", "e", 1), ("+", "+", 2)]),
        ("2E-3", [("number", "2E-3", 0)]),
        ("x_1", [("identifier", "x_1", 0)]),
        (" x", [("identifier", "x", 1)]),
        ("x\x1cy", [("identifier", "x", 0), ("identifier", "y", 2)]),
        ("x ", [("identifier", "x", 0)]),
        ("x + 1 \t\n", [("identifier", "x", 0), ("+", "+", 2), ("number", "1", 4)]),
    ])
    def test_tokens(self, source, tokens):
        got = [(tok.kind, tok.text, tok.pos) for tok in expr.tokenize(source)]
        assert got == tokens + [("end", "", len(source))]

    @pytest.mark.parametrize("source, char, pos", [
        ("3..5", ".", 2),
        (".5", ".", 0),
        ("_x", "_", 0),
        ("٣", "٣", 0),
        ("é", "é", 0),
    ])
    def test_refused_character(self, source, char, pos):
        with pytest.raises(ExprSyntaxError) as err:
            expr.tokenize(source)
        assert (err.value.message, err.value.pos) == (f"unexpected character {char!r}", pos)


class TestNestingLimit:
    @pytest.mark.parametrize("wrap", [lambda s: f"({s})", lambda s: f"-{s}",
                                      lambda s: f"sin({s})", lambda s: f"1^{s}"])
    def test_depth_limit(self, wrap):
        source = "x"
        for _ in range(MAX_DEPTH - 1):
            source = wrap(source)
        evaluate(parse(source), {"x": 0.5})
        with pytest.raises(ExprSyntaxError, match=f"deeper than {MAX_DEPTH} levels"):
            parse(wrap(source))


@pytest.fixture
def default_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    yield
    sys.setrecursionlimit(limit)


@pytest.mark.usefixtures("default_recursion_limit")
class TestTreeDepthLimit:
    """Only nesting is bounded, by ``MAX_DEPTH`` for the recursive parser.
    Operator chains are built by loops in the parser, and the walkers are
    iterative, so a chain of any length walks within Python's stack."""

    @staticmethod
    def walk_floats(source):
        tree = parse(source)
        printed = to_source(tree)
        assert to_source(parse(printed)) == printed
        assert evaluate(parse(printed), {"x": 0.5}) == evaluate(tree, {"x": 0.5})
        assert compile_trees([tree], ["x"])(0.5) == (evaluate(tree, {"x": 0.5}),)
        assert variables(tree) == {"x"}
        return tree

    def walk_all(self, source):
        return evaluate_exact(self.walk_floats(source), {"x": EPSILON})

    @pytest.mark.parametrize("op", ["+", "-", "*", "/"])
    def test_chain_at_the_bound_works(self, op):
        self.walk_all(op.join(["x"] * 300))
        self.walk_all(op.join(["x"] * 400))

    def test_nesting_and_chains_add_up(self):
        # 5000-term chains, and 90 unary minuses, a power and a chain on one path
        n = 5000
        assert self.walk_all("+".join(["x"] * n)) == n * EPSILON
        assert self.walk_all("-".join(["x"] * n)) == (2 - n) * EPSILON
        inner = "+".join(["x"] * n)
        assert self.walk_all("-" * 90 + f"({inner})^2") == (n * EPSILON) ** 2

    def test_product_and_quotient_chains_walk_in_floats(self):
        # exact products of 1000 factors cost by degree, so these walk over doubles only
        assert evaluate(self.walk_floats("*".join(["x"] * 1000)), {"x": 0.5}) == 0.5 ** 1000
        assert evaluate(self.walk_floats("/".join(["x"] * 1000)), {"x": 0.5}) == 0.5 ** -998


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

    def test_call_refused_before_its_argument(self):
        # the argument is not walked, so its own failure does not come first
        for source in ("sin(1/0)", "sin(x^0.5)", "x + exp(0^(0-1))"):
            with pytest.raises(NotRationalError, match="not a rational expression") as err:
                evaluate_exact(parse(source), {"x": EPSILON})
            assert source[err.value.pos:].startswith(("sin", "exp"))
        with pytest.raises(ExprEvalError, match="division by zero"):
            evaluate_exact(parse("1/0 + sin(x)"), {"x": EPSILON})


ROOTS = ["0", "1", "2", "1/2", "-3/2"]
EXPONENTS = ["0", "1", "2", "3", "(0-1)", "(0-2)", "(x-x+2)", "(2*x/x)", "(1/2)", "x", "(x-x)",
             "((x-1)^2/(x-1)^2)"]


def random_rational_source(rng: random.Random, depth: int) -> str:
    """A rational expression in x over factors (x - r) with r from ROOTS,
    so points on ROOTS make shared roots, removable singularities, poles
    and divisors that vanish identically."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(["x", f"(x - {rng.choice(ROOTS)})", rng.choice(["0", "1", "3", "2/3", "0.5"])])
    kind = rng.choice(["+", "-", "*", "/", "/", "^", "neg"])
    if kind == "neg":
        return f"-{random_rational_source(rng, depth - 1)}"
    if kind == "^":
        return f"({random_rational_source(rng, depth - 1)})^{rng.choice(EXPONENTS)}"
    return f"({random_rational_source(rng, depth - 1)} {kind} {random_rational_source(rng, depth - 1)})"


def exact_outcome(fn):
    """The value, or the exception's type and message."""
    try:
        return fn()
    except (ExprError, ArithmeticError) as exc:
        return type(exc), str(exc)


def by_series(source, x0):
    """What ``stepcalc deriv`` computes."""
    tree = parse(source)
    return exact_outcome(lambda: deriv_by_series(lambda x: evaluate_exact(tree, {"x": x}, Jet), x0))


def by_ratfunc(source, x0):
    """The reference: the canonical rational function, then ``deriv_at``."""
    tree = parse(source)
    return exact_outcome(lambda: deriv_at(evaluate_exact(tree, {"x": EPSILON}), x0))


class TestSeriesDerivative:
    """The truncated-series path against canonical rational functions."""

    @pytest.mark.parametrize("source, x0, expected", [
        ("(x^2-1)/(x-1)", 1, 1),  # removable singularities
        ("(x-1)^3/((x-1)^3*(x+2))", 1, Fraction(-1, 9)),
        ("1/(x-1)", 1, (ZeroDivisionError, "pole at 1")),
        ("1/(x-x)", 1, (ExprEvalError, "division by zero (at position 1)")),
        ("(x-x)^(0-1)", 1, (ExprEvalError, "zero raised to a negative power (at position 5)")),
        ("x^(x-x+2)", 3, 6),
        ("x^x", 2, (NotRationalError, "exponent must be a constant integer (at position 1)")),
        ("x^(1/2)", 2, (NotRationalError, "exponent must be a constant integer (at position 1)")),
        ("x^((x-1)^2/(x-1)^2)", 1, 1),  # an exponent whose denominator vanishes at x0
        ("x^((x-1)^3/(x-1)^2)", 1, (NotRationalError, "exponent must be a constant integer (at position 1)")),
        ("x + sin(1/0)", 1, (NotRationalError, "not a rational expression (at position 4)")),
        ("1/((x-1)^3-(x-1)^3)", Fraction(2, 3), (ExprEvalError, "division by zero (at position 1)")),
        ("((x-1)^2*(x+1))^(0-1)*(x-1)^2", 1, Fraction(-1, 4)),
        ("x^(1/(x-1))", 1, (NotRationalError, "exponent must be a constant integer (at position 1)")),
        ("x^((x+1)/(x+1)*3)", -1, 3),  # the exponent's D vanishes at x0: c is read elsewhere
        ("x^((2*x+1)/(2*x+1)*3/2)", 1, (NotRationalError, "exponent must be a constant integer (at position 1)")),
        ("x^(x/(x-x))", 2, (ExprEvalError, "division by zero (at position 4)")),
        ("x^((x-1)^2/(x-1)^2*(0-2))", 1, -2),
        ("x^2 + zz", 1, (ExprEvalError, "unbound variable 'zz' (at position 6)")),
        # literals: integers of any size stay exact, and so do the decimal forms
        ("12345678901234567891*x^2 + 0.1*x", 1, Fraction(246913578024691357821, 10)),
        ("007*x^007", 1, 49),
        ("x^2.0", 3, 6),
        ("x^1e1", 1, 10),
        ("x^(6/3)", 5, 10),
        ("x^(5/3)", 5, (NotRationalError, "exponent must be a constant integer (at position 1)")),
    ])
    def test_named_cases(self, source, x0, expected):
        assert by_series(source, x0) == by_ratfunc(source, x0) == expected

    @pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 6000,
                        reason="this interpreter converts integers of any length")
    def test_literal_over_the_digit_limit(self):
        zeros = "0" * 6000
        for source in (f"x^{zeros}2", f"x*0.{zeros}1", f"x/1.{zeros}"):
            for way in (by_series, by_ratfunc):
                assert way(source, 3) == (ExprEvalError, "number has too many digits to read exactly"
                                                         " (at position 2)"), way

    def test_matches_ratfunc_on_random_trees(self):
        rng = random.Random(20261018)
        kinds = set()
        for _ in range(2400):
            source = random_rational_source(rng, rng.randint(1, 4))
            x0 = Fraction(rng.choice(ROOTS))
            if rng.random() < 0.4:
                x0 = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            got = by_series(source, x0)
            assert got == by_ratfunc(source, x0), (source, x0)
            kinds.add(got[0] if isinstance(got, tuple) else type(got))
        assert kinds == {Fraction, ZeroDivisionError, ExprEvalError, NotRationalError}

    def test_degree_limit(self):
        limit = expr.MAX_EXACT_DEGREE
        assert by_series(f"x^{limit}", 1) == limit
        assert by_series(f"(x^{limit} + 1) / x", 1) == limit - 2
        for source in (f"x^{limit + 1}", f"x^(0-{limit + 1})", f"x^{limit // 2} * x^{limit // 2} * x",
                       "/".join(["x"] * (limit + 2))):
            got = by_series(source, 2)
            assert got[0] is ExprEvalError, source
            assert got[1].startswith(f"degree above the exact limit of {limit} "), source

    def test_bit_limit(self):
        limit = expr.MAX_EXACT_BITS
        # 2 is 2 bits long, so 2^(limit/2) is the largest power of 2 built
        assert by_series(f"x*2^{limit // 2}", 1) == 2 ** (limit // 2)
        # the series keeps 3*2^39/3 unreduced; both paths read its 40 bits
        k = limit // 40
        assert by_series(f"x*(3*2^39/3)^{k}", 1) == by_ratfunc(f"x*(3*2^39/3)^{k}", 1) == 2 ** (39 * k)
        for source in (f"x*2^{limit // 2 + 1}", f"x/2^{limit // 2 + 1}", f"x*2^(0-{limit // 2 + 1})",
                       "x*(2^40 + 1)^2000", "x*(1/3 - 2^40)^2000", "x*2^1e10"):
            for way in (by_series, by_ratfunc):
                got = way(source, 1)
                assert got[0] is ExprEvalError, (source, way)
                assert got[1].startswith(f"power above the exact limit of {limit} bits "), (source, way)

    def test_bit_limit_leaves_powers_of_the_variable_to_the_degree_limit(self):
        # x0 = 1e-300 holds about 997 bits, but x^70 has degree 70
        for source, x0 in (("x^70/x^69", Fraction("1e-300")), ("x^1200/x^1199", Fraction("123456789.123456789"))):
            assert by_series(source, x0) == by_ratfunc(source, x0) == 1, source


def random_float_tree(rng: random.Random, depth: int):
    """Trees over every operator, built-in and variable the solver uses,
    with literals that make domain errors, overflow and complex powers
    likely."""
    kind = rng.choice(["num", "var"] + (["bin", "bin", "bin", "neg", "call"] if depth > 0 else []))
    if kind == "num":
        value = rng.choice([0.0, 0.5, 1.0, 2.0, 3.0, 0.1, 1e-3, 1e3, 1e300])
        return Num(value, repr(value))
    if kind == "var":
        return Var(rng.choice(["t", "y1", "y2", "y3", "y4"]))
    if kind == "neg":
        return Neg(random_float_tree(rng, depth - 1))
    if kind == "call":
        return Call(rng.choice(sorted(BUILTINS)), random_float_tree(rng, depth - 1))
    op = rng.choice(["+", "-", "*", "/", "^"])
    return BinOp(op, random_float_tree(rng, depth - 1), random_float_tree(rng, depth - 1))


def outcome(fn, *args):
    """Bit patterns of the results, or the exception's type and message."""
    try:
        return tuple(x.hex() for x in fn(*args))
    except Exception as exc:
        return type(exc), str(exc)


def compile_trees(trees, params):
    """``f(*values)``: ``evaluate`` of every tree, in order, with ``params[i]``
    bound to ``values[i]``, as ``emit_float``'s code compiled by
    ``compile_guarded`` with the walker taking the values again on a failure."""
    args = [f"_p{i}" for i in range(len(params))]
    lines = []
    results = emit_float(trees, dict(zip(params, args)), lines, {})
    lines.append(f"return ({''.join(f'{result}, ' for result in results)})")
    return compile_guarded("tests", args, lines, f"_walk({', '.join(args)})", {"_walk": walker(trees, params)})


class TestEmitFloat:
    PARAMS = ["t", "y1", "y2", "y3", "y4"]
    VALUES = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -3.0, 0.7, 1e-300, 1e200, -1e200, 700.0]

    def walked(self, trees, *values):
        env = dict(zip(self.PARAMS, values))
        return tuple(evaluate(tree, env) for tree in trees)

    def test_matches_the_walker_on_random_trees(self):
        rng = random.Random(20261018)
        failures = successes = 0
        for _ in range(400):
            # the walker's trees come from the parser, as the CLI's do
            trees = [parse(to_source(random_float_tree(rng, 4))) for _ in range(rng.randint(1, 4))]
            compiled = compile_trees(trees, self.PARAMS)
            for _ in range(5):
                values = [rng.choice(self.VALUES) for _ in self.PARAMS]
                want = outcome(self.walked, trees, *values)
                assert outcome(compiled, *values) == want, [to_source(t) for t in trees]
                if isinstance(want[0], type):
                    failures += 1
                else:
                    successes += 1
        assert failures > 200 and successes > 500

    @pytest.mark.parametrize("source, message", [
        ("y1 / (t - t)", "division by zero (at position 3)"),
        ("ln(0-1)", "ln: ln of a non-positive number (at position 0)"),
        ("sqrt(0-1)", "sqrt: sqrt of a negative number (at position 0)"),
        ("(0-1)^0.5", "power with a complex result (at position 5)"),
        ("abs((0-1)^0.5)", "power with a complex result (at position 9)"),
        ("abs(y1^0.5)", "power with a complex result (at position 6)"),
        ("abs((0-1)^(1/2))", "power with a complex result (at position 9)"),
        ("exp(1000)", "exp: math range error (at position 0)"),
        ("0^(0-1)", "power: 0.0 cannot be raised to a negative power (at position 1)"),
        ("10^400", "power: result overflows a double (at position 2)"),
        ("t + zz", "unbound variable 'zz' (at position 4)"),
    ])
    def test_failures_raise_the_walkers_error(self, source, message):
        trees = [parse("t"), parse(source)]
        compiled = compile_trees(trees, ["t", "y1"])
        with pytest.raises(ExprEvalError) as err:
            compiled(1.0, -1.0)
        assert str(err.value) == message
        assert outcome(compiled, 1.0, -1.0) == outcome(self.walked, trees, 1.0, -1.0)

    def test_components_in_order_with_parameters_by_position(self):
        compiled = compile_trees([parse("y2"), parse("t - y1"), parse("2"), parse("-t^2")],
                                 ["y1", "t", "y2"])
        assert compiled(1.0, 5.0, 7.0) == (7.0, 4.0, 2.0, -25.0)

    def test_integral_powers_of_negative_bases_stay_real(self):
        compiled = compile_trees([parse("t^2"), parse("t^3"), parse("t^0"), parse("t^-1")], ["t"])
        assert compiled(-2.0) == ((-2.0) ** 2, (-2.0) ** 3, 1.0, -0.5)

    def test_globals_hold_no_builtins(self):
        compiled = compile_trees([parse("sin(t)^0.5 + y1")], ["t", "y1"])
        namespace = compiled.__globals__
        assert namespace["__builtins__"] == {}
        assert all(name.startswith("_") for name in namespace)
        assert {namespace[f"_{name}"] for name in BUILTINS} == set(BUILTINS.values())

    def test_walker_runs_only_on_failure(self, monkeypatch):
        calls = []
        walker = expr.evaluate

        def counted(tree, env):
            calls.append(tree)
            return walker(tree, env)

        monkeypatch.setattr(expr, "evaluate", counted)
        compiled = compile_trees([parse("1 / t"), parse("t^0.5")], ["t"])
        for t in (0.5, 1.0, 4.0):
            assert compiled(t) == (1 / t, math.sqrt(t))
        assert calls == []
        with pytest.raises(ExprEvalError, match="division by zero"):
            compiled(0.0)
        assert calls
