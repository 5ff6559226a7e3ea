"""Infix expression language for ODE right-hand sides and CLI arguments.

Grammar, precedence low to high, then the tokens (the pattern ``_TOKEN``):

    additive        ::= multiplicative (("+" | "-") multiplicative)*
    multiplicative  ::= unary (("*" | "/") unary)*
    unary           ::= "-" unary | power
    power           ::= atom ("^" unary)?        # right-associative
    atom            ::= NUMBER | IDENT | IDENT "(" additive ")" | "(" additive ")"
    NUMBER          ::= [0-9]+ ("." [0-9]*)? ([eE] [+-]? [0-9]+)?
    IDENT           ::= [A-Za-z] [A-Za-z0-9_]*

Whitespace (``str.isspace``) between tokens is skipped; any character that
is not in a token is a syntax error where it stands, so other scripts'
digits and letters are refused.  Numbers must be finite doubles (``1e999``
is a syntax error).  Unary minus binds looser than "^", so ``-3^2`` is
``-(3^2)``.  Built-in calls are ``sin cos tan exp ln sqrt abs``, all unary.
Parentheses, calls, unary minus and exponents nest at most ``MAX_DEPTH``
levels deep, which bounds only the recursive parser.  The tree walkers are
iterative, so operator chains such as ``x+x+...+x`` may be of any length.

``evaluate`` walks a tree over doubles and is the reference evaluator.
``emit_float`` writes trees as straight-line Python statements, for callers
that evaluate the same trees many times: ``cli`` inlines them at each stage of
a spec file's Euler or RK4 step (``solver.step_lines``), in the run loop that
``solver.integrate`` compiles around it, and at each node of ``rectify``'s
polyline loop (``applications.polyline_lines``).  Each takes only the failing
step or node again on ``evaluate`` (``compile_guarded`` compiles the polyline
loop so), so errors and their positions are the walker's.

``evaluate_exact`` walks a tree over an exact field of rational functions
of one variable: ``nonarch.RatFunc``, the reference, or ``nonarch.Jet``,
which ``deriv`` uses.  The value type builds literals and supplies the zero
test and the constant-integer exponent test, so one walker raises the same
errors over both.  Numerator and denominator degrees are bounded by
``MAX_EXACT_DEGREE``: a power that would pass it is refused before it is
built, and any other operation as soon as its result passes it.  A power of
a constant is also refused before it is built when its exponent times the
constant's ``bits`` passes ``MAX_EXACT_BITS``.
"""

from __future__ import annotations

import math
import operator
import re
from collections import namedtuple
from collections.abc import Callable, Mapping, Sequence

from . import MAX_EXACT_BITS, Record, exact_decimal, generated

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    from typing import Any


class ExprError(ValueError):
    """Base for expression errors; carries a byte offset into the source."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.message = message
        self.pos = pos


class ExprSyntaxError(ExprError):
    pass


class ExprEvalError(ExprError):
    pass


class NotRationalError(ExprError):
    """The exact-derivative path accepts rational operations only."""


# ---------------------------------------------------------------------------
# Tokens

# The tokens of the module docstring.  An operator or punctuation character
# is its own kind; ``other`` is any character outside a token.
_TOKEN = re.compile(r"""
    (?P<number>[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?)
  | (?P<identifier>[A-Za-z][A-Za-z0-9_]*)
  | (?P<operator>[-+*/^(),])
  | (?P<other>\S)
""", re.VERBOSE)


Token = namedtuple("Token", "kind text pos")


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    for match in _TOKEN.finditer(source):
        kind, text, pos = match.lastgroup, match.group(), match.start()
        if kind == "other":
            raise ExprSyntaxError(f"unexpected character {text!r}", pos)
        tokens.append(Token(text if kind == "operator" else kind, text, pos))
    tokens.append(Token("end", "", len(source)))
    return tokens


# ---------------------------------------------------------------------------
# Syntax tree

# A node's ``pos`` is the byte offset of its token, and a number keeps its
# source ``text``; ``==`` and ``hash`` leave both out, so equal trees compare
# equal however they were spelled.

class Num(Record, uncompared=("text", "pos")):
    __slots__ = ("value", "text", "pos")
    _defaults = {"pos": 0}


class Var(Record, uncompared=("pos",)):
    __slots__ = ("name", "pos")
    _defaults = {"pos": 0}


class Neg(Record, uncompared=("pos",)):
    __slots__ = ("operand", "pos")
    _defaults = {"pos": 0}


class BinOp(Record, uncompared=("pos",)):
    __slots__ = ("op", "left", "right", "pos")
    _defaults = {"pos": 0}


class Call(Record, uncompared=("pos",)):
    __slots__ = ("name", "arg", "pos")
    _defaults = {"pos": 0}


Expr = Num | Var | Neg | BinOp | Call


def _ln(x: float) -> float:
    if x <= 0.0:
        raise ValueError("ln of a non-positive number")
    return math.log(x)


def _sqrt(x: float) -> float:
    if x < 0.0:
        raise ValueError("sqrt of a negative number")
    return math.sqrt(x)


BUILTINS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "ln": _ln,
    "sqrt": _sqrt,
    "abs": abs,
}


#: The names that ``emit_float``'s code reads besides its ``args``.
EMITTED_NAMES = {"_float": float, **{f"_{name}": fn for name, fn in BUILTINS.items()}}

MAX_DEPTH = 100  # nesting levels; keeps the recursive parser off Python's stack limit


#: Binding strength of the binary operators below ``^``, and what they compute.
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            got = tok.text or "end of input"
            raise ExprSyntaxError(f"expected {what}, found {got!r}", tok.pos)
        return self.advance()

    def parse_binary(self, min_precedence: int = 1) -> Expr:
        """Unary operands joined by ``+ - * /`` at ``min_precedence`` or
        tighter, each operator grouping to the left (precedence climbing)."""
        node = self.parse_unary()
        while _PRECEDENCE.get(self.peek().kind, 0) >= min_precedence:
            tok = self.advance()
            node = BinOp(tok.kind, node, self.parse_binary(_PRECEDENCE[tok.kind] + 1), tok.pos)
        return node

    def parse_unary(self) -> Expr:
        # every nesting (parentheses, call, unary minus, exponent) passes here
        tok = self.peek()
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nests deeper than {MAX_DEPTH} levels", tok.pos)
        if tok.kind == "-":
            self.advance()
            node = Neg(self.parse_unary(), tok.pos)
        else:
            node = self.parse_power()
        self.depth -= 1
        return node

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        tok = self.peek()
        if tok.kind == "^":
            self.advance()
            exponent = self.parse_unary()
            return BinOp("^", base, exponent, tok.pos)
        return base

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            value = float(tok.text)
            if math.isinf(value):
                raise ExprSyntaxError(f"number {tok.text!r} overflows a double", tok.pos)
            return Num(value, tok.text, tok.pos)
        if tok.kind == "identifier":
            self.advance()
            if self.peek().kind == "(":
                self.advance()
                args = [self.parse_binary()]
                while self.peek().kind == ",":
                    self.advance()
                    args.append(self.parse_binary())
                self.expect(")", "')'")
                if tok.text not in BUILTINS:
                    raise ExprSyntaxError(f"unknown function {tok.text!r}", tok.pos)
                if len(args) != 1:
                    raise ExprSyntaxError(
                        f"{tok.text} takes 1 argument, got {len(args)}", tok.pos
                    )
                return Call(tok.text, args[0], tok.pos)
            return Var(tok.text, tok.pos)
        if tok.kind == "(":
            self.advance()
            node = self.parse_binary()
            self.expect(")", "')'")
            return node
        got = tok.text or "end of input"
        raise ExprSyntaxError(f"expected a number, name or '(', found {got!r}", tok.pos)


def parse(source: str) -> Expr:
    parser = _Parser(tokenize(source))
    node = parser.parse_binary()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ExprSyntaxError(f"unexpected trailing input {trailing.text!r}", trailing.pos)
    return node


def _children(node: Expr) -> tuple[Expr, ...]:
    if isinstance(node, BinOp):
        return (node.left, node.right)
    if isinstance(node, Neg):
        return (node.operand,)
    if isinstance(node, Call):
        return (node.arg,)
    if isinstance(node, (Num, Var)):
        return ()
    raise TypeError(f"not an expression node: {node!r}")


def _postorder(tree: Expr, children: Callable[[Expr], tuple[Expr, ...]] = _children) -> list[tuple[Expr, int]]:
    """Each node with its count of ``children``, children first, left to right: the
    order in which a recursive walker would finish them.  Iterative, so any tree fits the stack."""
    nodes = []
    stack = [tree]
    while stack:
        node = stack.pop()
        kids = children(node)
        nodes.append((node, len(kids)))
        stack.extend(kids)
    nodes.reverse()
    return nodes


def _fold(tree: Expr, visit: Callable[..., Any],
          children: Callable[[Expr], tuple[Expr, ...]] = _children) -> Any:
    """``visit(node, *child_values)`` for every node in ``_postorder``, which calls ``children``
    once per node; the value of the root.  A node that ``children`` calls a leaf is visited
    where a recursive walker would enter it, and its subtree is not."""
    values: list[Any] = []
    for node, count in _postorder(tree, children):
        split = len(values) - count
        value = visit(node, *values[split:])
        del values[split:]
        values.append(value)
    return values[0]


# ---------------------------------------------------------------------------
# Evaluation

def evaluate(expr: Expr, env: Mapping[str, float]) -> float:
    """Evaluate over doubles, delegating built-ins to the host library."""
    def visit(node: Expr, *operands: float) -> float:
        if isinstance(node, Num):
            return node.value
        if isinstance(node, Var):
            try:
                return float(env[node.name])
            except KeyError:
                raise ExprEvalError(f"unbound variable {node.name!r}", node.pos) from None
        if isinstance(node, Neg):
            return -operands[0]
        if isinstance(node, Call):
            try:
                return float(BUILTINS[node.name](operands[0]))
            except (ValueError, OverflowError) as exc:
                raise ExprEvalError(f"{node.name}: {exc}", node.pos) from None
        left, right = operands
        if node.op == "^":
            try:
                out = left ** right
            except OverflowError:
                raise ExprEvalError("power: result overflows a double", node.pos) from None
            except (ValueError, ZeroDivisionError) as exc:
                raise ExprEvalError(f"power: {exc}", node.pos) from None
            if isinstance(out, complex):
                raise ExprEvalError("power with a complex result", node.pos)
            return out
        if node.op == "/" and right == 0.0:
            raise ExprEvalError("division by zero", node.pos)
        return _OPS[node.op](left, right)

    return _fold(expr, visit)


def walker(trees: Sequence[Expr], params: Sequence[str]) -> Callable[..., tuple[float, ...]]:
    """``f(*values)``: ``evaluate`` of every tree, in order, with ``params[i]``
    bound to ``values[i]``."""
    def walk(*values: float) -> tuple[float, ...]:
        env = dict(zip(params, values))
        return tuple([evaluate(tree, env) for tree in trees])

    return walk


def emit_float(trees: Sequence[Expr], args: Mapping[str, str], lines: list[str], known: dict[str, str]) -> list[str]:
    """Append to ``lines`` Python statements computing ``evaluate`` of each
    tree (from ``parse``), the names in ``args`` bound to code (a literal or
    a local), and return the code of each tree's value.

    Each operator node assigns a local ``_<k>``, k the line's index, unless
    ``known`` maps its code to an earlier local (value numbering), so a
    subtree on the same operands is computed once across all calls sharing
    ``known``.  The float operations are the walker's, in its order, so
    results are bit-identical.  A power whose exponent is not an integral
    literal goes through ``_float``, which raises on a complex result; a name
    outside ``args`` becomes ``_unbound``, which nothing binds.  The lines
    run in a function whose namespace holds ``EMITTED_NAMES``.
    """
    def emit(node: Expr, *operands: str) -> str:
        if isinstance(node, Num):
            return repr(node.value)
        if isinstance(node, Var):
            return args.get(node.name, "_unbound")
        if isinstance(node, Neg):
            code = f"-{operands[0]}"
        elif isinstance(node, Call):
            code = f"_{node.name}({operands[0]})"
        elif node.op != "^":
            code = f"{operands[0]} {node.op} {operands[1]}"
        elif isinstance(node.right, Num) and node.right.value.is_integer():
            code = f"{operands[0]} ** {operands[1]}"  # an integral exponent gives no complex result
        else:
            code = f"_float({operands[0]} ** {operands[1]})"
        local = known.get(code)
        if local is None:
            local = known[code] = f"_{len(lines)}"
            lines.append(f"{local} = {code}")
        return local

    return [_fold(tree, emit) for tree in trees]


def compile_guarded(label: str, args: Sequence[str], lines: Sequence[str], walk: str,
                    names: Mapping[str, Any]) -> Callable[..., Any]:
    """A function of ``args`` running ``lines``, a body ending in ``return`` (``emit_float``'s
    statements and the caller's), in one ``try``.  On any exception the statement ``walk`` takes
    the failing step or node again on the walker, which raises the positioned ``ExprEvalError``;
    should it not, the exception is raised again.  The code reads ``names`` besides
    ``emit_float``'s; ``label`` names it in tracebacks."""
    body = ["try:", *(f"    {line}" for line in lines), "except _Exception:", f"    {walk}", "    raise"]
    return generated(label, args, body, {"_Exception": Exception, **EMITTED_NAMES, **names})


#: Largest degree bound, of numerator or denominator, that exact evaluation
#: builds.  The costliest inputs measured at a degree d (a divisor that
#: vanishes identically, a dense removable singularity) grow faster than
#: d^2; at this bound they take about 1 s on a 2-core x86_64 machine.
MAX_EXACT_DEGREE = 2048


def evaluate_exact(expr: Expr, env: Mapping[str, Any], value_type: type | None = None) -> Any:
    """Evaluate over an exact field of rational functions of one variable.

    ``value_type`` is ``RatFunc`` (the default), canonical quotients, or
    ``Jet``, truncated series at a point; literals become its
    ``from_fraction`` of their ``exact_decimal`` value, and one with more
    digits than Python converts, or a decimal exponent of magnitude above
    ``MAX_EXACT_EXPONENT``, raises :class:`ExprEvalError`.  Only rational operations are admitted: a
    transcendental call raises :class:`NotRationalError`, and so does an
    exponent whose ``constant_integer`` is None.  A divisor, or the base of
    a negative power, that ``is_zero`` raises :class:`ExprEvalError`, and so
    does a ``degree`` above ``MAX_EXACT_DEGREE`` and a power k of a constant
    (``degree`` 0) whose |k| * ``bits`` is above ``MAX_EXACT_BITS``.
    """
    if value_type is None:  # imported on use: parsing and float evaluation need no nonarch
        from .nonarch import RatFunc as value_type

    def too_high(node: Expr) -> ExprEvalError:
        return ExprEvalError(f"degree above the exact limit of {MAX_EXACT_DEGREE}", node.pos)

    def visit(node: Expr, *operands: Any) -> Any:
        if isinstance(node, Num):
            try:
                value = exact_decimal(node.text)
            except ValueError:  # more digits than Python converts from text
                raise ExprEvalError("number has too many digits to read exactly", node.pos) from None
            except OverflowError as exc:
                raise ExprEvalError(str(exc), node.pos) from None
            return value_type.from_fraction(value)
        if isinstance(node, Var):
            try:
                return env[node.name]
            except KeyError:
                raise ExprEvalError(f"unbound variable {node.name!r}", node.pos) from None
        if isinstance(node, Neg):
            return -operands[0]
        if isinstance(node, Call):
            raise NotRationalError("not a rational expression", node.pos)
        left, right = operands
        if node.op == "^":
            k = right.constant_integer()
            if k is None:
                raise NotRationalError("exponent must be a constant integer", node.pos)
            if k < 0 and left.is_zero:
                raise ExprEvalError("zero raised to a negative power", node.pos)
            if abs(k) * left.degree > MAX_EXACT_DEGREE:
                raise too_high(node)
            if left.degree == 0 and abs(k) * left.bits > MAX_EXACT_BITS:
                raise ExprEvalError(f"power above the exact limit of {MAX_EXACT_BITS} bits", node.pos)
            return left ** k
        if node.op == "/" and right.is_zero:
            raise ExprEvalError("division by zero", node.pos)
        value = _OPS[node.op](left, right)
        if value.degree > MAX_EXACT_DEGREE:  # at most twice the limit was built
            raise too_high(node)
        return value

    # a call is refused where a recursive walk would reach it, before its argument
    return _fold(expr, visit, lambda node: () if isinstance(node, Call) else _children(node))


def variables(expr: Expr) -> set[str]:
    """Names of all free variables in the tree."""
    return {node.name for node, _ in _postorder(expr) if isinstance(node, Var)}


# ---------------------------------------------------------------------------
# Printing

_PREC = {**_PRECEDENCE, "neg": 3, "^": 4, "atom": 5}


def _print(node: Expr, *operands: tuple[str, int]) -> tuple[str, int]:
    if isinstance(node, Num):
        return node.text, _PREC["atom"]
    if isinstance(node, Var):
        return node.name, _PREC["atom"]
    if isinstance(node, Call):
        return f"{node.name}({operands[0][0]})", _PREC["atom"]
    if isinstance(node, Neg):
        inner, prec = operands[0]
        # unary minus binds looser than ^, so -(x^2) prints without parens
        if prec < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}", _PREC["neg"]
    (lhs, lp), (rhs, rp) = operands
    prec = _PREC[node.op]
    if node.op == "^":
        # right-associative; the base must be an atom
        if lp < _PREC["atom"]:
            lhs = f"({lhs})"
        if rp < prec:
            rhs = f"({rhs})"
    else:
        # left-associative
        if lp < prec:
            lhs = f"({lhs})"
        if rp <= prec:
            rhs = f"({rhs})"
    return f"{lhs} {node.op} {rhs}", prec


def to_source(expr: Expr) -> str:
    """Render with the fewest parentheses that preserve the tree."""
    return _fold(expr, _print)[0]
