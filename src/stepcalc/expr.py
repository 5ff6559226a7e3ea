"""Infix expression language for ODE right-hand sides and CLI arguments.

Grammar, precedence low to high:

    additive        ::= multiplicative (("+" | "-") multiplicative)*
    multiplicative  ::= unary (("*" | "/") unary)*
    unary           ::= "-" unary | power
    power           ::= atom ("^" unary)?        # right-associative
    atom            ::= NUMBER | IDENT | IDENT "(" additive ")" | "(" additive ")"

Unary minus binds looser than "^", so ``-3^2`` is ``-(3^2)``.  Numbers are
ASCII digits; identifiers are ASCII letters followed by ASCII letters,
digits or underscores.  Built-in calls are ``sin cos tan exp ln sqrt abs``,
all unary.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .nonarch import RatFunc


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

# Operator and punctuation tokens take their character as their kind.
_SINGLE = "+-*/^(),"
_IDENT_CHARS = string.ascii_letters + string.digits + "_"


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    pos: int


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SINGLE:
            tokens.append(Token(ch, ch, i))
            i += 1
            continue
        if ch in string.digits:
            j = i
            while j < n and source[j] in string.digits:
                j += 1
            if j < n and source[j] == ".":
                j += 1
                while j < n and source[j] in string.digits:
                    j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k] in string.digits:
                    j = k
                    while j < n and source[j] in string.digits:
                        j += 1
            tokens.append(Token("number", source[i:j], i))
            i = j
            continue
        if ch in string.ascii_letters:
            j = i
            while j < n and source[j] in _IDENT_CHARS:
                j += 1
            tokens.append(Token("identifier", source[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(Token("end", "", n))
    return tokens


# ---------------------------------------------------------------------------
# Syntax tree

@dataclass(frozen=True)
class Num:
    value: float
    text: str = field(compare=False)
    pos: int = field(compare=False, default=0)


@dataclass(frozen=True)
class Var:
    name: str
    pos: int = field(compare=False, default=0)


@dataclass(frozen=True)
class Neg:
    operand: "Expr"
    pos: int = field(compare=False, default=0)


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"
    pos: int = field(compare=False, default=0)


@dataclass(frozen=True)
class Call:
    name: str
    arg: "Expr"
    pos: int = field(compare=False, default=0)


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


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

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

    def parse_additive(self) -> Expr:
        node = self.parse_multiplicative()
        while self.peek().kind in ("+", "-"):
            tok = self.advance()
            rhs = self.parse_multiplicative()
            node = BinOp(tok.kind, node, rhs, tok.pos)
        return node

    def parse_multiplicative(self) -> Expr:
        node = self.parse_unary()
        while self.peek().kind in ("*", "/"):
            tok = self.advance()
            rhs = self.parse_unary()
            node = BinOp(tok.kind, node, rhs, tok.pos)
        return node

    def parse_unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "-":
            self.advance()
            return Neg(self.parse_unary(), tok.pos)
        return self.parse_power()

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
            return Num(float(tok.text), tok.text, tok.pos)
        if tok.kind == "identifier":
            self.advance()
            if self.peek().kind == "(":
                self.advance()
                args = [self.parse_additive()]
                while self.peek().kind == ",":
                    self.advance()
                    args.append(self.parse_additive())
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
            node = self.parse_additive()
            self.expect(")", "')'")
            return node
        got = tok.text or "end of input"
        raise ExprSyntaxError(f"expected a number, name or '(', found {got!r}", tok.pos)


def parse(source: str) -> Expr:
    parser = _Parser(tokenize(source))
    node = parser.parse_additive()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ExprSyntaxError(f"unexpected trailing input {trailing.text!r}", trailing.pos)
    return node


# ---------------------------------------------------------------------------
# Evaluation

def evaluate(expr: Expr, env: Mapping[str, float]) -> float:
    """Evaluate over doubles, delegating built-ins to the host library."""
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        try:
            return float(env[expr.name])
        except KeyError:
            raise ExprEvalError(f"unbound variable {expr.name!r}", expr.pos) from None
    if isinstance(expr, Neg):
        return -evaluate(expr.operand, env)
    if isinstance(expr, Call):
        arg = evaluate(expr.arg, env)
        try:
            return float(BUILTINS[expr.name](arg))
        except (ValueError, OverflowError) as exc:
            raise ExprEvalError(f"{expr.name}: {exc}", expr.pos) from None
    if isinstance(expr, BinOp):
        left = evaluate(expr.left, env)
        right = evaluate(expr.right, env)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "/":
            if right == 0.0:
                raise ExprEvalError("division by zero", expr.pos)
            return left / right
        if expr.op == "^":
            try:
                out = left ** right
            except (ValueError, OverflowError, ZeroDivisionError) as exc:
                raise ExprEvalError(f"power: {exc}", expr.pos) from None
            if isinstance(out, complex):
                raise ExprEvalError("power with a complex result", expr.pos)
            return out
    raise TypeError(f"not an expression node: {expr!r}")


def evaluate_exact(expr: Expr, env: Mapping[str, RatFunc]) -> RatFunc:
    """Evaluate over the exact rational-function field.

    Only rational operations are admitted; a transcendental call raises
    :class:`NotRationalError`, and exponents must be constant integers.
    """
    if isinstance(expr, Num):
        return RatFunc.from_fraction(Fraction(expr.text))
    if isinstance(expr, Var):
        try:
            return env[expr.name]
        except KeyError:
            raise ExprEvalError(f"unbound variable {expr.name!r}", expr.pos) from None
    if isinstance(expr, Neg):
        return -evaluate_exact(expr.operand, env)
    if isinstance(expr, Call):
        raise NotRationalError("not a rational expression", expr.pos)
    if isinstance(expr, BinOp):
        left = evaluate_exact(expr.left, env)
        if expr.op == "^":
            exponent = evaluate_exact(expr.right, env)
            if exponent.den.degree != 0 or exponent.num.degree > 0:
                raise NotRationalError("exponent must be a constant integer", expr.pos)
            q = exponent.std()
            if q.denominator != 1:
                raise NotRationalError("exponent must be a constant integer", expr.pos)
            try:
                return left ** int(q)
            except ZeroDivisionError:
                raise ExprEvalError("zero raised to a negative power", expr.pos) from None
        right = evaluate_exact(expr.right, env)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "/":
            if right.is_zero:
                raise ExprEvalError("division by zero", expr.pos)
            return left / right
    raise TypeError(f"not an expression node: {expr!r}")


def variables(expr: Expr) -> set[str]:
    """Names of all free variables in the tree."""
    if isinstance(expr, Num):
        return set()
    if isinstance(expr, Var):
        return {expr.name}
    if isinstance(expr, Neg):
        return variables(expr.operand)
    if isinstance(expr, Call):
        return variables(expr.arg)
    if isinstance(expr, BinOp):
        return variables(expr.left) | variables(expr.right)
    raise TypeError(f"not an expression node: {expr!r}")


# ---------------------------------------------------------------------------
# Printing

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _print(expr: Expr) -> tuple[str, int]:
    if isinstance(expr, Num):
        return expr.text, _PREC["atom"]
    if isinstance(expr, Var):
        return expr.name, _PREC["atom"]
    if isinstance(expr, Call):
        inner, _ = _print(expr.arg)
        return f"{expr.name}({inner})", _PREC["atom"]
    if isinstance(expr, Neg):
        inner, prec = _print(expr.operand)
        # unary minus binds looser than ^, so -(x^2) prints without parens
        if prec < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}", _PREC["neg"]
    if isinstance(expr, BinOp):
        lhs, lp = _print(expr.left)
        rhs, rp = _print(expr.right)
        prec = _PREC[expr.op]
        if expr.op == "^":
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
        return f"{lhs} {expr.op} {rhs}", prec
    raise TypeError(f"not an expression node: {expr!r}")


def to_source(expr: Expr) -> str:
    """Render with the fewest parentheses that preserve the tree."""
    return _print(expr)[0]
