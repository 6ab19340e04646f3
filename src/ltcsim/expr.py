"""Parser, printer and compiler for vector-field expressions.

Grammar (one expression per field coordinate, variables x1..xn, ASCII):

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' unsigned-integer)?
    base   := number | variable | '(' expr ')' | func '(' expr ')'
    func   := 'sin' | 'cos' | 'exp' | 'tanh' | 'abs'
    number := decimal literal (optional fraction and exponent)

A leading sign is accepted at expression level so fields like ``-x1``
parse; signs elsewhere need parentheses, e.g. ``3 - (-2)``.  Operators of
equal precedence associate left.  Printing a parsed expression yields a
string that parses back to the same tree.  One walk of the tree (``_emit``)
prints it either in this syntax or as Python source, which is compiled into
one function per field.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ExprError

__all__ = [
    "parse_expression",
    "compile_expression",
    "parse_field",
    "Expr",
]

FUNCTIONS = ("sin", "cos", "exp", "tanh", "abs")


class Expr:
    """Base class for expression tree nodes."""

    def __str__(self):
        return _emit(self, False)[0]


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    index: int  # 1-based, as written


@dataclass(frozen=True)
class Neg(Expr):
    child: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # one of + - * /
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr


@dataclass(frozen=True)
class _Token:
    kind: str  # NUMBER IDENT OP LPAREN RPAREN EOF
    text: str
    pos: int


# ASCII only: str.isdigit and str.isalpha would also take '²' or '١'.
_TOKEN = re.compile(
    r"(?P<NUMBER>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)|(?P<OP>[-+*/^])|(?P<LPAREN>\()|(?P<RPAREN>\))"
    r"|(?P<SPACE>[ \t]+)"
)


def _fail(message: str, pos: int):
    """Raise the parse error ``message`` at column ``pos`` of the text."""
    raise ExprError(f"{message} at column {pos}", pos)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(text):
        match = _TOKEN.match(text, i)
        if match is None:
            what = "malformed number" if text[i] == "." else f"unexpected character {text[i]!r}"
            _fail(what, i)
        if match.lastgroup != "SPACE":
            tokens.append(_Token(match.lastgroup, match.group(), i))
        i = match.end()
    tokens.append(_Token("EOF", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.max_index = 0  # largest variable index seen, 0 if none

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def integer(self, tok: _Token, digits: str) -> int:
        try:
            return int(digits)
        except ValueError:  # Python converts at most 4300 digits
            _fail("integer too long", tok.pos)

    def parse(self) -> Expr:
        try:
            node = self.expr()
        except RecursionError:
            _fail("expression nested too deeply", self.peek().pos)
        tok = self.peek()
        if tok.kind != "EOF":
            _fail(f"unexpected {tok.text!r}", tok.pos)
        return node

    def expr(self) -> Expr:
        tok = self.peek()
        if tok.kind == "OP" and tok.text in "+-":
            self.advance()
            first = self.term()
            node = Neg(first) if tok.text == "-" else first
        else:
            node = self.term()
        while self.peek().kind == "OP" and self.peek().text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek().kind == "OP" and self.peek().text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Expr:
        node = self.base()
        if self.peek().kind == "OP" and self.peek().text == "^":
            self.advance()
            tok = self.peek()
            if tok.kind != "NUMBER" or not tok.text.isdigit():
                _fail("exponent must be an unsigned integer", tok.pos)
            self.advance()
            node = Pow(node, self.integer(tok, tok.text))
        return node

    def base(self) -> Expr:
        tok = self.advance()
        if tok.kind == "NUMBER":
            return Num(float(tok.text))
        if tok.kind == "LPAREN":
            node = self.expr()
            closing = self.advance()
            if closing.kind != "RPAREN":
                _fail("expected ')'", closing.pos)
            return node
        if tok.kind == "IDENT":
            name = tok.text
            if name.startswith("x") and name[1:].isdigit():
                index = self.integer(tok, name[1:])
                if index < 1:
                    _fail("variable indices start at x1", tok.pos)
                self.max_index = max(self.max_index, index)
                return Var(index)
            if self.peek().kind != "LPAREN":
                if name in FUNCTIONS:
                    _fail(f"function {name!r} needs an argument list", tok.pos)
                _fail(f"unknown identifier {name!r}", tok.pos)
            if name not in FUNCTIONS:
                _fail(f"unknown function {name!r}", tok.pos)
            self.advance()  # consume '('
            arg = self.expr()
            closing = self.advance()
            if closing.kind != "RPAREN":
                _fail("expected ')'", closing.pos)
            return Call(name, arg)
        _fail(f"unexpected {tok.text!r}" if tok.text else "unexpected end of input", tok.pos)


def parse_expression(text: str) -> Expr:
    """Parse one expression string into a tree (raises ExprError with column)."""
    return _Parser(text).parse()


def _safe_exp(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _zero():
    raise ZeroDivisionError("division by zero in field expression")


# The only names the compiled source can see; ``exp`` saturates to inf.
_NAMES = {"__builtins__": {}, "sin": math.sin, "cos": math.cos, "exp": _safe_exp,
          "tanh": math.tanh, "abs": abs, "float": float, "_zero": _zero, "_array": np.array}

# A child is printed in parentheses when its precedence is below what its
# place needs.  In Python a division is a conditional expression, which
# binds loosest of all.
_PREC_DIV, _PREC_ADD, _PREC_MUL, _PREC_POW, _PREC_ATOM = range(5)


def _literal(v: float) -> str:
    """Python source for a float; ``repr`` would print inf as a name."""
    return ("-1e999" if v < 0 else "1e999") if math.isinf(v) else repr(v)


def _paren(emitted, min_prec: int) -> str:
    text, prec = emitted
    return f"({text})" if prec < min_prec else text


def _emit(node: Expr, py: bool, depth: int = 0) -> tuple[str, int]:
    """Print ``node`` as (text, precedence) in ltcsim syntax, or as Python
    source over ``x`` and ``_NAMES`` when ``py`` is true.

    The Python text evaluates like the tree: operands left to right, except
    that a denominator is evaluated and tested for zero before its
    numerator.  ``depth`` counts enclosing divisions and names the local
    that holds each denominator, so nested divisions never share one.
    """
    if isinstance(node, Num):
        text = _literal(float(node.value))
        return text, _PREC_ADD if text[0] == "-" else _PREC_ATOM
    if isinstance(node, Var):
        return (f"float(x[{node.index - 1}])" if py else f"x{node.index}"), _PREC_ATOM
    if isinstance(node, Neg):
        # Python's unary minus binds tighter than '*': -0.0*inf is not -(0.0*inf).
        child = _paren(_emit(node.child, py, depth), _PREC_POW if py else _PREC_MUL)
        return "-" + child, _PREC_ADD
    if isinstance(node, BinOp) and node.op in ("+", "-", "*", "/"):
        if py and node.op == "/":
            den = _emit(node.right, py, depth + 1)[0]
            num = _paren(_emit(node.left, py, depth + 1), _PREC_MUL)
            return f"_zero() if (_d{depth} := {den}) == 0.0 else {num} / _d{depth}", _PREC_DIV
        p = _PREC_ADD if node.op in "+-" else _PREC_MUL
        # Left associative: a right operand of equal precedence needs parens.
        left = _paren(_emit(node.left, py, depth), p)
        return f"{left} {node.op} {_paren(_emit(node.right, py, depth), p + 1)}", p
    if isinstance(node, Pow):
        base = _paren(_emit(node.base, py, depth), _PREC_ATOM)
        return f"{base}{'**' if py else '^'}{node.exponent:d}", _PREC_POW
    if isinstance(node, Call) and node.func in FUNCTIONS:
        return f"{node.func}({_emit(node.arg, py, depth)[0]})", _PREC_ATOM
    raise TypeError(f"unknown node {node!r}")


def _compile(trees, template: str):
    """``lambda x: template`` with the trees' Python text filled in."""
    try:
        body = template.format(", ".join(_emit(t, True)[0] for t in trees))
        return eval(compile("lambda x: " + body, "<field>", "eval"), _NAMES)
    except (RecursionError, SyntaxError):  # Python allows 200 nested parentheses
        raise ExprError("expression nested too deeply to compile") from None


def compile_expression(node: Expr):
    """Build a fast callable(x) -> float from an expression tree."""
    return _compile([node], "{}")


def parse_field(exprs, domain):
    """Parse per-coordinate expression strings into a VectorField.

    ``domain`` is a per-axis [lo, hi] box with one row per expression.
    Variables may only reference coordinates up to the field dimension.
    """
    from .approx import VectorField  # local import to keep modules acyclic

    # Parse one expression at a time, so the first bad one is reported.
    trees, tops = [], []
    for text in exprs:
        parser = _Parser(text)
        trees.append(parser.parse())
        tops.append(parser.max_index)
    dim = len(trees)
    for k, top in enumerate(tops):
        if top > dim:
            raise ExprError(
                f"expression {k} references x{top} but the field has "
                f"dimension {dim}"
            )
    return VectorField(dim=dim, fn=_compile(trees, "_array([{}])"), domain=domain)
