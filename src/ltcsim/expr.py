"""Recursive-descent parser and evaluator for vector-field expressions.

Grammar (one expression per field coordinate, variables x1..xn):

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' unsigned-integer)?
    base   := number | variable | '(' expr ')' | func '(' expr ')'
    func   := 'sin' | 'cos' | 'exp' | 'tanh' | 'abs'
    number := decimal literal (optional fraction and exponent)

A leading sign is accepted at expression level so fields like ``-x1``
parse; signs elsewhere need parentheses, e.g. ``3 - (-2)``.  Operators of
equal precedence associate left.  Printing a parsed expression yields a
string that parses back to the same tree.
"""

from __future__ import annotations

import math
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

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_POW = 3
_PREC_ATOM = 4


class Expr:
    """Base class for expression tree nodes."""

    precedence = _PREC_ATOM

    def _wrap(self, child: "Expr", min_prec: int) -> str:
        s = str(child)
        return f"({s})" if child.precedence < min_prec else s


@dataclass(frozen=True)
class Num(Expr):
    value: float

    def __str__(self):
        return repr(self.value)


@dataclass(frozen=True)
class Var(Expr):
    index: int  # 1-based, as written

    def __str__(self):
        return f"x{self.index}"


@dataclass(frozen=True)
class Neg(Expr):
    child: Expr

    precedence = _PREC_ADD

    def __str__(self):
        return "-" + self._wrap(self.child, _PREC_MUL)


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # one of + - * /
    left: Expr
    right: Expr

    @property
    def precedence(self):
        return _PREC_ADD if self.op in "+-" else _PREC_MUL

    def __str__(self):
        p = self.precedence
        # Left associative: right operand of equal precedence needs parens.
        return f"{self._wrap(self.left, p)} {self.op} {self._wrap(self.right, p + 1)}"


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int

    precedence = _PREC_POW

    def __str__(self):
        return f"{self._wrap(self.base, _PREC_ATOM)}^{self.exponent}"


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr

    def __str__(self):
        return f"{self.func}({self.arg})"


@dataclass(frozen=True)
class _Token:
    kind: str  # NUMBER IDENT OP LPAREN RPAREN EOF
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in " \t":
            i += 1
            continue
        if c in "+-*/^":
            tokens.append(_Token("OP", c, i))
            i += 1
        elif c == "(":
            tokens.append(_Token("LPAREN", c, i))
            i += 1
        elif c == ")":
            tokens.append(_Token("RPAREN", c, i))
            i += 1
        elif c.isdigit() or c == ".":
            start = i
            while i < n and text[i].isdigit():
                i += 1
            if i < n and text[i] == ".":
                i += 1
                while i < n and text[i].isdigit():
                    i += 1
            if text[start:i] == ".":
                raise ExprError(f"malformed number at column {start}", start)
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j].isdigit():
                    i = j
                    while i < n and text[i].isdigit():
                        i += 1
            tokens.append(_Token("NUMBER", text[start:i], start))
        elif c.isalpha() or c == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(_Token("IDENT", text[start:i], start))
        else:
            raise ExprError(f"unexpected character {c!r} at column {i}", i)
    tokens.append(_Token("EOF", "", n))
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

    def fail(self, message: str, tok: _Token):
        raise ExprError(f"{message} at column {tok.pos}", tok.pos)

    def parse(self) -> Expr:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "EOF":
            self.fail(f"unexpected {tok.text!r}", tok)
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
                self.fail("exponent must be an unsigned integer", tok)
            self.advance()
            node = Pow(node, int(tok.text))
        return node

    def base(self) -> Expr:
        tok = self.advance()
        if tok.kind == "NUMBER":
            return Num(float(tok.text))
        if tok.kind == "LPAREN":
            node = self.expr()
            closing = self.advance()
            if closing.kind != "RPAREN":
                self.fail("expected ')'", closing)
            return node
        if tok.kind == "IDENT":
            name = tok.text
            if name.startswith("x") and name[1:].isdigit():
                index = int(name[1:])
                if index < 1:
                    self.fail("variable indices start at x1", tok)
                self.max_index = max(self.max_index, index)
                return Var(index)
            if self.peek().kind != "LPAREN":
                if name in FUNCTIONS:
                    self.fail(f"function {name!r} needs an argument list", tok)
                self.fail(f"unknown identifier {name!r}", tok)
            if name not in FUNCTIONS:
                self.fail(f"unknown function {name!r}", tok)
            self.advance()  # consume '('
            arg = self.expr()
            closing = self.advance()
            if closing.kind != "RPAREN":
                self.fail("expected ')'", closing)
            return Call(name, arg)
        self.fail(f"unexpected {tok.text!r}" if tok.text else "unexpected end of input",
                  tok)


def parse_expression(text: str) -> Expr:
    """Parse one expression string into a tree (raises ExprError with column)."""
    return _Parser(text).parse()


def _safe_exp(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


_FUNC_IMPL = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": _safe_exp,
    "tanh": math.tanh,
    "abs": abs,
}


def compile_expression(node: Expr):
    """Build a fast callable(x) -> float from an expression tree."""
    if isinstance(node, Num):
        v = node.value
        return lambda x: v
    if isinstance(node, Var):
        i = node.index - 1
        return lambda x: float(x[i])
    if isinstance(node, Neg):
        child = compile_expression(node.child)
        return lambda x: -child(x)
    if isinstance(node, BinOp):
        left = compile_expression(node.left)
        right = compile_expression(node.right)
        if node.op == "+":
            return lambda x: left(x) + right(x)
        if node.op == "-":
            return lambda x: left(x) - right(x)
        if node.op == "*":
            return lambda x: left(x) * right(x)

        def divide(x):
            den = right(x)
            if den == 0.0:
                raise ZeroDivisionError("division by zero in field expression")
            return left(x) / den

        return divide
    if isinstance(node, Pow):
        base = compile_expression(node.base)
        n = node.exponent
        return lambda x: base(x) ** n
    if isinstance(node, Call):
        fn = _FUNC_IMPL[node.func]
        arg = compile_expression(node.arg)
        return lambda x: fn(arg(x))
    raise TypeError(f"unknown node {node!r}")


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
    compiled = [compile_expression(t) for t in trees]

    def fn(x):
        return np.array([c(x) for c in compiled])

    return VectorField(dim=dim, fn=fn, domain=domain)
