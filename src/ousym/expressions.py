"""Expression language for user-defined force fields.

Grammar: real literals, variables x1..xn, binary + - * / ^ (with ^ binding
tightest and right-associative, then unary minus, then * /, then + -),
parentheses, and the functions sin, cos, exp, log, sqrt, abs, norm. norm takes
the literal token x and means the euclidean norm of the position vector.
Whitespace is insignificant. Error offsets are 1-based byte positions.

Trees are immutable; parse(render(tree)) == tree.
"""

import operator
import re
from dataclasses import dataclass

from . import duals
from .errors import ArityMismatch, ExpressionSyntaxError, UnknownIdentifier

_TOKEN_RE = re.compile(
    r"(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_FUNCTIONS = {
    "sin": duals.sin,
    "cos": duals.cos,
    "exp": duals.exp,
    "log": duals.log,
    "sqrt": duals.sqrt,
    "abs": duals.absolute,
}

# precedence levels; unary minus sits between ^ and * /
_P_ADD, _P_MUL, _P_NEG, _P_POW, _P_ATOM = 10, 20, 25, 30, 100

# each binary operator's precedence and function
_BINARY = {
    "+": (_P_ADD, operator.add),
    "-": (_P_ADD, operator.sub),
    "*": (_P_MUL, operator.mul),
    "/": (_P_MUL, operator.truediv),
    "^": (_P_POW, duals.power),
}


@dataclass(frozen=True)
class Num:
    value: float

    precedence = _P_ATOM

    def render(self):
        return repr(self.value)

    def evaluate(self, xs):
        return self.value


@dataclass(frozen=True)
class Var:
    index: int  # 0-based component of x

    precedence = _P_ATOM

    def render(self):
        return f"x{self.index + 1}"

    def evaluate(self, xs):
        return xs[self.index]


@dataclass(frozen=True)
class NormX:
    precedence = _P_ATOM

    def render(self):
        return "norm(x)"

    def evaluate(self, xs):
        total = xs[0] * xs[0]
        for c in xs[1:]:
            total = total + c * c
        return duals.sqrt(total)


@dataclass(frozen=True)
class Neg:
    child: object

    precedence = _P_NEG

    def render(self):
        inner = self.child.render()
        if self.child.precedence < _P_NEG:
            inner = f"({inner})"
        return f"-{inner}"

    def evaluate(self, xs):
        return -self.child.evaluate(xs)


@dataclass(frozen=True)
class Func:
    name: str
    child: object

    precedence = _P_ATOM

    def render(self):
        return f"{self.name}({self.child.render()})"

    def evaluate(self, xs):
        return _FUNCTIONS[self.name](self.child.evaluate(xs))


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object

    @property
    def precedence(self):
        return _BINARY[self.op][0]

    def render(self):
        p = self.precedence
        right_assoc = self.op == "^"
        lhs = self.left.render()
        rhs = self.right.render()
        if self.left.precedence < p or (right_assoc and self.left.precedence == p):
            lhs = f"({lhs})"
        if self.right.precedence < p or (not right_assoc and self.right.precedence == p):
            rhs = f"({rhs})"
        return f"{lhs} {self.op} {rhs}" if self.op in "+-" else f"{lhs}{self.op}{rhs}"

    def evaluate(self, xs):
        return _BINARY[self.op][1](self.left.evaluate(xs),
                                   self.right.evaluate(xs))


class _Token:
    __slots__ = ("kind", "text", "offset")

    def __init__(self, kind, text, offset):
        self.kind = kind    # "num" | "name" | "op" | "end"
        self.text = text
        self.offset = offset  # 1-based byte offset


def _tokenize(text, base_offset=0):
    # byte offset of each character position (grammar is ASCII, input may not be)
    offs = [0]
    for ch in text:
        offs.append(offs[-1] + len(ch.encode("utf-8")))
    tokens = []
    i = 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ExpressionSyntaxError(
                f"unexpected character {text[i]!r}",
                offset=base_offset + offs[i] + 1)
        kind = m.lastgroup
        tokens.append(_Token(kind, m.group(kind),
                             base_offset + offs[m.start(kind)] + 1))
        i = m.end()
    tokens.append(_Token("end", "", base_offset + offs[len(text)] + 1))
    return tokens


class _Parser:
    def __init__(self, tokens, n):
        self.tokens = tokens
        self.i = 0
        self.n = n

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        tok = self.advance()
        if tok.kind != "op" or tok.text != op:
            raise ExpressionSyntaxError(f"expected '{op}'", offset=tok.offset)
        return tok

    def parse_expression(self, min_bp=0):
        node = self.parse_prefix()
        while True:
            tok = self.peek()
            if tok.kind != "op" or tok.text not in _BINARY:
                break
            bp = _BINARY[tok.text][0]
            if bp <= min_bp:
                break
            self.advance()
            # right-assoc ^ re-enters at bp-1, left-assoc ops at bp
            rhs = self.parse_expression(bp - 1 if tok.text == "^" else bp)
            node = BinOp(tok.text, node, rhs)
        return node

    def parse_prefix(self):
        tok = self.advance()
        if tok.kind == "num":
            return Num(float(tok.text))
        if tok.kind == "op" and tok.text == "-":
            return Neg(self.parse_expression(_P_NEG))
        if tok.kind == "op" and tok.text == "(":
            node = self.parse_expression(0)
            self.expect_op(")")
            return node
        if tok.kind == "name":
            return self.parse_name(tok)
        if tok.kind == "end":
            raise ExpressionSyntaxError("unexpected end of expression",
                                        offset=tok.offset)
        raise ExpressionSyntaxError(f"unexpected token {tok.text!r}",
                                    offset=tok.offset)

    def parse_name(self, tok):
        name = tok.text
        if name in _FUNCTIONS:
            self.expect_op("(")
            arg = self.parse_expression(0)
            self.expect_op(")")
            return Func(name, arg)
        if name == "norm":
            self.expect_op("(")
            arg = self.advance()
            if arg.kind != "name" or arg.text != "x":
                raise ExpressionSyntaxError(
                    "norm takes the bare position vector: norm(x)",
                    offset=arg.offset)
            self.expect_op(")")
            return NormX()
        m = re.fullmatch(r"x([1-9][0-9]*)", name)
        if m:
            index = int(m.group(1))
            if index > self.n:
                raise UnknownIdentifier(
                    f"variable {name} exceeds dimension n={self.n}",
                    offset=tok.offset)
            return Var(index - 1)
        raise UnknownIdentifier(f"unknown identifier {name!r}", offset=tok.offset)


def parse_expression(text, n, base_offset=0):
    """Parse a single component expression over x1..xn into a tree."""
    tokens = _tokenize(text, base_offset=base_offset)
    parser = _Parser(tokens, n)
    node = parser.parse_expression(0)
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ExpressionSyntaxError(
            f"unexpected trailing input {trailing.text!r}", offset=trailing.offset)
    return node


def parse_components(text, n):
    """Split semicolon-separated component expressions and parse each one.

    Offsets in errors refer to byte positions in the full input string.
    """
    pieces = text.split(";")
    if len(pieces) != n:
        raise ArityMismatch(
            f"expected {n} component expression(s), got {len(pieces)}")
    trees = []
    base = 0
    for piece in pieces:
        trees.append(parse_expression(piece, n, base_offset=base))
        base += len(piece.encode("utf-8")) + 1  # + ';'
    return trees


def parse_force_expression(text, n):
    """Parse semicolon-separated component expressions into a force field."""
    from .model import ExpressionForce
    return ExpressionForce(n, parse_components(text, n), source=text)
