"""Tiny arithmetic expression language for right-hand sides.

Grammar (precedence climbing, highest first):

    ^            right associative
    unary -
    * /
    + -

Atoms: floating literals, variables t u v, constants pi e, and the
unary functions sin cos exp log sqrt abs tanh.  ``parse_expr`` returns an
immutable tree; ``eval_many`` evaluates it at numpy arrays (broadcasting),
and ``eval_expr`` is its 0-d case, at scalars.  There is one evaluator, so
both report the same domain faults with the same messages.  Evaluation is
pure and deterministic.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

VARIABLES = ("t", "u", "v")
FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "abs", "tanh")
_CONSTANTS = {"pi": math.pi, "e": math.e}


class ParseError(ValueError):
    """Syntax error, with 0-based character position into the source."""

    def __init__(self, message: str, position: int, expected: str | None = None):
        self.position = position
        self.expected = expected
        tail = f" (expected {expected})" if expected else ""
        super().__init__(f"{message} at position {position}{tail}")


class UnknownIdentifierError(ParseError):
    def __init__(self, name: str, position: int):
        self.name = name
        super().__init__(f"unknown identifier {name!r}", position)


class EvalDomainError(ValueError):
    """Evaluation hit a domain fault (log of non-positive, division by
    zero, ...).  ``index`` locates the first offending sample in array
    evaluation, None for scalars; ``fault`` is the message without it."""

    def __init__(self, message: str, index=None):
        self.fault = message
        self.index = index
        where = f" at sample index {index}" if index is not None else ""
        super().__init__(message + where)


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Union[Num, Var, Neg, BinOp, Call]

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)

_BIN_PREC = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 40}
_UNARY_PREC = 30


@dataclass(frozen=True)
class _Token:
    kind: str  # num | ident | op | end
    text: str
    pos: int


def _tokenize(src: str) -> list[_Token]:
    out = []
    i = 0
    while i < len(src):
        if src[i].isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(src, i)
        if m is None:
            raise ParseError(f"unexpected character {src[i]!r}", i)
        kind = m.lastgroup
        out.append(_Token(kind, m.group(), i))
        i = m.end()
    out.append(_Token("end", "", len(src)))
    return out


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"got {tok.text!r}" if tok.text else "input ended",
                             tok.pos, expected=repr(op))
        self.advance()

    def parse(self) -> Expr:
        e = self.expression(0)
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", tok.pos,
                             expected="an operator or end of input")
        return e

    def expression(self, min_prec: int) -> Expr:
        left = self.atom()
        while True:
            tok = self.peek()
            if tok.kind != "op" or tok.text not in _BIN_PREC:
                return left
            prec = _BIN_PREC[tok.text]
            if prec < min_prec:
                return left
            self.advance()
            # ^ is right associative: its operand may contain another ^
            nxt = prec if tok.text == "^" else prec + 1
            right = self.expression(nxt)
            left = BinOp(tok.text, left, right)

    def atom(self) -> Expr:
        tok = self.advance()
        if tok.kind == "num":
            value = float(tok.text)
            if math.isinf(value):
                # to_string could not print it back as a literal
                raise ParseError(f"number {tok.text!r} overflows", tok.pos)
            return Num(value)
        if tok.kind == "ident":
            name = tok.text
            if name in VARIABLES:
                return Var(name)
            if name in _CONSTANTS:
                return Num(_CONSTANTS[name])
            if name in FUNCTIONS:
                self.expect_op("(")
                arg = self.expression(0)
                self.expect_op(")")
                return Call(name, arg)
            raise UnknownIdentifierError(name, tok.pos)
        if tok.kind == "op":
            if tok.text == "-":
                return Neg(self.expression(_UNARY_PREC))
            if tok.text == "(":
                e = self.expression(0)
                self.expect_op(")")
                return e
        raise ParseError(f"got {tok.text!r}" if tok.text else "input ended",
                         tok.pos, expected="a number, variable, function or '('")


def parse_expr(src: str) -> Expr:
    return _Parser(src).parse()


def variables(e: Expr) -> frozenset[str]:
    """Names of the variables actually used."""
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Num):
        return frozenset()
    if isinstance(e, Neg):
        return variables(e.operand)
    if isinstance(e, Call):
        return variables(e.arg)
    return variables(e.left) | variables(e.right)


# ---------------------------------------------------------------- evaluation

# domain of each function that has one: the mask of faulting arguments and
# the fault's message; every other name in FUNCTIONS is total
_DOMAIN_FAULTS = {
    "log": (lambda x: x <= 0.0, "log of non-positive value"),
    "sqrt": (lambda x: x < 0.0, "sqrt of negative value"),
}


def _first_index(mask: np.ndarray):
    if mask.ndim == 0:
        return None
    flat = int(np.argmax(mask))
    if mask.ndim == 1:
        return flat
    return tuple(int(k) for k in np.unravel_index(flat, mask.shape))


def eval_expr(e: Expr, t: float, u: float, v: float) -> float:
    """Evaluate at scalar inputs: the 0-d case of ``eval_many``.  Raises
    EvalDomainError, with index None, on domain faults."""
    return float(eval_many(e, t, u, v))


def eval_many(e: Expr, t, u, v, lenient: bool = False) -> np.ndarray:
    """Vectorized evaluation with numpy broadcasting.

    Domain faults raise EvalDomainError carrying the index of the first
    offending sample (an index into the broadcast shape; None when that
    shape is 0-d).  With ``lenient=True`` faulting samples become nan
    instead of raising (used by shooting, where a diverging trial
    trajectory is data).
    """
    env = {name: np.asarray(x, dtype=float) for name, x in zip(VARIABLES, (t, u, v))}
    shape = np.broadcast_shapes(*(x.shape for x in env.values()))

    def guard(mask, message: str) -> None:
        if not lenient and np.any(mask):
            raise EvalDomainError(message, _first_index(np.broadcast_to(mask, shape)))

    def rec(node) -> np.ndarray:
        if isinstance(node, Num):
            return np.asarray(node.value)
        if isinstance(node, Var):
            return env[node.name]
        if isinstance(node, Neg):
            return -rec(node.operand)
        if isinstance(node, Call):
            x = rec(node.arg)
            if node.func in _DOMAIN_FAULTS:
                faulty, message = _DOMAIN_FAULTS[node.func]
                bad = faulty(x)
                guard(bad, message)
                if lenient:
                    x = np.where(bad, np.nan, x)
            return getattr(np, node.func)(x)
        a = rec(node.left)
        b = rec(node.right)
        op = node.op
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            guard(b == 0.0, "division by zero")
            return a / b
        guard((a == 0.0) & (b < 0.0), "zero raised to a negative power")
        guard((a < 0.0) & (b != np.round(b)),
              "negative base with non-integer exponent")
        return a ** b

    with np.errstate(all="ignore"):
        out = np.asarray(rec(e), dtype=float)
    if not lenient:
        guard(~np.isfinite(out), "non-finite result")
    if out.shape != shape:
        out = np.ascontiguousarray(np.broadcast_to(out, shape))
    return out


# ------------------------------------------------------------------ printing

def _prec_of(e: Expr) -> int:
    if isinstance(e, BinOp):
        return _BIN_PREC[e.op]
    if isinstance(e, Neg):
        return _UNARY_PREC
    if isinstance(e, Num) and e.value < 0:
        return _UNARY_PREC  # prints with a leading minus
    return 100


def to_string(e: Expr) -> str:
    """Canonical rendering; parse(to_string(parse(s))) == parse(s)."""

    def wrap(child: Expr, need: int) -> str:
        s = to_string(child)
        return f"({s})" if _prec_of(child) < need else s

    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return "-" + wrap(e.operand, _UNARY_PREC)
    if isinstance(e, Call):
        return f"{e.func}({to_string(e.arg)})"
    p = _BIN_PREC[e.op]
    if e.op == "^":
        # right associative: parenthesize left at equal precedence
        left = wrap(e.left, p + 1)
        right = wrap(e.right, p)
    else:
        left = wrap(e.left, p)
        right = wrap(e.right, p + 1)
    return f"{left} {e.op} {right}"
