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
both report the same domain faults with the same messages.  It compiles a
tree once per mode, on its first evaluation, into a numpy kernel that the
tree itself keeps; ``kernel`` hands that kernel to a caller that evaluates
one tree in a loop.  Evaluation is pure and deterministic.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
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
    r"|(?P<op>[-+*/^()])|(?P<space>\s+)|(?P<bad>.)", re.DOTALL
)

_BIN_PREC = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 40}
_UNARY_PREC = 30


_Token = namedtuple("_Token", "kind text pos")  # kind: num | ident | op | end


def _tokenize(src: str) -> list[_Token]:
    out = []
    for m in _TOKEN_RE.finditer(src):
        if m.lastgroup == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        if m.lastgroup != "space":
            out.append(_Token(m.lastgroup, m.group(), m.start()))
    out.append(_Token("end", "", len(src)))
    return out


class _Parser:
    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        self.i += 1
        return self.tokens[self.i - 1]

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
                # an out-of-range literal would turn into inf unnoticed
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

# the test of a faulting argument and the fault's message; the rest are total
_DOMAIN_FAULTS = {
    "log": ("{} <= 0.0", "log of non-positive value"),
    "sqrt": ("{} < 0.0", "sqrt of negative value"),
}


def _fault(message: str, mask, t, u, v) -> EvalDomainError:
    """The fault at mask's first true sample, indexed into the broadcast
    shape of (t, u, v)."""
    mask = np.broadcast_to(mask, np.broadcast_shapes(t.shape, u.shape, v.shape))
    index = tuple(int(k) for k in np.unravel_index(int(np.argmax(mask)), mask.shape))
    return EvalDomainError(message, index[0] if len(index) == 1 else index or None)


def _compile(e: Expr, lenient: bool):
    """e as a kernel: straight-line source, compiled once, that makes the
    numpy calls of a walk of the tree on the same operand types (literals
    are 0-d arrays) and checks each domain where the walk meets it.  A
    strict kernel raises at the first fault and on a non-finite result; a
    lenient one feeds nan to log and sqrt outside their domain."""
    lines: list[str] = []
    scope = {"np": np, "_fault": _fault}

    def let(source: str, *operands: str) -> str:
        # each intermediate has one consumer; dropping it there keeps few arrays alive
        name = f"x{len(lines)}"
        lines.append(f"{name} = {source}")
        dead = [x for x in operands if x.startswith("x")]
        if dead:
            lines.append(f"del {', '.join(dead)}")
        return name

    def guard(mask: str, message: str) -> None:
        if not lenient:
            lines.append(f"if ({mask}).any(): raise _fault({message!r}, {mask}, t, u, v)")

    def emit(node) -> str:
        if isinstance(node, Num):
            scope[f"c{len(scope)}"] = np.asarray(node.value)
            return f"c{len(scope) - 1}"
        if isinstance(node, Var):
            return node.name
        if isinstance(node, Neg):
            x = emit(node.operand)
            return let(f"-{x}", x)
        if isinstance(node, Call):
            x = emit(node.arg)
            if node.func in _DOMAIN_FAULTS:
                test, message = _DOMAIN_FAULTS[node.func]
                guard(test.format(x), message)
                if lenient:
                    x = let(f"np.where({test.format(x)}, np.nan, {x})", x)
            return let(f"np.{node.func}({x})", x)
        a, b = emit(node.left), emit(node.right)
        if node.op == "/":
            guard(f"{b} == 0.0", "division by zero")
        if node.op == "^":
            guard(f"({a} == 0.0) & ({b} < 0.0)", "zero raised to a negative power")
            guard(f"({a} < 0.0) & ({b} != np.round({b}))",
                  "negative base with non-integer exponent")
        return let(f"{a} {'**' if node.op == '^' else node.op} {b}", a, b)

    lines.append(f"out = np.asarray({emit(e)}, dtype=float)")
    guard("~np.isfinite(out)", "non-finite result")
    body = "".join(f"    {line}\n" for line in lines)
    exec(f"def kernel(t, u, v):\n{body}    return out\n", scope)
    emit = None  # cycles (emit -> emit, kernel -> globals -> kernel) would be garbage
    return scope.pop("kernel")


def eval_expr(e: Expr, t: float, u: float, v: float) -> float:
    """``eval_many`` at scalar inputs; a domain fault's index is None."""
    return float(eval_many(e, t, u, v))


def kernel(e: Expr, lenient: bool = False):
    """e's kernel in this mode, compiled on first use and kept in e's own
    __dict__, as functools.cached_property keeps a value: it dies with e,
    and an equal but distinct tree (u*0.0, u*-0.0) gets its own.  It takes
    float arrays (t, u, v), must run under ``np.errstate(all="ignore")``,
    and returns an array that may be smaller than their broadcast shape
    (0-d when every variable e uses is 0-d)."""
    name = "_lenient_kernel" if lenient else "_kernel"
    run = e.__dict__.get(name)
    if run is None:
        run = e.__dict__[name] = _compile(e, lenient)
    return run


def eval_many(e: Expr, t, u, v, lenient: bool = False) -> np.ndarray:
    """Vectorized evaluation with numpy broadcasting.  A domain fault raises
    EvalDomainError with the index of the first offending sample in the
    broadcast shape (None when that is 0-d); with ``lenient=True`` faulting
    samples become nan instead (shooting treats a diverging trial
    trajectory as data)."""
    run = kernel(e, lenient)
    t, u, v = (np.asarray(t, dtype=float), np.asarray(u, dtype=float),
               np.asarray(v, dtype=float))
    with np.errstate(all="ignore"):
        out = run(t, u, v)
    # the broadcast shape is out's unless an input has another, non-0-d one
    if not {t.shape, u.shape, v.shape} <= {out.shape, ()}:
        shape = np.broadcast_shapes(t.shape, u.shape, v.shape)
        if out.shape != shape:
            out = np.ascontiguousarray(np.broadcast_to(out, shape))
    return out

