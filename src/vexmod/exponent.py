"""Variable exponents p(.) on an interval.

Holds a tiny expression language so exponents such as "1+r" or "2+t" can be
given textually, and computes inf/sup bounds by dense sampling plus
golden-section refinement.

Grammar::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ['-'] atom ['^' number]
    atom   := number | var | 'exp(' expr ')' | 'log(' expr ')' | '(' expr ')'

Whitespace is insignificant; numbers are decimal literals; the power exponent
must be a literal, not an expression.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

__all__ = [
    "ParseError",
    "DomainError",
    "ExponentRangeError",
    "Num",
    "Var",
    "Unary",
    "Binary",
    "Power",
    "Call",
    "ExponentExpr",
    "ExponentFunction",
    "parse_expression",
    "parse_exponent",
    "unparse",
]

_MIN_EXPONENT_MARGIN = 1e-6  # p_minus must exceed 1 by at least this much
_SAMPLE_NODES = 4096


class ParseError(ValueError):
    """The text violates the expression grammar; carries the offset."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (position {position})")
        self.position = position


class DomainError(ValueError):
    """The expression is non-finite somewhere on its definition interval."""


class ExponentRangeError(ValueError):
    """The exponent bounds violate 1 < p- <= p+ < inf."""


# ---------------------------------------------------------------------------
# Syntax tree


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unary:
    operand: "Node"


@dataclass(frozen=True)
class Binary:
    op: str  # one of + - * /
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Power:
    base: "Node"
    exponent: float  # constant exponents only


@dataclass(frozen=True)
class Call:
    func: str  # exp or log
    arg: "Node"


Node = Union[Num, Var, Unary, Binary, Power, Call]


@dataclass(frozen=True)
class ExponentExpr:
    """Parsed expression in one variable."""

    root: Node
    variable: str


_NUMBER = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        m = _NUMBER.match(text, i)
        if m:
            tokens.append(("num", m.group(), i))
            i = m.end()
            continue
        m = _NAME.match(text, i)
        if m:
            tokens.append(("name", m.group(), i))
            i = m.end()
            continue
        if ch in "+-*/^()":
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], variable: str) -> None:
        self.tokens = tokens
        self.i = 0
        self.variable = variable

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_close(self) -> None:
        kind, text, pos = self.take()
        if kind != "op" or text != ")":
            raise ParseError(f"expected ')', found {text or 'end of input'!r}", pos)

    def parse(self) -> Node:
        node = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {text!r}", pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            op = self.take()[1]
            node = Binary(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek()[0] == "op" and self.peek()[1] in "*/":
            op = self.take()[1]
            node = Binary(op, node, self.factor())
        return node

    def factor(self) -> Node:
        negated = False
        if self.peek()[0] == "op" and self.peek()[1] == "-":
            self.take()
            negated = True
        node = self.atom()
        if self.peek()[0] == "op" and self.peek()[1] == "^":
            self.take()
            kind, text, pos = self.take()
            if kind != "num":
                raise ParseError(
                    f"power exponent must be a number literal, found {text or 'end of input'!r}",
                    pos,
                )
            node = Power(node, float(text))
        if negated:
            node = Unary(node)
        return node

    def atom(self) -> Node:
        kind, text, pos = self.take()
        if kind == "num":
            return Num(float(text))
        if kind == "name":
            if text in ("exp", "log"):
                k, t, p = self.take()
                if k != "op" or t != "(":
                    raise ParseError(f"expected '(' after {text!r}", p)
                inner = self.expr()
                self.expect_close()
                return Call(text, inner)
            if text == self.variable:
                return Var(text)
            raise ParseError(f"unknown name {text!r}, the variable here is {self.variable!r}", pos)
        if kind == "op" and text == "(":
            inner = self.expr()
            self.expect_close()
            return inner
        raise ParseError(
            f"expected a number, {self.variable!r}, exp, log, or '(', "
            f"found {text or 'end of input'!r}",
            pos,
        )


def _evaluate(node: Node, x):
    match node:
        case Num(value=v):
            return v
        case Var():
            return x
        case Unary(operand=inner):
            return -_evaluate(inner, x)
        case Binary(op="+", left=l, right=r):
            return _evaluate(l, x) + _evaluate(r, x)
        case Binary(op="-", left=l, right=r):
            return _evaluate(l, x) - _evaluate(r, x)
        case Binary(op="*", left=l, right=r):
            return _evaluate(l, x) * _evaluate(r, x)
        case Binary(op="/", left=l, right=r):
            return _evaluate(l, x) / _evaluate(r, x)
        case Power(base=b, exponent=e):
            return _evaluate(b, x) ** e
        case Call(func="exp", arg=a):
            return np.exp(_evaluate(a, x))
        case Call(func="log", arg=a):
            return np.log(_evaluate(a, x))
    raise TypeError(f"unknown node {node!r}")


def _compiled(root: Node) -> Callable:
    """Evaluator accepting a scalar or an ndarray."""

    def evaluate(x):
        xs = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            out = np.asarray(_evaluate(root, xs), dtype=float)
        if out.shape != xs.shape:
            out = np.broadcast_to(out, xs.shape).copy()
        return float(out) if xs.ndim == 0 else out

    return evaluate


def unparse(node: Node | ExponentExpr) -> str:
    """Text form that reparses to the identical tree (fully parenthesized)."""
    if isinstance(node, ExponentExpr):
        return unparse(node.root)
    match node:
        case Num(value=v):
            return repr(v)
        case Var(name=name):
            return name
        case Unary(operand=inner):
            return f"-({unparse(inner)})"
        case Binary(op=op, left=l, right=r):
            return f"({unparse(l)} {op} {unparse(r)})"
        case Power(base=b, exponent=e):
            return f"({unparse(b)})^{repr(e)}"
        case Call(func=fn, arg=a):
            return f"{fn}({unparse(a)})"
    raise TypeError(f"unknown node {node!r}")


def parse_expression(text: str, variable: str) -> ExponentExpr:
    """Parse text into a syntax tree; finiteness is checked by ``parse_exponent``."""
    return ExponentExpr(_Parser(_tokenize(text), variable).parse(), variable)


# ---------------------------------------------------------------------------
# Exponent functions with bounds


@dataclass(frozen=True)
class ExponentFunction:
    """An exponent p(.) on [a, b] together with its inf/sup bounds.

    ``eval`` accepts a float or an ndarray.  Instances are immutable and are
    safe to share; the bounds come from dense sampling refined around the
    sampled extremes, so they carry a small sampling slack.
    """

    eval: Callable
    p_minus: float
    p_plus: float
    source: str
    interval: tuple[float, float]

    @classmethod
    def from_callable(
        cls, fn: Callable, interval: tuple[float, float], source: str = "callable"
    ) -> "ExponentFunction":
        a, b = _valid_interval(interval)
        evaluate = _vector_safe(fn)
        p_minus, p_plus = _sampled_bounds(evaluate, a, b)
        return _checked(cls(evaluate, p_minus, p_plus, source, (a, b)))

    def restricted(self, a: float, b: float) -> "ExponentFunction":
        """The same map on a subinterval, with bounds recomputed there."""
        lo, hi = self.interval
        if a < lo - 1e-12 or b > hi + 1e-12:
            raise ValueError(f"[{a}, {b}] is not inside the definition interval [{lo}, {hi}]")
        a, b = _valid_interval((a, b))
        p_minus, p_plus = _sampled_bounds(self.eval, a, b)
        return _checked(ExponentFunction(self.eval, p_minus, p_plus, self.source, (a, b)))


def _valid_interval(interval: tuple[float, float]) -> tuple[float, float]:
    a, b = float(interval[0]), float(interval[1])
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"interval must satisfy a < b with finite ends, got ({a}, {b})")
    return a, b


def _checked(p: ExponentFunction) -> ExponentFunction:
    if not (math.isfinite(p.p_minus) and math.isfinite(p.p_plus)):
        raise ExponentRangeError(f"exponent bounds are not finite: ({p.p_minus}, {p.p_plus})")
    if p.p_minus <= 1.0 + _MIN_EXPONENT_MARGIN:
        raise ExponentRangeError(
            f"inf of the exponent is {p.p_minus}; it must exceed 1 by more than "
            f"{_MIN_EXPONENT_MARGIN} for the problem to be well posed"
        )
    return p


def _vector_safe(fn: Callable) -> Callable:
    """Wrap a possibly scalar-only callable so ndarray input works."""

    def evaluate(x):
        xs = np.asarray(x, dtype=float)
        if xs.ndim == 0:
            return float(fn(float(xs)))
        try:
            out = np.asarray(fn(xs), dtype=float)
            if out.shape == xs.shape:
                return out
        except (TypeError, ValueError):
            pass
        return np.array([float(fn(float(v))) for v in xs])

    return evaluate


def _golden_refine(f: Callable[[float], float], lo: float, hi: float, minimize: bool) -> float:
    """Golden-section search for an interior extremum value inside [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    sign = 1.0 if minimize else -1.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = sign * f(c), sign * f(d)
    for _ in range(200):
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = sign * f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = sign * f(d)
        if hi - lo <= 1e-13 * max(1.0, abs(lo)):
            break
    return f(0.5 * (lo + hi))


def _sampled_bounds(evaluate: Callable, a: float, b: float) -> tuple[float, float]:
    xs = np.linspace(a, b, _SAMPLE_NODES + 2)
    ys = np.asarray(evaluate(xs), dtype=float)
    if not np.isfinite(ys).all():
        bad = float(xs[~np.isfinite(ys)][0])
        raise DomainError(f"expression is non-finite near x={bad}")
    scalar = lambda x: float(evaluate(x))  # noqa: E731

    def refined(idx: int, minimize: bool) -> float:
        best = float(ys[idx])
        if 0 < idx < len(xs) - 1:
            inner = _golden_refine(scalar, float(xs[idx - 1]), float(xs[idx + 1]), minimize)
            best = min(best, inner) if minimize else max(best, inner)
        return best

    return refined(int(np.argmin(ys)), True), refined(int(np.argmax(ys)), False)


def parse_exponent(text: str, variable: str, interval: tuple[float, float]) -> ExponentFunction:
    """Build an ExponentFunction from expression text on a closed interval.

    Raises ParseError on grammar violations, DomainError when the expression
    is non-finite somewhere on the interval, and ExponentRangeError when the
    inferred inf does not exceed 1.
    """
    a, b = _valid_interval(interval)
    expr = parse_expression(text, variable)
    evaluate = _compiled(expr.root)
    p_minus, p_plus = _sampled_bounds(evaluate, a, b)
    return _checked(ExponentFunction(evaluate, p_minus, p_plus, text, (a, b)))

