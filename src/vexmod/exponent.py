"""Variable exponents p(.) on an interval.

Holds a tiny expression language so exponents such as "1+r" or "2+t" can be
given textually and compiled into numpy closures as they are parsed, with no
syntax tree, and computes inf/sup bounds.  The parser also gives each
expression its direction: an exponent that is monotone by the grammar's rules
(a constant, or a sum of linear, exp and log parts of one direction) takes its
bounds from its two end values, in one array evaluation.  Any other exponent,
or one non-finite at an end, is bounded by dense sampling plus zooms of one
array evaluation each.

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
from typing import Callable

import numpy as np

from .quadrature import _grid

__all__ = [
    "ParseError",
    "DomainError",
    "ExponentRangeError",
    "ExponentFunction",
    "parse_exponent",
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


# One token per match, after any whitespace: a number, a name, an operator, or any other
# character, which is an error at its position.
_TOKEN = re.compile(r"\s*(?:(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
                    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()])|(?P<bad>\S))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", m.start(kind))
        tokens.append((kind, m[kind], m.start(kind)))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over the tokens that compiles the expression as it reduces it.
    Each grammar rule's function (``_constant``, ``_unary``, ``_binary``, ``_power`` and
    ``_call``; the variable's forms are ``np.asarray, 1``) takes its operands' forms and
    gives the expression's two forms:

    - its closure, a function of x: numpy ufuncs also for a scalar x and between
      constants, so a pole gives inf and a bad power nan, never ZeroDivisionError or a
      complex, and a point's value is its value in an array;
    - its direction in x: 1 (non-decreasing), -1 (non-increasing), 0 (a constant) or
      None (unknown).  A constant subexpression is folded into its float64 value once:
      its closure ignores x and returns that value, closure(None) included.

    The next token is read in place, as ``self.tokens[self.i]``, not by a method: a call
    per look costs more."""

    def __init__(self, tokens: list[tuple[str, str, int]], variable: str) -> None:
        self.tokens = tokens
        self.i = 0
        self.variable = variable

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_close(self) -> None:
        kind, text, pos = self.take()
        if kind != "op" or text != ")":
            raise ParseError(f"expected ')', found {text or 'end of input'!r}", pos)

    def parse(self) -> tuple[Callable, int | None]:
        form = self.expr()
        kind, text, pos = self.tokens[self.i]
        if kind != "end":
            raise ParseError(f"trailing input {text!r}", pos)
        return form

    def expr(self) -> tuple[Callable, int | None]:
        form = self.term()
        while (tok := self.tokens[self.i])[0] == "op" and tok[1] in "+-":
            self.i += 1
            form = _binary(tok[1], form, self.term())
        return form

    def term(self) -> tuple[Callable, int | None]:
        form = self.factor()
        while (tok := self.tokens[self.i])[0] == "op" and tok[1] in "*/":
            self.i += 1
            form = _binary(tok[1], form, self.factor())
        return form

    def factor(self) -> tuple[Callable, int | None]:
        kind, text, _ = self.tokens[self.i]
        negated = kind == "op" and text == "-"
        if negated:
            self.i += 1
        form = self.atom()
        kind, text, _ = self.tokens[self.i]
        if kind == "op" and text == "^":
            self.i += 1
            kind, text, pos = self.take()
            if kind != "num":
                raise ParseError(
                    f"power exponent must be a number literal, found {text or 'end of input'!r}",
                    pos,
                )
            form = _power(form, float(text))
        if negated:
            form = _unary(form)
        return form

    def atom(self) -> tuple[Callable, int | None]:
        kind, text, pos = self.take()
        if kind == "num":
            return _constant(np.float64(float(text)))
        if kind == "name":
            if text in ("exp", "log"):
                k, t, p = self.take()
                if k != "op" or t != "(":
                    raise ParseError(f"expected '(' after {text!r}", p)
                inner = self.expr()
                self.expect_close()
                return _call(text, inner)
            if text == self.variable:
                return np.asarray, 1
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


_UFUNCS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
           "exp": np.exp, "log": np.log}


def _flip(d: int | None) -> int | None:
    return None if d is None else -d


def _by_constant(d: int | None, constant: Callable) -> int | None:
    """The direction of a part of direction d times or over a constant: kept or flipped
    by the constant's sign if it is finite and nonzero, else unknown."""
    if d is None:
        return None
    c = float(constant(None))  # a folded value: no arithmetic, no floating-point error
    if not (math.isfinite(c) and c != 0.0):
        return None
    return d if c > 0.0 else -d


def _constant(c: np.float64) -> tuple[Callable, int]:
    return (lambda x: c), 0


@np.errstate(all="ignore")
def _folded(f: Callable) -> tuple[Callable, int]:
    """The forms of a constant expression of closure f: its value, computed once."""
    return _constant(f(None))


def _unary(form: tuple[Callable, int | None]) -> tuple[Callable, int | None]:
    f, d = form
    if d == 0:  # a negation raises no floating-point error
        return _constant(-f(None))
    return (lambda x: -f(x)), _flip(d)


def _binary(op: str, left: tuple[Callable, int | None],
            right: tuple[Callable, int | None]) -> tuple[Callable, int | None]:
    (f, d), (g, e), fn = left, right, _UFUNCS[op]
    closure = lambda x: fn(f(x), g(x))
    if d == 0 and e == 0:
        return _folded(closure)
    if op in "+-":  # a shared direction; a constant shares any
        e = e if op == "+" else _flip(e)
        if d == 0 or e == 0:
            direction = e if d == 0 else d
        else:
            direction = d if d == e else None
    elif e == 0:
        direction = _by_constant(d, g)
    elif op == "*" and d == 0:
        direction = _by_constant(e, f)
    else:  # a product or quotient of two non-constants, or a constant over one
        direction = None
    return closure, direction


def _power(form: tuple[Callable, int | None], e: float) -> tuple[Callable, int | None]:
    f, d = form  # a float64 scalar's ** can differ from np.power by an ulp
    closure = lambda x: np.power(f(x), e)
    return _folded(closure) if d == 0 else (closure, None)


def _call(func: str, form: tuple[Callable, int | None]) -> tuple[Callable, int | None]:
    f, d = form
    fn = _UFUNCS[func]
    closure = lambda x: fn(f(x))
    return _folded(closure) if d == 0 else (closure, d)  # exp and log are increasing


@np.errstate(all="ignore")  # as a decorator, it enters its context faster than a with
def _ignoring_errors(f: Callable, x):
    return f(x)


def _evaluator(form: tuple[Callable, int | None]) -> Callable:
    """The expression of the forms ``form`` (see ``_Parser``) as p(x) for a float or an
    ndarray x, with numpy errors ignored: floats of x's shape, a constant broadcast to
    it, and a float for a scalar x.  Its ``direction`` attribute is the expression's;
    ``functools.wraps`` copies it to a wrapper."""
    f, direction = form

    def evaluate(x):
        xs = np.asarray(x, dtype=float)
        y = _ignoring_errors(f, xs)
        if xs.ndim == 0:
            return float(y)
        return y if y.shape == xs.shape else np.full(xs.shape, y)

    evaluate.direction = direction
    return evaluate


# ---------------------------------------------------------------------------
# Exponent functions with bounds


@dataclass(frozen=True)
class ExponentFunction:
    """An exponent p(.) on [a, b] together with its inf/sup bounds.

    ``eval`` takes a float or an ndarray and gives p there as floats of the same
    shape, a float for a float: the solvers and oracles call it once on their
    array of nodes.  Instances are immutable and are safe to share.  The bounds
    of an exponent monotone by the grammar's rules are its end values; any
    other exponent's come from dense sampling refined around the sampled
    extremes, so they carry a small sampling slack.
    """

    eval: Callable
    p_minus: float
    p_plus: float
    source: str
    interval: tuple[float, float]

    def restricted(self, a: float, b: float) -> "ExponentFunction":
        """The same map on a subinterval, with bounds recomputed there."""
        if not _covers(self.interval, a, b):
            lo, hi = self.interval
            raise ValueError(f"[{a}, {b}] is not inside the definition interval [{lo}, {hi}]")
        return _bounded(self.eval, (a, b), self.source)


def _covers(interval: tuple[float, float], a: float, b: float) -> bool:
    """Whether interval holds [a, b], up to a slack of 1e-12 relative to each end of
    [a, b]: an end's rounding scales with the end, and an absolute slack would accept
    an exponent that misses a share of a tiny interval (or, in log r, of a ring near 0)."""
    lo, hi = interval
    return lo <= a + 1e-12 * abs(a) and hi >= b - 1e-12 * abs(b)


def _valid_interval(interval: tuple[float, float]) -> tuple[float, float]:
    a, b = float(interval[0]), float(interval[1])
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"interval must satisfy a < b with finite ends, got ({a}, {b})")
    if b - a == math.inf:
        raise ValueError(f"interval ({a}, {b}) is too wide: its width b - a overflows to inf")
    return a, b


def _bounded(evaluate: Callable, interval: tuple[float, float], source: str) -> ExponentFunction:
    """The exponent ``evaluate`` on a valid interval, with its sampled bounds checked."""
    a, b = _valid_interval(interval)
    p_minus, p_plus = _sampled_bounds(evaluate, a, b)
    if not (math.isfinite(p_minus) and math.isfinite(p_plus)):
        raise ExponentRangeError(f"exponent bounds are not finite: ({p_minus}, {p_plus})")
    if p_minus <= 1.0 + _MIN_EXPONENT_MARGIN:
        raise ExponentRangeError(
            f"inf of the exponent is {p_minus}; it must exceed 1 by more than "
            f"{_MIN_EXPONENT_MARGIN} for the problem to be well posed"
        )
    return ExponentFunction(evaluate, p_minus, p_plus, source, (a, b))


def _extreme(evaluate: Callable, xs: np.ndarray, ys: np.ndarray, i: int, sign: float) -> float:
    """sign times the least of sign * p, given samples ys at xs with sign * ys least at i
    (first): for an interior i, zooms that evaluate 7 points inside the bracket around the
    best point and keep a quarter of it, down to a relative width of 1e-8.  The start of
    a plateau, a best sample that the next two repeat, is taken as it is."""
    best = sign * float(ys[i])
    plateau = i + 2 < xs.size and ys[i] == ys[i + 1] == ys[i + 2]
    if 0 < i < xs.size - 1 and not plateau:
        lo, hi = float(xs[i - 1]), float(xs[i + 1])
        while hi - lo > 1e-8 * max(1.0, abs(lo)):
            grid = _grid(lo, hi, 8)
            inner = sign * evaluate(grid[1:-1])
            j = int(inner.argmin())
            best = min(best, float(inner[j]))
            lo, hi = float(grid[j]), float(grid[j + 2])
    return sign * best


def _samples(a: float, b: float) -> np.ndarray:
    return _grid(a, b, _SAMPLE_NODES + 1)


def _sampled_bounds(evaluate: Callable, a: float, b: float) -> tuple[float, float]:
    """(inf, sup) of evaluate on [a, b].  An evaluate of known direction (see ``_Parser``)
    whose two end values are finite gives them: the bounds of a monotone map, and the
    bits the samples give, as long as numpy's exp and log are monotone in floats and
    give a point the same bits in any array.  Any other takes 4,098 samples and zooms,
    raising DomainError at a non-finite sample."""
    direction = getattr(evaluate, "direction", None)
    if direction is not None:
        # The ends as the samples hold them: the first sample is 0.0 + a, 0.0 for a = -0.0.
        lo, hi = evaluate(np.array([a + 0.0, b])).tolist()[::direction or 1]
        if math.isfinite(lo) and math.isfinite(hi):
            return lo, hi
    xs = _samples(a, b)
    ys = evaluate(xs)
    lo, hi = int(ys.argmin()), int(ys.argmax())  # each the first NaN if there is one
    if not (math.isfinite(ys[lo]) and math.isfinite(ys[hi])):
        bad = float(xs[~np.isfinite(ys)][0])
        raise DomainError(f"expression is non-finite near x={bad}")
    return _extreme(evaluate, xs, ys, lo, 1.0), _extreme(evaluate, xs, ys, hi, -1.0)


def parse_exponent(text: str, variable: str, interval: tuple[float, float]) -> ExponentFunction:
    """Build an ExponentFunction from expression text on a closed interval.

    Raises ParseError on grammar violations, DomainError when the expression
    is non-finite somewhere on the interval, and ExponentRangeError when the
    inferred inf does not exceed 1.
    """
    _valid_interval(interval)  # before the text: a bad interval is reported first
    return _bounded(_evaluator(_Parser(_tokenize(text), variable).parse()), interval, text)

