"""Composite Simpson integration on closed intervals with a fixed step hint; the integer
rows of ``simpson_rows`` are the rule's one statement, and every sum weighs by them."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "QuadratureConfig",
    "NonFiniteIntegrand",
    "IntervalTooFine",
    "subinterval_count",
    "simpson_nodes",
    "simpson_rows",
    "integrate",
]


class NonFiniteIntegrand(ValueError):
    """The integrand returned NaN or an infinity at a quadrature node."""


class IntervalTooFine(ValueError):
    """The requested step needs more subintervals than the configured cap."""


def _check_count(name: str, value, least: int = 1) -> None:
    """ValueError naming value unless it is an integer (a bool is not) of at least least."""
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer)) and value >= least):
        shown = value.item() if isinstance(value, np.generic) else value  # 0, not np.int64(0)
        raise ValueError(f"{name} must be an integer of at least {least}, got {shown!r}")


@dataclass(frozen=True)
class QuadratureConfig:
    """Target subinterval width; the realized step never exceeds it."""

    step_hint: float = 1e-2
    max_subintervals: int = 1_000_000

    def __post_init__(self) -> None:
        if not (math.isfinite(self.step_hint) and self.step_hint > 0):
            raise ValueError(f"step_hint must be positive and finite, got {self.step_hint}")
        _check_count("max_subintervals", self.max_subintervals, 4)


_DEFAULT_CONFIG = QuadratureConfig()  # frozen, so one instance serves every call


def subinterval_count(a: float, b: float, cfg: QuadratureConfig | None = None) -> int:
    """Smallest multiple of 4 subintervals whose uniform step is at most the hint.

    A multiple of 4 lets the same nodes carry the rule at step 2h as well,
    which gives the error estimate |S_h - S_2h| / 15.  A count past
    ``cfg.max_subintervals`` raises IntervalTooFine, and so does one too large
    for a float, which is not rounded.
    """
    if cfg is None:
        cfg = _DEFAULT_CONFIG
    if not 0.0 <= b - a < math.inf:
        raise ValueError(f"interval must satisfy a <= b with finite length, got a={a} b={b}")
    quarters = (b - a) / (4.0 * cfg.step_hint)
    if quarters > cfg.max_subintervals:  # the count is past the cap fourfold, maybe inf
        raise IntervalTooFine(
            f"[{a}, {b}] at step {cfg.step_hint} needs more than "
            f"{4 * cfg.max_subintervals} subintervals, the cap is {cfg.max_subintervals}"
        )
    # Round up, so the step only ever shrinks.
    n = max(4, 4 * math.ceil(quarters))
    if n > cfg.max_subintervals:
        raise IntervalTooFine(
            f"[{a}, {b}] at step {cfg.step_hint} needs {n} subintervals, "
            f"the cap is {cfg.max_subintervals}"
        )
    return n


# The indices 0, 1, ... as floats, read-only: a grid of at most this many nodes scales a
# slice of it instead of building its own; 4,098 covers the exponent's sample grid.
_INDICES = np.arange(4098, dtype=float)
_INDICES.flags.writeable = False


def _grid(a: float, b: float, n: int) -> np.ndarray:
    """``np.linspace(a, b, n + 1)`` bit for bit, by the same arithmetic without its overhead."""
    step = (b - a) / n
    if step == 0.0:  # a subnormal interval, which np.linspace scales in another order
        return np.linspace(a, b, n + 1)
    x = (_INDICES[:n + 1] if n < _INDICES.size else np.arange(n + 1, dtype=float)) * step
    x += a
    x[-1] = b
    return x


def simpson_nodes(a: float, b: float, cfg: QuadratureConfig | None = None) -> np.ndarray:
    """The ``subinterval_count(a, b, cfg) + 1`` equispaced nodes of the rule, a and b included."""
    return _grid(a, b, subinterval_count(a, b, cfg))


def _simpson_pattern(size: int, count: int = 2) -> np.ndarray:
    """The first size columns of the first count (1 or 2) integer Simpson rows of every
    longer grid."""
    rows = np.zeros((count, size))
    rows[0, 1::2], rows[0, 2::2] = 4.0, 2.0
    if count == 2:
        rows[1, ::4], rows[1, 2::4] = 4.0, 8.0
    rows[:, 0] = (1.0, 2.0)[:count]
    return rows


# Read-only, as _INDICES: a grid of at most 4,096 subintervals slices the pattern.
_PATTERN, _ENDS = _simpson_pattern(4096), np.array([[1.0], [2.0]])
_PATTERN.flags.writeable = _ENDS.flags.writeable = False


def _rows(n: int, count: int = 2) -> np.ndarray:
    """The first count integer Simpson rows on n + 1 nodes, n even, but for their end
    column: a view of the read-only pattern, which a count past 4,096 builds for itself,
    writable."""
    return (_PATTERN if n <= _PATTERN.shape[1] else _simpson_pattern(n, count))[:count, :n]


def simpson_rows(*ns: int) -> np.ndarray:
    """Integer Simpson rows on n + 1 nodes, n a multiple of 4: [1, 4, 2, ..., 4, 1] and
    [2, 0, 8, 0, 4, ..., 8, 0, 2] at step 2h; (b - a) * (row . values) / (3 n) is the rule.
    Several counts give the rows of their grids joined end to end, in order, as one new
    array: ``_rows`` of each, followed by its end column."""
    return np.concatenate([part for n in ns for part in (_rows(n), _ENDS)], axis=1)


def _checked_sum(nodes: np.ndarray, values: np.ndarray) -> float:
    """Composite Simpson sum of values at ``simpson_nodes`` by the h row of ``simpson_rows``,
    for a caller that already ignores numpy's floating-point errors; a value that is not
    finite raises NonFiniteIntegrand naming its node, and so does an integral of finite
    values that exceeds the float range, naming the interval.  numpy sums the products
    pairwise: a BLAS ``dot``'s rounding grows with the node count."""
    n = nodes.size - 1
    width = float(nodes[-1]) - float(nodes[0])
    if n <= _PATTERN.shape[1]:
        products = _PATTERN[0, :n] * values[:-1]
    else:  # the h row is the call's own and takes the products in place
        row = _simpson_pattern(n, 1)[0]
        products = np.multiply(row, values[:-1], out=row)
    # (b - a) * total / (3 n) instead of h * total / 3: keeps constants exact.
    result = width * (float(np.add.reduce(products)) + float(values[-1])) / (3.0 * n)
    if math.isfinite(result):
        return result
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise NonFiniteIntegrand(
            f"integrand is {float(values[bad[0]])} at node x={float(nodes[bad[0]])!r}")
    scale = width / (3.0 * n)  # finite values whose plain total overflows: the row times h / 3
    result = float((_rows(n, 1)[0] * scale * values[:-1]).sum()) + scale * float(values[-1])
    if not math.isfinite(result):
        raise NonFiniteIntegrand(f"integral over [{float(nodes[0])}, {float(nodes[-1])}]"
                                 " overflows a float")
    return result


def _checked_sums(grids: list, values: np.ndarray) -> list:
    """Per grid, ``_checked_sum`` of its own values, given values at the grids joined end to
    end in order, or its NonFiniteIntegrand as the pair (exception class, message): so a
    grid's sum has the bits of its sum alone, and a bad grid fails alone."""
    if len(grids) == 1:  # a pass of one row slices nothing
        try:
            return [_checked_sum(grids[0], values)]
        except NonFiniteIntegrand as exc:
            return [(NonFiniteIntegrand, str(exc))]
    sums, a = [], 0
    for u in grids:
        b = a + u.size
        try:
            sums.append(_checked_sum(u, values[a:b]))
        except NonFiniteIntegrand as exc:
            sums.append((NonFiniteIntegrand, str(exc)))
        a = b
    return sums


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    cfg: QuadratureConfig | None = None,
) -> float:
    """Composite Simpson approximation of the integral of f over [a, b].

    The node count is chosen by ``subinterval_count``; the rule is
    exact for polynomials up to degree three, apart from rounding.  The
    integrand is evaluated at every node, in one call if it accepts arrays and
    else once per node, with numpy errors ignored, and must be finite everywhere
    on the closed interval.
    """
    nodes = simpson_nodes(a, b, cfg)
    with np.errstate(all="ignore"):
        try:  # one call on the whole array, a constant result broadcast to it
            values = np.asarray(f(nodes), dtype=float)
            if values.shape != nodes.shape:
                values = np.full(nodes.shape, values)
        except Exception:  # an integrand that rejects arrays: one call per node
            values = np.array([float(f(x)) for x in nodes])
        return _checked_sum(nodes, values)
