"""The multiplier solve: safeguarded Newton on a log-sum-exp, and the old bisection.

Every solver in the package, continuous or on a grid, fixes one multiplier
lam > 0 so that a candidate density with terms ``exp(l * inv_i + base_i)``,
l = log lam, has unit total under a positive weighted sum.  With inv_i = 1/(p_i - 1) the
log-total F(l) is convex and increasing, and its slope, the exp-weighted
mean of inv_i, lies between the smallest and the largest inv_i.  One
evaluation at l0 therefore brackets the root:
l* in l0 - F(l0) * [p_min - 1, p_max - 1].  Each step is Newton's inside that
bracket, or bisection when Newton's would leave it or shrinks too slowly
(Numerical Recipes ``rtsafe``, section 9.4).  The sums run in log-sum-exp form,
so no term overflows for any exponent, dimension or radius the problems accept.

There are two loops and one update rule, ``_update``, which takes every step of
both.  ``_solve_row`` solves one row on Python floats: a single solve, a
normalization's row and the grid oracle.  ``solve_multiplier`` solves a pass of
rows at once, one multiplier per row: the rows' nodes are joined end to end, and
each step computes the terms of all of them in one pass (``np.maximum.reduceat``
for each row's scale), then takes one pass in Python over the rows still
stepping: N and N' of the row by one ``dot`` of its weights with its own terms,
its check, its bracket and its next step.  A row sums only its own nodes, in the
same order whatever its neighbours, and takes the same operations in both loops,
so it gets the same numbers alone, in any pass, or from ``_solve_row``.  A row of
a pass that fails records its exception class and message, not an exception, and
its neighbours go on; ``_solve_row`` raises its failure.

``solve_increasing`` is the bracketed bisection that the multiplier solve
used before; nothing in the package calls it any more.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .quadrature import _check_count

__all__ = [
    "BisectionConfig",
    "BisectionResult",
    "BracketFailure",
    "MaxItersExceeded",
    "MultiplierSolve",
    "exp_or_inf",
    "log_total",
    "positive_normal",
    "solve_increasing",
    "solve_multiplier",
]

_EXPAND_CEILING = 1e30
_EXPAND_FLOOR = 1e-30
_INITIAL_BRACKET = (1e-8, 1.0)


class BracketFailure(RuntimeError):
    """The solve has no answer in floating point.

    Raised when the multiplier, the modulus or a test density's upper bound is not
    a positive normal float (it underflows or overflows at the given dimension and
    radii), and by ``solve_increasing`` when its bracket expansion leaves [1e-30, 1e30].
    """


class MaxItersExceeded(RuntimeError):
    """The solve spent every allowed iteration without meeting a tolerance."""


@dataclass(frozen=True)
class BisectionConfig:
    """Stopping rules of the multiplier solve.

    It stops when |N - 1| <= residual_tol, N the normalization total, or
    when a step changes log(lam) by at most lambda_tol, and raises
    MaxItersExceeded after max_iters steps.
    """

    residual_tol: float = 1e-6
    lambda_tol: float = 1e-10
    max_iters: int = 200

    def __post_init__(self) -> None:
        if self.residual_tol <= 0 or self.lambda_tol <= 0:
            raise ValueError("tolerances must be positive")
        if not (math.isfinite(self.residual_tol) and math.isfinite(self.lambda_tol)):
            raise ValueError(f"tolerances must be finite, got residual_tol={self.residual_tol}"
                             f" and lambda_tol={self.lambda_tol}")
        _check_count("max_iters", self.max_iters)


_DEFAULT_CONFIG = BisectionConfig()  # frozen, so one instance serves every call


def exp_or_inf(x: float) -> float:
    """e^x, inf where it exceeds the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def positive_normal(name: str, value: float) -> float:
    """value if it is a positive normal float, else BracketFailure naming it."""
    if not math.isfinite(value) or value < sys.float_info.min:
        raise BracketFailure(f"the {name} is {value!r}, not a positive normal float")
    return value


class MultiplierSolve(NamedTuple):
    """The rows of a pass at their accepted log-multipliers.

    Per row, lists: log_lam, |N - 1| there, the steps after the first evaluation,
    the scale m and the failure, None or the pair (exception class, message) of a row
    whose other fields then hold its last step; a class holds no traceback, so a kept
    failure pins none of the pass's arrays.  terms are the joined terms
    exp(l * inv + base - m) at the accepted multipliers."""

    log_lam: list
    residual: list
    iters: list
    scale: list
    error: list
    terms: np.ndarray


def log_total(inv: np.ndarray, base: np.ndarray, weights: np.ndarray, starts, sizes,
              spans: list, ell: list):
    """The rows of a pass at log-multipliers ell, one per row.

    Row r holds sizes[r] joined nodes from starts[r] (both integer arrays; sizes None
    reads them off starts) and has N_r = width_r * (c . exp(ell_r * inv + base)) / div_r
    over them, where weights is the rows (c, c * inv) and spans[r] = (width_r, div_r).
    Returns, as lists over the rows, log N_r, its derivative in ell_r and the scale m_r,
    and the joined terms exp(ell_r * inv + base - m_r), the largest of each row 1."""
    starts = np.asarray(starts)
    if sizes is None:
        sizes = _sizes(starts, inv.size)
    terms = np.empty_like(inv)
    m = _scaled_terms(inv, base, starts, sizes, ell, terms)
    sums = [_log_sums(part, scale)
            for part, scale in zip(_row_parts(weights, terms, starts, spans), m)]
    return [f for f, _ in sums], [df for _, df in sums], m, terms


def _sizes(starts: np.ndarray, total: int) -> np.ndarray:
    """The node counts of rows joined end to end from starts, total nodes in all."""
    return np.append(starts[1:], total) - starts


def _row_parts(weights: np.ndarray, terms: np.ndarray, starts: np.ndarray, spans: list) -> list:
    """Per row of a pass: its columns of weights and its part of the joined terms, as
    views, and its span (width, div); a row ends where the next starts."""
    ends = starts.tolist() + [terms.size]
    return [(weights[:, a:b], terms[a:b], width, div)
            for a, b, (width, div) in zip(ends, ends[1:], spans)]


def _scaled_terms(inv, base, starts, sizes, ell: list, terms: np.ndarray) -> list:
    """Write exp(ell_r * inv + base - m_r) over the joined nodes into terms, in one pass,
    and return the scales m_r, each row's largest exponent."""
    np.multiply(inv, np.array(ell).repeat(sizes), out=terms)
    terms += base
    m = np.maximum.reduceat(terms, starts)
    terms -= m.repeat(sizes)
    np.exp(terms, out=terms)
    return m.tolist()


def _log_sums(part: tuple, m: float) -> tuple[float, float]:
    """log N of a row at scale m and its slope in l, from one ``dot`` of its weights with
    its own terms, part = (weights, terms, width, div): a row gets the same numbers
    alone as in any pass."""
    w, t, width, div = part
    s, ds = w.dot(t).tolist()
    return m + math.log(width * s / div), ds / s


def _row_total(inv: np.ndarray, base: np.ndarray, weights: np.ndarray, width: float,
               div: float, ell: float, terms: np.ndarray) -> tuple[float, float, float]:
    """log N of one row at l = ell, its slope in l and its scale m, with the row's terms
    exp(ell * inv + base - m) written into terms: the operations of ``_scaled_terms`` and
    ``_log_sums`` on one row, so the same bits."""
    np.multiply(inv, ell, out=terms)
    terms += base
    m = float(terms.max())
    terms -= m
    np.exp(terms, out=terms)
    s, ds = weights.dot(terms).tolist()
    return m + math.log(width * s / div), ds / s, m


def _defect(f: float) -> float:
    """|N - 1| for N = e^f."""
    return abs(math.expm1(f)) if f < 709.0 else math.inf


def _bracket(ell: float, f: float, bottom: float, top: float) -> tuple[float, float]:
    """The bracket of the root that one evaluation at l = ell with log N = f gives, for
    inv between bottom and top: l* lies in l - F(l) * [p_min - 1, p_max - 1]."""
    a, b = ell - f / top, ell - f / bottom
    return (a, b) if a <= b else (b, a)


def _update(ell: float, f: float, df: float, lo: float, hi: float,
            step_old: float) -> float:
    """The next l from l = ell, where log N = f with slope df and the root lies in
    [lo, hi]: Newton's step if it stays in the bracket and is at most half the step
    before last, else the bracket's midpoint.  Both loops take every step here."""
    newton = ell - f / df
    if lo <= newton <= hi and abs(2.0 * f) <= abs(step_old * df):
        return newton
    return 0.5 * (lo + hi)


def _no_convergence(budget: int, lo: float, hi: float) -> str:
    return f"no convergence in {budget} iterations, log multiplier in [{lo}, {hi}]"


def _solve_row(inv: np.ndarray, base: np.ndarray, weights: np.ndarray, width: float,
               div: float, cfg: BisectionConfig | None = None) -> tuple:
    """Solve log N(l) = 0 for one row, N = width * (c . exp(l * inv + base)) / div with
    weights the rows (c, c * inv), as ``solve_multiplier`` solves each row of a pass, in
    a loop on Python floats.  Returns (l, |N - 1| there, the steps after the first
    evaluation, the scale m, the terms exp(l * inv + base - m)); MaxItersExceeded after
    max_iters steps."""
    if cfg is None:
        cfg = _DEFAULT_CONFIG
    tol, step_tol, budget = cfg.residual_tol, cfg.lambda_tol, cfg.max_iters
    terms = np.empty_like(inv)
    ell, step_old, step = 0.0, math.inf, math.inf
    for it in range(budget + 1):
        f, df, m = _row_total(inv, base, weights, width, div, ell, terms)
        residual = _defect(f)
        if residual <= tol or abs(step) <= step_tol:
            return ell, residual, it, m, terms
        if it == 0:
            lo, hi = _bracket(ell, f, float(inv.min()), float(inv.max()))
        elif f < 0.0:
            lo = ell
        else:
            hi = ell
        if it == budget:
            raise MaxItersExceeded(_no_convergence(budget, lo, hi))
        new = _update(ell, f, df, lo, hi, step_old)
        step_old, step, ell = step, new - ell, new


def solve_multiplier(
    inv: np.ndarray,
    base: np.ndarray,
    weights: np.ndarray,
    starts,
    spans: list,
    cfg: BisectionConfig | None = None,
) -> MultiplierSolve:
    """Solve log N_r(l) = 0, N_r as in ``log_total``, for every row r of a pass, for
    inv > 0, positive c and widths, starting at l = 0; an evaluation inside the residual
    tolerance is accepted on the spot.

    The rows step in lockstep, one joined evaluation per step, and each evaluation is
    followed by one pass over the rows still stepping: a row's sums, its check, its
    bracket and its next step.  An accepted row's terms are evaluated again at its
    accepted l, unchanged, so the last evaluation holds the terms of every row, but its
    sums are not taken again.  A row that spends max_iters steps records
    MaxItersExceeded as its failure; every row gets the numbers it would get alone,
    and those that ``_solve_row`` gives it."""
    if cfg is None:
        cfg = _DEFAULT_CONFIG
    tol, step_tol, budget = cfg.residual_tol, cfg.lambda_tol, cfg.max_iters
    starts = np.asarray(starts)
    rows = len(spans)
    sizes = _sizes(starts, inv.size)
    terms = np.empty_like(inv)  # every evaluation writes its terms here
    parts = _row_parts(weights, terms, starts, spans)
    ell, residual, iters, error = [0.0] * rows, [0.0] * rows, [0] * rows, [None] * rows
    lo, hi, step_old, step = [0.0] * rows, [0.0] * rows, [math.inf] * rows, [math.inf] * rows
    top = None  # the rows' largest and smallest inv, once a row needs its bracket
    stepping, it = range(rows), 0
    while stepping:
        m = _scaled_terms(inv, base, starts, sizes, ell, terms)
        going = []
        for r in stepping:  # an accepted row keeps its numbers
            f, df = _log_sums(parts[r], m[r])
            x = residual[r] = _defect(f)
            iters[r] = it
            if x <= tol or abs(step[r]) <= step_tol:
                continue
            was = ell[r]
            if it == 0:
                if top is None:
                    top = np.maximum.reduceat(inv, starts).tolist()
                    bottom = np.minimum.reduceat(inv, starts).tolist()
                lo[r], hi[r] = _bracket(was, f, bottom[r], top[r])
            elif f < 0.0:
                lo[r] = was
            else:
                hi[r] = was
            if it == budget:
                error[r] = (MaxItersExceeded, _no_convergence(budget, lo[r], hi[r]))
                continue
            new = _update(was, f, df, lo[r], hi[r], step_old[r])
            step_old[r], step[r], ell[r] = step[r], new - was, new
            going.append(r)
        stepping, it = going, it + 1
    return MultiplierSolve(ell, residual, iters, m, error, terms)


class BisectionResult(NamedTuple):
    root: float
    residual: float
    iters: int


def solve_increasing(
    F: Callable[[float], float],
    target: float,
    cfg: BisectionConfig | None = None,
) -> BisectionResult:
    """Solve F(x) = target for a strictly increasing F on (0, inf).

    No solver in the package calls it since ``solve_multiplier`` replaced it;
    it stays as public API until the benchmark's tracer stops wrapping it.

    The initial bracket grows geometrically (hi doubles, lo halves) until it
    encloses the target, then plain bisection halves it.  Iteration stops as
    soon as |F(x) - target| <= residual_tol or the bracket width drops below
    lambda_tol relative to the midpoint; any evaluation already inside the
    residual tolerance is accepted on the spot.

    Returns (root, residual at the root, bisection iterations used).
    """
    if cfg is None:
        cfg = _DEFAULT_CONFIG

    lo, hi = _INITIAL_BRACKET
    flo = F(lo)
    if abs(flo - target) <= cfg.residual_tol:
        return BisectionResult(lo, abs(flo - target), 0)
    fhi = F(hi)
    if abs(fhi - target) <= cfg.residual_tol:
        return BisectionResult(hi, abs(fhi - target), 0)

    while flo > target:
        hi, fhi = lo, flo
        lo = 0.5 * lo
        if lo < _EXPAND_FLOOR:
            raise BracketFailure(
                f"no crossing above x={_EXPAND_FLOOR}: F stayed above target {target}"
            )
        flo = F(lo)
        if abs(flo - target) <= cfg.residual_tol:
            return BisectionResult(lo, abs(flo - target), 0)
    while fhi < target:
        lo, flo = hi, fhi
        hi = 2.0 * hi
        if hi > _EXPAND_CEILING:
            raise BracketFailure(
                f"no crossing below x={_EXPAND_CEILING}: F stayed below target {target}"
            )
        fhi = F(hi)
        if abs(fhi - target) <= cfg.residual_tol:
            return BisectionResult(hi, abs(fhi - target), 0)

    for iters in range(1, cfg.max_iters + 1):
        mid = 0.5 * (lo + hi)
        fmid = F(mid)
        residual = abs(fmid - target)
        if residual <= cfg.residual_tol:
            return BisectionResult(mid, residual, iters)
        if fmid < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= cfg.lambda_tol * mid:
            return BisectionResult(mid, residual, iters)
    raise MaxItersExceeded(
        f"no convergence in {cfg.max_iters} iterations, bracket [{lo}, {hi}]"
    )
