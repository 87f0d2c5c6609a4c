"""The multiplier solve: safeguarded Newton on a log-sum-exp, and the old bisection.

Every solver in the package, continuous or on a grid, fixes one multiplier
lam > 0 so that a candidate density with terms ``exp(l * inv_i + base_i)``,
l = log lam, has unit total under a positive weighted sum.  With inv_i = 1/(p_i - 1) the
log-total F(l) is convex and increasing, and its slope, the exp-weighted
mean of inv_i, lies between the smallest and the largest inv_i.  One
evaluation at l0 therefore brackets the root:
l* in l0 - F(l0) * [p_min - 1, p_max - 1].  ``solve_multiplier`` takes Newton
steps inside that bracket and falls back to bisection when a step would
leave it or shrinks too slowly (Numerical Recipes ``rtsafe``, section 9.4).
The sums run in log-sum-exp form, so no term overflows for any exponent,
dimension or radius the problems accept.

``solve_increasing`` is the bracketed bisection that the multiplier solve
used before; nothing in the package calls it any more.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

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

    Raised when the multiplier or the modulus is not a positive normal
    float (it underflows or overflows at the given dimension and radii), and
    by ``solve_increasing`` when its bracket expansion leaves [1e-30, 1e30].
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
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")


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
    """Accepted log-multiplier, |N - 1| there, steps after the first evaluation,
    and the terms exp(l * inv + base - scale), whose total times e^scale is N."""

    log_lam: float
    residual: float
    iters: int
    scale: float
    terms: np.ndarray


def log_total(inv: np.ndarray, base: np.ndarray, rows: np.ndarray, span: tuple, ell: float):
    """log N(ell) for N = width * (coef . exp(ell * inv + base)) / div, its derivative
    in ell, the scale m and the terms exp(ell * inv + base - m), the largest of them 1;
    rows is (coef, coef * inv) and span is (width, div)."""
    terms = inv * ell
    terms += base
    m = float(terms.max())
    terms -= m
    np.exp(terms, out=terms)
    s, ds = np.einsum("ij,j->i", rows, terms).tolist()
    return m + math.log(span[0] * s / span[1]), ds / s, m, terms


def _defect(f: float) -> float:
    """|N - 1| for N = e^f."""
    return abs(math.expm1(f)) if f < 709.0 else math.inf


def solve_multiplier(
    inv: np.ndarray,
    base: np.ndarray,
    coef: np.ndarray,
    span: tuple[float, float],
    cfg: BisectionConfig | None = None,
) -> MultiplierSolve:
    """Solve log N(l) = 0, N as in ``log_total``, for inv > 0 and positive
    coefficients, starting at l = 0; an evaluation inside the residual
    tolerance is accepted on the spot."""
    if cfg is None:
        cfg = BisectionConfig()
    rows = np.array((coef, coef * inv))
    ell = 0.0
    f, df, m, terms = log_total(inv, base, rows, span, ell)
    residual = _defect(f)
    if residual <= cfg.residual_tol:
        return MultiplierSolve(ell, residual, 0, m, terms)
    ends = (ell - f / float(inv.max()), ell - f / float(inv.min()))
    lo, hi = min(ends), max(ends)
    step_old = step = math.inf
    for iters in range(1, cfg.max_iters + 1):
        newton = ell - f / df
        if lo <= newton <= hi and abs(2.0 * f) <= abs(step_old * df):
            new = newton
        else:  # out of the bracket, or not half the step before last
            new = 0.5 * (lo + hi)
        step_old, step, ell = step, new - ell, new
        f, df, m, terms = log_total(inv, base, rows, span, ell)
        residual = _defect(f)
        if residual <= cfg.residual_tol or abs(step) <= cfg.lambda_tol:
            return MultiplierSolve(ell, residual, iters, m, terms)
        if f < 0.0:
            lo = ell
        else:
            hi = ell
    raise MaxItersExceeded(
        f"no convergence in {cfg.max_iters} iterations, log multiplier in [{lo}, {hi}]"
    )


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
        cfg = BisectionConfig()

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
