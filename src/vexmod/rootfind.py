"""Bracketed bisection for strictly increasing scalar equations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

__all__ = [
    "BisectionConfig",
    "BisectionResult",
    "BracketFailure",
    "MaxItersExceeded",
    "solve_increasing",
]

_EXPAND_CEILING = 1e30
_EXPAND_FLOOR = 1e-30
_INITIAL_BRACKET = (1e-8, 1.0)


class BracketFailure(RuntimeError):
    """Bracket expansion ran out of range without enclosing the target.

    Usually signals a degenerate problem, for example an exponent bound at
    or below 1 that makes the normalization integral blow up.
    """


class MaxItersExceeded(RuntimeError):
    """Bisection spent every allowed iteration without meeting a tolerance."""


@dataclass(frozen=True)
class BisectionConfig:
    """Stopping rules: residual on |F(x) - target| or relative bracket width."""

    residual_tol: float = 1e-6
    lambda_tol: float = 1e-10
    max_iters: int = 200

    def __post_init__(self) -> None:
        if self.residual_tol <= 0 or self.lambda_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")


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
