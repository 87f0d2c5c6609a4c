"""Composite Simpson integration on closed intervals with a fixed step hint."""

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
    "realized_step",
    "simpson_nodes",
    "simpson_sum",
    "integrate",
]


class NonFiniteIntegrand(ValueError):
    """The integrand returned NaN or an infinity at a quadrature node."""


class IntervalTooFine(ValueError):
    """The requested step needs more subintervals than the configured cap."""


@dataclass(frozen=True)
class QuadratureConfig:
    """Target subinterval width; the realized step never exceeds it."""

    step_hint: float = 1e-2
    max_subintervals: int = 1_000_000

    def __post_init__(self) -> None:
        if not (math.isfinite(self.step_hint) and self.step_hint > 0):
            raise ValueError(f"step_hint must be positive and finite, got {self.step_hint}")
        if self.max_subintervals < 2:
            raise ValueError(f"max_subintervals must be at least 2, got {self.max_subintervals}")


def subinterval_count(a: float, b: float, cfg: QuadratureConfig | None = None) -> int:
    """Smallest even subinterval count whose uniform step is at most the hint."""
    if cfg is None:
        cfg = QuadratureConfig()
    if b < a:
        raise ValueError(f"interval is reversed: a={a} exceeds b={b}")
    # Round up to the next even count so the step only ever shrinks.
    n = max(2, 2 * math.ceil((b - a) / (2.0 * cfg.step_hint)))
    if n > cfg.max_subintervals:
        raise IntervalTooFine(
            f"[{a}, {b}] at step {cfg.step_hint} needs {n} subintervals, "
            f"the cap is {cfg.max_subintervals}"
        )
    return n


def realized_step(a: float, b: float, cfg: QuadratureConfig | None = None) -> float:
    return (b - a) / subinterval_count(a, b, cfg)


def _pointwise(f: Callable, x):
    """f at every point of x, a float or an ndarray, with numpy errors ignored.

    A callable that accepts an array is called once on the whole of it, and
    a constant result is broadcast to its shape; one that raises on an array
    is called once per point.  Points are passed as numpy float64 scalars,
    and a scalar x gives a float.
    """
    xs = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        if xs.ndim == 0:
            return float(f(xs[()]))
        try:
            out = np.asarray(f(xs), dtype=float)
            return out if out.shape == xs.shape else np.broadcast_to(out, xs.shape).copy()
        except Exception:
            return np.array([float(f(v)) for v in xs.flat]).reshape(xs.shape)


def simpson_nodes(a: float, b: float, cfg: QuadratureConfig | None = None) -> np.ndarray:
    """The ``subinterval_count(a, b, cfg) + 1`` equispaced nodes of the rule, a and b included."""
    return np.linspace(a, b, subinterval_count(a, b, cfg) + 1)


def simpson_sum(nodes: np.ndarray, values: np.ndarray) -> float:
    """Composite Simpson sum of integrand values at ``simpson_nodes``; a value
    that is not finite raises NonFiniteIntegrand naming its node."""
    if not np.isfinite(values).all():
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise NonFiniteIntegrand(f"integrand is {values[bad]} at node x={nodes[bad]!r}")
    n = nodes.size - 1
    total = values[0] + values[-1] + 4.0 * values[1:-1:2].sum() + 2.0 * values[2:-1:2].sum()
    # (b - a) * total / (3 n) instead of h * total / 3: keeps constants exact.
    return float((nodes[-1] - nodes[0]) * total / (3.0 * n))


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    cfg: QuadratureConfig | None = None,
) -> float:
    """Composite Simpson approximation of the integral of f over [a, b].

    The node count is even and chosen by ``subinterval_count``; the rule is
    exact for polynomials up to degree three, apart from rounding.  The
    integrand is evaluated at every node, in one call if it accepts arrays,
    and must be finite everywhere on the closed interval.
    """
    nodes = simpson_nodes(a, b, cfg)
    return simpson_sum(nodes, _pointwise(f, nodes))
