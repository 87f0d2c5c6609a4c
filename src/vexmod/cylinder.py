"""Moduli of the end-to-end curve family of a finite cylinder.

With an exponent depending only on the axial coordinate, the problem reduces
to one dimension over [0, L]; the cross-section enters through its measure
alone.  It runs on the annulus module's weighted 1-D core with weight 1 in
the axial variable t, the cross-section measure scaling the energy but not
the multiplier.  Its solves, normalization and constant-density bound take t
and p(t) from the annulus module's record of the last pass when it holds this
cylinder's length, exponent and quadrature config, so p is evaluated once per
problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .annulus import ExtremalSolution, _WeightedCore, _density_at, _pass_key, _row_values
from .exponent import ExponentFunction, _covers
from .quadrature import NonFiniteIntegrand, QuadratureConfig, _checked_sum, simpson_nodes
from .rootfind import BisectionConfig, positive_normal

__all__ = [
    "CylinderProblem",
    "cylinder_normalization_value",
    "solve_cylinder",
    "constant_density_upper_bound",
]


@dataclass(frozen=True)
class CylinderProblem:
    """Cylinder D x (0, L) with cross-section measure ``area`` and axial p(t)."""

    area: float
    length: float
    p: ExponentFunction

    def __post_init__(self) -> None:
        if not (self.area > 0 and math.isfinite(self.area)):
            raise ValueError(f"area must be positive and finite, got {self.area}")
        if not (self.length > 0 and math.isfinite(self.length)):
            # An infinite strip has zero modulus and no extremal density.
            raise ValueError(f"length must be positive and finite, got {self.length}")
        if not _covers(self.p.interval, 0.0, self.length):
            lo, hi = self.p.interval
            raise ValueError(
                f"exponent is defined on [{lo}, {hi}], which does not cover [0, {self.length}]"
            )


def _axial_values(p: ExponentFunction, grids: list, tops: list) -> tuple:
    """No log r, and p at the axial grid of a pass of one row."""
    return None, p.eval(grids[0])


def _axial_nodes(prob: CylinderProblem, quad: QuadratureConfig | None) -> tuple:
    """t and p(t) of prob's axial grid, read from the annulus module's record of the last
    pass when it holds them."""
    t, _, p = _row_values(_pass_key("cylinder", 0.0, prob.p, quad), prob.length,
                          partial(simpson_nodes, 0.0, prob.length, quad),
                          partial(_axial_values, prob.p))
    return t, p


def _axial_core(prob: CylinderProblem, quad: QuadratureConfig | None) -> _WeightedCore:
    t, p = _axial_nodes(prob, quad)
    return _WeightedCore.build([t], p, 0.0, 0.0, partial(_density_at, prob.p.eval, 0.0, 0))


def cylinder_normalization_value(
    prob: CylinderProblem, lam: float, quad: QuadratureConfig | None = None
) -> float:
    """Integral over [0, L] of the candidate density (lam / p(t))^(1/(p(t)-1))."""
    return _axial_core(prob, quad).normalization(lam)


def solve_cylinder(
    prob: CylinderProblem,
    quad: QuadratureConfig | None = None,
    bis: BisectionConfig | None = None,
) -> ExtremalSolution:
    """Extremal density and modulus for curves joining the two ends."""
    return _axial_core(prob, quad).solution(bis, prob.area)


@np.errstate(all="ignore")  # one context for the values and their sum
def constant_density_upper_bound(
    prob: CylinderProblem, quad: QuadratureConfig | None = None
) -> float:
    """Energy of the constant density 1/L, admissible for end-to-end curves; one that
    exceeds the float range is NonFiniteIntegrand, as is the integral's own overflow,
    and one below the normal floats is BracketFailure, as the modulus is."""
    t, p = _axial_nodes(prob, quad)
    energy = _checked_sum(t, (1.0 / prob.length) ** p)
    bound = prob.area * energy
    if bound == math.inf:
        raise NonFiniteIntegrand(f"the area {prob.area} times the integral {energy}"
                                 " overflows a float")
    return positive_normal("upper bound", bound)

