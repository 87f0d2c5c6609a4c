"""Moduli of the end-to-end curve family of a finite cylinder.

With an exponent depending only on the axial coordinate, the problem reduces
to one dimension over [0, L]; the cross-section enters through its measure
alone.  It runs on the weighted 1-D core of ``core`` with weight 1 in the axial
variable t, the cross-section measure scaling the energy but not the multiplier.
Its problem's hooks plug it into the core's row/pass path: ``modulus_sweep``
sweeps its length, and its solves, normalization and bound read t and p(t) from
the record of the last pass, so p is evaluated once per problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import ExtremalSolution, _density_at, _normalization, _row_bound, _solve
from .exponent import ExponentFunction, _covers
from .quadrature import NonFiniteIntegrand, QuadratureConfig, _checked_sums, simpson_nodes
from .rootfind import BisectionConfig

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

    # The hooks of the core's row/pass path, as on AnnulusProblem.
    _start = 0.0

    @property
    def _bound_key(self) -> float:
        return self.area

    @property
    def _end(self) -> float:
        return self.length

    def _at(self, end: float) -> CylinderProblem:
        return CylinderProblem(self.area, end, self.p)

    def _grid(self, quad: QuadratureConfig | None) -> np.ndarray:
        return simpson_nodes(0.0, self.length, quad)

    def _values(self, t: np.ndarray, grids: list, tops: list) -> tuple:
        """No log r, and p at t, the joined axial grids of a pass."""
        return None, self.p.eval(t)

    def _integrand(self, log_r: None) -> tuple:
        """Weight and Jacobian 1, given as None so that they cost no array operation, the
        area, and the density at (log lam, t), defined on [0, L]."""
        return None, None, self.area, partial(_density_at, self.p.eval, 0.0, 0,
                                              (0.0, self.length))

    @np.errstate(all="ignore")  # one context for the values and their sums
    def _bounds(self, grids: list, tops: list, log_r: None, p: np.ndarray) -> list:
        """Per cylinder of each length in tops, the energy of the constant density 1/L on its
        grid, or its failure as the pair (exception class, message), given p at the joined
        grids: one evaluation for all of them."""
        if len(grids) == 1:
            inv = 1.0 / tops[0]
        else:  # each cylinder's 1/L over its own nodes
            inv = np.repeat([1.0 / length for length in tops], [t.size for t in grids])
        bounds = _checked_sums(grids, inv ** p)
        for i, energy in enumerate(bounds):
            if not isinstance(energy, tuple):  # a failure of the integral stays as it is
                bound = self.area * energy
                bounds[i] = bound if bound < math.inf else (
                    NonFiniteIntegrand, f"the area {self.area} times the integral {energy}"
                    " overflows a float")
        return bounds


def cylinder_normalization_value(
    prob: CylinderProblem, lam: float, quad: QuadratureConfig | None = None
) -> float:
    """Integral over [0, L] of the candidate density (lam / p(t))^(1/(p(t)-1))."""
    return _normalization(prob, lam, quad)


def solve_cylinder(
    prob: CylinderProblem,
    quad: QuadratureConfig | None = None,
    bis: BisectionConfig | None = None,
) -> ExtremalSolution:
    """Extremal density and modulus for curves joining the two ends."""
    return _solve(prob, quad, bis)


def constant_density_upper_bound(
    prob: CylinderProblem, quad: QuadratureConfig | None = None
) -> float:
    """Energy of the constant density 1/L, admissible for end-to-end curves; one that
    exceeds the float range is NonFiniteIntegrand, as is the integral's own overflow,
    and one below the normal floats is BracketFailure, as the modulus is."""
    return _row_bound(prob, quad)
