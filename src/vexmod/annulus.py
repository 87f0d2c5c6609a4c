"""Moduli of the curve family joining the boundary spheres of an annulus.

For a radial exponent p(|x|) the extremal density is an explicit radial
formula with one free scalar, the Lagrange multiplier of the unit-integral
normalization.  The ring is the weighted 1-D problem of the core (``core.py``)
with weight omega_n r^(n-1), integrated in s = log(r/r1) with Jacobian r, so
that the density times r is exactly constant when p is identically n.  Its
problem's hooks plug it into the core's row/pass path, as the cylinder's do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import (ExtremalSolution, SweepRow, _density_at, _normalization, _row_bound, _solve,
                   modulus_sweep)  # the core's public names, exported here too
from .exponent import ExponentFunction, _covers
from .quadrature import QuadratureConfig, _checked_sums, simpson_nodes
from .rootfind import BisectionConfig, exp_or_inf, positive_normal

__all__ = [
    "AnnulusProblem",
    "ExtremalSolution",
    "SweepRow",
    "unit_sphere_area",
    "normalization_value",
    "solve_annulus",
    "constant_exponent_modulus",
    "log_density_upper_bound",
    "modulus_sweep",
]


def _log_unit_sphere_area(n: int) -> float:
    if n < 1 or int(n) != n:
        raise ValueError(f"dimension must be an integer >= 1, got {n}")
    return math.log(2.0) + 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n)


def unit_sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n: 2 pi^(n/2) / Gamma(n/2), 0.0 once it underflows."""
    return math.exp(_log_unit_sphere_area(n))


def _check_ring(n: int, r1: float, r2: float) -> None:
    """ValueError naming the bad value unless n is an integer >= 2, 0 < r1 < r2 < inf
    and log(r2/r1) is not 0.0."""
    if n < 2 or int(n) != n:
        raise ValueError(f"dimension n must be an integer >= 2, got {n}")
    if not (0 < r1 < r2 and math.isfinite(r2)):
        raise ValueError(f"radii must satisfy 0 < r1 < r2 < inf, got r1={r1}, r2={r2}")
    if _log_ratio(r1, r2) == 0.0:
        raise ValueError(f"radii r1={r1} and r2={r2} are too close: log(r2/r1) rounds to 0.0")


def _log_ratio(r1: float, r2: float) -> float:
    """log(r2/r1), the length of the ring's interval in s; finite for any float radii."""
    return math.log(r2) - math.log(r1)


@dataclass(frozen=True)
class AnnulusProblem:
    """Spherical ring r1 < |x| < r2 in R^n with a radial exponent p(|x|)."""

    n: int
    r1: float
    r2: float
    p: ExponentFunction

    def __post_init__(self) -> None:
        _check_ring(self.n, self.r1, self.r2)
        if not _covers(self.p.interval, self.r1, self.r2):
            lo, hi = self.p.interval
            raise ValueError(
                f"exponent is defined on [{lo}, {hi}], which does not cover "
                f"the radial interval [{self.r1}, {self.r2}]"
            )

    # The hooks of the core's row/pass path, as on CylinderProblem.
    @property
    def _start(self) -> float:
        return self.r1

    @property
    def _bound_key(self) -> int:
        return self.n

    @property
    def _end(self) -> float:
        return self.r2

    def _at(self, end: float) -> AnnulusProblem:
        return AnnulusProblem(self.n, self.r1, end, self.p)

    def _grid(self, quad: QuadratureConfig | None) -> np.ndarray:
        """Simpson nodes s on [0, log(r2/r1)]."""
        return simpson_nodes(0.0, _log_ratio(self.r1, self.r2), quad)

    def _values(self, s: np.ndarray, grids: list, tops: list) -> tuple:
        """log r and p(r) at s, the joined grids of the rings from r1 out to each radius in
        tops; a grid's end nodes are r1 and its outer radius exactly, so p is evaluated
        on its interval."""
        log_r = s + math.log(self.r1)
        r = np.exp(log_r)
        stop = 0
        for u, r2 in zip(grids, tops):
            r[stop] = self.r1
            stop += u.size
            r[stop - 1] = r2
        return log_r, self.p.eval(r)

    def _integrand(self, log_r: np.ndarray) -> tuple:
        """log w = log(omega_n r^(n-1)) and log J = log r at log r, the area 1 and the
        density at (log lam, r), defined on [r1, r2]."""
        log_c, k = _log_unit_sphere_area(self.n), self.n - 1
        return (log_c + k * log_r, log_r, 1.0,
                partial(_density_at, self.p.eval, log_c, k, (self.r1, self.r2)))

    @np.errstate(all="ignore")  # one context for the values and their sums
    def _bounds(self, grids: list, tops: list, log_r: np.ndarray, p: np.ndarray) -> list:
        """Per ring from r1 out to each radius in tops, the energy of the density
        1/(r log(r2/r1)) on its grid, or its failure as the pair (exception class, message),
        given log r and p at the joined grids: one evaluation for all of them."""
        if len(grids) == 1:
            log_l = math.log(_log_ratio(self.r1, tops[0]))
        else:  # each ring's log log(r2/r1) over its own nodes
            log_l = np.repeat([math.log(_log_ratio(self.r1, r2)) for r2 in tops],
                              [u.size for u in grids])
        # omega_n r^(n-1) (r L)^-p times the Jacobian r: the exponent log omega_n
        # + (n - p) log r - p log L, its terms taken in that order, in place
        values = self.n - p
        values *= log_r
        values += _log_unit_sphere_area(self.n)
        values -= p * log_l
        return _checked_sums(grids, np.exp(values, out=values))


def normalization_value(
    prob: AnnulusProblem, lam: float, quad: QuadratureConfig | None = None
) -> float:
    """Integral of the candidate extremal density over [r1, r2].

    Strictly increasing in lam, from 0 to infinity; the multiplier is its
    unique preimage of 1.
    """
    return _normalization(prob, lam, quad)


def solve_annulus(
    prob: AnnulusProblem,
    quad: QuadratureConfig | None = None,
    bis: BisectionConfig | None = None,
) -> ExtremalSolution:
    """Extremal density and modulus for the spherical-ring curve family."""
    return _solve(prob, quad, bis)


def constant_exponent_modulus(n: int, p: float, r1: float, r2: float) -> float:
    """Closed-form ring modulus for a constant exponent p > 1.

    With k = (n-1)/(p-1) it is omega_n I^(1-p), where I, the integral of
    r^-k over [r1, r2], is r1^(1-k) L expm1(x)/x with L = log(r2/r1) and
    x = (1-k) L; taken in logs, so no power overflows.  A modulus that is not a positive
    normal float is BracketFailure, as from ``solve_annulus``.
    """
    _check_ring(n, r1, r2)
    if not 1.0 < p < math.inf:
        raise ValueError(f"exponent must be a finite value above 1, got {p}")
    k = (n - 1) / (p - 1.0)
    L = _log_ratio(r1, r2)
    x = (1.0 - k) * L
    if x > 0.0:
        log_factor = x + math.log(-math.expm1(-x) / x)
    else:
        log_factor = math.log(math.expm1(x) / x) if x < 0.0 else 0.0
    log_inner = (1.0 - k) * math.log(r1) + math.log(L) + log_factor
    return positive_normal("modulus", exp_or_inf(_log_unit_sphere_area(n) + (1 - p) * log_inner))


def log_density_upper_bound(
    prob: AnnulusProblem, quad: QuadratureConfig | None = None
) -> float:
    """Energy of the admissible density 1/(r log(r2/r1)).

    An upper bound for the modulus, attained exactly when p(r) is identically the
    dimension n; one that is not a positive normal float is BracketFailure, as the modulus is.
    """
    return _row_bound(prob, quad)
