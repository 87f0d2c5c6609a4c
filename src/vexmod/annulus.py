"""Moduli of the curve family joining the boundary spheres of an annulus.

For a radial exponent p(|x|) the extremal density is an explicit radial
formula with one free scalar, the Lagrange multiplier of the unit-integral
normalization.  The ring is the weighted 1-D problem of ``_WeightedCore``
with weight omega_n r^(n-1), which the cylinder shares with weight 1: the
multiplier solve, the modulus and the logarithmic test-density upper bound
all run on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .exponent import ExponentFunction
from .quadrature import QuadratureConfig, _pointwise, simpson_nodes, simpson_sum
from .rootfind import BisectionConfig, solve_increasing

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


def unit_sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n: 2 pi^(n/2) / Gamma(n/2)."""
    if n < 1 or int(n) != n:
        raise ValueError(f"dimension must be an integer >= 1, got {n}")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class AnnulusProblem:
    """Spherical ring r1 < |x| < r2 in R^n with a radial exponent p(|x|)."""

    n: int
    r1: float
    r2: float
    p: ExponentFunction

    def __post_init__(self) -> None:
        if self.n < 2 or int(self.n) != self.n:
            raise ValueError(f"dimension n must be an integer >= 2, got {self.n}")
        if not (0 < self.r1 < self.r2 and math.isfinite(self.r2)):
            raise ValueError(
                f"radii must satisfy 0 < r1 < r2 < inf, got r1={self.r1}, r2={self.r2}"
            )
        lo, hi = self.p.interval
        if lo > self.r1 + 1e-12 or hi < self.r2 - 1e-12:
            raise ValueError(
                f"exponent is defined on [{lo}, {hi}], which does not cover "
                f"the radial interval [{self.r1}, {self.r2}]"
            )


@dataclass(frozen=True)
class ExtremalSolution:
    """Solved variational problem.

    lam is the Lagrange multiplier of the unit-integral constraint, density
    the pointwise minimizer (accepts scalars or arrays), residual the
    normalization defect at the accepted multiplier.
    """

    lam: float
    modulus: float
    density: Callable
    residual: float
    solver_iters: int


@np.errstate(all="ignore")
def _density(lam: float, p: np.ndarray, c: float, xk) -> np.ndarray:
    """Pointwise minimizer (lam / (p w))^(1/(p-1)) of the energy with weight w = c x^k.

    In two new arrays: at 10^5 nodes a plain expression's temporaries set the peak memory.
    """
    rho = np.multiply(p, c, out=np.empty_like(p))
    rho *= xk
    np.divide(lam, rho, out=rho)
    inv = np.subtract(p, 1.0, out=np.empty_like(p))
    np.divide(1.0, inv, out=inv)
    return np.power(rho, inv, out=rho)


def _density_at(lam: float, peval: Callable, c: float, k: int, x) -> np.ndarray:
    """``_density`` at x; x^k takes numpy's array power, as at the nodes, also for a scalar."""
    x = np.asarray(x)
    return _density(lam, peval(x), c, x**k)


class _WeightedCore:
    """Minimize the integral of w rho^p over [a, b], w(x) = c x^k, given integral rho = 1.

    The Simpson nodes, p and x^k are evaluated once, at construction; every
    multiplier the solve tries reuses them.
    """

    @np.errstate(all="ignore")
    def __init__(self, p: ExponentFunction, c: float, k: int, a: float, b: float,
                 quad: QuadratureConfig | None) -> None:
        self.peval, self.c, self.k = p.eval, c, k
        self.x = simpson_nodes(a, b, quad)
        self.p = np.asarray(p.eval(self.x), dtype=float)
        self.xk = self.x**k

    def normalization(self, lam: float) -> float:
        if lam <= 0:
            raise ValueError(f"lam must be positive, got {lam}")
        return simpson_sum(self.x, _density(lam, self.p, self.c, self.xk))

    @np.errstate(all="ignore")
    def energy(self, rho) -> float:
        """Integral of w rho^p, for rho given at the nodes or as one constant."""
        return self.c * simpson_sum(self.x, rho**self.p * self.xk)

    def solve(self, bis: BisectionConfig | None) -> ExtremalSolution:
        root, residual, iters = solve_increasing(self.normalization, 1.0, bis)
        modulus = self.energy(_density(root, self.p, self.c, self.xk))
        # On scalars or arrays; holds none of the node arrays.
        rho = partial(_pointwise, partial(_density_at, root, self.peval, self.c, self.k))
        return ExtremalSolution(root, modulus, rho, residual, iters)


def _ring_core(prob: AnnulusProblem, quad: QuadratureConfig | None) -> _WeightedCore:
    return _WeightedCore(prob.p, unit_sphere_area(prob.n), prob.n - 1, prob.r1, prob.r2, quad)


def normalization_value(
    prob: AnnulusProblem, lam: float, quad: QuadratureConfig | None = None
) -> float:
    """Integral of the candidate extremal density over [r1, r2].

    Strictly increasing in lam, from 0 to infinity; the multiplier is its
    unique preimage of 1.
    """
    return _ring_core(prob, quad).normalization(lam)


def solve_annulus(
    prob: AnnulusProblem,
    quad: QuadratureConfig | None = None,
    bis: BisectionConfig | None = None,
) -> ExtremalSolution:
    """Extremal density and modulus for the spherical-ring curve family."""
    return _ring_core(prob, quad).solve(bis)


def constant_exponent_modulus(n: int, p: float, r1: float, r2: float) -> float:
    """Closed-form ring modulus for a constant exponent p > 1."""
    if not (0 < r1 < r2):
        raise ValueError(f"radii must satisfy 0 < r1 < r2, got ({r1}, {r2})")
    if p <= 1:
        raise ValueError(f"exponent must exceed 1, got {p}")
    k = (n - 1) / (p - 1.0)
    if abs(k - 1.0) < 1e-12:
        inner = math.log(r2 / r1)
    else:
        inner = (r2 ** (1.0 - k) - r1 ** (1.0 - k)) / (1.0 - k)
    return unit_sphere_area(n) * inner ** (1.0 - p)


def log_density_upper_bound(
    prob: AnnulusProblem, quad: QuadratureConfig | None = None
) -> float:
    """Energy of the admissible density 1/(r log(r2/r1)).

    An upper bound for the modulus; it is attained exactly when p(r) is
    identically the dimension n.
    """
    core = _ring_core(prob, quad)
    return core.energy(1.0 / (core.x * math.log(prob.r2 / prob.r1)))


@dataclass(frozen=True)
class SweepRow:
    r2: float
    lam: float | None
    modulus: float | None
    residual: float | None = None
    error: str | None = None


def modulus_sweep(
    prob: AnnulusProblem,
    r2_values: Sequence[float],
    quad: QuadratureConfig | None = None,
    bis: BisectionConfig | None = None,
) -> list[SweepRow]:
    """Re-solve for each outer radius, keeping n, r1, and the exponent map.

    The template exponent must be evaluable up to the largest requested
    radius.  Each radius is solved from scratch, and a failure on one row is
    reported on that row without stopping the sweep.
    """
    rows: list[SweepRow] = []
    for r2 in r2_values:
        try:
            sub = AnnulusProblem(prob.n, prob.r1, float(r2), prob.p.restricted(prob.r1, float(r2)))
            sol = solve_annulus(sub, quad, bis)
            rows.append(SweepRow(float(r2), sol.lam, sol.modulus, sol.residual))
        except Exception as exc:  # per-row report, the sweep keeps going
            rows.append(SweepRow(float(r2), None, None, None, f"{type(exc).__name__}: {exc}"))
    return rows

