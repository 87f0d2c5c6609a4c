"""Moduli of the curve family joining the boundary spheres of an annulus.

For a radial exponent p(|x|) the extremal density is an explicit radial
formula with one free scalar, the Lagrange multiplier of the unit-integral
normalization.  The ring is the weighted 1-D problem of ``_WeightedCore``
with weight omega_n r^(n-1), integrated in s = log(r/r1) with Jacobian r, so
that the density times r is exactly constant when p is identically n; the
cylinder shares the core with weight 1 in its own axial variable.  The core
holds each node's terms in logs and solves for log(lam) with
``rootfind.solve_multiplier``; every solve also returns a Simpson error
estimate of its normalization and modulus integrals.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np

from .exponent import ExponentFunction
from .quadrature import (
    NonFiniteIntegrand,
    QuadratureConfig,
    _pointwise,
    simpson_nodes,
    simpson_rows,
    simpson_sum,
)
from .rootfind import BisectionConfig, exp_or_inf, log_total, positive_normal, solve_multiplier

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
    normalization defect at the accepted multiplier, solver_iters the
    Newton or bisection steps after the first evaluation, and
    quadrature_error the Simpson estimate |S_h - S_2h| / (15 S_h), the
    larger of those of the normalization and of the modulus; it is reported,
    not enforced.  quadrature_step is the step h of the Simpson grid in the
    variable the solve integrates over: s = log(r/r1) on the ring, t on the
    cylinder; it never exceeds the step hint.
    """

    lam: float
    modulus: float
    density: Callable
    residual: float
    solver_iters: int
    quadrature_error: float
    quadrature_step: float


def _density_at(peval: Callable, log_c: float, k: int, ell: float, x) -> np.ndarray:
    """(lam / (p c x^k))^(1/(p-1)) at x for lam = e^ell, in logs: no power overflows."""
    p = peval(x)
    t = ell - np.log(p) - log_c
    if k:
        t = t - k * np.log(x)
    return np.exp(t / (p - 1.0))


class _WeightedCore:
    """Minimize the integral of w rho^p given integral rho = 1, on Simpson nodes u
    of an integration variable with Jacobian J.

    Per node it keeps inv = 1/(p - 1) and base = log J - inv log(p w), so that
    at lam = e^l the candidate density times J is exp(l inv + base); by the
    stationarity condition w rho^p = lam rho / p, the modulus is lam times the
    integral of rho J / p.  ``build`` makes the cores of several grids from one
    pass over their joined nodes, checked once: a bad node in any grid raises for
    all of them.  A single solve is its case of one grid.
    ``density(l, x)`` gives the density at lam = e^l in the problem's variable.
    """

    def __init__(self, u: np.ndarray, inv: np.ndarray, base: np.ndarray, density: Callable) -> None:
        self.density = density
        self.inv, self.base = inv, base
        self.rows = simpson_rows(u.size - 1)  # at steps h and 2h, of terms in [0, 1]
        self.span = (float(u[-1] - u[0]), 3.0 * (u.size - 1))

    @classmethod
    @np.errstate(all="ignore")
    def build(cls, grids: list, p: np.ndarray, log_w, log_j, density: Callable) -> list:
        """The core of each Simpson grid in ``grids``, given p, log w and log J at their
        joined nodes (log w and log J may be scalars).  Raises NonFiniteIntegrand naming
        the first node of the joined grids where p is not a finite value above 1."""
        inv = 1.0 / (p - 1.0)
        base = log_j - inv * (np.log(p) + log_w)
        if not (math.isfinite(base.sum()) and inv.min() > 0.0):  # look for a bad node
            bad = np.flatnonzero(~(np.isfinite(base) & (inv > 0.0)))
            if bad.size:
                raise NonFiniteIntegrand(
                    f"the exponent is {p[bad[0]]!r} at quadrature node"
                    f" {np.concatenate(grids)[bad[0]]!r}, not a finite value above 1")
        cores, start = [], 0
        for u in grids:
            stop = start + u.size
            cores.append(cls(u, inv[start:stop], base[start:stop], density))
            start = stop
        return cores

    def normalization(self, lam: float) -> float:
        if not (lam > 0 and math.isfinite(lam)):
            raise ValueError(f"lam must be positive and finite, got {lam}")
        rows = np.array((self.rows[0], self.rows[0] * self.inv))
        value = exp_or_inf(log_total(self.inv, self.base, rows, self.span, math.log(lam))[0])
        if value == math.inf:
            raise NonFiniteIntegrand(f"the normalization at lam={lam} exceeds the float range")
        return value

    def solve(self, bis: BisectionConfig | None) -> ExtremalSolution:
        ell, residual, iters, scale, terms = solve_multiplier(self.inv, self.base, self.rows[0],
                                                              self.span, bis)
        lam = positive_normal("multiplier", exp_or_inf(ell))
        energy = terms * (self.inv / (1.0 + self.inv))  # rho J / p, scaled by e^-scale
        # The normalization and the modulus integrals, each at steps h and 2h.
        (n_h, n_2h), (e_h, e_2h) = np.einsum("ij,kj->ki", self.rows, (terms, energy)).tolist()
        modulus = positive_normal("modulus", lam * exp_or_inf(scale)
                                  * (self.span[0] * e_h / self.span[1]))
        error = max(abs(n_h - n_2h) / (15.0 * n_h), abs(e_h - e_2h) / (15.0 * e_h))
        # On scalars or arrays; holds none of the node arrays.
        rho = partial(_pointwise, partial(self.density, ell))
        step = self.span[0] / (self.rows.shape[1] - 1)
        return ExtremalSolution(lam, modulus, rho, residual, iters, error, step)


def _log_ratio(r1: float, r2: float) -> float:
    """log(r2/r1), the length of the ring's interval in s; finite for any float radii."""
    return math.log(r2) - math.log(r1)


def _ring_grid(prob: AnnulusProblem, quad: QuadratureConfig | None) -> np.ndarray:
    """Simpson nodes s on [0, log(r2/r1)]."""
    return simpson_nodes(0.0, _log_ratio(prob.r1, prob.r2), quad)


def _ring_nodes(r1: float, p: ExponentFunction, grids: list, tops: list):
    """log r and p(r) at the joined s grids of rings from r1 to each radius in tops;
    a grid's end nodes are r1 and its outer radius exactly, so p is evaluated on its
    interval.  A single grid is used as it is, not copied."""
    s = grids[0] if len(grids) == 1 else np.concatenate(grids)
    log_r = s + math.log(r1)
    r = np.exp(log_r)
    stop = 0
    for u, r2 in zip(grids, tops):
        r[stop] = r1
        stop += u.size
        r[stop - 1] = r2
    return log_r, p.at_nodes(r)


def _ring_cores(prob: AnnulusProblem, grids: list, tops: list) -> list:
    """``_WeightedCore.build`` for the rings of prob's n, r1 and exponent out to each radius
    in tops, on their s grids."""
    log_r, p = _ring_nodes(prob.r1, prob.p, grids, tops)
    log_c, k = _log_unit_sphere_area(prob.n), prob.n - 1
    return _WeightedCore.build(grids, p, log_c + k * log_r, log_r,
                               partial(_density_at, prob.p.eval, log_c, k))


def _ring_core(prob: AnnulusProblem, quad: QuadratureConfig | None) -> _WeightedCore:
    return _ring_cores(prob, [_ring_grid(prob, quad)], [prob.r2])[0]


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
    """Closed-form ring modulus for a constant exponent p > 1.

    With k = (n-1)/(p-1) it is omega_n I^(1-p), where I, the integral of
    r^-k over [r1, r2], is r1^(1-k) L expm1(x)/x with L = log(r2/r1) and
    x = (1-k) L; taken in logs, so no power overflows.
    """
    if not (0 < r1 < r2):
        raise ValueError(f"radii must satisfy 0 < r1 < r2, got ({r1}, {r2})")
    if p <= 1:
        raise ValueError(f"exponent must exceed 1, got {p}")
    k = (n - 1) / (p - 1.0)
    L = _log_ratio(r1, r2)
    x = (1.0 - k) * L
    if x > 0.0:
        log_factor = x + math.log(-math.expm1(-x) / x)
    else:
        log_factor = math.log(math.expm1(x) / x) if x < 0.0 else 0.0
    log_inner = (1.0 - k) * math.log(r1) + math.log(L) + log_factor
    return math.exp(_log_unit_sphere_area(n) + (1.0 - p) * log_inner)


def log_density_upper_bound(
    prob: AnnulusProblem, quad: QuadratureConfig | None = None
) -> float:
    """Energy of the admissible density 1/(r log(r2/r1)).

    An upper bound for the modulus; it is attained exactly when p(r) is
    identically the dimension n.
    """
    s = _ring_grid(prob, quad)
    log_r, p = _ring_nodes(prob.r1, prob.p, [s], [prob.r2])
    with np.errstate(all="ignore"):
        # omega_n r^(n-1) (r L)^-p times the Jacobian r
        values = np.exp(_log_unit_sphere_area(prob.n) + (prob.n - p) * log_r
                        - p * math.log(_log_ratio(prob.r1, prob.r2)))
    return simpson_sum(s, values)


@dataclass(frozen=True)
class SweepRow:
    r2: float
    lam: float | None
    modulus: float | None
    residual: float | None = None
    quadrature_error: float | None = None
    error: str | None = None


_PASS_NODES = 65_536  # nodes of a sweep's shared pass; a larger row has a pass of its own


def modulus_sweep(
    prob: AnnulusProblem,
    r2_values: Sequence[float],
    quad: QuadratureConfig | None = None,
    bis: BisectionConfig | None = None,
) -> list[SweepRow]:
    """Re-solve for each outer radius, keeping n, r1, and the exponent map.

    Every row shares the template's exponent, which must be evaluable up to
    the largest requested radius; the solve reads p only at its own nodes.
    Consecutive rows share one pass over their joined nodes, at most 65,536
    of them, that evaluates p and checks it once; then each row is solved
    alone.  If a pass raises, for any reason, each of its rows is solved as
    ``solve_annulus`` solves it.  So a row's numbers and error are those of
    ``solve_annulus`` on that row, and a failure on one row is reported on
    that row without stopping the sweep.
    """
    rows = []
    for part in _sweep_passes(prob, r2_values, quad):
        cores = [None] * len(part)
        if part[0][1] is not None:  # else a row with no grid, alone in its pass
            with contextlib.suppress(Exception):
                cores = _ring_cores(prob, [grid for _, grid in part], [r2 for r2, _ in part])
        for (r2, _), core in zip(part, cores):
            try:
                if core is None:  # the row alone, as solve_annulus solves it
                    core = _ring_core(AnnulusProblem(prob.n, prob.r1, r2, prob.p), quad)
                sol = core.solve(bis)
            except Exception as exc:  # per-row report, the sweep keeps going
                rows.append(SweepRow(r2, None, None, error=f"{type(exc).__name__}: {exc}"))
            else:
                rows.append(SweepRow(r2, sol.lam, sol.modulus, sol.residual, sol.quadrature_error))
    return rows


def _sweep_passes(prob: AnnulusProblem, r2_values: Sequence[float],
                  quad: QuadratureConfig | None) -> Iterator[list]:
    """The sweep's rows in order as (r2, s grid), in passes of at most _PASS_NODES joined
    nodes.  A larger row has a pass of its own, and so has a row whose problem or grid
    raises, with the grid None: its own solve raises the same error again."""
    part: list = []
    nodes = 0
    for r2 in map(float, r2_values):
        try:
            grid = _ring_grid(AnnulusProblem(prob.n, prob.r1, r2, prob.p), quad)
        except Exception:
            grid = None
        size = _PASS_NODES + 1 if grid is None else grid.size
        if part and nodes + size > _PASS_NODES:
            yield part
            part, nodes = [], 0
        part.append((r2, grid))
        nodes += size
    if part:
        yield part
