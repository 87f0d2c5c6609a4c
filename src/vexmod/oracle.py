"""Brute-force verification paths that bypass the closed-form solutions.

Two independent checks: direct finite-dimensional minimization over grid
densities (stationarity solved for the scalar multiplier by the same
log-space Newton kernel as the continuous solvers, certified optimal by the
weak-duality bound ``dual_lower_bound``), and discrete averaging
experiments showing that spherical or fibre averaging never increases energy.
A projected Newton descent (``projected_gradient_minimize``) remains as a
minimizer that never uses the stationarity condition.  Each of its steps takes
one power per energy evaluation and one sort-free projection onto the simplex
in the metric of the energy's diagonal curvature.  It stops on the same
certificate as the stationarity solve: once the duality gap at its own
multiplier estimate is within the rounding of its sums, after 2 to 5 steps on
smooth grids and a few dozen where the minimizer spans many decades.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .annulus import AnnulusProblem, unit_sphere_area
from .cylinder import CylinderProblem
from .exponent import _MIN_EXPONENT_MARGIN
from .quadrature import _check_count
from .rootfind import BisectionConfig, _solve_row

__all__ = [
    "NonConvergence",
    "NotAdmissible",
    "GridDensity",
    "GridDensity2D",
    "AveragingReport",
    "discrete_energy",
    "discrete_minimize",
    "dual_lower_bound",
    "projected_gradient_minimize",
    "annulus_grid",
    "cylinder_grid",
    "spherical_average_check",
    "fibre_average_check",
    "random_admissible_2d",
]

_ADMISSIBILITY_SLACK = 1e-12
_MIN_EXPONENT = 1.0 + _MIN_EXPONENT_MARGIN
# The multiplier solve of ``discrete_minimize``, tighter than the continuous solvers' default.
_TIGHT = BisectionConfig(residual_tol=1e-10, lambda_tol=1e-13)
# Halvings per projected Newton step: a move halved 60 times shifts no cell by
# more than 1e-18 of the unit mass, so an energy that still rises past its
# rounding is as low as the line search can bring it.
_MAX_HALVINGS = 60


class NonConvergence(RuntimeError):
    """Projected Newton descent stopped without proving its energy within 0.1% of the minimum,
    or reached a NaN energy."""


class NotAdmissible(ValueError):
    """A test density misses the unit line-integral requirement on some ray."""


@dataclass(frozen=True)
class GridDensity:
    """Piecewise-constant density on a uniform 1-D grid with unit integral."""

    values: np.ndarray
    cell_width: float

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or v.size < 1:
            raise ValueError(f"values must be a nonempty 1-D vector, got shape {v.shape}")
        if not (self.cell_width > 0 and math.isfinite(self.cell_width)):
            raise ValueError(f"cell_width must be positive and finite, got {self.cell_width}")
        if not np.isfinite(v).all() or v.min() < 0:
            raise ValueError("density values must be finite and nonnegative")
        total = float(v.sum() * self.cell_width)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"grid density must integrate to 1, got {total}")


@dataclass(frozen=True)
class GridDensity2D:
    """Nonnegative density on a product grid.

    Rows follow the direction the problems solve in (radius or axis), columns
    the transverse one (angle or cross-section position); ``cell_width`` is
    the row-direction cell size.
    """

    values: np.ndarray
    axial_centers: np.ndarray
    cell_width: float
    transverse_width: float

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        c = np.asarray(self.axial_centers, dtype=float)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "axial_centers", c)
        if v.ndim != 2 or v.size < 1:
            raise ValueError(f"values must be a nonempty 2-D array, got shape {v.shape}")
        if c.shape != (v.shape[0],):
            raise ValueError(f"axial_centers shape {c.shape} does not match {v.shape[0]} rows")
        if not np.isfinite(v).all() or v.min() < 0:
            raise ValueError("density values must be finite and nonnegative")
        widths = (self.cell_width, self.transverse_width)
        if not all(w > 0 and math.isfinite(w) for w in widths):
            raise ValueError(f"cell widths must be positive and finite, got {widths}")


class AveragingReport(NamedTuple):
    energy_before: float
    energy_after: float
    admissible_after: bool


def discrete_energy(density: GridDensity, weights, exponents) -> float:
    """Energy sum w_i v_i^{p_i} * cell_width of a grid density, one weight and one
    exponent per cell."""
    w, p = _validated_problem(weights, exponents, density.cell_width)
    if w.size != density.values.size:
        raise ValueError(f"{w.size} weights for {density.values.size} cells")
    return float((w * density.values**p).sum() * density.cell_width)


def _validated_problem(weights, exponents, cell_width):
    w = np.asarray(weights, dtype=float)
    p = np.asarray(exponents, dtype=float)
    if w.ndim != 1 or w.size < 1 or p.shape != w.shape:
        raise ValueError(
            f"weights and exponents must be matching 1-D vectors, got {w.shape} and {p.shape}"
        )
    if not (np.isfinite(w).all() and w.min() > 0):
        raise ValueError("weights must be finite and positive")
    if not (np.isfinite(p).all() and p.min() >= _MIN_EXPONENT):
        raise ValueError(f"exponents must be finite and at least {_MIN_EXPONENT}")
    if not (cell_width > 0 and math.isfinite(cell_width)):
        raise ValueError(f"cell_width must be positive and finite, got {cell_width}")
    return w, p


def discrete_minimize(weights, exponents, cell_width: float) -> GridDensity:
    """Minimize sum(w_i v_i^{p_i}) * d over v >= 0 with sum(v_i) * d = 1.

    Works directly on the stationarity condition w_i p_i v_i^{p_i - 1} = mu:
    log v_i = (log mu - log(p_i w_i)) / (p_i - 1), and the constraint is
    strictly increasing in mu, so the multiplier kernel of the continuous
    solvers pins log mu down.  Never touches the closed-form density
    formulas, which is what makes it an oracle.
    """
    w, p = _validated_problem(weights, exponents, cell_width)
    inv = 1.0 / (p - 1.0)
    base = -inv * (np.log(p) + np.log(w))
    terms = _solve_row(inv, base, np.array((np.ones(w.size), inv)), cell_width, 1.0, _TIGHT)[4]
    v = terms / (terms.sum() * cell_width)  # absorb the leftover residual
    return GridDensity(v, cell_width)


def dual_lower_bound(weights, exponents, cell_width: float, mu: float) -> float:
    """Lagrange dual value g(mu) = mu - sum((p_i-1) w_i (mu/(p_i w_i))^(p_i/(p_i-1))) * d.

    Young's inequality w v^p >= mu v - (p-1) w (mu/(p w))^(p/(p-1)) makes it a
    lower bound on ``discrete_energy`` of every v >= 0 with sum(v) * d = 1, for
    every mu > 0; at the multiplier of the minimizer the two are equal, so a
    zero gap proves a density optimal.  An overflowing term gives -inf, which
    is still a valid bound.
    """
    w, p = _validated_problem(weights, exponents, cell_width)
    if not (mu > 0 and math.isfinite(mu)):
        raise ValueError(f"mu must be positive and finite, got {mu}")
    return _dual(w, p, cell_width, mu)


def _dual(w: np.ndarray, p: np.ndarray, cell_width: float, mu: float) -> float:
    """``dual_lower_bound`` on validated arrays."""
    with np.errstate(over="ignore"):
        terms = (p - 1.0) * w * (mu / (p * w)) ** (p / (p - 1.0))
        return float(mu - terms.sum() * cell_width)


def _project_unit_simplex(y: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Projection onto {u : u >= 0, sum(u) = 1} in the metric sum((u - y)^2 / s).

    The nearest point is u = max(y - theta s, 0).  Michelot's fixed point
    theta = (sum of the y_i with y_i > theta s_i, minus 1)/(sum of their s_i)
    rises from (sum(y) - 1)/sum(s) to the threshold while the kept set
    shrinks: at most n passes, no sort.  Only the ratios of s matter; s at
    most 1 keeps its sums finite.  A theta that is not finite, or rounds past
    every entry, gives NaN.
    """
    k, theta = y.size, (y.sum() - 1.0) / s.sum()
    keep = np.empty(y.size, dtype=bool)
    cut = np.empty(y.size)
    while math.isfinite(theta):
        np.multiply(s, theta, out=cut)
        kept = np.count_nonzero(np.greater(y, cut, out=keep))
        if kept == 0:
            break
        if kept >= k:
            u = np.maximum(y - cut, 0.0)
            return u / u.sum()
        k, theta = kept, (y.sum(where=keep) - 1.0) / s.sum(where=keep)
    return np.full(y.size, math.nan)


def projected_gradient_minimize(
    weights,
    exponents,
    cell_width: float,
    iters: int = 10_000,
) -> GridDensity:
    """Second, formula-free minimization path: projected Newton steps.

    Descends on u = v * cell_width inside the unit simplex from the uniform
    start (Bertsekas, SIAM J. Control Optim. 20(2), 1982).  One power
    x = (u/d)^(p-2) per energy evaluation gives the energy d sum(w x (u/d)^2),
    the gradient w p x u/d and the diagonal curvature w p (p-1) x / d.  Each
    step projects u - gradient/curvature = u (p-2)/(p-1) onto the simplex in
    the curvature's metric, moves toward that target only so far that no cell
    loses more than half its value, and halves the move until the energy does
    not rise past the rounding n eps e of its n-term sum.

    The stop is certified by weak duality, as ``oracle-check`` certifies the
    stationarity solve: once a step lowers the energy e by less than 1e-6 e,
    the multiplier estimate mu = sum(u w p (u/d)^(p-1)) gives the lower bound
    g(mu) of ``dual_lower_bound``, and the run returns when e - g(mu) is
    within the rounding 64 eps (e + mu) of the two sums.  A NaN energy raises
    NonConvergence, and so does a budget or line search that ends with a gap
    above 1e-3 max(g, 1e-12), which proves the energy within 0.1% of the
    minimum.
    """
    w, p = _validated_problem(weights, exponents, cell_width)
    _check_count("iters", iters)

    n = w.size
    pm2 = p - 2.0

    def energy(u):
        r = u / cell_width
        x = np.power(r, pm2)
        wv = w * x * r  # w (u/d)^(p-1)
        return float(np.dot(wv, u)), x, wv

    def dual_bound(u, wv):
        """g(mu) at the multiplier estimate mu = sum(u w p (u/d)^(p-1)), and mu."""
        mu = float(np.dot(p * wv, u))
        return _dual(w, p, cell_width, mu), mu

    eps = np.finfo(float).eps
    rounding = n * eps
    # No warnings: an overflowing power gives an infinite energy, which the
    # halving backs away from, or a NaN, which raises below.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        target = pm2 / (p - 1.0)  # u - gradient/curvature = target * u
        curvature = w * p * (p - 1.0)  # times x / d
        u = np.full(n, 1.0 / n)
        e, x, wv = energy(u)
        g = None  # the dual bound at u, once a step has stalled there
        for _ in range(iters):
            s = 1.0 / (curvature * x)
            z = _project_unit_simplex(target * u, s / s.max())
            worst = float(np.max((u - z) / u))  # at most 1, since z >= 0
            t = 1.0 if worst <= 0.5 else 0.5 / worst
            for _ in range(_MAX_HALVINGS):
                trial = u + t * (z - u)
                e_trial, x_trial, wv_trial = energy(trial)
                if e_trial - e <= rounding * e:
                    break
                if math.isnan(e_trial):
                    raise NonConvergence(f"projected Newton reached a NaN energy from {e}")
                t *= 0.5
            else:
                break  # no move lowers the energy past its rounding
            # The bound costs one more power.  Taking it only on steps that
            # lower e by less than 1e-6 e, not on every step, runs the bench
            # oracle workload 6% faster (1,477 against 1,383 ops per reference
            # second, ten alternating pairs of 8-s runs on a 2-core Intel Xeon).
            slow = e - e_trial < 1e-6 * e_trial
            u, e, x, wv = trial, e_trial, x_trial, wv_trial
            g = None
            if slow:
                g, mu = dual_bound(u, wv)
                if e - g <= 64.0 * eps * (e + mu):
                    break
        if g is None:
            g, _ = dual_bound(u, wv)

    # g <= minimum <= e, so this proves e within 0.1% of the minimum; an
    # overflowing dual (g = -inf) fails it.
    if not (e - g <= 1e-3 * max(g, 1e-12)):
        raise NonConvergence(
            f"projected Newton stopped at energy {e}, {e - g} above its dual bound {g}"
        )
    return GridDensity(u / cell_width, cell_width)


def annulus_grid(prob: AnnulusProblem, n_cells: int):
    """Midpoint weights and exponents discretizing the radial ring energy.

    Returns (weights, exponents, cell_width) with w_i the sphere area at the
    cell-center radius.
    """
    _check_count("n_cells", n_cells)
    delta = (prob.r2 - prob.r1) / n_cells
    r = prob.r1 + (np.arange(n_cells) + 0.5) * delta
    w = unit_sphere_area(prob.n) * r ** (prob.n - 1)
    return w, prob.p.eval(r), delta


def cylinder_grid(prob: CylinderProblem, n_cells: int):
    """Midpoint weights and exponents discretizing the axial energy."""
    _check_count("n_cells", n_cells)
    delta = prob.length / n_cells
    t = (np.arange(n_cells) + 0.5) * delta
    w = np.full(n_cells, float(prob.area))
    return w, prob.p.eval(t), delta


def _average_check(rho2d: GridDensity2D, p, weight: np.ndarray, label: str) -> AveragingReport:
    """Energies sum(weight v^p) * d * dx of a density and of its row mean, p the
    exponent function at the row centers.

    Every column (a ``label``) must carry line integral >= 1 on entry; the
    report says whether the row mean still does.
    """
    integrals = rho2d.values.sum(axis=0) * rho2d.cell_width
    worst = float(integrals.min())
    if worst < 1.0 - _ADMISSIBILITY_SLACK:
        raise NotAdmissible(f"a {label} integral is {worst}, below the required 1")

    d, dx = rho2d.cell_width, rho2d.transverse_width
    m = rho2d.values.shape[1]
    p = p.eval(rho2d.axial_centers)
    energy_before = float((rho2d.values ** p[:, None] * weight[:, None]).sum() * d * dx)
    avg = rho2d.values.mean(axis=1)
    energy_after = float((avg**p * weight).sum() * d * (m * dx))
    admissible_after = bool(avg.sum() * d >= 1.0 - _ADMISSIBILITY_SLACK)
    return AveragingReport(energy_before, energy_after, admissible_after)


def spherical_average_check(rho2d: GridDensity2D, prob: AnnulusProblem) -> AveragingReport:
    """Replace a polar-grid density by its angular mean and compare energies.

    Restricted to the plane ring, where the row mean over the angle is the
    exact spherical average.  Every grid ray must carry line integral >= 1 on
    entry; the report shows the discrete energies before and after and
    whether the averaged density is still admissible.
    """
    if prob.n != 2:
        raise ValueError(f"the polar-grid check needs n=2, got n={prob.n}")
    r = rho2d.axial_centers
    if r.min() < prob.r1 - 1e-9 or r.max() > prob.r2 + 1e-9:
        raise ValueError("grid radii fall outside the ring")
    if abs(rho2d.values.shape[1] * rho2d.transverse_width - 2.0 * math.pi) > 1e-9:
        raise ValueError("angular cells must tile the full circle")
    return _average_check(rho2d, prob.p, r, "ray")


def fibre_average_check(rho2d: GridDensity2D, prob: CylinderProblem) -> AveragingReport:
    """Column-mean counterpart on a rectangle grid covering D x (0, L)."""
    t = rho2d.axial_centers
    if t.min() < -1e-9 or t.max() > prob.length + 1e-9:
        raise ValueError("grid heights fall outside the cylinder")
    m = rho2d.values.shape[1]
    if abs(m * rho2d.transverse_width - prob.area) > 1e-9 * max(1.0, prob.area):
        raise ValueError("transverse cells must tile the cross-section measure")
    # A weight of 1 leaves every product, and so every sum, unchanged.
    return _average_check(rho2d, prob.p, np.ones(t.size), "column")


def random_admissible_2d(
    axial_centers,
    cell_width: float,
    n_transverse: int,
    transverse_width: float,
    rng: np.random.Generator,
) -> GridDensity2D:
    """Lognormal noise scaled so every column carries line integral exactly 1."""
    _check_count("n_transverse", n_transverse)
    centers = np.asarray(axial_centers, dtype=float)
    raw = np.exp(rng.standard_normal((centers.size, n_transverse)))
    raw = raw / (raw.sum(axis=0) * cell_width)
    return GridDensity2D(raw, centers, cell_width, transverse_width)
