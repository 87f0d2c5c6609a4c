"""The weighted 1-D core that the ring and the cylinder share, its passes and the sweep.

The core holds each node's terms in logs and solves rows for their log(lam), by two loops
over one update rule (``rootfind._update``).  A single solve and a normalization are one
row, which ``_build_row`` builds once (its inv, base and five Simpson weight rows) and
``rootfind._solve_row`` solves on Python floats, as it solves the grid oracle.  A sweep is solved in passes of
several rows, which ``_WeightedCore`` builds over their joined nodes and the lockstep
kernel ``rootfind.solve_multiplier`` solves together; a row that fails, at a bad exponent
value or in its solve, fails alone.  The row count the caller holds selects the loop, and
both take a row's numbers (``_row_numbers``, with a Simpson error estimate of its
normalization and modulus integrals) by the same operations, so a row's numbers are the
same alone as in any pass.

Both geometries take one row/pass path, by private hooks of their problem classes (the
start of the exponent's variable, the swept end, the problem at another end, the Simpson
grid, a pass's values, its weighting, and its test-density bounds with the parameter they
depend on besides the values: n on the ring, the area on the cylinder), so this module
imports neither: ``modulus_sweep`` solves rings or cylinders in passes, one at a time by
the generator ``_sweep``.  The last pass that evaluated p is kept as a record of its
grids, log r and p, keyed by the problem's class, the start of its variable, the
exponent's eval (by identity) and the quadrature config (by value).  ``_pass_values``
evaluates every pass and returns it in the record's shape; the record's one reader,
``_row_pass``, gives a single solve, a normalization or a test-density bound its row's
pass from there, or else its own pass of one row, read the same way.  The first bound
read of a pass computes the bounds of all of its rows in one evaluation, and the pass
keeps them with their parameter, so a later read at the same n or area is a lookup; a
pass whose bounds nobody reads does no bound work.  ``_sweep`` yields a pass's rows while
the record still holds it, so a caller that reads their bounds as they come evaluates p
once per pass.  Every evaluated pass replaces the record, so it holds at most one pass,
and none of more than _PASS_NODES nodes.  The exponent's eval must therefore be a
function of its argument alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np

from .quadrature import _DEFAULT_CONFIG, NonFiniteIntegrand, QuadratureConfig, simpson_rows
from .rootfind import (
    BisectionConfig,
    BracketFailure,
    _row_parts,
    _row_total,
    _solve_row,
    exp_or_inf,
    positive_normal,
    solve_multiplier,
)

__all__ = ["ExtremalSolution", "SweepRow", "modulus_sweep"]


@dataclass(frozen=True)
class ExtremalSolution:
    """Solved variational problem.

    lam is the Lagrange multiplier of the unit-integral constraint, density
    the pointwise minimizer (accepts scalars or arrays of points of the solved
    interval, [r1, r2] in r on the ring and [0, L] on the cylinder, up to a slack
    of 1e-12 relative to the point; any other point is a ValueError), residual the
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


@np.errstate(all="ignore")
def _density_at(peval: Callable, log_c: float, k: int, interval: tuple, ell: float, x
                ) -> np.ndarray:
    """(lam / (p c x^k))^(1/(p-1)) at x for lam = e^ell, in logs: no power overflows.  A
    point outside interval, the solve's, beyond the slack of ``exponent._covers``, or a
    NaN point, is a ValueError naming the first such point."""
    lo, hi = interval
    at = np.asarray(x)
    slack = 1e-12 * np.abs(at)
    inside = (lo <= at + slack) & (hi >= at - slack)
    if not inside.all():
        bad = float(at.flat[int(np.argmin(inside))])
        raise ValueError(f"the density is defined on [{lo}, {hi}], not at {bad!r}")
    p = peval(x)
    t = ell - np.log(p) - log_c
    if k:
        t = t - k * np.log(x)
    return np.exp(t / (p - 1.0))


def _log_terms(p: np.ndarray, log_w, log_j) -> tuple[np.ndarray, np.ndarray]:
    """inv = 1/(p - 1) and base = log J - inv log(p w) at nodes, for a caller that ignores
    numpy's floating-point errors; log w and log J may be arrays, scalars or None for a
    zero, which costs no array operation."""
    inv = 1.0 / (p - 1.0)
    base = np.log(p)
    if log_w is not None:
        base += log_w
    base *= inv
    if log_j is None:
        return inv, np.negative(base, out=base)
    return inv, np.subtract(log_j, base, out=base)


def _weight_rows(counts: list, inv: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The five Simpson weight rows of grids of counts subintervals joined end to end, for
    terms in [0, 1]: (h, h inv) for N and N', then 2h for the normalization and
    (h, 2h) / p for the modulus."""
    weights = simpson_rows(*counts).take((0, 0, 1, 0, 1), axis=0)
    weights[1] *= inv
    weights[3:] /= p
    return weights


def _bad_node(p: float, u: float) -> str:
    return f"the exponent is {p!r} at quadrature node {u!r}, not a finite value above 1"


def _row_numbers(sums: list, ell: float, m: float, residual: float, iters: int, width: float,
                 div: float, area: float) -> tuple:
    """A solved row as (lam, modulus, residual, quadrature_error, iters, log lam, quadrature
    step), from the five sums of its weight rows with its last terms at scale m: its
    normalization and modulus integrals at steps h and 2h.  The modulus is scaled by
    area; BracketFailure where lam or the modulus is not a positive normal float."""
    n_h, _, n_2h, e_h, e_2h = sums
    lam = positive_normal("multiplier", exp_or_inf(ell))
    modulus = positive_normal("modulus", area * positive_normal(
        "modulus", lam * exp_or_inf(m) * (width * e_h / div)))
    error = max(abs(n_h - n_2h) / (15.0 * n_h), abs(e_h - e_2h) / (15.0 * e_h))
    # The step is width / n for div = 3n.
    return lam, modulus, residual, error, iters, ell, width / (div / 3.0)


class _WeightedCore:
    """A pass of rows, each the minimization of the integral of w rho^p given
    integral rho = 1 on Simpson nodes u of an integration variable with Jacobian J.

    Per node it keeps inv = 1/(p - 1) and base = log J - inv log(p w), so that
    at lam = e^l the candidate density times J is exp(l inv + base); by the
    stationarity condition w rho^p = lam rho / p, the modulus is lam times the
    integral of rho J / p.  ``build`` makes the pass from the joined nodes of
    several grids, one row each, checked once: a row with a bad node fails, and
    only that row.  Per node it also keeps the five Simpson weight rows, joined
    over the rows: the lockstep kernel ``rootfind.solve_multiplier`` steps all rows
    on (h, h inv), and then one ``dot`` of a row's five weight rows with its last
    terms gives it both integrals at both steps, so its modulus and error estimate.
    ``solve`` gives each row as plain numbers, its modulus times ``area`` (the
    cylinder's cross-section), and a row that fails as its exception class and
    message, leaving the others as they are.  A single solve does not build a pass:
    ``_solve`` takes its one row straight through ``_solve_row``, by the same
    operations, so a row's numbers are the same in a pass as alone.
    """

    def __init__(self, starts: np.ndarray, spans: list, inv: np.ndarray, base: np.ndarray,
                 weights: np.ndarray, failures: list, area: float) -> None:
        self.starts, self.spans, self.inv, self.base = starts, spans, inv, base
        self.weights, self.failures, self.area = weights, failures, area

    @classmethod
    @np.errstate(all="ignore")
    def build(cls, grids: list, p: np.ndarray, log_w, log_j, area: float = 1.0
              ) -> _WeightedCore:
        """The pass over the Simpson grids in ``grids``, given p, log w and log J at their
        joined nodes (as ``_log_terms`` takes them), checked once.  A row with a node
        where p is not a finite value above 1 fails alone, with NonFiniteIntegrand naming
        its own first such node; its nodes get the stand-in inv = 1 and base = 0, so the
        kernel solves it on finite numbers, and its result is discarded.  One loop over
        the grids gives the rows' starts, spans and subinterval counts."""
        inv, base = _log_terms(p, log_w, log_j)
        counts, starts, spans, end = [], [], [], 0
        for u in grids:
            counts.append(u.size - 1)
            starts.append(end)
            spans.append((float(u[-1]) - float(u[0]), 3.0 * counts[-1]))
            end += u.size
        starts = np.array(starts)
        failures = [None] * len(grids)
        if not (math.isfinite(base.sum()) and inv.min() > 0.0):  # look for bad nodes
            bad = np.flatnonzero(~(np.isfinite(base) & (inv > 0.0)))
            rows, first = np.unique(starts.searchsorted(bad, "right") - 1, return_index=True)
            for r, i in zip(rows.tolist(), bad[first].tolist()):
                a, u = int(starts[r]), grids[r]
                failures[r] = NonFiniteIntegrand, _bad_node(float(p[i]), float(u[i - a]))
                inv[a:a + u.size], base[a:a + u.size] = 1.0, 0.0
        return cls(starts, spans, inv, base, _weight_rows(counts, inv, p), failures, area)

    def solve(self, bis: BisectionConfig | None) -> list:
        """Per row, the tuple of ``_row_numbers``, or its failure as the pair (exception
        class, message)."""
        sol = solve_multiplier(self.inv, self.base, self.weights[:2], self.starts, self.spans,
                               bis)
        out = []
        for r, (w, t, width, div) in enumerate(_row_parts(self.weights, sol.terms, self.starts,
                                                          self.spans)):
            failure = self.failures[r] or sol.error[r]
            if failure:
                out.append(failure)
                continue
            try:
                out.append(_row_numbers(w.dot(t).tolist(), sol.log_lam[r], sol.scale[r],
                                        sol.residual[r], sol.iters[r], width, div, self.area))
            except BracketFailure as exc:
                out.append((BracketFailure, str(exc)))
        return out


@np.errstate(all="ignore")
def _build_row(grid: np.ndarray, p: np.ndarray, log_w, log_j) -> tuple:
    """One row's (inv, base, five weight rows, (width, div)), as ``_WeightedCore.build``
    builds a row of a pass, or NonFiniteIntegrand naming its first bad node."""
    inv, base = _log_terms(p, log_w, log_j)
    if not (math.isfinite(base.sum()) and inv.min() > 0.0):
        i = int(np.flatnonzero(~(np.isfinite(base) & (inv > 0.0)))[0])
        raise NonFiniteIntegrand(_bad_node(float(p[i]), float(grid[i])))
    n = grid.size - 1
    return inv, base, _weight_rows([n], inv, p), (float(grid[-1]) - float(grid[0]), 3.0 * n)


def _solve_built(row: tuple, area: float, bis: BisectionConfig | None) -> tuple:
    """The tuple of ``_row_numbers`` of a row from ``_build_row``, solved by the one-row
    loop; its failure is raised."""
    inv, base, weights, (width, div) = row
    ell, residual, iters, m, terms = _solve_row(inv, base, weights[:2], width, div, bis)
    return _row_numbers(weights.dot(terms).tolist(), ell, m, residual, iters, width, div, area)


def _own_row(prob, quad: QuadratureConfig | None) -> tuple:
    """prob's own row from ``_build_row``, on read-only views of its pass's values, with
    its area and its density at (log lam, x)."""
    (_, _, _, _, log_r, p, _), (grid, a, b, _) = _row_pass(prob, quad)
    log_w, log_j, area, density = prob._integrand(log_r if log_r is None else log_r[a:b])
    return _build_row(grid, p[a:b], log_w, log_j), area, density


def _solve(prob, quad: QuadratureConfig | None, bis: BisectionConfig | None
           ) -> ExtremalSolution:
    """The ExtremalSolution of prob, a ring or a cylinder, by the one-row loop."""
    row, area, density = _own_row(prob, quad)
    lam, modulus, residual, error, iters, ell, step = _solve_built(row, area, bis)
    # The density holds none of the node arrays.
    return ExtremalSolution(lam, modulus, partial(density, ell), residual, iters, error, step)


def _normalization(prob, lam: float, quad: QuadratureConfig | None) -> float:
    """The normalization integral of prob's row at multiplier lam; a bad node is raised
    first."""
    (inv, base, weights, (width, div)), _, _ = _own_row(prob, quad)
    if not (lam > 0 and math.isfinite(lam)):
        raise ValueError(f"lam must be positive and finite, got {lam}")
    f = _row_total(inv, base, weights[:2], width, div, math.log(lam), np.empty_like(inv))[0]
    value = exp_or_inf(f)
    if value == math.inf:
        raise NonFiniteIntegrand(f"the normalization at lam={lam} exceeds the float range")
    return value


_PASS_NODES = 65_536  # nodes of a sweep's shared pass; a larger row has a pass of its own

# The last pass whose exponent values were taken, shared by both geometries, as (key, rows,
# grids, tops, log r, p, bounds).  The key is the problem's class, the start of its
# variable (r1 on the ring), the exponent's eval, compared by identity, and the quadrature
# config, None read as the default.  grids and tops are the pass's row grids and ends in
# order; rows maps each row's end (r2 or the length) to its grid, its slice (start, stop)
# of the joined log r (None on the cylinder) and p, all read-only, and its index in the
# pass; a repeated end keeps its last row.  bounds maps a reader's ``_bound_key`` to the
# list of each row's bound or failure at that key, filled at the first bound read at it.
# ``_pass_values`` returns every pass in this shape and keeps it here unless it has more
# than _PASS_NODES nodes; ``_row_pass`` is the record's one reader.  The record is keyed
# by value, not held by a problem, because a sweep's rows are new problems.
_NO_PASS = ((None, None, None, None), {}, None, None, None, None, None)
_last_pass: tuple = _NO_PASS


def _pass_values(prob, quad: QuadratureConfig | None, grids: list, tops: list) -> tuple:
    """The pass of rows of prob's kind out to each end in tops, on their grids at quad, in
    the record's shape, its log r (None on the cylinder) and p joined from ``prob._values``
    and all read-only.  It becomes the record unless it has more than _PASS_NODES nodes;
    an exception that evaluating p raises leaves the record empty."""
    global _last_pass
    _last_pass = _NO_PASS
    u = grids[0] if len(grids) == 1 else np.concatenate(grids)
    log_r, p = prob._values(u, grids, tops)
    rows, stop = {}, 0
    for i, (g, top) in enumerate(zip(grids, tops)):
        rows[float(top)] = g, stop, stop + g.size, i
        stop += g.size
        g.setflags(write=False)
    p = p.view()  # eval's own array keeps its flags
    for x in (log_r, p):
        if x is not None:
            x.setflags(write=False)
    record = ((type(prob), prob._start, prob.p.eval, quad or _DEFAULT_CONFIG), rows, grids,
              tops, log_r, p, {})
    if u.size <= _PASS_NODES:
        _last_pass = record
    return record


def _row_pass(prob, quad: QuadratureConfig | None) -> tuple:
    """The pass that holds prob's row, and the row (grid, start, stop, index) in it: the
    record when it has prob's key and holds prob's end, else prob's own pass of one row."""
    record = _last_pass
    (kind, start, evaluate, config), rows, _, _, _, _, _ = record
    row = rows.get(float(prob._end))
    if not (row and evaluate is prob.p.eval
            and (kind, start, config) == (type(prob), prob._start, quad or _DEFAULT_CONFIG)):
        record = _pass_values(prob, quad, [prob._grid(quad)], [prob._end])
        (row,) = record[1].values()
    return record, row


def _row_bound(prob, quad: QuadratureConfig | None) -> float:
    """prob's test-density bound, from its ``_bounds`` hook.  The first read of a pass at
    prob's ``_bound_key`` computes the bounds of all of its rows in one evaluation and keeps
    them with the pass under that key; every later read at the key looks its row up.  A
    row's failure is raised as the error it names, and a bound that is not a positive
    normal float is BracketFailure, as the modulus is."""
    (_, _, grids, tops, log_r, p, bounds), row = _row_pass(prob, quad)
    at = prob._bound_key
    if at not in bounds:
        bounds[at] = prob._bounds(grids, tops, log_r, p)
    bound = bounds[at][row[3]]
    if isinstance(bound, tuple):
        kind, message = bound
        raise kind(message)
    return positive_normal("upper bound", bound)


@dataclass(frozen=True)
class SweepRow:
    """One row of ``modulus_sweep``: its swept end r2, the outer radius of a ring or the
    length of a cylinder, and its solve's numbers, or None and its error; the quadrature
    step is that of its Simpson grid, as in ``ExtremalSolution``."""

    r2: float
    lam: float | None
    modulus: float | None
    residual: float | None = None
    quadrature_error: float | None = None
    error: str | None = None
    quadrature_step: float | None = None


def modulus_sweep(
    prob,
    values: Sequence[float],
    quad: QuadratureConfig | None = None,
    bis: BisectionConfig | None = None,
) -> list[SweepRow]:
    """Re-solve prob, an ``AnnulusProblem`` or a ``CylinderProblem``, for each outer
    radius or length in values, keeping the rest of it: n, r1 and the exponent map of a
    ring, the area and the exponent map of a cylinder.

    Every row shares the template's exponent, which must be evaluable up to
    the largest requested end; the solve reads p only at its own nodes.
    Consecutive rows share one pass over their joined nodes, at most 65,536
    of them, that evaluates p and checks it once and then solves all of its
    rows in lockstep, one multiplier kernel over the rows.  A row sums only
    its own nodes, so its numbers, error and step are those of ``solve_annulus`` or
    ``solve_cylinder`` on that row; a row whose problem, grid, exponent values or solve
    fails reports its error on that row without stopping the sweep or changing its
    neighbours.  An exception that the exponent's ``eval`` itself raises is
    not a row's error: it propagates, as it does from a single solve.
    """
    return list(_sweep(prob, values, quad, bis))


def _sweep(prob, values: Sequence[float], quad: QuadratureConfig | None,
           bis: BisectionConfig | None) -> Iterator[SweepRow]:
    """The rows of ``modulus_sweep``, each pass's rows yielded as soon as that pass is
    solved, while the record still holds it: a caller that reads each row's bound as it
    comes evaluates p once per pass."""
    for part in _sweep_passes(prob, values, quad):
        tops, grids = [end for end, _ in part], [grid for _, grid in part]
        if isinstance(grids[0], tuple):  # a failed row, alone in its pass
            results = grids
        else:
            _, _, _, _, log_r, p, _ = _pass_values(prob, quad, grids, tops)
            log_w, log_j, area, _ = prob._integrand(log_r)
            results = _WeightedCore.build(grids, p, log_w, log_j, area).solve(bis)
        for end, sol in zip(tops, results):
            yield (SweepRow(end, None, None, error=f"{sol[0].__name__}: {sol[1]}")
                   if len(sol) == 2 else SweepRow(end, *sol[:4], quadrature_step=sol[6]))


def _sweep_passes(prob, values: Sequence[float], quad: QuadratureConfig | None
                  ) -> Iterator[list]:
    """The sweep's rows in order as (end, grid), in passes of at most _PASS_NODES joined
    nodes.  A larger row has a pass of its own, and so has a row whose problem or grid
    raises ValueError (IntervalTooFine included), with its failure, the pair (exception
    class, message), in place of the grid."""
    part, nodes = [], 0
    for end in map(float, values):
        try:
            grid = prob._at(end)._grid(quad)
        except ValueError as exc:
            grid = type(exc), str(exc)
        size = _PASS_NODES + 1 if isinstance(grid, tuple) else grid.size
        if part and nodes + size > _PASS_NODES:
            yield part
            part, nodes = [], 0
        part.append((end, grid))
        nodes += size
    if part:
        yield part
