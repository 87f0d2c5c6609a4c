"""Brute-force cross-checks: grid minimization and averaging experiments.

These tests deliberately avoid the analytic solvers except where the point
is to compare against them.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vexmod import (
    AnnulusProblem,
    BisectionConfig,
    CylinderProblem,
    oracle,
    parse_exponent,
    solve_annulus,
    solve_cylinder,
)
from vexmod.rootfind import solve_multiplier
from vexmod.oracle import (
    AveragingReport,
    GridDensity,
    GridDensity2D,
    NonConvergence,
    NotAdmissible,
    _project_unit_simplex,
    annulus_grid,
    cylinder_grid,
    discrete_energy,
    discrete_minimize,
    dual_lower_bound,
    fibre_average_check,
    projected_gradient_minimize,
    random_admissible_2d,
    spherical_average_check,
)

TIGHT = BisectionConfig(residual_tol=1e-12, lambda_tol=1e-14)


def test_single_cell_is_forced_by_the_constraint():
    gd = discrete_minimize(np.array([3.7]), np.array([2.5]), 0.25)
    assert gd.values.shape == (1,)
    assert gd.values[0] == pytest.approx(4.0, rel=1e-12)


def test_grid_energy_matches_ring_solver(ring_problem):
    sol = solve_annulus(ring_problem, bis=TIGHT)
    w, p, delta = annulus_grid(ring_problem, 200)
    gd = discrete_minimize(w, p, delta)
    energy = discrete_energy(gd, w, p)
    assert energy == pytest.approx(sol.modulus, rel=1e-2)


def test_grid_energy_matches_cylinder_solver(cylinder_problem):
    sol = solve_cylinder(cylinder_problem, bis=TIGHT)
    w, p, delta = cylinder_grid(cylinder_problem, 100)
    gd = discrete_minimize(w, p, delta)
    energy = discrete_energy(gd, w, p)
    assert energy == pytest.approx(sol.modulus, rel=1e-2)


def test_grid_energy_converges_at_second_order(ring_problem, cylinder_problem):
    # Midpoint cells halve the error by about 4 when the grid doubles; the
    # check only requires a factor comfortably above 1.
    sol_a = solve_annulus(ring_problem, bis=TIGHT)
    sol_c = solve_cylinder(cylinder_problem, bis=TIGHT)
    for prob, grid_fn, reference in (
        (ring_problem, annulus_grid, sol_a.modulus),
        (cylinder_problem, cylinder_grid, sol_c.modulus),
    ):
        errors = []
        for n_cells in (50, 100):
            w, p, delta = grid_fn(prob, n_cells)
            energy = discrete_energy(discrete_minimize(w, p, delta), w, p)
            errors.append(abs(energy - reference))
        assert errors[0] / errors[1] >= 1.8


def test_discrete_euler_lagrange_condition_is_constant(ring_problem):
    w, p, delta = annulus_grid(ring_problem, 128)
    gd = discrete_minimize(w, p, delta)
    stationarity = w * p * gd.values ** (p - 1.0)
    spread = stationarity.max() - stationarity.min()
    assert spread / np.median(stationarity) < 1e-8


def test_discrete_minimize_keeps_the_bits_of_the_lockstep_kernel(ring_problem,
                                                                 cylinder_problem):
    # The minimizer once solved its grid as a pass of one row of the lockstep kernel; the
    # one-row loop gives that pass's terms bit for bit.  Its end cells are frozen too.
    rings = [ring_problem, AnnulusProblem(3, 0.5, 4.0, parse_exponent("1.5+0.3*log(r)", "r",
                                                                      (0.5, 4.0)))]
    cylinders = [cylinder_problem, CylinderProblem(2.5, 3.0, parse_exponent("1.2+exp(-t)", "t",
                                                                            (0.0, 3.0)))]
    grids = [annulus_grid(rings[0], 40), cylinder_grid(cylinders[0], 40),
             annulus_grid(rings[1], 500), cylinder_grid(cylinders[1], 333)]
    ends = []
    for w, p, d in grids:
        inv = 1.0 / (p - 1.0)
        base = -inv * (np.log(p) + np.log(w))
        terms = solve_multiplier(inv, base, np.array((np.ones(w.size), inv)), [0], [(d, 1.0)],
                                 oracle._TIGHT).terms
        values = discrete_minimize(w, p, d).values
        assert values.tobytes() == (terms / (terms.sum() * d)).tobytes()
        ends.append((float(values[0]), float(values[-1])))
    assert ends == [(1.6134765454908613, 0.7449697636929888),
                    (1.196804544174842, 0.8983015226573245),
                    (11.522498983883668, 0.01548223479465601),
                    (0.46577471879701743, 0.2464451437913931)]


def test_discrete_minimize_agrees_with_slsqp(ring_problem):
    pytest.importorskip("scipy")
    from scipy.optimize import minimize

    w, p, delta = annulus_grid(ring_problem, 40)
    gd = discrete_minimize(w, p, delta)
    energy = discrete_energy(gd, w, p)

    def objective(v):
        return float((w * np.abs(v) ** p).sum() * delta)

    def gradient(v):
        return w * p * np.abs(v) ** (p - 1.0) * delta

    start = np.full(w.size, 1.0 / (w.size * delta))
    result = minimize(
        objective,
        start,
        jac=gradient,
        method="SLSQP",
        bounds=[(0.0, None)] * w.size,
        constraints=[{
            "type": "eq",
            "fun": lambda v: v.sum() * delta - 1.0,
            "jac": lambda v: np.full(w.size, delta),
        }],
        options={"ftol": 1e-14, "maxiter": 1000},
    )
    assert result.success
    assert result.fun == pytest.approx(energy, rel=1e-6)


def test_grid_density_validation():
    with pytest.raises(ValueError):
        GridDensity(np.array([1.0, -1.0]), 0.5)
    with pytest.raises(ValueError):
        GridDensity(np.array([1.0, 2.0]), 0.5)  # integral 1.5, not 1
    with pytest.raises(ValueError):
        GridDensity(np.ones((2, 2)), 0.25)
    with pytest.raises(ValueError):
        GridDensity(np.array([2.0, 2.0]), 0.0)


def test_energy_takes_one_valid_weight_and_exponent_per_cell():
    density = GridDensity(np.full(4, 1.0), 0.25)
    assert discrete_energy(density, np.ones(4), np.full(4, 2.0)) == 1.0
    for weights, exponents in (([1.0], [2.0]), ([1.0], np.full(4, 2.0)),
                               (np.ones(4), [2.0]), (np.ones(5), np.full(5, 2.0))):
        with pytest.raises(ValueError):  # no silent broadcast of one value to every cell
            discrete_energy(density, weights, exponents)
    for weights, exponents in ((np.array([1.0, 1.0, -0.5, 1.0]), np.full(4, 2.0)),
                               (np.ones(4), np.array([2.0, 2.0, 1.0, 2.0])),
                               (np.ones(4), np.array([2.0, math.nan, 2.0, 2.0]))):
        with pytest.raises(ValueError):
            discrete_energy(density, weights, exponents)


def test_grid_density_2d_needs_finite_positive_widths():
    values, centers = np.ones((2, 3)), np.array([0.25, 0.75])
    for widths in ((math.nan, 1.0), (0.5, math.nan), (math.inf, 1.0), (0.5, math.inf),
                   (0.0, 1.0), (0.5, -1.0)):
        with pytest.raises(ValueError, match="cell widths must be positive and finite"):
            GridDensity2D(values, centers, *widths)


def test_grid_density_2d_needs_a_nonempty_grid():
    for shape in ((0, 3), (2, 0), (0, 0)):
        with pytest.raises(ValueError, match="values must be a nonempty 2-D array"):
            GridDensity2D(np.ones(shape), np.full(shape[0], 0.5), 0.5, 1.0)
    with pytest.raises(ValueError, match="values must be a nonempty 2-D array"):
        random_admissible_2d(np.array([]), 0.5, 3, 1.0, np.random.default_rng(0))


@pytest.mark.parametrize("n_transverse", [0, -1, 2.5, "4"])
def test_random_densities_need_a_positive_integer_column_count(n_transverse):
    centers, rng = np.array([0.25, 0.75]), np.random.default_rng(0)
    with pytest.raises(ValueError, match="n_transverse must be an integer of at least 1"):
        random_admissible_2d(centers, 0.5, n_transverse, 1.0, rng)


def test_minimize_input_validation():
    with pytest.raises(ValueError):
        discrete_minimize(np.array([1.0, -2.0]), np.array([2.0, 2.0]), 0.5)
    with pytest.raises(ValueError):
        discrete_minimize(np.array([1.0, 2.0]), np.array([2.0, 1.0]), 0.5)
    with pytest.raises(ValueError):
        discrete_minimize(np.array([1.0, 2.0]), np.array([2.0]), 0.5)


def test_dual_bound_lies_below_every_feasible_energy():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n_cells = int(rng.integers(1, 40))
        delta = float(rng.uniform(0.01, 1.0))
        w = rng.uniform(0.1, 10.0, n_cells)
        p = rng.uniform(1.1, 4.0, n_cells)
        v = rng.exponential(1.0, n_cells)
        density = GridDensity(v / (v.sum() * delta), delta)
        energy = discrete_energy(density, w, p)
        for mu in (1e-3, 0.5, 1.0, 10.0, 1e4):
            assert dual_lower_bound(w, p, delta, mu) <= energy * (1.0 + 1e-12)


def test_dual_bound_equals_the_energy_at_the_optimal_multiplier():
    # Constant w and p: the uniform density is optimal, with mu = w p v^(p-1).
    w, p, delta, n_cells = 3.0, 2.5, 0.05, 20
    v = 1.0 / (n_cells * delta)
    weights, exponents = np.full(n_cells, w), np.full(n_cells, p)
    energy = discrete_energy(GridDensity(np.full(n_cells, v), delta), weights, exponents)
    bound = dual_lower_bound(weights, exponents, delta, w * p * v ** (p - 1.0))
    assert bound == pytest.approx(energy, rel=1e-14)


@pytest.mark.parametrize("p_text", ["1.2", "1.0001"])
def test_duality_gap_vanishes_on_rings_with_exponents_near_one(p_text):
    ring = AnnulusProblem(2, 1.0, 2.0, parse_exponent(p_text, "r", (1.0, 2.0)))
    w, p, delta = annulus_grid(ring, 200)
    gd = discrete_minimize(w, p, delta)
    energy = discrete_energy(gd, w, p)
    # The largest multiplier value: most cells underflow to 0 at p = 1.0001.
    mu = float((w * p * gd.values ** (p - 1.0)).max())
    assert abs(energy - dual_lower_bound(w, p, delta, mu)) <= 1e-12 * energy


def test_dual_bound_rejects_a_bad_multiplier():
    w, p = np.array([1.0, 2.0]), np.array([2.0, 3.0])
    for mu in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            dual_lower_bound(w, p, 0.5, mu)
    with pytest.raises(ValueError):
        dual_lower_bound(w, np.array([2.0, 1.0]), 0.5, 1.0)


def test_dual_bound_overflow_is_minus_infinity():
    assert dual_lower_bound(np.array([1.0]), np.array([1.0001]), 1.0, 1e300) == -math.inf


def test_projected_gradient_solves_the_symmetric_problem():
    w = np.full(20, 3.0)
    p = np.full(20, 2.5)
    gd = projected_gradient_minimize(w, p, 0.05)
    assert np.allclose(gd.values, 1.0, rtol=1e-9)


def test_projected_gradient_matches_stationarity_solution(cylinder_problem):
    w, p, delta = cylinder_grid(cylinder_problem, 50)
    reference = discrete_energy(discrete_minimize(w, p, delta), w, p)
    pg = projected_gradient_minimize(w, p, delta, iters=10_000)
    assert discrete_energy(pg, w, p) == pytest.approx(reference, rel=1e-3)


def test_projected_gradient_energy_never_increases_with_more_steps(ring_problem):
    w, p, delta = annulus_grid(ring_problem, 30)
    energies = [
        discrete_energy(projected_gradient_minimize(w, p, delta, iters=iters), w, p)
        for iters in (1, 2, 3, 5, 10)
    ]
    assert all(a >= b - 1e-12 for a, b in zip(energies, energies[1:]))


@pytest.mark.parametrize("seed", [None, 8])
def test_projected_gradient_steps_never_raise_the_energy(monkeypatch, seed):
    # A full Newton step from the uniform start raises the energy of the
    # two-cell problem 9-fold, and one step of the 50-cell one 3-fold; the
    # halving takes them back.
    if seed is None:
        w, p, delta = np.array([1e-3, 1.0]), np.array([1.5, 20.0]), 1.0
    else:
        rng = np.random.default_rng(seed)
        w, p, delta = 10.0 ** rng.uniform(-3.0, 3.0, 50), rng.uniform(1.01, 20.0, 50), 0.1
    iterates = []

    def recorded(y, s):  # y is (p-2)/(p-1) times the iterate
        iterates.append(y * (p - 1.0) / (p - 2.0))
        return _project_unit_simplex(y, s)

    monkeypatch.setattr(oracle, "_project_unit_simplex", recorded)
    final = projected_gradient_minimize(w, p, delta)
    energies = [discrete_energy(GridDensity(u / delta, delta), w, p) for u in iterates]
    energies.append(discrete_energy(final, w, p))
    assert all(b <= a * (1.0 + 1e-13) for a, b in zip(energies, energies[1:]))


def test_projected_gradient_rejects_a_tiny_iteration_budget():
    # One step from the uniform start cannot reach the 0.1% band on a ring
    # whose minimizer spans thirteen decades.
    w, p, delta = _panel_grid("annulus", "1.2", 2.0, 200, n=10)
    with pytest.raises(NonConvergence):
        projected_gradient_minimize(w, p, delta, iters=1)


@pytest.mark.filterwarnings("error")
def test_projected_gradient_reports_nonconvergence(monkeypatch):
    # A projection that fails gives NaN targets and so a NaN energy.
    monkeypatch.setattr(oracle, "_project_unit_simplex", lambda y, s: np.full(y.size, math.nan))
    w = np.array([1.0, 2.0, 3.0, 4.0])
    p = np.array([2.0, 2.2, 2.4, 2.6])
    with pytest.raises(NonConvergence, match="NaN energy"):
        projected_gradient_minimize(w, p, 0.25)


@pytest.mark.filterwarnings("error")
def test_projected_gradient_rejects_bad_budgets(ring_problem):
    w, p, delta = annulus_grid(ring_problem, 30)
    for iters in (0, -3, 2.5, "5"):
        with pytest.raises(ValueError, match="iters must be an integer of at least 1"):
            projected_gradient_minimize(w, p, delta, iters=iters)
    with pytest.raises(TypeError):  # a Newton step has no step size to set
        projected_gradient_minimize(w, p, delta, step=0.1)


def _sorted_projection(y, s):
    """The sort-based projection onto the unit simplex in the metric sum((u - y)^2 / s),
    kept as the reference: breakpoints y_i/s_i, largest first."""
    order = np.argsort(-(y / s), kind="stable")
    ys, ss = y[order], s[order]
    theta = (np.cumsum(ys) - 1.0) / np.cumsum(ss)
    k = np.nonzero(ys > theta * ss)[0][-1]
    u = np.maximum(y - theta[k] * s, 0.0)
    return u / u.sum()


@st.composite
def _simplex_inputs(draw):
    kind = draw(st.sampled_from(["floats", "spread", "ties", "equal", "negative", "near", "simplex"]))
    if kind == "floats":
        return np.array(draw(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40)))
    n = draw(st.integers(1, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.floats(1e-3, 1e6))
    if kind == "spread":
        return rng.uniform(-scale, scale, n)
    if kind == "ties":
        return rng.choice(rng.uniform(-scale, scale, 3), n)
    if kind == "equal":
        return np.full(n, draw(st.floats(-1e6, 1e6)))
    if kind == "negative":
        return -rng.uniform(0.0, scale, n)
    if kind == "near":  # many entries above the threshold, far from 0
        return draw(st.floats(-1e6, 1e6)) + rng.uniform(0.0, draw(st.floats(0.0, 3.0)), n)
    return rng.dirichlet(np.ones(n))


@st.composite
def _weighted_simplex_inputs(draw):
    y = draw(_simplex_inputs())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["ones", "uniform", "wide", "two"]))
    if kind == "ones":
        s = np.ones(y.size)
    elif kind == "uniform":
        s = rng.uniform(1e-3, 1.0, y.size)
    elif kind == "wide":  # per-cell steps spread over six decades
        s = 10.0 ** rng.uniform(-6.0, 0.0, y.size)
    else:
        s = rng.choice([1.0, draw(st.floats(1e-6, 1.0))], y.size)
    return y, s


@settings(max_examples=300, deadline=None)
@given(ys=_weighted_simplex_inputs())
def test_sort_free_projection_matches_the_sorted_one(ys):
    y, s = ys
    u = _project_unit_simplex(y, s)
    assert u.min() >= 0.0
    assert abs(u.sum() - 1.0) <= 1e-12
    # 1e-12 absolute for entries up to 1 in size; beyond that the threshold
    # itself is only resolved to an ulp of the entries (1.2e-10 near 1e6),
    # and the two methods sum in different orders.
    atol = 1e-12 * max(1.0, float(np.abs(y).max()))
    np.testing.assert_allclose(u, _sorted_projection(y, s), rtol=0.0, atol=atol)


def _sorted_projected_newton(w, p, cell_width, iters):
    """The projected Newton loop with the sort and two powers per energy
    evaluation, kept as the reference, with the same certified stop.

    Returns the density and the number of steps taken.
    """
    n = w.size
    rounding = n * np.finfo(float).eps

    def energy(u_vec):
        return float((w * (u_vec / cell_width) ** p).sum() * cell_width)

    u = np.full(n, 1.0 / n)
    e = energy(u)
    for taken in range(1, iters + 1):
        grad = w * p * (u / cell_width) ** (p - 1.0)
        curvature = w * p * (p - 1.0) * (u / cell_width) ** (p - 2.0) / cell_width
        z = _sorted_projection(u - grad / curvature, 1.0 / curvature)
        shrinks = z < u
        t = float(np.min(u[shrinks] / (2.0 * (u - z)[shrinks]), initial=1.0))
        trial = u + t * (z - u)
        while energy(trial) - e > rounding * e:
            t *= 0.5
            trial = u + t * (z - u)
        e_trial = energy(trial)
        slow = e - e_trial < 1e-6 * e_trial  # the gap is checked on stalled steps only
        u, e = trial, e_trial
        if slow and _certified_gap(w, p, cell_width, u / cell_width) <= 0.0:
            break
    return u / cell_width, taken


def _certified_gap(w, p, cell_width, v):
    """The energy e of v minus the dual bound at its multiplier estimate
    mu = sum(u w p v^(p-1)), u = v d, less the stop's rounding 64 eps (e + mu)."""
    e = float((w * v**p).sum() * cell_width)
    mu = float((v * cell_width * w * p * v ** (p - 1.0)).sum())
    return e - dual_lower_bound(w, p, cell_width, mu) - 64.0 * np.finfo(float).eps * (e + mu)


def _panel_grid(geometry, p_text, length, cells, n=2):
    if geometry == "annulus":
        prob = AnnulusProblem(n, 1.0, length, parse_exponent(p_text, "r", (1.0, length)))
        return annulus_grid(prob, cells)
    prob = CylinderProblem(1.0, length, parse_exponent(p_text, "t", (0.0, length)))
    return cylinder_grid(prob, cells)


@pytest.mark.parametrize(
    "geometry, p_text, length, cells, iters",
    [("annulus", "1+r", 4.0, 1100, 700), ("cylinder", "2+t", 1.0, 1550, 200),
     ("cylinder", "1.1+t", 1.0, 200, 700)],
)
def test_projected_gradient_iterates_match_the_sorted_loop(
    monkeypatch, geometry, p_text, length, cells, iters
):
    w, p, delta = _panel_grid(geometry, p_text, length, cells)
    expected, taken = _sorted_projected_newton(w, p, delta, iters)
    calls = _counting_projections(monkeypatch)
    got = projected_gradient_minimize(w, p, delta, iters=iters).values
    assert len(calls) == taken < iters  # both stopped on a certified gap
    np.testing.assert_array_equal(got > 0, expected > 0)
    np.testing.assert_allclose(got, expected, rtol=1e-10, atol=0.0)


def _counting_projections(monkeypatch):
    calls = []

    def counted(y, s):
        calls.append(None)
        return _project_unit_simplex(y, s)

    monkeypatch.setattr(oracle, "_project_unit_simplex", counted)
    return calls


# The benchmark's oracle panel (2 to 5 Newton steps each to a certified gap;
# its p < 2 shapes once raised NonConvergence), then rings whose minimizer
# spans many decades (the first from 1.3e-12 to 39): cells that may lose at
# most half their value per step take 18 to 38 steps there.
_CONVERGENCE_SHAPES = [
    ("annulus", "1.2", 2.0, 200, 2, 5), ("cylinder", "1.1+t", 1.0, 200, 2, 5),
    ("cylinder", "1.1+t", 1.0, 650, 2, 5), ("cylinder", "2+t/10", 1.0, 200, 2, 5),
    ("cylinder", "1.5+log(1+t)", 2.0, 650, 2, 5), ("annulus", "2+exp(-r)", 3.0, 2000, 2, 5),
    ("cylinder", "2+t", 1.0, 1550, 2, 5), ("annulus", "1+r", 4.0, 1100, 2, 5),
    ("annulus", "1+r", 4.0, 2000, 2, 5), ("annulus", "1.2", 2.0, 200, 10, 60),
    ("annulus", "1.05", 2.0, 200, 2, 60), ("annulus", "1.3", 3.0, 200, 5, 60),
]


@pytest.mark.parametrize(
    "geometry, p_text, length, cells, n, max_steps",
    _CONVERGENCE_SHAPES,
    ids=[f"{g}-{p}-{length}-{c}" + (f"-n{n}" if steps > 15 else "")
         for g, p, length, c, n, steps in _CONVERGENCE_SHAPES],
)
def test_projected_gradient_converges_below_p_two(
    monkeypatch, geometry, p_text, length, cells, n, max_steps
):
    w, p, delta = _panel_grid(geometry, p_text, length, cells, n=n)
    reference = discrete_energy(discrete_minimize(w, p, delta), w, p)
    calls = _counting_projections(monkeypatch)
    got = projected_gradient_minimize(w, p, delta)
    assert len(calls) <= max_steps
    assert discrete_energy(got, w, p) == pytest.approx(reference, rel=1e-12)
    assert _certified_gap(w, p, delta, got.values) <= 0.0


def test_projected_gradient_stops_where_its_energy_alternates_at_the_rounding(monkeypatch):
    # A draw of the property below, converged by step 12.  Its energy then
    # alternates by 1.6e-15 relative, above the n eps = 1.3e-15 that a stop on
    # five stalled steps allowed, so that stop ran all 10,000 steps.
    rng = np.random.default_rng(27)
    n_cells = int(rng.integers(1, 2000))
    w = 10.0 ** rng.uniform(-3.0, 3.0, n_cells)
    p = rng.uniform(1.01, 20.0, n_cells)
    delta = 10.0 ** rng.uniform(-3.0, 0.0)
    assert n_cells == 6
    reference = discrete_energy(discrete_minimize(w, p, delta), w, p)
    calls = _counting_projections(monkeypatch)
    got = projected_gradient_minimize(w, p, delta)
    assert len(calls) <= 20
    assert discrete_energy(got, w, p) == pytest.approx(reference, rel=1e-12)


def test_projected_gradient_spends_few_energy_evaluations_on_two_cells(monkeypatch):
    # One power per energy evaluation.  A stop on five stalled steps spent 53
    # here, 38 of them halvings at rises of the energy's own rounding.
    powers = []
    power = np.power

    def counted(*args, **kwargs):
        powers.append(None)
        return power(*args, **kwargs)

    monkeypatch.setattr(np, "power", counted)
    projected_gradient_minimize(np.array([1.0, 1.0]), np.array([20.0, 10.0]), 0.5)
    assert len(powers) <= 8


def _refuse_the_stationarity_solve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("projected_gradient_minimize called discrete_minimize")

    monkeypatch.setattr(oracle, "discrete_minimize", refuse)


def test_projected_gradient_never_runs_the_stationarity_solve(monkeypatch, ring_problem):
    _refuse_the_stationarity_solve(monkeypatch)
    w, p, delta = annulus_grid(ring_problem, 30)
    projected_gradient_minimize(w, p, delta)
    w, p, delta = _panel_grid("annulus", "1.2", 2.0, 200, n=10)
    with pytest.raises(NonConvergence):  # the gap, not a second solve, decides
        projected_gradient_minimize(w, p, delta, iters=1)


def test_projected_gradient_does_not_accept_an_overflowing_dual(monkeypatch):
    # One step leaves the energy near 250 against a minimum near 1e-3, and
    # the multiplier estimate overflows the dual to -inf.
    _refuse_the_stationarity_solve(monkeypatch)
    w, p = np.array([1e-3, 1e3]), np.array([1.01, 1.01])
    with pytest.raises(NonConvergence, match="dual bound -inf"):
        projected_gradient_minimize(w, p, 0.5, iters=1)


@pytest.mark.filterwarnings("error")
@settings(max_examples=100, deadline=None)
@given(
    n_cells=st.integers(1, 2000),
    seed=st.integers(0, 2**32 - 1),
    log_width=st.floats(-3.0, 0.0),
)
def test_projected_gradient_matches_the_stationarity_solve(n_cells, seed, log_width):
    rng = np.random.default_rng(seed)
    w = 10.0 ** rng.uniform(-3.0, 3.0, n_cells)
    p = rng.uniform(1.01, 20.0, n_cells)
    delta = 10.0**log_width
    reference = discrete_energy(discrete_minimize(w, p, delta), w, p)
    got = projected_gradient_minimize(w, p, delta)
    assert discrete_energy(got, w, p) == pytest.approx(reference, rel=1e-11)


@pytest.mark.parametrize(
    "geometry, p_text, length, cells",
    [("annulus", "1+r", 4.0, 1100), ("cylinder", "2+t", 1.0, 1550)],
)
def test_projected_gradient_stall_does_not_depend_on_the_cell_order(
    monkeypatch, geometry, p_text, length, cells
):
    # A stall threshold at the rounding of the energy sum let the step count
    # swing from 2,708 to 4,895 with the summation order on the 1+r ring.
    w, p, delta = _panel_grid(geometry, p_text, length, cells)
    calls = _counting_projections(monkeypatch)
    base = projected_gradient_minimize(w, p, delta).values
    base_steps = len(calls)
    for seed in range(3):
        perm = np.random.default_rng(seed).permutation(cells)
        calls.clear()
        got = projected_gradient_minimize(w[perm], p[perm], delta).values
        assert abs(len(calls) - base_steps) <= 0.01 * base_steps
        np.testing.assert_allclose(got, base[perm], rtol=0.0, atol=1e-12)


def _polar_grid(prob, n_r=40, n_theta=64):
    delta_r = (prob.r2 - prob.r1) / n_r
    centers = prob.r1 + (np.arange(n_r) + 0.5) * delta_r
    delta_theta = 2.0 * math.pi / n_theta
    return centers, delta_r, n_theta, delta_theta


def test_spherical_average_keeps_radial_input_unchanged(ring_problem):
    centers, dr, m, dth = _polar_grid(ring_problem)
    radial = 1.0 / (centers * math.log(2.0))
    radial = radial / (radial.sum() * dr)
    rho = GridDensity2D(np.tile(radial[:, None], (1, m)), centers, dr, dth)
    report = spherical_average_check(rho, ring_problem)
    assert report.admissible_after
    assert report.energy_after == pytest.approx(report.energy_before, rel=1e-13)


def test_spherical_average_strictly_improves_angular_ripple(ring_problem):
    centers, dr, m, dth = _polar_grid(ring_problem)
    angles = (np.arange(m) + 0.5) * dth
    radial = 1.0 / (centers * math.log(2.0))
    rho = radial[:, None] * (1.0 + 0.5 * np.sin(angles))[None, :]
    # Scale so the weakest ray carries line integral exactly 1; normalizing
    # every ray separately would cancel the ripple.
    rho = rho / (rho.sum(axis=0) * dr).min()
    report = spherical_average_check(
        GridDensity2D(rho, centers, dr, dth), ring_problem
    )
    assert report.admissible_after
    assert report.energy_after < report.energy_before


def test_spherical_average_rejects_inadmissible_input(ring_problem):
    centers, dr, m, dth = _polar_grid(ring_problem)
    rho = np.full((centers.size, m), 1.0)
    rho[:, 3] = 0.01  # one starved ray
    with pytest.raises(NotAdmissible):
        spherical_average_check(GridDensity2D(rho, centers, dr, dth), ring_problem)


def test_fibre_average_keeps_uniform_input_unchanged(cylinder_problem):
    n_t, m = 40, 32
    dt = cylinder_problem.length / n_t
    dx = cylinder_problem.area / m
    centers = (np.arange(n_t) + 0.5) * dt
    column = np.full(n_t, 1.0 / cylinder_problem.length)
    rho = GridDensity2D(np.tile(column[:, None], (1, m)), centers, dt, dx)
    report = fibre_average_check(rho, cylinder_problem)
    assert report.admissible_after
    assert report.energy_after == pytest.approx(report.energy_before, rel=1e-13)


def test_fibre_average_strictly_improves_transverse_ripple(cylinder_problem):
    n_t, m = 40, 32
    dt = cylinder_problem.length / n_t
    dx = cylinder_problem.area / m
    centers = (np.arange(n_t) + 0.5) * dt
    xs = (np.arange(m) + 0.5) * dx
    profile = (2.4139 / (2.0 + centers)) ** (1.0 / (1.0 + centers))
    rho = profile[:, None] * (1.0 + 0.3 * np.cos(2.0 * math.pi * xs))[None, :]
    rho = rho / (rho.sum(axis=0) * dt).min()
    report = fibre_average_check(
        GridDensity2D(rho, centers, dt, dx), cylinder_problem
    )
    assert report.admissible_after
    assert report.energy_after < report.energy_before


def test_fibre_average_rejects_inadmissible_input(cylinder_problem):
    n_t, m = 10, 8
    dt = cylinder_problem.length / n_t
    dx = cylinder_problem.area / m
    centers = (np.arange(n_t) + 0.5) * dt
    rho = np.full((n_t, m), 1.0)
    rho[:, 0] = 0.5
    with pytest.raises(NotAdmissible):
        fibre_average_check(GridDensity2D(rho, centers, dt, dx), cylinder_problem)


def test_random_densities_average_without_energy_increase(ring_problem, cylinder_problem):
    rng = np.random.default_rng(42)
    centers, dr, m, dth = _polar_grid(ring_problem)
    for _ in range(20):
        rho = random_admissible_2d(centers, dr, m, dth, rng)
        report = spherical_average_check(rho, ring_problem)
        assert report.admissible_after
        assert report.energy_after <= report.energy_before

    n_t, m = 40, 32
    dt = cylinder_problem.length / n_t
    dx = cylinder_problem.area / m
    centers = (np.arange(n_t) + 0.5) * dt
    for _ in range(20):
        rho = random_admissible_2d(centers, dt, m, dx, rng)
        report = fibre_average_check(rho, cylinder_problem)
        assert report.admissible_after
        assert report.energy_after <= report.energy_before


@pytest.mark.parametrize("grid", [annulus_grid, cylinder_grid])
@pytest.mark.parametrize("n_cells", [0, -2, 2.5, 3.0, "4"])
def test_grids_reject_a_cell_count_that_is_not_a_positive_integer(
    ring_problem, cylinder_problem, grid, n_cells
):
    # 2.5 cells would have width 0.4 and a ring grid would run past r2.
    prob = ring_problem if grid is annulus_grid else cylinder_problem
    with pytest.raises(ValueError, match="n_cells must be an integer of at least 1"):
        grid(prob, n_cells)


def test_a_numpy_cell_count_is_named_as_a_plain_number(ring_problem):
    for n_cells, shown in ((np.int64(0), "0"), (np.float64(2.5), "2.5"), ("4", "'4'")):
        with pytest.raises(ValueError) as info:
            annulus_grid(ring_problem, n_cells)
        assert str(info.value) == f"n_cells must be an integer of at least 1, got {shown}"


def test_annulus_grid_weights_follow_the_radial_measure(ring_problem):
    w, p, delta = annulus_grid(ring_problem, 10)
    centers = ring_problem.r1 + (np.arange(10) + 0.5) * delta
    assert np.allclose(w, 2.0 * math.pi * centers)
    assert np.allclose(p, 1.0 + centers)
    assert delta == pytest.approx(0.1)


@settings(max_examples=40, deadline=None)
@given(
    n_cells=st.integers(2, 30),
    seed=st.integers(0, 10_000),
    delta=st.floats(0.01, 1.0),
)
def test_minimizer_beats_the_uniform_density(n_cells, seed, delta):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 10.0, n_cells)
    p = rng.uniform(1.5, 4.0, n_cells)
    gd = discrete_minimize(w, p, delta)
    assert gd.values.min() >= 0.0
    assert gd.values.sum() * delta == pytest.approx(1.0, abs=1e-12)
    stationarity = w * p * gd.values ** (p - 1.0)
    assert (stationarity.max() - stationarity.min()) / np.median(stationarity) < 1e-8
    uniform = GridDensity(np.full(n_cells, 1.0 / (n_cells * delta)), delta)
    assert discrete_energy(gd, w, p) <= discrete_energy(uniform, w, p) + 1e-12
