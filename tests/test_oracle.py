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
    parse_exponent,
    solve_annulus,
    solve_cylinder,
)
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
        for iters in (500, 1000, 5000)
    ]
    assert all(a >= b - 1e-12 for a, b in zip(energies, energies[1:]))


def test_projected_gradient_rejects_a_tiny_iteration_budget(ring_problem):
    # One step from the uniform start cannot reach the 0.1% band.
    w, p, delta = annulus_grid(ring_problem, 30)
    with pytest.raises(NonConvergence):
        projected_gradient_minimize(w, p, delta, iters=1)


def test_projected_gradient_reports_nonconvergence():
    w = np.array([1.0, 2.0, 3.0, 4.0])
    p = np.array([2.0, 2.2, 2.4, 2.6])
    with pytest.raises(NonConvergence):
        projected_gradient_minimize(w, p, 0.25, iters=300, step=1e-30)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("step", [1e300, 1.7e308])
def test_projected_gradient_overflowing_step_is_nonconvergence(ring_problem, step):
    w, p, delta = annulus_grid(ring_problem, 30)
    with pytest.raises(NonConvergence):
        projected_gradient_minimize(w, p, delta, step=step)


@pytest.mark.filterwarnings("error")
def test_projected_gradient_rejects_bad_steps_and_budgets(ring_problem):
    w, p, delta = annulus_grid(ring_problem, 30)
    for step in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="step must be positive and finite"):
            projected_gradient_minimize(w, p, delta, step=step)
    for iters in (0, -3, 2.5, "5"):
        with pytest.raises(ValueError, match="iters must be an integer of at least 1"):
            projected_gradient_minimize(w, p, delta, iters=iters)


def _sorted_projection(y):
    """The sort-based projection onto the unit simplex, kept as the reference."""
    n = y.size
    s = np.sort(y)[::-1]
    css = np.cumsum(s)
    idx = np.nonzero(s * np.arange(1, n + 1) > (css - 1.0))[0][-1]
    theta = (css[idx] - 1.0) / (idx + 1.0)
    u = np.maximum(y - theta, 0.0)
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


@settings(max_examples=300, deadline=None)
@given(y=_simplex_inputs())
def test_sort_free_projection_matches_the_sorted_one(y):
    u = _project_unit_simplex(y)
    assert u.min() >= 0.0
    assert abs(u.sum() - 1.0) <= 1e-12
    # 1e-12 absolute for entries up to 1 in size; beyond that the threshold
    # itself is only resolved to an ulp of the entries (1.2e-10 near 1e6),
    # and the two methods sum in different orders.
    atol = 1e-12 * max(1.0, float(np.abs(y).max()))
    np.testing.assert_allclose(u, _sorted_projection(y), rtol=0.0, atol=atol)


def _sorted_projected_gradient(w, p, cell_width, iters):
    """The PGD loop with the sort and two powers per step, kept as the reference.

    Returns the density and the number of steps taken.
    """
    reference = discrete_minimize(w, p, cell_width)
    n = w.size
    u = np.full(n, 1.0 / n)
    v_env = 2.0 * max(float(reference.values.max()), 1.0 / (n * cell_width))
    curvature = w * p * (p - 1.0) * v_env ** (p - 2.0) / cell_width
    step = 0.1 / float(curvature.max())

    def energy(u_vec):
        return float((w * (u_vec / cell_width) ** p).sum() * cell_width)

    e_prev = energy(u)
    stall = 0
    for taken in range(1, iters + 1):
        grad = w * p * (u / cell_width) ** (p - 1.0)
        u = _sorted_projection(u - step * grad)
        e = energy(u)
        if e_prev - e < 1e-15 * max(1.0, abs(e)):
            stall += 1
            if stall >= 100:
                break
        else:
            stall = 0
        e_prev = e
    return u / cell_width, taken


@pytest.mark.parametrize(
    "geometry, p_text, length, cells, iters",
    [("annulus", "1+r", 4.0, 1100, 1500), ("cylinder", "2+t", 1.0, 1550, 500),
     ("cylinder", "1.1+t", 1.0, 200, 3000)],
)
def test_projected_gradient_iterates_match_the_sorted_loop(geometry, p_text, length, cells, iters):
    if geometry == "annulus":
        prob = AnnulusProblem(2, 1.0, length, parse_exponent(p_text, "r", (1.0, length)))
        w, p, delta = annulus_grid(prob, cells)
    else:
        prob = CylinderProblem(1.0, length, parse_exponent(p_text, "t", (0.0, length)))
        w, p, delta = cylinder_grid(prob, cells)
    expected, taken = _sorted_projected_gradient(w, p, delta, iters)
    assert taken == iters  # the stall rule has not fired
    got = projected_gradient_minimize(w, p, delta, iters=iters).values
    np.testing.assert_array_equal(got > 0, expected > 0)
    np.testing.assert_allclose(got, expected, rtol=1e-10, atol=0.0)


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


def test_rescaling_a_super_admissible_density_lowers_energy(ring_problem):
    w, p, delta = annulus_grid(ring_problem, 64)
    scale = 1.3
    inflated = np.full(w.size, scale / (w.size * delta))
    energy_inflated = float((w * inflated**p).sum() * delta)
    energy_scaled = float((w * (inflated / scale) ** p).sum() * delta)
    assert energy_scaled < energy_inflated


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
