"""Ring moduli: multiplier solve, closed forms, bounds and sweep.

Reference values were computed independently with mpmath at 40-digit
precision (bisection on the exact normalization integral, then exact
quadrature of the extremal energy); they are frozen here as constants.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vexmod import (
    AnnulusProblem,
    BisectionConfig,
    QuadratureConfig,
    constant_exponent_modulus,
    log_density_upper_bound,
    modulus_sweep,
    normalization_value,
    parse_exponent,
    solve_annulus,
    unit_sphere_area,
)

REF_LAMBDA = 20.778872988263774
REF_MODULUS = 8.652192184157259
REF_UPPER_BOUND = 8.678428991685409
REF_RATIO = 1.0030323884363308

# Normalization integral of the reference ring at fixed multiplier values.
REF_NORMALIZATION = {
    1.0: 0.12149903118784478,
    2.0: 0.19357762825852136,
    3.0: 0.25525646095733784,
    3.5: 0.28379492356577508,
    3.35: 0.27536273150757441,
}

TWO_PI_OVER_LOG2 = 9.064720283654388
TWO_PI_ROOT2 = 8.885765876316732
FOUR_PI = 12.566370614359173

# Wider ring [1, 4] with the same exponent: the log test density is far
# from extremal there, so the bound overshoots by a large factor.
WIDE_MODULUS = 1.0320950943156118
WIDE_UPPER_BOUND = 1.9201441905712478


def test_unit_sphere_areas():
    assert unit_sphere_area(2) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert unit_sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert unit_sphere_area(4) == pytest.approx(2.0 * math.pi**2, rel=1e-15)
    assert unit_sphere_area(1) == pytest.approx(2.0, rel=1e-15)


def test_unit_sphere_area_validation():
    with pytest.raises(ValueError):
        unit_sphere_area(0)


def test_normalization_reference_values(ring_problem):
    for lam, value in REF_NORMALIZATION.items():
        assert normalization_value(ring_problem, lam) == pytest.approx(value, abs=1e-9)


def test_normalization_vanishes_at_small_multiplier(ring_problem):
    assert normalization_value(ring_problem, 1e-12) < 1e-3


def test_normalization_rejects_nonpositive_multiplier(ring_problem):
    with pytest.raises(ValueError):
        normalization_value(ring_problem, 0.0)


def test_normalization_strictly_increasing_over_four_decades(ring_problem):
    lams = [10.0**k for k in range(-2, 3)]
    values = [normalization_value(ring_problem, lam) for lam in lams]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_solve_reference_problem(ring_problem):
    sol = solve_annulus(ring_problem)
    assert sol.lam == pytest.approx(REF_LAMBDA, rel=1e-5)
    assert sol.modulus == pytest.approx(REF_MODULUS, rel=1e-5)
    assert sol.residual <= 1e-6
    assert 0 < sol.solver_iters <= 200


def test_solve_reference_problem_tight(ring_problem, tight_bisection):
    # Residual 1e-12 leaves quadrature bias as the dominant error term.
    sol = solve_annulus(ring_problem, bis=tight_bisection)
    assert sol.lam == pytest.approx(REF_LAMBDA, rel=1e-7)
    assert sol.modulus == pytest.approx(REF_MODULUS, rel=1e-7)


def test_exponent_is_evaluated_once_per_solve(counted_exponent, tight_bisection):
    p, calls = counted_exponent((1.0, 2.0))
    prob = AnnulusProblem(3, 1.0, 2.0, p)
    iters = set()
    for bis in (None, tight_bisection):
        calls[0] = 0
        iters.add(solve_annulus(prob, None, bis).solver_iters)
        assert calls[0] == 1
    assert len(iters) == 2


def test_normalization_holds_at_the_solution(ring_problem):
    sol = solve_annulus(ring_problem)
    assert normalization_value(ring_problem, sol.lam) == pytest.approx(1.0, abs=2e-6)


def test_solved_constant_exponent_matches_closed_form(tight_bisection):
    p = parse_exponent("2", "r", (1.0, 2.0))
    prob = AnnulusProblem(2, 1.0, 2.0, p)
    sol = solve_annulus(prob, bis=tight_bisection)
    assert sol.modulus == pytest.approx(TWO_PI_OVER_LOG2, abs=1e-6)


def test_dimension_exponent_density_is_logarithmic(tight_bisection):
    # With p identically n the known extremal density is 1/(r log(r2/r1)).
    for n in (2, 3):
        p = parse_exponent(repr(float(n)), "r", (1.0, 2.0))
        prob = AnnulusProblem(n, 1.0, 2.0, p)
        sol = solve_annulus(prob, bis=tight_bisection)
        logratio = math.log(2.0)
        for r in np.linspace(1.0, 2.0, 100):
            expected = 1.0 / (r * logratio)
            assert abs(sol.density(float(r)) - expected) / expected < 1e-8


def test_density_is_positive_and_bounded_by_endpoint_envelope(ring_problem):
    sol = solve_annulus(ring_problem)
    p = ring_problem.p
    w = unit_sphere_area(ring_problem.n)
    envelope = (sol.lam / (p.p_minus * w * ring_problem.r1)) ** (1.0 / (p.p_minus - 1.0)) + (
        sol.lam / (p.p_plus * w * ring_problem.r1)
    ) ** (1.0 / (p.p_plus - 1.0))
    for r in np.linspace(ring_problem.r1, ring_problem.r2, 1000):
        value = sol.density(float(r))
        assert 0.0 < value <= envelope


def test_euler_lagrange_identity_holds_pointwise(ring_problem):
    sol = solve_annulus(ring_problem)
    w = unit_sphere_area(ring_problem.n)
    worst = 0.0
    for r in np.linspace(ring_problem.r1, ring_problem.r2, 1000):
        pr = ring_problem.p.eval(float(r))
        lhs = pr * w * r ** (ring_problem.n - 1) * sol.density(float(r)) ** (pr - 1.0)
        worst = max(worst, abs(lhs - sol.lam) / sol.lam)
    assert worst < 1e-8


def test_closed_form_values():
    assert constant_exponent_modulus(2, 2.0, 1.0, 2.0) == pytest.approx(TWO_PI_OVER_LOG2, rel=1e-14)
    assert constant_exponent_modulus(3, 3.0, 1.0, math.e) == pytest.approx(FOUR_PI, rel=1e-14)
    assert constant_exponent_modulus(2, 1.5, 1.0, 2.0) == pytest.approx(TWO_PI_ROOT2, rel=1e-14)


def test_closed_form_is_continuous_across_the_log_branch():
    at_branch = constant_exponent_modulus(2, 2.0, 1.0, 2.0)
    near_branch = constant_exponent_modulus(2, 2.0 + 1e-6, 1.0, 2.0)
    assert near_branch == pytest.approx(at_branch, rel=1e-6)


def test_closed_form_scale_invariance_at_dimension_exponent():
    assert constant_exponent_modulus(2, 2.0, 1.0, 2.0) == constant_exponent_modulus(2, 2.0, 2.0, 4.0)
    assert constant_exponent_modulus(3, 3.0, 1.0, 2.0) == constant_exponent_modulus(3, 3.0, 2.0, 4.0)


def test_closed_form_validation():
    with pytest.raises(ValueError):
        constant_exponent_modulus(2, 1.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        constant_exponent_modulus(2, 2.0, 2.0, 1.0)


def test_upper_bound_reference_value(ring_problem):
    assert log_density_upper_bound(ring_problem) == pytest.approx(REF_UPPER_BOUND, rel=1e-8)


def test_upper_bound_strictly_dominates_for_nonconstant_exponent(ring_problem, tight_bisection):
    sol = solve_annulus(ring_problem, bis=tight_bisection)
    bound = log_density_upper_bound(ring_problem)
    assert bound > sol.modulus
    assert bound / sol.modulus == pytest.approx(REF_RATIO, rel=1e-8)


def test_upper_bound_margin_grows_with_the_ring(tight_bisection):
    p = parse_exponent("1+r", "r", (1.0, 4.0))
    prob = AnnulusProblem(2, 1.0, 4.0, p)
    sol = solve_annulus(prob, bis=tight_bisection)
    bound = log_density_upper_bound(prob)
    assert sol.modulus == pytest.approx(WIDE_MODULUS, rel=1e-7)
    assert bound == pytest.approx(WIDE_UPPER_BOUND, rel=1e-8)
    assert bound > 1.01 * sol.modulus


def test_upper_bound_is_sharp_at_dimension_exponent():
    for n in (2, 3):
        p = parse_exponent(repr(float(n)), "r", (1.0, 2.0))
        prob = AnnulusProblem(n, 1.0, 2.0, p)
        sol = solve_annulus(prob)
        bound = log_density_upper_bound(prob)
        assert bound == pytest.approx(sol.modulus, rel=1e-5)


def test_sweep_is_strictly_decreasing():
    p = parse_exponent("2", "r", (1.0, 16.0))
    template = AnnulusProblem(2, 1.0, 16.0, p)
    rows = modulus_sweep(template, [2.0, 4.0, 8.0, 16.0])
    moduli = [row.modulus for row in rows]
    assert all(row.error is None for row in rows)
    assert all(a > b for a, b in zip(moduli, moduli[1:]))


def test_sweep_blow_up_and_decay_trends():
    p = parse_exponent("2", "r", (1.0, 1e6))
    template = AnnulusProblem(2, 1.0, 1e6, p)
    rows = modulus_sweep(template, [1.0 + 1e-3, 1e6], QuadratureConfig(step_hint=1.0))
    assert rows[0].modulus > 1e3
    assert rows[1].modulus < 10 ** (-0.5) * 2.0 * math.pi


def test_sweep_reports_bad_rows_without_stopping():
    p = parse_exponent("2", "r", (1.0, 2.0))
    template = AnnulusProblem(2, 1.0, 2.0, p)
    rows = modulus_sweep(template, [0.5, 2.0])
    assert rows[0].error is not None
    assert rows[0].modulus is None
    assert rows[1].error is None
    assert rows[1].modulus == pytest.approx(TWO_PI_OVER_LOG2, rel=1e-5)


def test_sweep_rows_keep_input_order_and_carry_residuals():
    p = parse_exponent("2", "r", (1.0, 8.0))
    template = AnnulusProblem(2, 1.0, 8.0, p)
    rows = modulus_sweep(template, [8.0, 2.0])
    assert [row.r2 for row in rows] == [8.0, 2.0]
    assert all(row.residual <= 1e-6 for row in rows)


def test_problem_validation():
    p = parse_exponent("2", "r", (1.0, 2.0))
    with pytest.raises(ValueError):
        AnnulusProblem(1, 1.0, 2.0, p)
    with pytest.raises(ValueError):
        AnnulusProblem(2, 2.0, 1.0, p)
    with pytest.raises(ValueError):
        AnnulusProblem(2, 0.0, 2.0, p)
    with pytest.raises(ValueError):
        AnnulusProblem(2, 1.0, 3.0, p)  # exponent undefined past r = 2


@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from([2, 3]),
    p_const=st.floats(1.5, 4.0),
    r1=st.floats(0.5, 2.0),
    ratio=st.floats(1.5, 4.0),
)
def test_solver_agrees_with_closed_form_for_constant_exponents(n, p_const, r1, ratio):
    r2 = r1 * ratio
    p = parse_exponent(repr(p_const), "r", (r1, r2))
    prob = AnnulusProblem(n, r1, r2, p)
    sol = solve_annulus(prob)
    closed = constant_exponent_modulus(n, p_const, r1, r2)
    assert sol.modulus == pytest.approx(closed, rel=1e-3)
