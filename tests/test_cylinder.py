"""Cylinder moduli: axial solve, constant-density bound, extremality gap.

Frozen reference values come from an independent 40-digit mpmath run.
"""

import dataclasses
import math
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vexmod import (
    BisectionConfig,
    BracketFailure,
    CylinderProblem,
    ExponentRangeError,
    IntervalTooFine,
    NonFiniteIntegrand,
    QuadratureConfig,
    constant_density_upper_bound,
    cylinder_normalization_value,
    parse_exponent,
    solve_cylinder,
    subinterval_count,
)

REF_LAMBDA = 2.4139190536713134
REF_MODULUS = 0.9883254219265588
REF_GAP = 0.011674578073441231

REF_NORMALIZATION = {
    1.0: 0.5414899591782866,
    1.3: 0.6489473870378759,
    1.5: 0.7166986304412698,
    1.532: 0.727299251292322,
}

# Same unit cylinder with the ten times shallower exponent 2 + t/10.
SHALLOW_GAP = 0.00019375052032264421


def _cylinder(p_text: str, area: float = 1.0, length: float = 1.0) -> CylinderProblem:
    return CylinderProblem(area, length, parse_exponent(p_text, "t", (0.0, length)))


_TIGHT = BisectionConfig(residual_tol=1e-13, lambda_tol=1e-15)


@settings(max_examples=50, deadline=None)
@given(
    family=st.sampled_from(["{a}", "{a}+{b}*t", "{a}+{b}*exp(-t)", "{a}+{b}*log(1+t)"]),
    a=st.floats(1.2, 4.0),
    b=st.floats(0.0, 1.0),
    area=st.floats(0.5, 2.0),
    length=st.floats(0.5, 2.0),
    c=st.floats(0.25, 4.0),
)
@example(family="{a}+{b}*t", a=2.0, b=1.0, area=1.0, length=1.0, c=3.0)  # 0.195612
def test_a_scaled_cylinder_scales_the_modulus_between_the_ends_of_c_to_the_one_minus_p(
        family, a, b, area, length, c):
    # The scaling t -> c t takes the cylinder of length L onto that of length c L, and a
    # density rho with p onto rho(t / c) / c with p~(t) = p(t / c), multiplying the energy
    # density by c^(1 - p(t)).  So the modulus M~ of the scaled cylinder lies between the
    # least and the largest of c^(1 - p) times M, taken at p_minus and p_plus, which are
    # exact for these monotone families.  The scaled cylinder is solved at c times the step
    # hint, so that the two Simpson grids correspond.  Each side is widened by both tight
    # solves' residual and quadrature error, plus 1e-12.
    text = family.format(a=a, b=b)
    p = parse_exponent(text, "t", (0.0, length))
    scaled_p = parse_exponent(re.sub(r"\bt\b", f"(t/{c!r})", text), "t", (0.0, c * length))
    sol = solve_cylinder(CylinderProblem(area, length, p), bis=_TIGHT)
    quad = QuadratureConfig(QuadratureConfig.step_hint * c)
    scaled = solve_cylinder(CylinderProblem(area, c * length, scaled_p), quad, _TIGHT)
    factors = [c ** (1.0 - p.p_minus), c ** (1.0 - p.p_plus)]
    slack = (sol.residual + sol.quadrature_error + scaled.residual + scaled.quadrature_error
             + 1e-12)
    assert (min(factors) * sol.modulus * (1.0 - slack) <= scaled.modulus
            <= max(factors) * sol.modulus * (1.0 + slack))


def test_normalization_reference_values(cylinder_problem):
    for lam, value in REF_NORMALIZATION.items():
        assert cylinder_normalization_value(cylinder_problem, lam) == pytest.approx(value, abs=1e-9)


def test_normalization_is_exact_for_matching_constant_exponent():
    prob = _cylinder("2")
    assert cylinder_normalization_value(prob, 2.0) == 1.0


def test_normalization_strictly_increasing_over_four_decades(cylinder_problem):
    lams = [10.0**k for k in range(-2, 3)]
    values = [cylinder_normalization_value(cylinder_problem, lam) for lam in lams]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_normalization_whose_simpson_total_overflows_is_finite():
    # Every node value is finite and so is the integral, but the unweighted
    # Simpson total exceeds the float range; 40-digit mpmath gives the value.
    prob = CylinderProblem(0.394572, 0.0872822, parse_exponent("1.00275", "t", (0.0, 0.0872822)))
    assert cylinder_normalization_value(prob, 7.0) == pytest.approx(6.540417198125673e305, rel=1e-9)


def test_normalization_beyond_the_float_range_is_reported():
    with pytest.raises(NonFiniteIntegrand, match=r"at lam=1e\+300 exceeds the float range"):
        cylinder_normalization_value(_cylinder("1.01"), 1e300)


def test_solve_with_exponent_near_one():
    # Bracket expansion evaluates the normalization at lam = 2, about 5e306.
    sol = solve_cylinder(CylinderProblem(1.0, 1.0, parse_exponent("1.00098", "t", (0.0, 1.0))))
    assert sol.lam == pytest.approx(1.00098, rel=1e-6)
    assert sol.residual <= 1e-6


def test_solve_reference_problem(cylinder_problem):
    sol = solve_cylinder(cylinder_problem)
    assert sol.lam == pytest.approx(REF_LAMBDA, rel=1e-5)
    assert sol.modulus == pytest.approx(REF_MODULUS, rel=1e-5)
    assert sol.residual <= 1e-6


@pytest.mark.parametrize("step_hint", [1e-2, 3.7e-3])
def test_solution_reports_its_quadrature_step(step_hint):
    quad = QuadratureConfig(step_hint=step_hint)
    sol = solve_cylinder(_cylinder("2+t", area=2.0, length=2.3), quad)
    assert sol.quadrature_step == 2.3 / subinterval_count(0.0, 2.3, quad)


def test_solve_reference_problem_tight(cylinder_problem, tight_bisection):
    sol = solve_cylinder(cylinder_problem, bis=tight_bisection)
    assert sol.lam == pytest.approx(REF_LAMBDA, rel=1e-8)
    assert sol.modulus == pytest.approx(REF_MODULUS, rel=1e-8)


def test_quadrature_error_covers_the_reference_error(cylinder_problem, tight_bisection):
    sol = solve_cylinder(cylinder_problem, bis=tight_bisection)
    assert abs(sol.modulus - REF_MODULUS) <= sol.quadrature_error * REF_MODULUS
    assert solve_cylinder(_cylinder("2")).quadrature_error == 0.0


def test_exponent_is_evaluated_once_per_problem(counted_exponent, tight_bisection):
    # Two solves, a bound and a normalization of one cylinder read the values of the first.
    p, calls = counted_exponent((0.0, 1.0))
    prob = CylinderProblem(2.0, 1.0, p)
    iters = {solve_cylinder(prob, None, bis).solver_iters for bis in (None, tight_bisection)}
    constant_density_upper_bound(CylinderProblem(3.0, 1.0, p), QuadratureConfig())
    cylinder_normalization_value(prob, 2.0)
    assert calls[0] == 1
    assert len(iters) == 2


@pytest.mark.parametrize("other", ["length", "quad", "eval"])
def test_another_cylinder_is_evaluated_again(counted_exponent, other):
    p, calls = counted_exponent((0.0, 2.0))
    prob = CylinderProblem(2.0, 1.0, p)
    solve_cylinder(prob)
    swapped = dataclasses.replace(p, eval=partial(p.eval))
    length, q, quad = {"length": (2.0, p, None), "quad": (1.0, p, QuadratureConfig(1e-3)),
                       "eval": (1.0, swapped, None)}[other]
    constant_density_upper_bound(CylinderProblem(2.0, length, q), quad)
    assert calls[0] == 2
    # That evaluation replaced the record: the first cylinder is evaluated again.
    constant_density_upper_bound(prob)
    assert calls[0] == 3


def test_constant_exponent_has_unit_density_and_modulus():
    sol = solve_cylinder(_cylinder("2"))
    assert sol.modulus == 1.0
    for t in np.linspace(0.0, 1.0, 9):
        assert sol.density(float(t)) == 1.0


def test_constant_exponent_longer_cylinder():
    sol = solve_cylinder(_cylinder("3", area=2.0, length=2.0))
    assert sol.modulus == pytest.approx(0.5, rel=1e-5)


def test_euler_lagrange_identity_holds_pointwise(cylinder_problem):
    sol = solve_cylinder(cylinder_problem)
    worst = 0.0
    for t in np.linspace(0.0, 1.0, 1000):
        pt = cylinder_problem.p.eval(float(t))
        lhs = pt * sol.density(float(t)) ** (pt - 1.0)
        worst = max(worst, abs(lhs - sol.lam) / sol.lam)
    assert worst < 1e-8


def test_upper_bound_is_exactly_one_for_unit_length(cylinder_problem):
    # The integrand is 1 to every power, so quadrature sums ones.
    assert constant_density_upper_bound(cylinder_problem) == 1.0



def test_upper_bound_past_the_float_range_is_non_finite_integrand():
    # The integral of (1/L)^p is about 8.7e4; times an area of 1e306 it overflows, where
    # it once came back as inf.  The solve itself stays in range.
    prob = _cylinder("2+50*t", area=1e306, length=0.1)
    assert math.isfinite(solve_cylinder(prob).modulus)
    with pytest.raises(NonFiniteIntegrand, match=r"^the area 1e\+306 times the integral "
                       r"[0-9.e+]+ overflows a float$"):
        constant_density_upper_bound(prob)
    # An integrand past the float range raises the same error, as on the ring.
    with pytest.raises(NonFiniteIntegrand, match="^integrand is inf at node x="):
        constant_density_upper_bound(_cylinder("2+4000*t", length=0.1))


def test_upper_bound_below_the_normal_floats_is_a_bracket_failure():
    # (1/100)^155 is the subnormal 1e-310, a hundred of them lose the modulus's digits;
    # the solve reports that as BracketFailure, and so does the bound.
    prob = _cylinder("155", length=100.0)
    with pytest.raises(BracketFailure, match="^the modulus is"):
        solve_cylinder(prob)
    with pytest.raises(BracketFailure, match=r"^the upper bound is 9\.99999999999\d*e-309, "
                       "not a positive normal float$"):
        constant_density_upper_bound(prob)


def test_upper_bound_constant_exponent_closed_form():
    assert constant_density_upper_bound(_cylinder("2", length=2.0)) == 0.5


def test_upper_bound_respects_length_envelope():
    long = _cylinder("2+t", length=2.0)
    bound = constant_density_upper_bound(long)
    assert bound <= long.area * long.length ** (1.0 - long.p.p_minus) + 1e-12

    short = _cylinder("2+t", length=0.5)
    bound = constant_density_upper_bound(short)
    assert bound <= short.area * short.length ** (1.0 - short.p.p_plus) + 1e-12


def test_gap_reference_value(cylinder_problem, tight_bisection):
    quad = QuadratureConfig(1e-3)
    gap = (constant_density_upper_bound(cylinder_problem, quad)
           - solve_cylinder(cylinder_problem, quad, tight_bisection).modulus)
    assert gap == pytest.approx(REF_GAP, abs=1e-9)


def test_gap_vanishes_for_constant_exponent(tight_bisection):
    prob = _cylinder("2")
    gap = constant_density_upper_bound(prob) - solve_cylinder(prob).modulus
    assert gap == 0.0
    prob = _cylinder("2.7", length=1.7)
    gap = constant_density_upper_bound(prob) - solve_cylinder(prob, bis=tight_bisection).modulus
    assert abs(gap) < 1e-9
    assert gap > -1e-9


def test_gap_grows_with_exponent_steepness(tight_bisection):
    quad = QuadratureConfig(1e-3)
    steep, shallow = (constant_density_upper_bound(prob, quad)
                      - solve_cylinder(prob, quad, tight_bisection).modulus
                      for prob in (_cylinder("2+t"), _cylinder("2+t/10")))
    assert shallow == pytest.approx(SHALLOW_GAP, abs=1e-9)
    assert steep > shallow > 0.0


def test_modulus_is_exactly_linear_in_area():
    base = solve_cylinder(_cylinder("2+t", area=1.37))
    doubled = solve_cylinder(_cylinder("2+t", area=2.74))
    assert doubled.modulus == pytest.approx(2.0 * base.modulus, rel=1e-12)
    assert doubled.lam == base.lam


def test_problem_validation():
    p = parse_exponent("2+t", "t", (0.0, 1.0))
    with pytest.raises(ValueError):
        CylinderProblem(0.0, 1.0, p)
    with pytest.raises(ValueError):
        CylinderProblem(1.0, 0.0, p)
    with pytest.raises(ValueError):
        CylinderProblem(1.0, math.inf, p)
    with pytest.raises(ValueError):
        CylinderProblem(1.0, 2.0, p)  # exponent undefined past t = 1


def test_exponent_must_cover_a_tiny_cylinder():
    # The coverage slack is relative to the length: an absolute 1e-12 accepted this exponent
    # on half of [0, 1e-12], where its bounds skip p(0) = 0.
    text = "1+1e13*(t-1e-13)"
    with pytest.raises(ValueError, match="does not cover"):
        CylinderProblem(1.0, 1e-12, parse_exponent(text, "t", (5e-13, 1e-12)))
    with pytest.raises(ExponentRangeError):
        parse_exponent(text, "t", (0.0, 1e-12))
    CylinderProblem(1.0, 1e-12 * (1 + 1e-13), parse_exponent("2", "t", (0.0, 1e-12)))


def test_a_cylinder_too_long_to_count_its_steps_is_interval_too_fine():
    # L / (4 h) overflows to inf, which is not rounded to a count.
    prob = _cylinder("2", length=1e308)
    for solve in (solve_cylinder, constant_density_upper_bound):
        with pytest.raises(IntervalTooFine) as info:
            solve(prob)
        assert str(info.value) == (
            "[0.0, 1e+308] at step 0.01 needs more than 4000000 subintervals, the cap is 1000000")
