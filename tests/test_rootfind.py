"""The log-space Newton multiplier kernel, and bracketed bisection for increasing functions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vexmod.rootfind import (
    BisectionConfig,
    BracketFailure,
    MaxItersExceeded,
    log_total,
    positive_normal,
    solve_increasing,
    solve_multiplier,
)


UNIT = (1.0, 1.0)  # (width, div): the plain coefficient-weighted sum


def test_constant_exponent_is_solved_exactly_in_one_step():
    # N(l) = 3 * 0.5 e^l: log N is linear, so the first Newton step lands on log(2/3).
    inv, base = np.ones(3), np.full(3, math.log(0.5))
    ell, residual, iters, _, _ = solve_multiplier(inv, base, np.ones_like(inv), UNIT)
    assert ell == pytest.approx(math.log(2.0 / 3.0), rel=1e-15)
    assert residual <= 1e-15 and iters == 1


def test_first_evaluation_inside_the_tolerance_is_accepted():
    ell, residual, iters, scale, terms = solve_multiplier(np.ones(2), np.full(2, -math.log(2.0)),
                                                          np.ones(2), UNIT)
    assert (ell, residual, iters) == (0.0, 0.0, 0)
    assert math.exp(scale) * terms.sum() == 1.0


def test_log_total_and_its_slope():
    inv, base = np.array([0.5, 2.0]), np.array([0.0, -1.0])
    f, df, scale, terms = log_total(inv, base, np.array((np.ones_like(inv), inv)), UNIT, 0.3)
    direct = np.exp(0.3 * inv + base)
    assert f == pytest.approx(math.log(direct.sum()), rel=1e-15)
    assert df == pytest.approx((inv * direct).sum() / direct.sum(), rel=1e-15)
    assert terms.max() == 1.0 and np.allclose(terms * math.exp(scale), direct, rtol=1e-15)


def test_log_total_weighs_the_terms_by_coefficients_and_span():
    # Simpson on [0, 2] with 2 subintervals: (2 / 6) * (t0 + 4 t1 + t2).
    inv, base = np.array([0.5, 1.0, 2.0]), np.array([0.0, -1.0, 0.5])
    coef = np.array([1.0, 4.0, 1.0])
    f, df, scale, terms = log_total(inv, base, np.array((coef, coef * inv)), (2.0, 6.0), -0.2)
    direct = np.exp(-0.2 * inv + base)
    assert f == pytest.approx(math.log(2.0 * (coef * direct).sum() / 6.0), rel=1e-15)
    assert df == pytest.approx((coef * inv * direct).sum() / (coef * direct).sum(), rel=1e-15)
    assert np.allclose(terms * math.exp(scale), direct, rtol=1e-15)


def test_exponents_near_one_do_not_overflow():
    # 1/(p-1) = 10^4 next to p = 3: every power of lam would overflow or underflow.
    inv = np.array([1e4, 1e4, 0.5, 0.5])
    base = np.array([-2.5e4, -2.6e4, -300.0, -310.0])
    ell, residual, iters, scale, terms = solve_multiplier(inv, base, np.ones_like(inv), UNIT,
                                                          BisectionConfig(1e-12, 1e-14))
    assert residual <= 1e-12
    assert iters <= 60
    assert math.exp(scale) * terms.sum() == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    p=st.lists(st.floats(1.001, 50.0), min_size=1, max_size=30),
    shift=st.floats(-500.0, 500.0),
)
def test_newton_converges_inside_the_one_evaluation_bracket(p, shift):
    p = np.array(p)
    inv = 1.0 / (p - 1.0)
    base = shift - inv * np.log(p) + np.linspace(0.0, 3.0, p.size)
    ell, residual, iters, scale, terms = solve_multiplier(inv, base, np.ones_like(inv), UNIT,
                                                          BisectionConfig(1e-12, 1e-15))
    f0 = log_total(inv, base, np.array((np.ones_like(inv), inv)), UNIT, 0.0)[0]
    ends = sorted((-f0 * (p.min() - 1.0), -f0 * (p.max() - 1.0)))
    slack = 1e-9 * (1.0 + abs(f0) * p.max())
    assert ends[0] - slack <= ell <= ends[1] + slack
    assert abs(math.log(terms.sum()) + scale) <= 1e-9


def test_multiplier_max_iters_exceeded():
    inv, base = np.array([0.1, 10.0]), np.array([-5.0, -40.0])
    with pytest.raises(MaxItersExceeded):
        solve_multiplier(inv, base, np.ones_like(inv), UNIT,
                         BisectionConfig(1e-15, 1e-300, max_iters=1))


def test_step_tolerance_stops_the_solve():
    inv, base = np.array([0.1, 10.0]), np.array([-5.0, -40.0])
    ell, residual, iters, _, _ = solve_multiplier(inv, base, np.ones_like(inv), UNIT,
                                                  BisectionConfig(1e-15, 1e3))
    assert iters == 1 and residual > 1e-15


def test_positive_normal():
    assert positive_normal("x", 2.5e-300) == 2.5e-300
    for bad in (0.0, 1e-310, math.inf, math.nan, -1.0):
        with pytest.raises(BracketFailure, match="x is"):
            positive_normal("x", bad)


def test_identity_hits_the_bracket_endpoint():
    root, residual, iters = solve_increasing(lambda x: x, 1.0)
    assert root == 1.0
    assert residual == 0.0
    assert iters == 0


def test_cube_root():
    root, residual, _ = solve_increasing(lambda x: x**3, 8.0)
    assert root == pytest.approx(2.0, rel=1e-6)
    assert residual <= 1e-6


def test_bracket_expands_upward():
    root, _, _ = solve_increasing(lambda x: x, 12345.0)
    assert root == pytest.approx(12345.0, rel=1e-9)


def test_bracket_expands_downward():
    # Default residual accepts the lower endpoint itself, so tighten it to
    # force real expansion below the initial bracket.
    cfg = BisectionConfig(residual_tol=1e-16, lambda_tol=1e-12)
    root, _, _ = solve_increasing(lambda x: x, 3e-12, cfg)
    assert root == pytest.approx(3e-12, rel=1e-4)


def test_tiny_target_accepted_within_residual_tolerance():
    root, residual, _ = solve_increasing(lambda x: x, 3e-12)
    assert residual <= 1e-6
    assert abs(root - 3e-12) <= 1e-6


def test_unreachable_low_target_fails():
    # x stays positive, so no positive x maps below -5.
    with pytest.raises(BracketFailure):
        solve_increasing(lambda x: x, -5.0)


def test_unreachable_high_target_fails():
    with pytest.raises(BracketFailure):
        solve_increasing(lambda x: min(x, 2.0), 1e31)


def test_max_iters_exceeded():
    cfg = BisectionConfig(residual_tol=1e-18, lambda_tol=1e-18, max_iters=3)
    with pytest.raises(MaxItersExceeded):
        solve_increasing(lambda x: x**3, 7.0, cfg)


def test_width_stop_reports_large_residual_honestly():
    # A jump hides the target value; only the bracket-width stop can fire.
    c = 0.6180339887498949
    f = lambda x: x if x < c else x + 10.0
    root, residual, _ = solve_increasing(f, c + 5.0)
    assert root == pytest.approx(c, rel=1e-9)
    assert residual > 1.0


def test_determinism():
    first = solve_increasing(lambda x: x**3 + x, 50.0)
    second = solve_increasing(lambda x: x**3 + x, 50.0)
    assert first == second


def test_iteration_count_is_bounded_by_config():
    cfg = BisectionConfig(max_iters=200)
    _, _, iters = solve_increasing(lambda x: x**5, 17.0, cfg)
    assert 0 < iters <= 200


def test_config_validation():
    with pytest.raises(ValueError):
        BisectionConfig(residual_tol=0.0)
    with pytest.raises(ValueError):
        BisectionConfig(lambda_tol=-1e-10)
    with pytest.raises(ValueError):
        BisectionConfig(max_iters=0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            BisectionConfig(residual_tol=bad)
        with pytest.raises(ValueError, match="finite"):
            BisectionConfig(lambda_tol=bad)


@settings(max_examples=50, deadline=None)
@given(
    slope=st.floats(0.1, 100.0),
    root=st.floats(0.01, 100.0),
    offset=st.floats(-10.0, 10.0),
)
def test_affine_functions_are_solved(slope, root, offset):
    target = slope * root + offset
    got, residual, _ = solve_increasing(lambda x: slope * x + offset, target)
    assert abs(got - root) / root <= 1e-3
    assert residual == abs(slope * got + offset - target)
