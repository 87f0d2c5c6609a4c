"""Bracketed bisection for strictly increasing functions."""

import pytest
from hypothesis import given, settings, strategies as st

from vexmod.rootfind import (
    BisectionConfig,
    BracketFailure,
    MaxItersExceeded,
    solve_increasing,
)


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
