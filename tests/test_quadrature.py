"""Composite Simpson rule: exactness, convergence, and failure modes."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vexmod.quadrature import (
    IntervalTooFine,
    NonFiniteIntegrand,
    QuadratureConfig,
    integrate,
    realized_step,
    subinterval_count,
)

# Reference value computed with mpmath at 40-digit precision.
RING_DENSITY_INTEGRAL = 0.12149903118784478


def test_exact_on_squares():
    assert integrate(lambda x: x * x, 0.0, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_exact_on_cubics():
    f = lambda x: x**3 - 2.0 * x**2 + x - 1.0
    exact = 4.0 - 16.0 / 3.0 + 2.0 - 2.0
    assert integrate(f, 0.0, 2.0) == pytest.approx(exact, rel=1e-13)


def test_constant_integrand_is_exact():
    calls = []
    assert integrate(lambda x: calls.append(x) or 1.0, 2.0, 5.0) == 3.0
    assert len(calls) == 1  # a constant result is broadcast over the nodes


def test_ring_density_integrand():
    f = lambda r: (1.0 / (2.0 * math.pi * (1.0 + r) * r)) ** (1.0 / r)
    assert integrate(f, 1.0, 2.0) == pytest.approx(RING_DENSITY_INTEGRAL, abs=1e-9)


def test_linearity():
    f = lambda x: math.exp(x)
    g = lambda x: math.sin(x)
    combined = integrate(lambda x: 2.5 * f(x) - 0.75 * g(x), 0.0, 1.0)
    split = 2.5 * integrate(f, 0.0, 1.0) - 0.75 * integrate(g, 0.0, 1.0)
    assert combined == pytest.approx(split, rel=1e-14)


def test_additivity_at_shared_node():
    f = math.exp
    whole = integrate(f, 0.0, 2.0)
    parts = integrate(f, 0.0, 1.0) + integrate(f, 1.0, 2.0)
    assert whole == pytest.approx(parts, rel=1e-12)


def test_convergence_is_fourth_order():
    f = math.exp
    exact = math.exp(18.0) - math.exp(14.0)
    err = lambda hint: abs(integrate(f, 14.0, 18.0, QuadratureConfig(hint)) - exact)
    ratio = err(2e-2) / err(1e-2)
    assert 12.0 < ratio < 20.0


def test_empty_interval_is_zero():
    assert integrate(math.exp, 3.0, 3.0) == 0.0


def test_reversed_interval_rejected():
    with pytest.raises(ValueError):
        integrate(lambda x: 1.0, 2.0, 1.0)


def test_non_finite_value_is_reported_with_its_node():
    f = lambda x: math.inf if x == 0.5 else 1.0
    with pytest.raises(NonFiniteIntegrand) as info:
        integrate(f, 0.0, 1.0)
    assert "0.5" in str(info.value)


def test_nan_value_rejected():
    with pytest.raises(NonFiniteIntegrand):
        integrate(lambda x: math.nan, 0.0, 1.0)


def test_interval_too_fine():
    with pytest.raises(IntervalTooFine):
        integrate(lambda x: 1.0, 0.0, 1.0, QuadratureConfig(step_hint=1e-9))


def test_subinterval_count_rounds_up_to_even():
    cfg = QuadratureConfig(step_hint=1e-2)
    assert subinterval_count(0.0, 1.0, cfg) == 100
    assert subinterval_count(0.0, 1.005, cfg) == 102
    assert subinterval_count(0.0, 1e-4, cfg) == 2


def test_realized_step_never_exceeds_hint():
    cfg = QuadratureConfig(step_hint=3e-2)
    for b in (0.1, 0.5, 1.0, 2.37, 10.0):
        n = subinterval_count(0.0, b, cfg)
        assert n % 2 == 0 and n >= 2
        assert realized_step(0.0, b, cfg) <= cfg.step_hint + 1e-15


def test_determinism():
    f = lambda x: math.exp(-x) * math.cos(3.0 * x)
    assert integrate(f, 0.0, 4.0) == integrate(f, 0.0, 4.0)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(step_hint=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(step_hint=-1e-3)
    with pytest.raises(ValueError):
        QuadratureConfig(step_hint=1e-2, max_subintervals=0)


@given(
    a=st.floats(-5.0, 5.0),
    b=st.floats(-5.0, 5.0),
    c=st.floats(-5.0, 5.0),
    d=st.floats(-5.0, 5.0),
)
def test_cubic_polynomials_integrate_exactly(a, b, c, d):
    f = lambda x: a * x**3 + b * x**2 + c * x + d
    exact = a / 4.0 + b / 3.0 + c / 2.0 + d
    assert integrate(f, 0.0, 1.0) == pytest.approx(exact, abs=1e-12)
