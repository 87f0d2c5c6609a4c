"""Composite Simpson rule: exactness, convergence, and failure modes."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from vexmod.quadrature import (
    IntervalTooFine,
    NonFiniteIntegrand,
    QuadratureConfig,
    _checked_sum,
    integrate,
    simpson_nodes,
    simpson_rows,
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


@pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan)])
def test_interval_of_no_finite_length_rejected(a, b):
    with pytest.raises(ValueError, match="interval"):
        subinterval_count(a, b)


def test_non_finite_value_is_reported_with_its_node():
    f = lambda x: math.inf if x == 0.5 else 1.0
    with pytest.raises(NonFiniteIntegrand) as info:
        integrate(f, 0.0, 1.0)
    assert "0.5" in str(info.value)


def test_nan_value_rejected():
    with pytest.raises(NonFiniteIntegrand):
        integrate(lambda x: math.nan, 0.0, 1.0)


def test_huge_finite_values_whose_integral_fits():
    assert integrate(lambda x: 1e308, 0.0, 1.0) == pytest.approx(1e308, rel=1e-14)


def test_integral_beyond_the_float_range_is_reported_with_its_interval():
    with pytest.raises(NonFiniteIntegrand, match=r"\[0\.0, 10\.0\]"):
        integrate(lambda x: 1e308, 0.0, 10.0)


def test_interval_too_fine():
    with pytest.raises(IntervalTooFine):
        integrate(lambda x: 1.0, 0.0, 1.0, QuadratureConfig(step_hint=1e-9))


def test_subinterval_count_rounds_up_to_even():
    cfg = QuadratureConfig(step_hint=1e-2)
    assert subinterval_count(0.0, 1.0, cfg) == 100
    assert subinterval_count(0.0, 1.005, cfg) == 104  # a multiple of 4, for the step-2h rule
    assert subinterval_count(0.0, 1e-4, cfg) == 4


def test_realized_step_never_exceeds_hint():
    cfg = QuadratureConfig(step_hint=3e-2)
    for b in (0.1, 0.5, 1.0, 2.37, 10.0):
        n = subinterval_count(0.0, b, cfg)
        assert n % 4 == 0 and n >= 4
        assert b / n <= cfg.step_hint + 1e-15


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
    with pytest.raises(ValueError, match="at least 4"):
        QuadratureConfig(step_hint=1e-2, max_subintervals=3)


@pytest.mark.parametrize("bad, shown", [(400.5, "400.5"), (True, "True"), (400.0, "400.0"),
                                        ("400", "'400'"), (3, "3")])
def test_max_subintervals_must_be_an_integer(bad, shown):
    with pytest.raises(ValueError) as info:
        QuadratureConfig(max_subintervals=bad)
    assert str(info.value) == f"max_subintervals must be an integer of at least 4, got {shown}"


def _rows_error(nodes, values):
    """|S_h - S_2h| / (15 S_h) from the rows at steps h and 2h, as the weighted core takes it."""
    s_h, s_2h = np.einsum("ij,j->i", simpson_rows(nodes.size - 1), values).tolist()
    return abs(s_h - s_2h) / (15.0 * s_h)


def _reference(nodes, values):
    """scipy's composite Simpson sum of values at equispaced nodes: an independent rule."""
    simpson = pytest.importorskip("scipy.integrate").simpson
    return float(simpson(values, dx=(nodes[-1] - nodes[0]) / (nodes.size - 1)))


def test_simpson_error_estimates_the_actual_error():
    nodes = simpson_nodes(0.0, 2.0, QuadratureConfig(step_hint=0.1))
    values = np.exp(nodes)
    exact = math.expm1(2.0)
    actual = abs(_reference(nodes, values) - exact) / exact
    estimate = _rows_error(nodes, values)
    assert 0.5 * actual <= estimate <= 2.0 * actual
    cubic = _rows_error(nodes, nodes**3 + 1.0)
    assert cubic <= 1e-15


def test_simpson_rows_at_steps_h_and_2h():
    rows = simpson_rows(8)
    assert rows.tolist() == [[1, 4, 2, 4, 2, 4, 2, 4, 1], [2, 0, 8, 0, 4, 0, 8, 0, 2]]
    nodes = simpson_nodes(0.0, 2.0, QuadratureConfig(step_hint=0.25))
    values = np.exp(nodes)
    assert 2.0 * rows[0] @ values / 24.0 == pytest.approx(_reference(nodes, values), rel=1e-15)
    assert 2.0 * rows[1] @ values / 24.0 == pytest.approx(
        _reference(nodes[::2], values[::2]), rel=1e-15)


@pytest.mark.parametrize("b, hint", [(2.0, 1e-2), (2.0, 1e-4)], ids=["101 nodes", "20001 nodes"])
def test_checked_sum_equals_scipy(b, hint):
    # The sum both bounds take, under the errstate they enter.  20,001 nodes are past the
    # 4,096 subintervals of the read-only pattern: the sum's row is built for the grid.
    nodes = simpson_nodes(0.0, b, QuadratureConfig(step_hint=hint))
    values = np.exp(nodes)
    with np.errstate(all="ignore"):
        got = _checked_sum(nodes, values)
    assert got == pytest.approx(_reference(nodes, values), rel=1e-15)


def test_checked_sum_of_finite_values_whose_unweighted_total_overflows():
    # The weights 4 and 2 times 1e308 overflow a float; the same row pre-scaled by h / 3
    # sums the values within the float range.
    nodes = simpson_nodes(0.0, 1.0)
    values = 1e308 * np.exp(-nodes)
    want = 1e308 * _reference(nodes, np.exp(-nodes))
    with np.errstate(all="ignore"):
        got = _checked_sum(nodes, values)
    assert got == pytest.approx(want, rel=1e-15)
    assert integrate(lambda x: 1e308 * np.exp(-x), 0.0, 1.0) == pytest.approx(want, rel=1e-15)


def test_simpson_rows_of_several_grids_are_joined_in_order():
    for counts in ((8, 4, 12), (4, 4), (12, 4, 400, 8), (4100, 8, 4096)):
        alone = np.concatenate([simpson_rows(n) for n in counts], axis=1)
        assert simpson_rows(*counts).tolist() == alone.tolist()


@given(
    a=st.floats(-1e300, 1e300),
    width=st.floats(5e-324, 1e300),
    count=st.integers(1, 10_000),
)
@example(a=0.0, width=1.0, count=4096)  # 4,097 nodes: a slice of the index template
@example(a=0.0, width=1.0, count=4097)  # 4,101 nodes: past the template, np.arange
def test_simpson_nodes_equal_linspace_bit_for_bit(a, width, count):
    # Tiny (down to subnormal), huge and negative intervals, on 5 to about 10,000 nodes:
    # grids of up to 4,098 nodes scale quadrature's index template, longer ones np.arange.
    b = a + width
    assume(a < b)
    cfg = QuadratureConfig(step_hint=max((b - a) / count, 5e-324))
    nodes = simpson_nodes(a, b, cfg)
    want = np.linspace(a, b, subinterval_count(a, b, cfg) + 1)
    assert nodes.tobytes() == want.tobytes()


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
