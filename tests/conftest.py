import pytest

from vexmod import (
    AnnulusProblem,
    BisectionConfig,
    CylinderProblem,
    ExponentFunction,
    parse_exponent,
)


@pytest.fixture
def ring_problem():
    """Plane ring from radius 1 to 2 with exponent 1+r."""
    return AnnulusProblem(2, 1.0, 2.0, parse_exponent("1+r", "r", (1.0, 2.0)))


@pytest.fixture
def cylinder_problem():
    """Unit cylinder with exponent 2+t."""
    return CylinderProblem(1.0, 1.0, parse_exponent("2+t", "t", (0.0, 1.0)))


@pytest.fixture
def tight_bisection():
    """Stops on a residual small enough that quadrature dominates the error."""
    return BisectionConfig(residual_tol=1e-12, lambda_tol=1e-14)


@pytest.fixture
def counted_exponent():
    """Factory for the exponent 1.5 + x on an interval, with a call counter.

    Returns (exponent, calls); calls[0] counts the evaluations made after
    construction, whatever the number of points in each.
    """

    def make(interval):
        calls = [0]

        def p(x):
            calls[0] += 1
            return 1.5 + x

        exponent = ExponentFunction.from_callable(p, interval)
        calls[0] = 0
        return exponent, calls

    return make
