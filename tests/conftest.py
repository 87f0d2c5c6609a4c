import dataclasses

import pytest

from vexmod import (
    AnnulusProblem,
    BisectionConfig,
    CylinderProblem,
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
    """Factory for the parsed exponent 1.5 + x on an interval, with a call counter.

    Returns (exponent, calls); calls[0] counts the evaluations made after
    construction, whatever the number of points in each.  The count comes from
    swapping ``eval`` by ``dataclasses.replace``, as the bench tracer does.
    """

    def make(interval):
        calls = [0]
        parsed = parse_exponent("1.5+x", "x", interval)

        def p(x):
            calls[0] += 1
            return parsed.eval(x)

        return dataclasses.replace(parsed, eval=p), calls

    return make
