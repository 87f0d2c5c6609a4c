"""Expression parsing, exponent bounds, and the regularity diagnostic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vexmod.exponent import (
    Binary,
    Call,
    DomainError,
    ExponentFunction,
    ExponentRangeError,
    Num,
    ParseError,
    Power,
    Unary,
    Var,
    parse_exponent,
    parse_expression,
    unparse,
)


def test_linear_in_r_bounds():
    p = parse_exponent("1+r", "r", (1.0, 2.0))
    assert p.p_minus == pytest.approx(2.0, abs=1e-9)
    assert p.p_plus == pytest.approx(3.0, abs=1e-9)


def test_linear_in_t_bounds():
    p = parse_exponent("2+t", "t", (0.0, 1.0))
    assert p.p_minus == pytest.approx(2.0, abs=1e-9)
    assert p.p_plus == pytest.approx(3.0, abs=1e-9)


def test_constant_bounds():
    p = parse_exponent("3", "r", (0.0, 5.0))
    assert p.p_minus == 3.0
    assert p.p_plus == 3.0


def test_interior_minimum_is_refined():
    # 2 + r^2 - r dips to 1.75 at r = 0.5, strictly inside the interval.
    p = parse_exponent("2+r^2-r", "r", (0.0, 1.0))
    assert p.p_minus == pytest.approx(1.75, abs=1e-9)
    assert p.p_plus == pytest.approx(2.0, abs=1e-9)


def test_evaluation_accepts_arrays():
    p = parse_exponent("2+t^2", "t", (0.0, 1.0))
    xs = np.linspace(0.0, 1.0, 7)
    out = p.eval(xs)
    assert out.shape == xs.shape
    assert out[0] == 2.0
    assert isinstance(p.eval(0.5), float)


def test_bounds_enclose_samples():
    p = parse_exponent("2 + exp(-r) * (1 + r/3)", "r", (0.5, 4.0))
    rng = np.random.default_rng(7)
    xs = rng.uniform(0.5, 4.0, size=10_000)
    vals = p.eval(xs)
    assert np.all(vals >= p.p_minus - 1e-9)
    assert np.all(vals <= p.p_plus + 1e-9)


def test_exponent_at_most_one_is_rejected():
    with pytest.raises(ExponentRangeError):
        parse_exponent("1+r", "r", (0.0, 1.0))
    with pytest.raises(ExponentRangeError):
        parse_exponent("r", "r", (0.5, 2.0))


def test_non_finite_on_interval_is_rejected():
    with pytest.raises(DomainError):
        parse_exponent("log(r-1)", "r", (1.0, 2.0))
    with pytest.raises(DomainError):
        parse_exponent("2+1/t", "t", (0.0, 1.0))


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse_exponent("1+", "r", (1.0, 2.0))
    assert info.value.position == 2

    with pytest.raises(ParseError) as info:
        parse_exponent("2 $ r", "r", (1.0, 2.0))
    assert info.value.position == 2


def test_unknown_name_is_a_parse_error():
    with pytest.raises(ParseError) as info:
        parse_exponent("1+q", "r", (1.0, 2.0))
    assert "q" in str(info.value)


def test_malformed_expressions_rejected():
    for text in ("", "()", "2**r", "exp(r", "1+*2", "r^r"):
        with pytest.raises(ParseError):
            parse_exponent(text, "r", (1.0, 2.0))


def test_unparse_round_trips_handwritten_cases():
    cases = [
        "1+r",
        "2*r^2 - r/3 + exp(-r)",
        "log(exp(r)) + 2.5",
        "2 + (r - 1) * (r - 1)",
        "-r + 3",
        "3/(1+r)",
    ]
    for text in cases:
        expr = parse_expression(text, "r")
        again = parse_expression(unparse(expr), "r")
        assert again.root == expr.root


def test_reserved_words_are_function_names_only():
    with pytest.raises(ParseError):
        parse_exponent("exp", "r", (1.0, 2.0))


def test_interval_validation():
    with pytest.raises(ValueError):
        parse_exponent("2+r", "r", (2.0, 1.0))
    with pytest.raises(ValueError):
        parse_exponent("2+r", "r", (0.0, math.inf))


def test_restricted_narrows_bounds():
    p = parse_exponent("1+r", "r", (1.0, 4.0))
    narrowed = p.restricted(1.0, 2.0)
    assert narrowed.p_plus == pytest.approx(3.0, abs=1e-9)
    assert p.p_plus == pytest.approx(5.0, abs=1e-9)


def test_from_callable():
    p = ExponentFunction.from_callable(lambda x: 2.0 + 0.5 * np.sin(x), (0.0, 6.0), "wave")
    assert p.p_minus == pytest.approx(1.5, abs=1e-6)
    assert p.p_plus == pytest.approx(2.5, abs=1e-6)
    assert p.eval(0.0) == 2.0


def _ast_nodes():
    # abs() keeps -0.0 out: its literal would reparse as a unary minus node.
    literal = st.floats(0.0, 100.0).map(lambda v: round(abs(v), 3))
    power = st.floats(0.0, 6.0).map(lambda v: round(abs(v), 2))
    leaves = st.one_of(st.builds(Num, literal), st.just(Var("r")))

    def extend(children):
        return st.one_of(
            st.builds(Unary, children),
            st.builds(
                Binary,
                st.sampled_from(["+", "-", "*", "/"]),
                children,
                children,
            ),
            st.builds(Power, children, power),
            st.builds(Call, st.sampled_from(["exp", "log"]), children),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(tree=_ast_nodes())
def test_unparse_round_trips_random_trees(tree):
    text = unparse(tree)
    assert parse_expression(text, "r").root == tree
