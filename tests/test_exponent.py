"""Expression parsing, exponent bounds, and the regularity diagnostic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vexmod import exponent
from vexmod.exponent import (
    Binary,
    Call,
    DomainError,
    ExponentRangeError,
    Num,
    ParseError,
    Power,
    Unary,
    Var,
    _compile,
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


@pytest.fixture
def evaluations(monkeypatch):
    """The arguments of every call of the ``eval`` of each exponent parsed from now on."""
    calls = []
    evaluator = exponent._evaluator

    def counted(node):
        evaluate = evaluator(node)
        return lambda x: calls.append(x) or evaluate(x)

    monkeypatch.setattr(exponent, "_evaluator", counted)
    return calls


def test_interior_minimum_takes_few_array_evaluations(evaluations):
    p = parse_exponent("2+x*x-x", "x", (0.0, 1.0))
    assert len(evaluations) <= 10  # the samples, then one call per zoom
    assert all(isinstance(x, np.ndarray) for x in evaluations)
    assert p.p_minus == pytest.approx(1.75, abs=1e-15)


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (1.0, 1024.0), (-3.7, 5.3), (1e-6, 1e6),
                                  (0.1, 0.1 + 1e-9), (-1e300, 1e300)])
def test_sample_grid_equals_linspace_bit_for_bit(evaluations, a, b):
    # 4,098 samples, the whole of quadrature's index template.
    parse_exponent("2.5+0*x", "x", (a, b))
    assert evaluations[0].tobytes() == np.linspace(a, b, 4098).tobytes()


def test_flat_underflowing_tail_is_the_minimum():
    # exp(-0.5 r) drops below half an ulp of 1.8 near r = 74, deep inside [1, 250].
    assert parse_exponent("1.8+exp(-0.5*r)", "r", (1.0, 250.0)).p_minus == 1.8


def test_plateau_minimum_is_not_zoomed(evaluations):
    # The sampled minimum is the first sample of the plateau at 1.8, which the next two
    # samples repeat: zooming around it finds nothing lower.
    calls = evaluations
    for top in (250.0, 140.0):
        calls.clear()
        p = parse_exponent("1.8+exp(-0.5*r)", "r", (1.0, top))
        assert len(calls) <= 2
        assert p.p_minus == 1.8
        assert p.p_plus == p.eval(1.0) == 2.4065306597126335
    # Two equal samples around the interior minimum of 2 + r^2 - r are not a plateau.
    calls.clear()
    p = parse_exponent("2+r^2-r", "r", (0.0, 1.0))
    assert len(calls) == 9
    assert p.p_minus == pytest.approx(1.75, abs=1e-15)


def test_evaluation_accepts_arrays():
    p = parse_exponent("2+t^2", "t", (0.0, 1.0))
    xs = np.linspace(0.0, 1.0, 7)
    out = p.eval(xs)
    assert out.shape == xs.shape
    assert out[0] == 2.0
    assert isinstance(p.eval(0.5), float)
    # Floats of the argument's shape, a constant broadcast to it, and a float for a scalar.
    xs = np.linspace(1.0, 2.0, 6).reshape(2, 3)
    for text in ("2.5", "1+1.5", "t+1", "2+0*t", "-t+4"):
        p = parse_exponent(text, "t", (1.0, 2.0))
        out = p.eval(xs)
        assert (type(out), out.dtype, out.shape) == (np.ndarray, np.float64, (2, 3))
        assert out.tolist() == [[p.eval(float(x)) for x in row] for row in xs]
        assert type(p.eval(1.5)) is float and type(p.eval(2)) is float
    assert parse_exponent("2.5", "t", (1.0, 2.0)).eval(xs).tolist() == [[2.5] * 3] * 2


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
    for constant in ("2+1/0", "2+(-1)^1.5"):  # no ZeroDivisionError or complex
        with pytest.raises(DomainError):
            parse_exponent(constant, "r", (1.0, 2.0))


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
        assert again == expr


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
    assert parse_expression(text, "r") == tree


@settings(max_examples=150, deadline=None)
@given(tree=_ast_nodes())
def test_compiled_expression_on_an_array_equals_it_point_by_point(tree):
    f = _compile(tree)
    xs = np.linspace(-2.0, 3.0, 11)
    with np.errstate(all="ignore"):
        whole = np.broadcast_to(f(xs), xs.shape)
        pointwise = [f(x) for x in xs]
    np.testing.assert_array_equal(whole, np.array(pointwise, dtype=float))


@settings(max_examples=100, deadline=None)
@given(tree=_ast_nodes())
def test_pole_at_a_sample_raises_domain_error(tree):
    # On [0, 4097] the bound samples are the integers, so r = 1 is one of them.
    text = f"2 + ({unparse(tree)}) / (r - 1)"
    with pytest.raises(DomainError):
        parse_exponent(text, "r", (0.0, 4097.0))
