"""Expression parsing, exponent bounds, and the regularity diagnostic."""

import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vexmod import exponent
from vexmod.exponent import (
    DomainError,
    ExponentRangeError,
    ParseError,
    _Parser,
    _tokenize,
    parse_exponent,
)


def _forms(text, variable="r"):
    """The text's closure and direction, as the parser compiles them."""
    return _Parser(_tokenize(text), variable).parse()


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


def _count_evaluations(monkeypatch, keep_direction):
    calls = []
    evaluator = exponent._evaluator

    def counted(node):
        evaluate = evaluator(node)

        def wrapper(x):
            calls.append(x)
            return evaluate(x)

        return functools.wraps(evaluate)(wrapper) if keep_direction else wrapper

    monkeypatch.setattr(exponent, "_evaluator", counted)
    return calls


@pytest.fixture
def evaluations(monkeypatch):
    """The arguments of every call of the ``eval`` of each exponent parsed from now on."""
    return _count_evaluations(monkeypatch, keep_direction=True)


@pytest.fixture
def scan_evaluations(monkeypatch):
    """As ``evaluations``, with each ``eval`` stripped of its direction, so that every
    bound is taken by the sampling scan."""
    return _count_evaluations(monkeypatch, keep_direction=False)


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


def test_flat_underflowing_tail_is_the_minimum(scan_evaluations):
    # exp(-0.5 r) drops below half an ulp of 1.8 near r = 74, deep inside [1, 250].
    assert parse_exponent("1.8+exp(-0.5*r)", "r", (1.0, 250.0)).p_minus == 1.8
    assert scan_evaluations[0].size == 4098


def test_plateau_minimum_is_not_zoomed(scan_evaluations):
    # The sampled minimum is the first sample of the plateau at 1.8, which the next two
    # samples repeat: zooming around it finds nothing lower.
    calls = scan_evaluations
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


def test_handwritten_text_reads_as_python_reads_it():
    # Grouping, calls, unary minus and precedence together, checked as the generated
    # flat texts below are: the value is Python's for the same text, with ^ as **.
    cases = [
        "1+r",
        "2*r^2 - r/3 + exp(-r)",
        "log(exp(r)) + 2.5",
        "2 + (r - 1) * (r - 1)",
        "-r + 3",
        "3/(1+r)",
        "2/r^2.5*r",
        "-(r - 2)^2 + 9",
    ]
    names = {"__builtins__": {}, "exp": np.exp, "log": np.log}
    for text in cases:
        evaluate = exponent._evaluator(_forms(text))
        for r in (0.5, 1.25, 3.0):
            want = eval(text.replace("^", "**"), names, {"r": r})
            assert evaluate(r) == pytest.approx(float(want), rel=1e-12, abs=0.0)


def test_reserved_words_are_function_names_only():
    with pytest.raises(ParseError):
        parse_exponent("exp", "r", (1.0, 2.0))


def test_interval_validation():
    with pytest.raises(ValueError):
        parse_exponent("2+r", "r", (2.0, 1.0))
    with pytest.raises(ValueError):
        parse_exponent("2+r", "r", (0.0, math.inf))


def test_interval_whose_width_overflows_is_rejected():
    # Its samples would be inf apart: "2+exp(-r*r)", finite everywhere, was a DomainError.
    for text in ("2+exp(-r*r)", "3"):
        with pytest.raises(ValueError, match=r"\(-1e\+308, 1e\+308\) is too wide"):
            parse_exponent(text, "r", (-1e308, 1e308))
    assert parse_exponent("3", "r", (-1e307, 1e307)).p_minus == 3.0


def test_restricted_narrows_bounds():
    p = parse_exponent("1+r", "r", (1.0, 4.0))
    narrowed = p.restricted(1.0, 2.0)
    assert narrowed.p_plus == pytest.approx(3.0, abs=1e-9)
    assert p.p_plus == pytest.approx(5.0, abs=1e-9)


def test_restricted_must_stay_inside_a_tiny_interval():
    # The slack is relative to the ends, not an absolute 1e-12.
    p = parse_exponent("2", "r", (1.9e-20, 2e-20))
    with pytest.raises(ValueError, match="is not inside the definition interval"):
        p.restricted(1e-20, 2e-20)
    assert p.restricted(1.9e-20 * (1 - 1e-13), 2e-20).p_minus == 2.0


def _scanned(evaluate):
    """evaluate without its direction, so that its bounds are taken by the sampling scan."""
    return lambda x: evaluate(x)


# The exponent templates of the bench workloads, each on a wide and a narrow interval.
_MONOTONE_TEMPLATES = [
    ("2.5", "r"), ("1.2+0.5*r", "r"), ("3.4-0.5*r", "r"), ("1.8+1*exp(-0.5*r)", "r"),
    ("1.5+0.3*log(1+2*r)", "r"), ("2+t/10", "t"), ("2+exp(-r)", "r"), ("1.5+log(1+t)", "t"),
]


@pytest.mark.parametrize("text, var", _MONOTONE_TEMPLATES)
@pytest.mark.parametrize("interval, sub", [((1.0, 4.5), (2.0, 3.0)),
                                           ((0.25, 0.75), (0.5, 0.6))])
def test_monotone_exponent_takes_its_end_values(evaluations, text, var, interval, sub):
    p = parse_exponent(text, var, interval)
    assert [x.tolist() for x in evaluations] == [list(interval)]  # one call, at the ends
    ends = sorted(p.eval(np.array(interval)).tolist())
    assert [p.p_minus, p.p_plus] == ends
    assert exponent._sampled_bounds(_scanned(p.eval), *interval) == (p.p_minus, p.p_plus)
    evaluations.clear()
    narrowed = p.restricted(*sub)
    assert [x.tolist() for x in evaluations] == [list(sub)]
    assert (narrowed.p_minus, narrowed.p_plus) == exponent._sampled_bounds(_scanned(p.eval), *sub)


def test_swapped_eval_is_scanned_by_restricted():
    # An eval set by dataclasses.replace has no direction, so its NaN tail past r = 5 is
    # found by the samples and not hidden by the finite ends of [1, 8].
    parsed = parse_exponent("2+r", "r", (1.0, 20.0))
    nan_tail = dataclasses.replace(parsed, eval=lambda r: np.where(
        np.asarray(r) > 5.0, np.nan, parsed.eval(r)))
    with pytest.raises(DomainError, match=r"^expression is non-finite near x=5\.0014644862094215$"):
        nan_tail.restricted(1.0, 8.0)
    narrowed = parsed.restricted(1.0, 8.0)
    assert (narrowed.p_minus, narrowed.p_plus) == (3.0, 10.0)


def test_direction_rules():
    cases = {
        "r": 1, "-r": -1, "2.5": 0, "2+1/0": 0, "1+r": 1, "1-r": -1, "r-(-r)": 1, "r+(-r)": None,
        "r-r": None, "2*r": 1, "r*(-2)": -1, "r/-4": -1, "r/0": None, "0*r": None,
        "r*(1/0)": None, "4/r": None, "r*r": None, "r^1": None, "2^2+r": 1,
        "exp(-r)": -1, "log(1+r)": 1, "exp(2)*r": 1, "-log(r)*3+exp(r)": None,
        "3-2*exp(-r)+log(r/5)": 1,
    }
    got = {text: _forms(text)[1] for text in cases}
    assert got == cases


def _texts():
    """Fully parenthesized expressions in r: the leaves are 3-decimal literals in [0, 100]
    and r, the powers 2-decimal literals in [0, 6]."""
    literal = st.floats(0.0, 100.0).map(lambda v: repr(round(abs(v), 3)))
    power = st.floats(0.0, 6.0).map(lambda v: repr(round(abs(v), 2)))
    leaves = literal | st.just("r")

    def extend(children):
        return st.one_of(
            children.map(lambda a: f"-({a})"),
            st.builds(lambda op, a, b: f"({a} {op} {b})", st.sampled_from("+-*/"),
                      children, children),
            st.builds(lambda a, e: f"({a})^{e}", children, power),
            st.builds(lambda fn, a: f"{fn}({a})", st.sampled_from(["exp", "log"]), children),
        )

    return st.recursive(leaves, extend, max_leaves=12)


def _flat_texts():
    """Expressions in r without grouping parentheses: sums of products of factors, each
    an optional minus, then a literal, r, or exp or log of such an expression without
    calls, then an optional ^ and a literal."""
    literal = st.floats(0.0, 100.0).map(lambda v: repr(round(v, 2)))
    power = st.sampled_from(["0", "1", "2", "3"]) | st.floats(0.0, 3.0).map(
        lambda v: repr(round(v, 2)))

    def chain(items, ops):
        return st.builds(lambda first, rest: first + "".join(rest), items,
                         st.lists(st.tuples(st.sampled_from(ops), items).map("".join),
                                  max_size=2))

    def expression(atoms):
        factor = st.builds(lambda minus, atom, e: minus + atom + e, st.sampled_from(["", "-"]),
                           atoms, st.just("") | power.map("^".__add__))
        return chain(chain(factor, "*/"), "+-")

    leaves = literal | st.just("r")
    calls = st.builds(lambda fn, a: f"{fn}({a})", st.sampled_from(["exp", "log"]),
                      expression(leaves))
    return expression(leaves | calls)


@settings(max_examples=150, deadline=None)
@given(text=_flat_texts())
@example(text="12/3/2*r")
@example(text="2--r")
@example(text="2*-r+7")
@example(text="-r^2+9")
def test_text_without_parentheses_reads_as_python_reads_it(text):
    # Precedence and associativity: the text's value is Python's for the same text, with
    # ^ as **, wherever both are finite real numbers.  Python's pow and numpy's may
    # differ by an ulp, and at an infinite base, so the match is to a relative 1e-12.
    evaluate = exponent._evaluator(_forms(text))
    names = {"__builtins__": {}, "exp": np.exp, "log": np.log}
    for r in (0.5, 1.25, 3.0):
        try:
            with np.errstate(all="ignore"):
                want = eval(text.replace("^", "**"), names, {"r": r})
        except ArithmeticError:  # Python raises where numpy gives inf or nan
            continue
        got = evaluate(r)
        if not isinstance(want, complex) and math.isfinite(want) and math.isfinite(got):
            assert got == pytest.approx(float(want), rel=1e-12, abs=0.0)
    # Every prefix parses or raises ParseError at a position inside it.
    for cut in range(len(text)):
        prefix = text[:cut]
        try:
            _forms(prefix)
        except ParseError as exc:
            assert 0 <= exc.position <= len(prefix)


@settings(max_examples=150, deadline=None)
@given(text=_texts())
def test_compiled_expression_on_an_array_equals_it_point_by_point(text):
    f, _ = _forms(text)
    xs = np.linspace(-2.0, 3.0, 11)
    with np.errstate(all="ignore"):
        whole = np.broadcast_to(f(xs), xs.shape)
        pointwise = [f(x) for x in xs]
    np.testing.assert_array_equal(whole, np.array(pointwise, dtype=float))


@settings(max_examples=100, deadline=None)
@given(text=_texts())
def test_pole_at_a_sample_raises_domain_error(text):
    # On [0, 4097] the bound samples are the integers, so r = 1 is one of them.
    with pytest.raises(DomainError):
        parse_exponent(f"2 + ({text}) / (r - 1)", "r", (0.0, 4097.0))


def _bounds_or_error(evaluate, interval, source):
    """(p_minus, p_plus) as bits, or the error's class and message."""
    try:
        p = exponent._bounded(evaluate, interval, source)
    except ValueError as exc:
        return type(exc), str(exc)
    return p.p_minus.hex(), p.p_plus.hex()


@settings(max_examples=300, deadline=None)
@given(text=_texts(), a=st.floats(-50.0, 50.0),
       width=st.floats(1e-9, 1e4) | st.sampled_from([1.0, 1000.0]))
@example(text="r", a=-0.0, width=1.0)  # the first sample is 0.0, not -0.0
def test_end_values_of_a_monotone_tree_are_its_scanned_bounds(text, a, width):
    # The bounds from the ends of an expression of known direction equal the scan's bit
    # for bit, or both raise the same error; every numpy warning is an error here.
    interval = (a, a + width)
    evaluate = exponent._evaluator(_forms(text))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        direct = _bounds_or_error(evaluate, interval, text)
        scanned = _bounds_or_error(_scanned(evaluate), interval, text)
    assert direct == scanned
