"""The log-space Newton multiplier kernel, and bracketed bisection for increasing functions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vexmod.rootfind import (
    _defect,
    BisectionConfig,
    BracketFailure,
    MaxItersExceeded,
    log_total,
    positive_normal,
    solve_increasing,
    solve_multiplier,
)


UNIT = (1.0, 1.0)  # (width, div): the plain coefficient-weighted sum


def _weights(inv, coef=None):
    """The kernel's (c, c * inv) rows, c = 1 unless given."""
    coef = np.ones_like(inv) if coef is None else coef
    return np.array((coef, coef * inv))


def _one_row(inv, base, coef=None, span=UNIT, cfg=None):
    """``solve_multiplier`` on a pass of one row: (l, |N - 1|, iters, scale, terms) or its
    failure (exception class, message)."""
    sol = solve_multiplier(inv, base, _weights(inv, coef), [0], [span], cfg)
    if sol.error[0] is not None:
        return sol.error[0]
    return sol.log_lam[0], sol.residual[0], sol.iters[0], sol.scale[0], sol.terms


def _reference_newton(inv, base, coef, span, cfg):
    """The one-row safeguarded Newton loop the kernel runs in lockstep, evaluating with
    ``log_total`` on the row alone: (l, |N - 1|, iters, bisection steps) or the failure
    (exception class, message)."""
    weights = _weights(inv, coef)
    ell, bisections = 0.0, 0
    f, df = (v[0] for v in log_total(inv, base, weights, [0], None, [span], [ell])[:2])
    residual = _defect(f)
    if residual <= cfg.residual_tol:
        return ell, residual, 0, 0
    lo, hi = sorted((ell - f / float(inv.max()), ell - f / float(inv.min())))
    step_old = step = math.inf
    for iters in range(1, cfg.max_iters + 1):
        newton = ell - f / df
        if lo <= newton <= hi and abs(2.0 * f) <= abs(step_old * df):
            new = newton
        else:
            new, bisections = 0.5 * (lo + hi), bisections + 1
        step_old, step, ell = step, new - ell, new
        f, df = (v[0] for v in log_total(inv, base, weights, [0], None, [span], [ell])[:2])
        residual = _defect(f)
        if residual <= cfg.residual_tol or abs(step) <= cfg.lambda_tol:
            return ell, residual, iters, bisections
        if f < 0.0:
            lo = ell
        else:
            hi = ell
    return (MaxItersExceeded, f"no convergence in {cfg.max_iters} iterations,"
            f" log multiplier in [{lo}, {hi}]")


def test_constant_exponent_is_solved_exactly_in_one_step():
    # N(l) = 3 * 0.5 e^l: log N is linear, so the first Newton step lands on log(2/3).
    inv, base = np.ones(3), np.full(3, math.log(0.5))
    ell, residual, iters, _, _ = _one_row(inv, base)
    assert ell == pytest.approx(math.log(2.0 / 3.0), rel=1e-15)
    assert residual <= 1e-15 and iters == 1


def test_first_evaluation_inside_the_tolerance_is_accepted():
    ell, residual, iters, scale, terms = _one_row(np.ones(2), np.full(2, -math.log(2.0)))
    assert (ell, residual, iters) == (0.0, 0.0, 0)
    assert math.exp(scale) * terms.sum() == 1.0


def test_log_total_and_its_slope():
    inv, base = np.array([0.5, 2.0]), np.array([0.0, -1.0])
    f, df, scale, terms = log_total(inv, base, _weights(inv), [0], None, [UNIT], [0.3])
    direct = np.exp(0.3 * inv + base)
    assert f[0] == pytest.approx(math.log(direct.sum()), rel=1e-15)
    assert df[0] == pytest.approx((inv * direct).sum() / direct.sum(), rel=1e-15)
    assert terms.max() == 1.0 and np.allclose(terms * math.exp(scale[0]), direct, rtol=1e-15)


def test_log_total_weighs_the_terms_by_coefficients_and_span():
    # Simpson on [0, 2] with 2 subintervals: (2 / 6) * (t0 + 4 t1 + t2).
    inv, base = np.array([0.5, 1.0, 2.0]), np.array([0.0, -1.0, 0.5])
    coef = np.array([1.0, 4.0, 1.0])
    f, df, scale, terms = log_total(inv, base, _weights(inv, coef), [0], None, [(2.0, 6.0)],
                                    [-0.2])
    direct = np.exp(-0.2 * inv + base)
    assert f[0] == pytest.approx(math.log(2.0 * (coef * direct).sum() / 6.0), rel=1e-15)
    assert df[0] == pytest.approx((coef * inv * direct).sum() / (coef * direct).sum(), rel=1e-15)
    assert np.allclose(terms * math.exp(scale[0]), direct, rtol=1e-15)


def test_log_total_gives_each_row_of_a_pass_its_numbers_alone():
    # Three rows joined end to end, each at its own multiplier, scale and span.
    rng = np.random.default_rng(3)
    sizes, spans, ell = [5, 1, 9], [UNIT, (2.0, 6.0), (0.5, 3.0)], [0.3, -40.0, 2.0]
    inv, base, coef = rng.uniform(0.1, 20.0, 15), rng.uniform(-30.0, 5.0, 15), rng.uniform(1, 4, 15)
    starts = np.array([0, 5, 6])
    joined = log_total(inv, base, _weights(inv, coef), starts, np.array(sizes), spans,
                       ell)
    for r, (a, n) in enumerate(zip(starts, sizes)):
        row = slice(a, a + n)
        alone = log_total(inv[row], base[row], _weights(inv[row], coef[row]), [0], None,
                          [spans[r]], [ell[r]])
        assert [v[r] for v in joined[:3]] == [v[0] for v in alone[:3]]
        assert joined[3][row].tolist() == alone[3].tolist()
        assert joined[3][row].max() == 1.0


def test_exponents_near_one_do_not_overflow():
    # 1/(p-1) = 10^4 next to p = 3: every power of lam would overflow or underflow.
    inv = np.array([1e4, 1e4, 0.5, 0.5])
    base = np.array([-2.5e4, -2.6e4, -300.0, -310.0])
    ell, residual, iters, scale, terms = _one_row(inv, base, cfg=BisectionConfig(1e-12, 1e-14))
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
    ell, residual, iters, scale, terms = _one_row(inv, base, cfg=BisectionConfig(1e-12, 1e-15))
    f0 = log_total(inv, base, _weights(inv), [0], None, [UNIT], [0.0])[0][0]
    ends = sorted((-f0 * (p.min() - 1.0), -f0 * (p.max() - 1.0)))
    slack = 1e-9 * (1.0 + abs(f0) * p.max())
    assert ends[0] - slack <= ell <= ends[1] + slack
    assert abs(math.log(terms.sum()) + scale) <= 1e-9


def test_multiplier_max_iters_exceeded():
    inv, base = np.array([0.1, 10.0]), np.array([-5.0, -40.0])
    kind, message = _one_row(inv, base, cfg=BisectionConfig(1e-15, 1e-300, max_iters=1))
    assert kind is MaxItersExceeded
    assert message.startswith("no convergence in 1 iterations, log multiplier in")


def test_step_tolerance_stops_the_solve():
    inv, base = np.array([0.1, 10.0]), np.array([-5.0, -40.0])
    ell, residual, iters, _, _ = _one_row(inv, base, cfg=BisectionConfig(1e-15, 1e3))
    assert iters == 1 and residual > 1e-15


# Rows of a pass, by kind: accepted at l = 0, smooth, or stiff (exponents near 1 beside
# large ones), the kind that takes bisection steps.
_ROW_KINDS = {
    "accepted": st.integers(1, 40).map(
        lambda n: (np.full(n, 0.5), np.full(n, -math.log(n)), None, UNIT)),
    "smooth": st.tuples(st.lists(st.floats(1.5, 4.0), min_size=1, max_size=40),
                        st.floats(-50.0, 50.0), st.sampled_from([UNIT, (2.0, 6.0)])).map(
        lambda t: (1.0 / (np.array(t[0]) - 1.0),
                   t[1] - np.log(np.array(t[0])) / (np.array(t[0]) - 1.0), None, t[2])),
    "stiff": st.tuples(st.lists(st.sampled_from([1.0001, 1.01, 1.3, 20.0, 50.0]), min_size=2,
                                max_size=40), st.floats(-300.0, 300.0)).map(
        lambda t: (1.0 / (np.array(t[0]) - 1.0),
                   t[1] - np.linspace(0.0, 40.0, len(t[0])), None, UNIT)),
}


def _assert_rows_match_the_reference(rows, cfg):
    """Solve the rows joined in one pass and each alone with the reference loop; every
    row gets the reference's failure, or its iters and l within 4 ulps."""
    starts = np.cumsum([0] + [row[0].size for row in rows[:-1]])
    inv, base = np.concatenate([row[0] for row in rows]), np.concatenate([row[1] for row in rows])
    coef = np.concatenate([np.ones(row[0].size) if row[2] is None else row[2] for row in rows])
    sol = solve_multiplier(inv, base, _weights(inv, coef), starts, [row[3] for row in rows], cfg)
    refs = []
    for r, (row_inv, row_base, row_coef, span) in enumerate(rows):
        ref = _reference_newton(row_inv, row_base, row_coef, span, cfg)
        refs.append(ref)
        if isinstance(ref[0], type):
            assert sol.error[r] == ref
            continue
        assert sol.error[r] is None
        assert sol.iters[r] == ref[2]
        assert abs(sol.log_lam[r] - ref[0]) <= 4.0 * math.ulp(ref[0])
        assert sol.residual[r] == pytest.approx(ref[1], rel=1e-6, abs=1e-15)
        alone = _one_row(row_inv, row_base, row_coef, span, cfg)
        terms = sol.terms[starts[r]:starts[r] + row_inv.size]
        assert terms.tolist() == alone[4].tolist()  # masked neighbours leave it as alone
    return refs


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(st.sampled_from(sorted(_ROW_KINDS)).flatmap(lambda k: _ROW_KINDS[k]),
                  min_size=1, max_size=12),
    max_iters=st.sampled_from([1, 2, 3, 5, 200]),
)
def test_lockstep_rows_match_the_one_row_loop(rows, max_iters):
    _assert_rows_match_the_reference(rows, BisectionConfig(1e-12, 1e-15, max_iters))


def test_lockstep_pass_holds_every_path_at_once():
    accepted = (np.full(4, 0.5), np.full(4, -math.log(4.0)), None, UNIT)
    smooth = (np.array([1.0, 0.5, 0.25]), np.array([-3.0, -1.0, 0.0]), None, (2.0, 6.0))
    stiff = (1.0 / np.array([1e-4, 1e-2, 0.3, 0.3, 0.3, 1e-4]), 100.0 - np.linspace(0, 40, 6),
             None, UNIT)
    cfg = BisectionConfig(1e-12, 1e-15, max_iters=4)
    refs = _assert_rows_match_the_reference([smooth, stiff, accepted, stiff, smooth], cfg)
    assert refs[2][2] == 0  # accepted at l = 0
    assert refs[0][2] > 0 and refs[0][3] == 0  # Newton steps only
    assert refs[1] == refs[3] and refs[1][1].startswith("no convergence in 4")
    assert refs[1][0] is MaxItersExceeded
    loose = _assert_rows_match_the_reference([stiff, smooth], BisectionConfig(1e-12, 1e-15))
    assert loose[0][2] == 5 and loose[0][3] == 2  # two of its five steps are bisections


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


@pytest.mark.parametrize("bad, shown", [(2.5, "2.5"), (True, "True"), (200.0, "200.0"),
                                        ("5", "'5'"), (np.float64(3.0), "3.0"), (0, "0")])
def test_max_iters_must_be_an_integer(bad, shown):
    # 2.5 once reached range() as a TypeError; True ran one step.
    with pytest.raises(ValueError) as info:
        BisectionConfig(max_iters=bad)
    assert str(info.value) == f"max_iters must be an integer of at least 1, got {shown}"
    assert BisectionConfig(max_iters=np.int64(7)).max_iters == 7


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
