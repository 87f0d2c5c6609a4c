"""Acceptance suite: one test per headline requirement.

Each test gathers every sub-check of its requirement and fails with the full
list of violations, so a red line here names exactly which numbers are off
and by how much.  Every expected value is printed by
`tools/reference_values.py` (mpmath, 40 digits).  Two arguments that use no
multiplier convention back them: a density c(x) lam^(1/(p(x)-1)) has a
normalization integral of log-slope in lam between 1/(p_max-1) and
1/(p_min-1), and Young's inequality bounds the energy of every admissible
density from below (see `young_lower_bound`), a bound the modulus attains.
"""

import math
import time

import numpy as np
import pytest

from vexmod import (
    AnnulusProblem,
    BisectionConfig,
    CylinderProblem,
    constant_exponent_modulus,
    log_density_upper_bound,
    constant_density_upper_bound,
    modulus_sweep,
    normalization_value,
    cylinder_normalization_value,
    parse_exponent,
    solve_annulus,
    solve_cylinder,
    unit_sphere_area,
)
from vexmod.oracle import (
    annulus_grid,
    cylinder_grid,
    discrete_energy,
    discrete_minimize,
    fibre_average_check,
    random_admissible_2d,
    spherical_average_check,
)
from vexmod.quadrature import integrate

TIGHT = BisectionConfig(residual_tol=1e-12, lambda_tol=1e-14)

# Reference ring (n=2, [1, 2], p = 1+r) and cylinder (A=1, L=1, p = 2+t),
# as printed by tools/reference_values.py.
RING_NORMALIZATION = {
    1.0: 0.12149903118784478,
    2.0: 0.19357762825852136,
    3.0: 0.25525646095733784,
    3.5: 0.28379492356577508,
    3.35: 0.27536273150757441,
}
RING_LAMBDA = 20.778872988263774
RING_MODULUS = 8.652192184157259
RING_UPPER_BOUND = 8.678428991685409
RING_RATIO = 1.0030323884363308

CYLINDER_NORMALIZATION = {
    1.0: 0.5414899591782866,
    1.3: 0.6489473870378759,
    1.5: 0.7166986304412698,
    1.532: 0.727299251292322,
}
CYLINDER_LAMBDA = 2.4139190536713134
CYLINDER_MODULUS = 0.9883254219265588
CYLINDER_GAP = 0.011674578073441231


def ring_example() -> AnnulusProblem:
    return AnnulusProblem(2, 1.0, 2.0, parse_exponent("1+r", "r", (1.0, 2.0)))


def cylinder_example() -> CylinderProblem:
    return CylinderProblem(1.0, 1.0, parse_exponent("2+t", "t", (0.0, 1.0)))


def check(failures: list, ok: bool, detail: str) -> None:
    if not ok:
        failures.append(detail)


def report(failures: list) -> None:
    assert not failures, "\n" + "\n".join(failures)


def rel_error(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def young_lower_bound(weight, p, lam: float, a: float, b: float) -> float:
    """Lower bound on the weighted energy of every admissible density.

    Young's inequality gives w rho^p >= lam rho - (p-1) w (lam/(p w))^(p/(p-1))
    pointwise, so for any lam > 0 every rho with integral >= 1 over [a, b]
    has energy at least the returned value.  Its maximum over lam is the
    modulus, reached where (lam/(p w))^(1/(p-1)) integrates to 1.
    """

    def integrand(x):
        px = p.eval(x)
        wx = weight(x)
        return (px - 1.0) * wx * (lam / (px * wx)) ** (px / (px - 1.0))

    return lam - integrate(integrand, a, b)


def test_01_ring_normalization_table():
    required = RING_NORMALIZATION
    prob = ring_example()
    failures = []
    start = time.perf_counter()
    computed = {lam: normalization_value(prob, lam) for lam in required}
    elapsed = time.perf_counter() - start
    for lam, want in required.items():
        got = computed[lam]
        check(
            failures,
            abs(got - want) <= 1e-6,
            f"g({lam}) = {got:.10f}, required {want} +/- 1e-6",
        )
    check(failures, elapsed < 1.0, f"runtime {elapsed:.3f}s, required < 1s")
    report(failures)


def test_02_ring_headline_numbers():
    prob = ring_example()
    failures = []
    start = time.perf_counter()
    sol = solve_annulus(prob)
    bound = log_density_upper_bound(prob)
    elapsed = time.perf_counter() - start
    ratio = bound / sol.modulus
    omega = unit_sphere_area(prob.n)
    lower = young_lower_bound(
        lambda r: omega * r ** (prob.n - 1), prob.p, sol.lam, prob.r1, prob.r2
    )
    check(
        failures,
        rel_error(sol.lam, RING_LAMBDA) <= 1e-5,
        f"lambda = {sol.lam:.10f}, required {RING_LAMBDA} +/- rel 1e-5",
    )
    g_at_root = normalization_value(prob, sol.lam)
    check(
        failures,
        abs(g_at_root - 1.0) < 1e-3,
        f"|g(lambda) - 1| = {abs(g_at_root - 1.0):.2e}, required < 1e-3",
    )
    check(
        failures,
        rel_error(sol.modulus, RING_MODULUS) <= 1e-5,
        f"modulus = {sol.modulus:.10f}, required {RING_MODULUS} +/- rel 1e-5",
    )
    check(
        failures,
        rel_error(lower, sol.modulus) <= 1e-5,
        f"Young lower bound at lambda = {lower:.10f}, modulus {sol.modulus:.10f}, "
        "required equal to rel 1e-5",
    )
    check(
        failures,
        rel_error(bound, RING_UPPER_BOUND) <= 1e-5,
        f"upper bound = {bound:.10f}, required {RING_UPPER_BOUND} +/- rel 1e-5",
    )
    check(
        failures,
        rel_error(ratio, RING_RATIO) <= 1e-5,
        f"bound/modulus = {ratio:.10f}, required {RING_RATIO} +/- rel 1e-5",
    )
    check(failures, elapsed < 1.0, f"runtime {elapsed:.3f}s, required < 1s")
    report(failures)


def test_03_cylinder_normalization_table():
    required = CYLINDER_NORMALIZATION
    prob = cylinder_example()
    failures = []
    for lam, want in required.items():
        got = cylinder_normalization_value(prob, lam)
        check(
            failures,
            abs(got - want) <= 1e-6,
            f"h({lam}) = {got:.10f}, required {want} +/- 1e-6",
        )
    report(failures)


def test_04_cylinder_headline_numbers():
    prob = cylinder_example()
    failures = []
    sol = solve_cylinder(prob)
    bound = constant_density_upper_bound(prob)
    gap = bound - sol.modulus
    lower = prob.area * young_lower_bound(
        lambda t: 1.0, prob.p, sol.lam, 0.0, prob.length
    )
    check(
        failures,
        rel_error(sol.lam, CYLINDER_LAMBDA) <= 1e-5,
        f"lambda = {sol.lam:.10f}, required {CYLINDER_LAMBDA} +/- rel 1e-5",
    )
    check(
        failures,
        rel_error(sol.modulus, CYLINDER_MODULUS) <= 1e-5,
        f"modulus = {sol.modulus:.10f}, required {CYLINDER_MODULUS} +/- rel 1e-5",
    )
    check(
        failures,
        rel_error(lower, sol.modulus) <= 1e-5,
        f"Young lower bound at lambda = {lower:.10f}, modulus {sol.modulus:.10f}, "
        "required equal to rel 1e-5",
    )
    check(failures, bound == 1.0, f"constant-density bound = {bound!r}, required exactly 1")
    check(
        failures,
        abs(gap - CYLINDER_GAP) <= 1e-5,
        f"extremality gap = {gap:.10f}, required {CYLINDER_GAP} +/- 1e-5",
    )
    report(failures)


def test_05_constant_exponent_closed_forms():
    failures = []
    for n in (2, 3):
        for p_const in (2.0, 3.0):
            for r2 in (2.0, math.e):
                p = parse_exponent(repr(p_const), "r", (1.0, r2))
                sol = solve_annulus(AnnulusProblem(n, 1.0, r2, p))
                exact = constant_exponent_modulus(n, p_const, 1.0, r2)
                rel = abs(sol.modulus - exact) / exact
                check(
                    failures,
                    rel <= 1e-5,
                    f"n={n} p={p_const} r2={r2:.3f}: solver {sol.modulus:.10f} "
                    f"vs closed form {exact:.10f}, rel {rel:.2e}",
                )
    report(failures)


def test_06_log_density_bound_sharp_iff_exponent_is_the_dimension():
    failures = []
    for n in (2, 3):
        p = parse_exponent(repr(float(n)), "r", (1.0, 2.0))
        prob = AnnulusProblem(n, 1.0, 2.0, p)
        sol = solve_annulus(prob, bis=TIGHT)
        bound = log_density_upper_bound(prob)
        rel = abs(bound - sol.modulus) / sol.modulus
        check(
            failures,
            rel <= 1e-5,
            f"p = n = {n}: bound and modulus differ by rel {rel:.2e}, required <= 1e-5",
        )
        rs = np.linspace(1.0, 2.0, 100)
        rho_log = 1.0 / (rs * math.log(2.0))
        sup = float(np.max(np.abs(sol.density(rs) - rho_log) / rho_log))
        check(
            failures,
            sup < 1e-8,
            f"p = n = {n}: extremal density is rel {sup:.2e} from the log density, "
            "required < 1e-8",
        )
    prob = ring_example()
    sol = solve_annulus(prob, bis=TIGHT)
    bound = log_density_upper_bound(prob)
    margin = bound / sol.modulus - 1.0
    want = RING_RATIO - 1.0
    check(
        failures,
        abs(margin - want) <= 1e-6,
        f"p = 1+r: bound exceeds modulus by {margin:.10f}, required {want:.10f} +/- 1e-6",
    )
    # 100 times the 1e-5 sharpness tolerance used for p = n above.
    check(
        failures,
        margin > 1e-3,
        f"p = 1+r: bound exceeds modulus by {margin:.2e}, required > 1e-3",
    )
    report(failures)


def _seeded_problems(rng):
    forms = ("{a} + {b}*r", "{a} + {b}*log(1+r)", "{a} + {b}*exp(-r)")
    for i in range(10):
        a = round(float(rng.uniform(1.2, 3.0)), 6)
        b = round(float(rng.uniform(0.0, 1.5)), 6)
        n = int(rng.integers(2, 5))
        r1 = round(float(rng.uniform(0.5, 2.0)), 6)
        r2 = round(r1 * float(rng.uniform(1.5, 4.0)), 6)
        text = forms[i % 3].format(a=a, b=b)
        yield "annulus", AnnulusProblem(
            n, r1, r2, parse_exponent(text, "r", (r1, r2))
        )
    forms_t = ("{a} + {b}*t", "{a} + {b}*log(1+t)", "{a} + {b}*exp(-t)")
    for i in range(10):
        a = round(float(rng.uniform(1.2, 3.0)), 6)
        b = round(float(rng.uniform(0.0, 1.5)), 6)
        area = round(float(rng.uniform(0.5, 2.0)), 6)
        length = round(float(rng.uniform(0.5, 3.0)), 6)
        text = forms_t[i % 3].format(a=a, b=b)
        yield "cylinder", CylinderProblem(
            area, length, parse_exponent(text, "t", (0.0, length))
        )


def test_07_euler_lagrange_residuals_on_random_problems():
    rng = np.random.default_rng(20260819)
    failures = []
    for kind, prob in _seeded_problems(rng):
        if kind == "annulus":
            sol = solve_annulus(prob)
            xs = np.linspace(prob.r1, prob.r2, 100)
            pvals = np.asarray(prob.p.eval(xs), dtype=float)
            lhs = (
                pvals
                * unit_sphere_area(prob.n)
                * xs ** (prob.n - 1)
                * sol.density(xs) ** (pvals - 1.0)
            )
        else:
            sol = solve_cylinder(prob)
            xs = np.linspace(0.0, prob.length, 100)
            pvals = np.asarray(prob.p.eval(xs), dtype=float)
            lhs = pvals * sol.density(xs) ** (pvals - 1.0)
        sup = float(np.max(np.abs(lhs - sol.lam) / sol.lam))
        check(
            failures,
            sup < 1e-8,
            f"{kind} {prob}: sup relative stationarity residual {sup:.2e}, required < 1e-8",
        )
    report(failures)


def test_08_discrete_oracle_matches_and_converges():
    failures = []
    for label, prob, solve, grid_fn in (
        ("ring", ring_example(), solve_annulus, annulus_grid),
        ("cylinder", cylinder_example(), solve_cylinder, cylinder_grid),
    ):
        reference = solve(prob, bis=TIGHT).modulus
        errors = {}
        for n_cells in (100, 200):
            w, p, delta = grid_fn(prob, n_cells)
            energy = discrete_energy(discrete_minimize(w, p, delta), w, p)
            errors[n_cells] = abs(energy - reference)
        rel = errors[200] / reference
        check(
            failures,
            rel <= 1e-2,
            f"{label}: grid energy at 200 cells is rel {rel:.2e} from the modulus, "
            "required <= 1e-2",
        )
        ratio = errors[100] / errors[200]
        check(
            failures,
            ratio >= 1.8,
            f"{label}: error ratio 100 -> 200 cells is {ratio:.2f}, required >= 1.8",
        )
    report(failures)


def test_09_averaging_never_increases_energy():
    failures = []
    rng = np.random.default_rng(20260819)
    ann = ring_example()
    cyl = cylinder_example()
    start = time.perf_counter()

    r_centers = ann.r1 + (np.arange(40) + 0.5) * (ann.r2 - ann.r1) / 40
    for i in range(100):
        rho = random_admissible_2d(
            r_centers, (ann.r2 - ann.r1) / 40, 64, 2.0 * math.pi / 64, rng
        )
        rep = spherical_average_check(rho, ann)
        check(failures, rep.admissible_after, f"ring draw {i}: average not admissible")
        check(
            failures,
            rep.energy_after <= rep.energy_before,
            f"ring draw {i}: energy rose {rep.energy_before} -> {rep.energy_after}",
        )

    t_centers = (np.arange(40) + 0.5) * cyl.length / 40
    for i in range(100):
        rho = random_admissible_2d(t_centers, cyl.length / 40, 32, cyl.area / 32, rng)
        rep = fibre_average_check(rho, cyl)
        check(failures, rep.admissible_after, f"cylinder draw {i}: average not admissible")
        check(
            failures,
            rep.energy_after <= rep.energy_before,
            f"cylinder draw {i}: energy rose {rep.energy_before} -> {rep.energy_after}",
        )

    elapsed = time.perf_counter() - start
    check(failures, elapsed < 30.0, f"runtime {elapsed:.1f}s, required < 30s")
    report(failures)


def test_10_modulus_decreases_in_the_outer_radius():
    values = [1.001, 1.01, 1.1, 2.0, 10.0, 100.0]
    p = parse_exponent("2", "r", (1.0, 100.0))
    template = AnnulusProblem(2, 1.0, 100.0, p)
    rows = modulus_sweep(template, values)
    failures = []
    for row in rows:
        check(failures, row.error is None, f"r2 = {row.r2}: {row.error}")
    moduli = [row.modulus for row in rows if row.error is None]
    check(
        failures,
        all(a > b for a, b in zip(moduli, moduli[1:])),
        f"moduli not strictly decreasing: {moduli}",
    )
    if moduli:
        check(
            failures,
            moduli[0] > 1e3 * moduli[-1],
            f"first/last = {moduli[0] / moduli[-1]:.1f}, required > 1000",
        )
    report(failures)


def test_11_potential_construction_recovers_the_modulus():
    # Two-sided bracket at the solver's multiplier: Young's bound from below,
    # and from above the energy of the admissible rho / (integral of rho),
    # which is the gradient energy of the potential u(x) = int_x^b rho / int rho.
    failures = []
    ann, cyl = ring_example(), cylinder_example()
    omega = unit_sphere_area(ann.n)
    for label, prob, solve, weight, a, b, scale, reference in (
        ("ring", ann, solve_annulus, lambda r: omega * r ** (ann.n - 1),
         ann.r1, ann.r2, 1.0, RING_MODULUS),
        ("cylinder", cyl, solve_cylinder, lambda t: 1.0, 0.0, cyl.length, cyl.area,
         CYLINDER_MODULUS),
    ):
        sol = solve(prob, bis=TIGHT)
        lower = scale * young_lower_bound(weight, prob.p, sol.lam, a, b)
        mass = integrate(sol.density, a, b)
        upper = scale * integrate(
            lambda x: weight(x) * (sol.density(x) / mass) ** prob.p.eval(x), a, b
        )
        check(
            failures,
            abs(upper - lower) <= 1e-12 * reference,
            f"{label}: bracket [{lower!r}, {upper!r}] wider than 1e-12 * {reference}",
        )
        for side, value in (("lower", lower), ("upper", upper)):
            check(
                failures,
                rel_error(value, reference) <= 1e-8,
                f"{label}: {side} side {value:.12f}, required {reference} +/- rel 1e-8",
            )
    report(failures)
