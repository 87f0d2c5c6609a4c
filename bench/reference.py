"""Reference values that judge the library's answers without asking it.

Constant exponents have closed forms, written out here instead of being
imported from vexmod, so the library never grades itself.  Variable-exponent
problems are judged against frozen mpmath values (40 digits, adaptive
quadrature, bisection to 1e-30) printed by ``tools/reference_values.py``.
This module imports nothing from vexmod.
"""

from __future__ import annotations

import math

# (geometry, n or area, r1 or length, r2 or None, exponent text) -> modulus.
# The n=3 ring is computed with the same mpmath solver as the script, which
# prints only its log-bound margin (5.070451215%).
FROZEN = {
    ("annulus", 2, 1.0, 2.0, "1+r"): 8.6521921841572588011,
    ("annulus", 2, 1.0, 4.0, "1+r"): 1.0320950943156118233,
    ("annulus", 3, 1.0, 2.0, "1+r"): 23.418882207958391489,
    ("cylinder", 1.0, 1.0, None, "2+t"): 0.98832542192655876938,
    ("cylinder", 1.0, 1.0, None, "2+t/10"): 0.99980624947967735579,
    ("cylinder", 2.0, 2.0, None, "3"): 0.5,
}

# Closed forms printed by the same script, used to check the formulas below.
_CLOSED_FORM_PANEL = (
    ((2, 2.0, 1.0, 2.0), 9.0647202836543876193),  # 2 pi / log 2
    ((2, 3.0, 1.0, 2.0), 9.1552719185430561),
    ((3, 2.0, 1.0, 2.0), 25.1327412287183459),
    ((3, 3.0, 1.0, math.e), 12.566370614359172954),  # 4 pi
    ((2, 2.0, 1.0, math.e), 6.28318530717958648),
)


def log_unit_sphere_area(n: int) -> float:
    """log of 2 pi^(n/2) / Gamma(n/2), finite for every dimension drawn here."""
    return math.log(2.0) + 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n)


def ring_modulus(n: int, p: float, r1: float, r2: float) -> float:
    """Closed-form ring modulus for a constant exponent p > 1.

    With k = (n-1)/(p-1) the modulus is omega_n * I^(1-p), where
    I = integral of r^(-k) over [r1, r2] = r1^(1-k) * L * expm1(x)/x with
    L = log(r2/r1) and x = (1-k) L.  Working with log I keeps it finite for
    the steep cases (p near 1, large n, r1 near 0) whose powers overflow.
    """
    k = (n - 1) / (p - 1.0)
    L = math.log(r2 / r1)
    x = (1.0 - k) * L
    factor = math.expm1(x) / x if x != 0.0 else 1.0
    log_inner = (1.0 - k) * math.log(r1) + math.log(L) + math.log(factor)
    return math.exp(log_unit_sphere_area(n) + (1.0 - p) * log_inner)


def cylinder_modulus(area: float, length: float, p: float) -> float:
    """Closed-form cylinder modulus for a constant exponent: area * L^(1-p)."""
    return area * length ** (1.0 - p)


def constant_value(text: str) -> float | None:
    """The exponent as a float when its text is a plain number, else None."""
    try:
        return float(text)
    except ValueError:
        return None


def annulus_reference(n: int, r1: float, r2: float, p_text: str) -> float | None:
    p = constant_value(p_text)
    if p is not None:
        return ring_modulus(n, p, r1, r2)
    return FROZEN.get(("annulus", n, float(r1), float(r2), p_text))


def cylinder_reference(area: float, length: float, p_text: str) -> float | None:
    frozen = FROZEN.get(("cylinder", float(area), float(length), None, p_text))
    if frozen is not None:
        return frozen
    p = constant_value(p_text)
    return None if p is None else cylinder_modulus(area, length, p)


def self_check() -> list[str]:
    """Disagreements between the closed forms here and the frozen panel."""
    problems = []
    for (n, p, r1, r2), frozen in _CLOSED_FORM_PANEL:
        got = ring_modulus(n, p, r1, r2)
        if abs(got - frozen) > 1e-13 * frozen:
            problems.append(f"ring n={n} p={p} [{r1}, {r2}]: {got!r} != {frozen!r}")
    got = cylinder_modulus(2.0, 2.0, 3.0)
    if got != FROZEN[("cylinder", 2.0, 2.0, None, "3")]:
        problems.append(f"cylinder A=2 L=2 p=3: {got!r} != 0.5")
    return problems
