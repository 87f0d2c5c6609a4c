"""Seeded closed-loop workloads for vexmod.

Each workload turns a seed into an endless, deterministic stream of steps.
A step is one unit of work a caller waits for (a problem, a sweep, a grid, a
CLI run); calling it returns one Outcome per operation it contains: one for
most steps, one per row for a sweep.  Steps come in fixed cycles of strata,
so every run sees the same mix whatever its seed and length.

Outcome statuses:
  ok          finite result within its reference, bound and agreement checks
  failed      raised a documented library error, or returned a non-finite value
  wrong       finite result that misses its reference, exceeds its own
              test-density upper bound, or disagrees with the second oracle
  unexpected  raised an error outside the library's documented set, or a CLI
              run exited with an undocumented code or unparsable output
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

import vexmod
from vexmod import annulus as va
from vexmod import cli as vcli
from vexmod import cylinder as vc
from vexmod import exponent as ve
from vexmod import oracle as vo

import reference as ref

TIGHT = vexmod.BisectionConfig(residual_tol=1e-12, lambda_tol=1e-14)

# Relative tolerance a result must meet against its reference or bound.
# Default settings target a residual of 1e-6; tight ones 1e-12, but the
# quadrature step stays 1e-2, so 1e-6 is what they can be held to.
REL_TOL = {"default": 1e-4, "tight": 1e-6}
# projected_gradient_minimize promises to land within 0.1% of the minimum.
ORACLE_AGREEMENT = 1e-3

# vexmod's own error classes.  The generated inputs are valid by
# construction, so any other exception, a bare ValueError included, is
# "unexpected".
DOCUMENTED_ERRORS = (
    vexmod.BracketFailure,
    vexmod.MaxItersExceeded,
    vexmod.NonFiniteIntegrand,
    vexmod.IntervalTooFine,
    vexmod.ParseError,
    vexmod.DomainError,
    vexmod.ExponentRangeError,
    vo.NonConvergence,
    vo.NotAdmissible,
)
# Error type names a sweep row may report in its ``error`` column.
DOCUMENTED_ROW_ERRORS = frozenset(cls.__name__ for cls in DOCUMENTED_ERRORS)

# CLI exit codes: 0 ok, 2 invalid input, 3 solver failure, 4 failed check.
CLI_FAILED, CLI_CHECK_FAILED = 3, 4


@dataclass
class Outcome:
    status: str
    rel_err: float | None = None
    detail: str = ""


@dataclass
class Step:
    label: str
    run: Callable[[], list]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cycle: int  # steps per stratum cycle
    steps: Callable[..., Iterator[Step]]  # (seed, inprocess) -> stream
    warmup: Callable[[], None]


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


def judge(value, reference, bound, tol: float) -> Outcome:
    """Classify a returned modulus against its reference and upper bound."""
    if not _finite(value) or (bound is not None and not _finite(bound)):
        return Outcome("failed", detail=f"non-finite result {value!r}, bound {bound!r}")
    rel = None if reference is None else abs(value - reference) / abs(reference)
    if rel is not None and rel > tol:
        return Outcome("wrong", rel, f"modulus {value!r} vs reference {reference!r}")
    if bound is not None and value > bound * (1.0 + tol):
        return Outcome("wrong", rel, f"modulus {value!r} exceeds its upper bound {bound!r}")
    return Outcome("ok", rel)


def guarded(fn: Callable[[], list]) -> list:
    """Run one step; an exception becomes its outcome instead of ending the run."""
    try:
        return fn()
    except DOCUMENTED_ERRORS as exc:
        return [Outcome("failed", detail=f"{type(exc).__name__}: {exc}")]
    except Exception as exc:  # the loop must keep going; the type is reported
        return [Outcome("unexpected", detail=f"{type(exc).__name__}: {exc}")]


# ---------------------------------------------------------------------------
# Random inputs.  Numbers are rounded to six significant digits so that each
# input reads the same in an exponent text, a CLI flag and a closed form.


def _sig(x: float) -> float:
    return float(f"{x:.6g}")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _num(x: float) -> str:
    return f"{x:.6g}"


def exponent_text(rng: random.Random, kind: str, var: str, a: float, b: float) -> str:
    """An exponent expression of the given kind with inf above 1 on [a, b]."""
    if kind == "constant":
        return _num(1.0 + _log_uniform(rng, 1e-3, 9.0))
    if kind == "linear":
        p_lo = 1.0 + _log_uniform(rng, 1e-2, 4.0)
        slope = _sig(rng.uniform(0.0, 3.0) / (b - a))
        if rng.random() < 0.5:  # increasing: the inf sits at a
            return f"{_num(p_lo - slope * a)}+{_num(slope)}*{var}"
        return f"{_num(p_lo + slope * b)}-{_num(slope)}*{var}"
    c, d, k = 1.0 + _log_uniform(rng, 1e-2, 3.0), rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0)
    if kind == "exp":  # decreasing towards c > 1
        return f"{_num(c)}+{_num(d)}*exp(-{_num(k)}*{var})"
    return f"{_num(c)}+{_num(d)}*log(1+{_num(k)}*{var})"  # kind == "log"


def _dimension(rng: random.Random) -> int:
    """Integer n in 2..200, log-uniform so that small dimensions dominate."""
    return min(200, int(_log_uniform(rng, 2.0, 201.0)))


# ---------------------------------------------------------------------------
# batch: independent problems over the whole accepted domain.

# Variable-exponent problems with frozen mpmath references.
PANEL = (
    ("annulus", 2, 1.0, 2.0, "1+r"),
    ("annulus", 2, 1.0, 4.0, "1+r"),
    ("annulus", 3, 1.0, 2.0, "1+r"),
    ("cylinder", 1.0, 1.0, None, "2+t"),
    ("cylinder", 1.0, 1.0, None, "2+t/10"),
    ("cylinder", 2.0, 2.0, None, "3"),
)
# Known defects at the seed, kept in the draw so that a fix shows:
# a multi-scale ring 99.998% off, n=50 3.2e-4 off, n=200 BracketFailure,
# p=1.0001 NonFiniteIntegrand.
EDGE = (
    ("annulus", 3, 1e-6, 1.0, "3"),
    ("annulus", 50, 1.0, 2.0, "2"),
    ("annulus", 200, 1.0, 2.0, "2"),
    ("annulus", 2, 1.0, 2.0, "1.0001"),
)
KINDS = ("constant", "linear", "exp", "log")
BATCH_STRATA = [(g, k, t) for t in (False, True) for g in ("annulus", "cylinder") for k in KINDS]


def _batch_problem(spec: tuple, tight: bool) -> Step:
    geometry, a, b, c, p_text = spec
    tol = REL_TOL["tight" if tight else "default"]
    bis = TIGHT if tight else None

    def run() -> list:
        if geometry == "annulus":
            prob = va.AnnulusProblem(a, b, c, ve.parse_exponent(p_text, "r", (b, c)))
            sol = va.solve_annulus(prob, None, bis)
            bound = va.log_density_upper_bound(prob)
            reference = ref.annulus_reference(a, b, c, p_text)
        else:
            prob = vc.CylinderProblem(a, b, ve.parse_exponent(p_text, "t", (0.0, b)))
            sol = vc.solve_cylinder(prob, None, bis)
            bound = vc.constant_density_upper_bound(prob)
            reference = ref.cylinder_reference(a, b, p_text)
        return [judge(sol.modulus, reference, bound, tol)]

    label = f"{geometry} {a} {b} {c} p={p_text}{' tight' if tight else ''}"
    return Step(label, run)


def _random_batch_spec(rng: random.Random, geometry: str, kind: str) -> tuple:
    if geometry == "annulus":
        n = _dimension(rng)
        r1 = _sig(_log_uniform(rng, 1e-6, 10.0))
        # Short intervals: at most ~400 Simpson nodes at the default step.
        r2 = _sig(r1 + _log_uniform(rng, 0.05, 4.0))
        return ("annulus", n, r1, r2, exponent_text(rng, kind, "r", r1, r2))
    area, length = _sig(_log_uniform(rng, 0.1, 10.0)), _sig(_log_uniform(rng, 0.05, 4.0))
    return ("cylinder", area, length, None, exponent_text(rng, kind, "t", 0.0, length))


def batch_steps(seed: int, inprocess: bool = True) -> Iterator[Step]:
    rng = random.Random(seed)
    cycle = 0
    while True:
        for geometry, kind, tight in BATCH_STRATA:
            yield _batch_problem(_random_batch_spec(rng, geometry, kind), tight)
        yield _batch_problem(PANEL[cycle % len(PANEL)], (cycle // len(PANEL)) % 2 == 1)
        yield _batch_problem(EDGE[cycle % len(EDGE)], False)
        cycle += 1


def batch_warmup() -> None:
    guarded(_batch_problem(PANEL[0], False).run)
    guarded(_batch_problem(PANEL[3], False).run)


# ---------------------------------------------------------------------------
# sweep: one template, many outer radii, up to r2/r1 ~ 1000.

SWEEP_ROWS = 10


def _sweep_step(n: int, r1: float, p_text: str, radii: list[float]) -> Step:
    tol = REL_TOL["default"]

    def run() -> list:
        top = max(radii)
        template = va.AnnulusProblem(n, r1, top, ve.parse_exponent(p_text, "r", (r1, top)))
        out = []
        for row in va.modulus_sweep(template, radii):
            if row.error is not None:
                kind = row.error.split(":", 1)[0]
                status = "failed" if kind in DOCUMENTED_ROW_ERRORS else "unexpected"
                out.append(Outcome(status, detail=f"r2={row.r2}: {row.error}"))
                continue
            sub = va.AnnulusProblem(n, r1, row.r2, template.p.restricted(r1, row.r2))
            bound = va.log_density_upper_bound(sub)
            out.append(judge(row.modulus, ref.annulus_reference(n, r1, row.r2, p_text), bound, tol))
        return out

    return Step(f"sweep n={n} r1={r1} p={p_text} to {max(radii)}", run)


# (n, exponent template, r2/r1 at the top row) with r1 = 1; {0}, {1}, {2}
# are coefficients the seed jitters by +-5%.  A sweep's cost grows with its
# top radius and with how steep the density is, so the shapes are fixed and
# only jittered, keeping every run's mix of cheap and expensive rows alike.
SWEEP_TEMPLATES = (
    (3, ("{0}+{1}*r", 1.5, 0.002), 1000.0),
    (3, ("{0}+{1}*log(r)", 1.5, 0.3), 600.0),
    (2, ("{0}+{1}*exp(-{2}*r)", 1.8, 1.0, 0.5), 250.0),
    (2, ("{0}", 1.2), 100.0),
)


def sweep_steps(seed: int, inprocess: bool = True) -> Iterator[Step]:
    rng = random.Random(seed)
    cycle = 0
    while True:
        # The fixed 1+r template: mpmath references at r2 = 2 and 4, and
        # BracketFailure on the large rows.
        yield _sweep_step(2 + cycle % 2, 1.0, "1+r", [2.0**k for k in range(1, SWEEP_ROWS + 1)])
        for n, (template, *coefs), top in SWEEP_TEMPLATES:
            p_text = template.format(*(_num(c * rng.uniform(0.95, 1.05)) for c in coefs))
            top = top * rng.uniform(0.95, 1.05)
            yield _sweep_step(n, 1.0, p_text, [_sig(v) for v in np.geomspace(1.5, top, SWEEP_ROWS)])
        cycle += 1


def sweep_warmup() -> None:
    guarded(_sweep_step(2, 1.0, "2+log(r)", [2.0, 4.0]).run)


# ---------------------------------------------------------------------------
# oracle: formula-free minimization on grids, plus averaging draws.

# (geometry, exponent, r1 or area, r2 or length, cells).  Fixed shapes: the
# projected-gradient iteration count, and so the step time, swings from 5 ms
# to 800 ms with the exponent, so the seed only jitters the interval by +-5%
# and draws the averaging densities.  p = 1.2 on the ring is a known
# NonConvergence of the projected-gradient oracle, kept in the draw.
ORACLE_PANEL = (
    ("cylinder", "2+t/10", 1.0, 1.0, 200),
    ("cylinder", "1.5+log(1+t)", 1.0, 2.0, 650),
    ("annulus", "2+exp(-r)", 1.0, 3.0, 2000),
    ("cylinder", "2+t", 1.0, 1.0, 1550),
    ("annulus", "1+r", 1.0, 4.0, 1100),
    ("annulus", "1+r", 1.0, 4.0, 2000),
    ("annulus", "1.2", 1.0, 2.0, 200),
    ("cylinder", "1.1+t", 1.0, 1.0, 200),
    ("cylinder", "1.1+t", 1.0, 1.0, 650),
)
AVERAGING_DRAWS = 4


def _oracle_step(geometry: str, cells: int, p_text: str, a: float, b: float, draw_seed: int) -> Step:
    def run() -> list:
        if geometry == "annulus":  # the polar-grid averaging check needs n = 2
            prob = va.AnnulusProblem(2, a, b, ve.parse_exponent(p_text, "r", (a, b)))
            w, p, delta = vo.annulus_grid(prob, cells)
            centers = a + (np.arange(40) + 0.5) * (b - a) / 40
            m, width, check = 64, 2.0 * math.pi / 64, vo.spherical_average_check
        else:
            prob = vc.CylinderProblem(a, b, ve.parse_exponent(p_text, "t", (0.0, b)))
            w, p, delta = vo.cylinder_grid(prob, cells)
            centers = (np.arange(40) + 0.5) * b / 40
            m, width, check = 32, a / 32, vo.fibre_average_check
        stationary = vo.discrete_energy(vo.discrete_minimize(w, p, delta), w, p)
        descended = vo.discrete_energy(vo.projected_gradient_minimize(w, p, delta), w, p)
        rel = abs(descended - stationary) / abs(stationary)
        if not _finite(stationary, descended):
            return [Outcome("failed", detail=f"non-finite energies {stationary!r}, {descended!r}")]
        if rel > ORACLE_AGREEMENT:
            return [Outcome("wrong", rel, f"oracles disagree: {stationary!r} vs {descended!r}")]
        rng = np.random.default_rng(draw_seed)
        for _ in range(AVERAGING_DRAWS):
            rho = vo.random_admissible_2d(centers, centers[1] - centers[0], m, width, rng)
            rep = check(rho, prob)
            if not (rep.admissible_after and rep.energy_after <= rep.energy_before):
                return [Outcome("wrong", rel, f"averaging raised energy or lost admissibility: {rep}")]
        return [Outcome("ok", rel)]

    return Step(f"oracle {geometry} {cells} cells p={p_text}", run)


def oracle_steps(seed: int, inprocess: bool = True) -> Iterator[Step]:
    rng = random.Random(seed)
    while True:
        for geometry, p_text, a, b, cells in ORACLE_PANEL:
            jitter = rng.uniform(0.95, 1.05)
            b = _sig(a + (b - a) * jitter) if geometry == "annulus" else _sig(b * jitter)
            yield _oracle_step(geometry, cells, p_text, a, b, rng.getrandbits(32))


def oracle_warmup() -> None:
    guarded(_oracle_step("annulus", 50, "1+r", 1.0, 2.0, 0).run)
    guarded(_oracle_step("cylinder", 50, "2+t", 1.0, 1.0, 0).run)


# ---------------------------------------------------------------------------
# cli: what a shell user pays, one `python -m vexmod` process per step.

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FORMATS = ("human", "csv", "json")
CLI_TIMEOUT_S = 60


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _check_cli_output(command: str, fmt: str, text: str, reference) -> Outcome:
    """Parse a successful run's report; compare the modulus where one is known."""
    if fmt == "json":
        payload = json.loads(text)
        if payload.get("command") != command:
            raise ValueError(f"json report names command {payload.get('command')!r}")
        if command in ("annulus", "cylinder"):
            return judge(payload["modulus"], reference, payload["upper_bound"], REL_TOL["default"])
        if command == "sweep":
            return _judge_rows([(r["param"], r["modulus"], r["upper_bound"], r["error"]) for r in payload["rows"]], reference)
        return Outcome("ok")
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if len(rows) < 2 or any(not row for row in rows[1:]):
            raise ValueError(f"csv report has no data rows: {text[:200]!r}")
        head = rows[0]
        if command in ("annulus", "cylinder"):
            rec = dict(zip(head, rows[1]))
            return judge(float(rec["modulus"]), reference, float(rec["upper_bound"]), REL_TOL["default"])
        if command == "sweep":
            recs = [dict(zip(head, row)) for row in rows[1:]]
            return _judge_rows(
                [(float(r["param"]), float(r["modulus"] or "nan"), float(r["upper_bound"] or "nan"), r["error"] or None) for r in recs],
                reference,
            )
        return Outcome("ok")
    if not text.strip():
        raise ValueError("empty human report")
    failed_rows = [line.strip() for line in text.splitlines() if " error: " in line]
    if command == "sweep" and failed_rows:
        return Outcome("failed", detail=f"row {failed_rows[0]}")
    return Outcome("ok")


def _judge_rows(rows: list, reference) -> Outcome:
    """A sweep report is one outcome: its worst row."""
    worst = Outcome("ok")
    for r2, modulus, bound, error in rows:
        if error:
            return Outcome("failed", detail=f"row {r2}: {error}")
        out = judge(modulus, None if reference is None else reference(r2), bound, REL_TOL["default"])
        if out.status != "ok":
            return out
        if out.rel_err is not None and (worst.rel_err is None or out.rel_err > worst.rel_err):
            worst = out
    return worst


def _cli_step(argv: list[str], reference, inprocess: bool) -> Step:
    command = argv[0]
    fmt = argv[argv.index("--format") + 1]

    def run() -> list:
        if inprocess:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = vcli.main(argv)
                except SystemExit as exc:  # argparse rejected the arguments
                    code = exc.code
            stdout, stderr = out.getvalue(), err.getvalue()
        else:
            proc = subprocess.run(
                [sys.executable, "-m", "vexmod", *argv],
                capture_output=True, text=True, env=cli_env(), cwd=ROOT, timeout=CLI_TIMEOUT_S,
            )
            code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        if code == CLI_FAILED:
            return [Outcome("failed", detail=f"exit 3: {stderr.strip()[:200]}")]
        if code == CLI_CHECK_FAILED:
            return [Outcome("wrong", detail=f"exit 4: {stdout[-200:]}")]
        if code != 0:
            return [Outcome("unexpected", detail=f"exit {code}: {stderr.strip()[-300:]}")]
        try:
            return [_check_cli_output(command, fmt, stdout, reference)]
        except (ValueError, KeyError, TypeError) as exc:
            return [Outcome("unexpected", detail=f"unparsable {fmt} report: {exc}")]

    return Step(" ".join(argv), run)


def cli_steps(seed: int, inprocess: bool = False) -> Iterator[Step]:
    """Odd cycles solve the mpmath panel problems; even cycles jittered
    constant exponents, judged by the closed forms."""
    rng = random.Random(seed)
    cycle = 0
    while True:
        fmts = [FORMATS[(cycle + i) % 3] for i in range(5)]
        jitter = [rng.uniform(0.95, 1.05) for _ in range(4)]
        n = 2 + (cycle // 2) % 2
        if cycle % 2:
            r2, p_ring, area, length, p_cyl = 2.0, "1+r", 1.0, 1.0, "2+t"
        else:
            r2, p_ring = _sig(2.0 * jitter[0]), _num(2.5 * jitter[1])
            area, length, p_cyl = _sig(jitter[2]), _sig(jitter[3]), p_ring
        yield _cli_step(
            ["annulus", "--n", str(n), "--r1", "1", "--r2", repr(r2), f"--p={p_ring}", "--format", fmts[0]],
            ref.annulus_reference(n, 1.0, r2, p_ring), inprocess,
        )
        yield _cli_step(
            ["cylinder", "--area", repr(area), "--length", repr(length), f"--p={p_cyl}", "--format", fmts[1]],
            ref.cylinder_reference(area, length, p_cyl), inprocess,
        )
        radii = [_sig(v * jitter[0]) for v in (1.5, 2.0, 4.0, 40.0)]
        yield _cli_step(
            ["sweep", "--geometry", "annulus", "--n", str(n), "--r1", "1", f"--p={p_ring}",
             "--values", ",".join(repr(v) for v in radii), "--format", fmts[2]],
            lambda r2, n=n, p_text=p_ring: ref.annulus_reference(n, 1.0, r2, p_text), inprocess,
        )
        yield _cli_step(["tables", "--format", fmts[3]], None, inprocess)
        yield _cli_step(["oracle-check", "--seed", str(rng.getrandbits(31)), "--format", fmts[4]], None, inprocess)
        cycle += 1


def cli_warmup() -> None:
    """Nothing runs in-process: each step starts its own interpreter."""


WORKLOADS = {
    "batch": Workload(
        "batch",
        "independent ring and cylinder problems over the whole accepted domain; "
        "per-call overhead and bisection evaluations dominate",
        len(BATCH_STRATA) + 2,
        batch_steps,
        batch_warmup,
    ),
    "sweep": Workload(
        "sweep",
        "one template swept over outer radii up to r2/r1 ~ 1000; rows share n, r1 "
        "and the exponent, so warm starts and shared caches can pay off",
        1 + len(SWEEP_TEMPLATES),
        sweep_steps,
        sweep_warmup,
    ),
    "oracle": Workload(
        "oracle",
        "formula-free grid minimizers and averaging draws on 200-2000 cells; the "
        "no-change side for root-finding and quadrature work",
        len(ORACLE_PANEL),
        oracle_steps,
        oracle_warmup,
    ),
    "cli": Workload(
        "cli",
        "sequential python -m vexmod runs of every subcommand and format; what a "
        "shell user pays, interpreter and import start-up included",
        5,
        cli_steps,
        cli_warmup,
    ),
}
