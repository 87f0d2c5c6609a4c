"""Command-line front end.

Subcommands: ``annulus`` and ``cylinder`` solve a single problem, ``sweep``
varies the outer radius or the length, ``tables`` regenerates the reference
normalization tables and headline numbers, and ``oracle-check`` runs the
brute-force verification suite.  Each subcommand fills in one ``Report``,
which one of three renderers prints: human, csv or json.  Each option is
declared once, in ``OPTIONS``, which drives both the argument parser and the
``--config`` file.

Exit codes: 0 success, 2 validation error, 3 solver error, 4 failed
verification check.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from .annulus import AnnulusProblem, log_density_upper_bound, normalization_value, solve_annulus
from .cylinder import (
    CylinderProblem,
    constant_density_upper_bound,
    cylinder_normalization_value,
    solve_cylinder,
)
from .exponent import parse_exponent
from .quadrature import IntervalTooFine, NonFiniteIntegrand, QuadratureConfig, realized_step
from .rootfind import BisectionConfig, BracketFailure, MaxItersExceeded
from . import oracle

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_ORACLE = 4

ANNULUS_TABLE_LAMBDAS = (1.0, 2.0, 3.0, 3.5, 3.35)
CYLINDER_TABLE_LAMBDAS = (1.0, 1.3, 1.5, 1.532)


def reference_annulus_problem() -> AnnulusProblem:
    """Plane ring from radius 1 to 2 with exponent growing linearly in r."""
    return AnnulusProblem(2, 1.0, 2.0, parse_exponent("1+r", "r", (1.0, 2.0)))


def reference_cylinder_problem() -> CylinderProblem:
    """Unit-area, unit-length cylinder with exponent growing linearly in t."""
    return CylinderProblem(1.0, 1.0, parse_exponent("2+t", "t", (0.0, 1.0)))


_ALL = ("annulus", "cylinder", "sweep", "tables", "oracle-check")
_RING = ("annulus", "sweep")
_ORACLE = ("oracle-check",)


@dataclass(frozen=True)
class Option:
    """One ``--flag`` of the listed subcommands; a config file key under ``dest``."""

    flag: str
    type: Callable = str
    default: object = None
    commands: tuple[str, ...] = _ALL
    choices: tuple[str, ...] | None = None
    help: str | dict | None = None  # a dict gives each subcommand its own text

    @property
    def dest(self) -> str:
        return self.flag.replace("-", "_")

    def from_file(self, value):
        """Parse a config file value as the flag would parse the same text."""
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        try:
            parsed = self.type(text)
            if self.choices is None or parsed in self.choices:
                return parsed
        except ValueError:
            pass
        expected = f"one of {', '.join(self.choices)}" if self.choices else self.type.__name__
        raise ValueError(f"config key {self.dest!r}: invalid value {text!r}, expected {expected}")


# Declaration order is the order each subcommand's usage line lists them in.
OPTIONS = (
    Option("config", help="JSON file with defaults; flags override it"),
    Option("format", default="human", choices=("human", "csv", "json")),
    Option("output", help="write the report here instead of stdout"),
    Option("step-hint", float, 1e-2, help="quadrature step target"),
    Option("max-subintervals", int, 1_000_000),
    Option("residual-tol", float, 1e-6),
    Option("lambda-tol", float, 1e-10),
    Option("max-iters", int, 200),
    Option("geometry", default="annulus", commands=("sweep",), choices=("annulus", "cylinder")),
    Option("n", int, 2, _RING),
    Option("r1", float, 1.0, _RING),
    Option("r2", float, 2.0, ("annulus",)),
    Option("area", float, 1.0, ("cylinder", "sweep")),
    Option("length", float, 1.0, ("cylinder",)),
    Option("p", commands=("annulus", "cylinder", "sweep"), help={
        "annulus": "radial exponent expression in r",
        "cylinder": "axial exponent expression in t",
    }),
    Option("density-samples", int, 0, ("annulus", "cylinder")),
    Option("values", commands=("sweep",), help="comma-separated parameter list"),
    Option("geometric", commands=("sweep",), help="start:stop:count geometric range"),
    Option("grid", int, 200, _ORACLE),
    Option("draws", int, 20, _ORACLE),
    Option("el-tol", float, 1e-8, _ORACLE),
    Option("pgd-iters", int, 10_000, _ORACLE),
    Option("seed", int, 42, _ORACLE),
)


def _settings(args: argparse.Namespace) -> argparse.Namespace:
    """Fill every option in: the flag, else the config file's value, else the default.

    A file key that is an option of no subcommand is an error; a key that
    only other subcommands take is ignored, so one file can serve them all.
    """
    file_values: dict = {}
    if args.config:
        file_values = json.loads(Path(args.config).read_text())
        if not isinstance(file_values, dict):
            raise ValueError("the config file must hold a JSON object")
    unknown = sorted(set(file_values) - {opt.dest for opt in OPTIONS})
    if unknown:
        raise ValueError(f"unknown config key {unknown[0]!r}: no subcommand takes it")
    for opt in OPTIONS:
        if getattr(args, opt.dest, None) is None:
            value = file_values.get(opt.dest) if args.command in opt.commands else None
            setattr(args, opt.dest, opt.default if value is None else opt.from_file(value))
    return args


def _tolerances(cfg) -> tuple[QuadratureConfig, BisectionConfig]:
    return (QuadratureConfig(cfg.step_hint, cfg.max_subintervals),
            BisectionConfig(cfg.residual_tol, cfg.lambda_tol, cfg.max_iters))


def _parse_float_list(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ValueError(f"bad numeric list {text!r}: {exc}") from None
    if not values:
        raise ValueError("the sweep needs at least one value")
    return values


def _geometric_range(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"geometric range must be start:stop:count, got {text!r}")
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    if start <= 0 or stop <= 0 or count < 2:
        raise ValueError("geometric range needs positive ends and count >= 2")
    return [float(v) for v in np.geomspace(start, stop, count)]


@dataclass
class Table:
    """Rows of one kind: a JSON list of objects, a CSV block, one human line each."""

    name: str
    columns: tuple[str, ...]
    rows: list
    line: Callable[[dict], str] | None = None  # human line of a row of display strings
    title: str | None = None


@dataclass
class Report:
    """One subcommand's result, in the shape all three renderers print.

    JSON: ``command``, the fields, the diagnostics, each table under its name.
    CSV: the ``csv`` tables, by default ``tables``.  Human: the ``head``
    templates, the tables, the ``tail`` templates; templates name fields.
    """

    command: str
    fields: dict
    diagnostics: dict = field(default_factory=dict)
    tables: list[Table] = field(default_factory=list)
    head: list[str] = field(default_factory=list)
    tail: list[str] = field(default_factory=list)
    csv: list[Table] | None = None
    code: int = EXIT_OK


def _text(x, number: str = ".6g", yes: str = "PASS", no: str = "FAIL"):
    """Report text of a value (of each item of a dict): human text by default."""
    if isinstance(x, dict):
        return {k: _text(v, number, yes, no) for k, v in x.items()}
    if isinstance(x, bool):
        return yes if x else no
    if isinstance(x, float):
        return format(x, number)
    return "" if x is None else str(x)


def _render_human(rep: Report) -> str:
    values = _text({**rep.fields, **rep.diagnostics})
    lines = [template.format_map(values) for template in rep.head]
    for table in rep.tables:
        lines += [table.title] if table.title else []
        lines += [table.line(_text(dict(zip(table.columns, row)))) for row in table.rows]
    lines += [template.format_map(values) for template in rep.tail]
    return "\n".join(lines) + "\n"


def _render_csv(rep: Report) -> str:
    lines = []
    for table in rep.tables if rep.csv is None else rep.csv:
        lines.append(",".join(table.columns))
        lines += [",".join(_text(x, "", "true", "false") for x in row) for row in table.rows]
    return "".join(line + "\n" for line in lines)


def _render_json(rep: Report) -> str:
    payload = {"command": rep.command, **rep.fields}
    if rep.diagnostics:
        payload["diagnostics"] = rep.diagnostics
    for table in rep.tables:
        payload[table.name] = [dict(zip(table.columns, row)) for row in table.rows]
    return json.dumps(payload, indent=2) + "\n"


_RENDERERS = {"human": _render_human, "csv": _render_csv, "json": _render_json}


# ---------------------------------------------------------------------------
# Commands


def _solve(prob, quad: QuadratureConfig, bis: BisectionConfig):
    """Extremal solution of one problem, and lambda, the modulus, the test-density
    upper bound and the bound/modulus ratio (ring) or extremality gap (cylinder)."""
    if isinstance(prob, AnnulusProblem):
        sol, bound = solve_annulus(prob, quad, bis), log_density_upper_bound(prob, quad)
        extra = {"ratio": bound / sol.modulus}
    else:
        sol, bound = solve_cylinder(prob, quad, bis), constant_density_upper_bound(prob, quad)
        extra = {"gap": bound - sol.modulus}
    return sol, {"lambda": sol.lam, "modulus": sol.modulus, "upper_bound": bound, **extra}


def _geometry(cfg, geometry: str) -> tuple[float, str, Callable]:
    """Start and variable of the exponent's interval, and the problem as a function of its
    free end b and exponent p: the ring r1 < r < b in R^n, or the cylinder of length b."""
    if geometry == "annulus":
        return cfg.r1, "r", partial(AnnulusProblem, cfg.n, cfg.r1)
    return 0.0, "t", partial(CylinderProblem, cfg.area)


def _cmd_solve(cfg) -> Report:
    """``annulus`` and ``cylinder``: one problem, its bound, optional density samples."""
    if cfg.p is None:
        raise ValueError("missing exponent expression, pass --p")
    if cfg.density_samples < 0:
        raise ValueError(f"--density-samples must be at least 0, got {cfg.density_samples}")
    if cfg.command == "annulus":
        if not 0.0 < cfg.r1 < cfg.r2:
            raise ValueError(f"radii must satisfy 0 < r1 < r2, got r1={cfg.r1} r2={cfg.r2}")
        b, problem = cfg.r2, {"n": cfg.n, "r1": cfg.r1, "r2": cfg.r2, "p": cfg.p}
        title = "ring modulus: n={problem[n]} r1={problem[r1]} r2={problem[r2]} p={problem[p]}"
        density, compared = "log", "  bound/modulus ratio  {ratio}"
    else:
        if not cfg.length > 0.0:
            raise ValueError(f"length must be positive, got length={cfg.length}")
        b, problem = cfg.length, {"area": cfg.area, "length": cfg.length, "p": cfg.p}
        title = "cylinder modulus: area={problem[area]} length={problem[length]} p={problem[p]}"
        density, compared = "constant", "  extremality gap  {gap}"
    a, var, problem_at = _geometry(cfg, cfg.command)
    prob = problem_at(b, parse_exponent(cfg.p, var, (a, b)))
    quad, bis = _tolerances(cfg)
    sol, results = _solve(prob, quad, bis)
    diagnostics = {"residual": sol.residual, "bisection_iters": sol.solver_iters,
                   "quadrature_step": realized_step(a, b, quad)}
    head = [
        title, "  lambda       {lambda}", "  modulus      {modulus}",
        "  upper bound  {upper_bound}   (" + density + " test density)", compared,
        "  quadrature step {quadrature_step}, bisection iters {bisection_iters},"
        " residual {residual}",
    ]
    summary = {**results, **diagnostics}
    rep = Report(cfg.command, {"problem": problem, **results}, diagnostics, head=head,
                 csv=[Table("", tuple(summary), [list(summary.values())])])
    if cfg.density_samples > 0:
        rows = [[float(x), float(sol.density(x))] for x in np.linspace(a, b, cfg.density_samples)]
        rep.tables.append(Table("density", (var, "value"), rows, title="  density samples:",
                                line=lambda r: f"    {var}={r[var]}  value={r['value']}"))
        rep.csv.append(Table("", (var, "density"), rows))
    return rep


def _sweep_line(r: dict) -> str:
    if r["error"]:
        return f"  {r['param']:>10}  error: {r['error']}"
    return ("  {param:>10}  lambda={lambda}  modulus={modulus}  bound={upper_bound}"
            "  residual={residual}  step={quadrature_step}").format_map(r)


def _cmd_sweep(cfg) -> Report:
    params = []
    if cfg.values:
        params = _parse_float_list(cfg.values)
    elif cfg.geometric:
        params = _geometric_range(cfg.geometric)
    if cfg.p is None:
        raise ValueError("missing exponent expression, pass --p")
    if not params:
        raise ValueError("the sweep needs --values or --geometric")
    quad, bis = _tolerances(cfg)
    a, var, problem_at = _geometry(cfg, cfg.geometry)
    top = max(params)
    if top <= a:
        ring = cfg.geometry == "annulus"
        what = f"radii must exceed r1={cfg.r1}" if ring else "lengths must be positive"
        raise ValueError(f"all sweep {what}")
    p = parse_exponent(cfg.p, var, (a, top))
    problem_at(top, p)  # settings every row shares: a bad one fails the sweep, not each row
    rows = []
    for value in params:
        row = [value, None, None, None, None, None, None]
        with contextlib.suppress(ValueError):  # no step on a bad interval; the row says why
            row[5] = realized_step(a, value, quad)
        try:
            sol, results = _solve(problem_at(value, p.restricted(a, value)), quad, bis)
            row[1:5] = sol.lam, sol.modulus, results["upper_bound"], sol.residual
        except Exception as exc:  # report the row, keep sweeping
            row[6] = f"{type(exc).__name__}: {exc}"
        rows.append(row)

    columns = ("param", "lambda", "modulus", "upper_bound", "residual", "quadrature_step", "error")
    title = f"sweep over {cfg.geometry} ({'r2' if cfg.geometry == 'annulus' else 'length'}):"
    return Report("sweep", {"geometry": cfg.geometry},
                  tables=[Table("rows", columns, rows, _sweep_line, title)])


def _normalization_rows(value_at, prob, lambdas, quad: QuadratureConfig) -> list[list]:
    """Rows (lambda, value, |value - 1|) of one normalization table."""
    values = [value_at(prob, lam, quad) for lam in lambdas]
    return [[lam, value, abs(value - 1.0)] for lam, value in zip(lambdas, values)]


def _cmd_tables(cfg) -> Report:
    quad, bis = _tolerances(cfg)
    ann = reference_annulus_problem()
    cyl = reference_cylinder_problem()
    g_rows = _normalization_rows(normalization_value, ann, ANNULUS_TABLE_LAMBDAS, quad)
    h_rows = _normalization_rows(cylinder_normalization_value, cyl, CYLINDER_TABLE_LAMBDAS, quad)
    sol_a, results_a = _solve(ann, quad, bis)
    sol_c, results_c = _solve(cyl, quad, bis)
    headline = {"annulus": results_a, "cylinder": results_c}
    diagnostics = {"quadrature_step": realized_step(ann.r1, ann.r2, quad),
                   "bisection_iters": sol_a.solver_iters, "residual": sol_a.residual}

    columns = ("lambda", "value", "abs_residual")
    line = "  {lambda:>8}  {value:>12}  {abs_residual:>12}".format_map
    csv_rows = [["g", *row] for row in g_rows] + [["h", *row] for row in h_rows]
    for geometry, sol in (("annulus", sol_a), ("cylinder", sol_c)):
        for key, value in headline[geometry].items():
            csv_rows.append([f"{geometry}_{key}", None, value,
                             sol.residual if key == "lambda" else None])
    return Report(
        "tables", {"headline": headline}, diagnostics,
        tables=[Table("normalization_g", columns, g_rows, line,
                      "normalization g on the reference ring (lambda, value, |value-1|):"),
                Table("normalization_h", columns, h_rows, line,
                      "normalization h on the reference cylinder:")],
        tail=[
            "ring headline: lambda={headline[annulus][lambda]} "
            "modulus={headline[annulus][modulus]} bound={headline[annulus][upper_bound]} "
            "ratio={headline[annulus][ratio]}",
            "cylinder headline: lambda={headline[cylinder][lambda]} "
            "modulus={headline[cylinder][modulus]} bound={headline[cylinder][upper_bound]} "
            "gap={headline[cylinder][gap]}",
            "quadrature step {quadrature_step}, bisection residual {residual}",
        ],
        csv=[Table("", ("name", *columns), csv_rows)],
    )


def _cmd_oracle_check(cfg) -> Report:
    if cfg.draws < 1:
        raise ValueError(f"--draws must be at least 1, got {cfg.draws}")
    quad, _ = _tolerances(cfg)
    tight = BisectionConfig(residual_tol=1e-10, lambda_tol=1e-13)
    checks: list[list] = []

    def record(name: str, passed: bool, detail: str) -> None:
        checks.append([name, bool(passed), detail])

    ann = reference_annulus_problem()
    cyl = reference_cylinder_problem()
    sol_a = solve_annulus(ann, quad, tight)
    sol_c = solve_cylinder(cyl, quad, tight)

    for label, prob, sol, grid_fn in (
        ("annulus", ann, sol_a, oracle.annulus_grid),
        ("cylinder", cyl, sol_c, oracle.cylinder_grid),
    ):
        w, p, delta = grid_fn(prob, cfg.grid)
        gd = oracle.discrete_minimize(w, p, delta)
        energy = oracle.discrete_energy(gd, w, p)
        rel = abs(energy - sol.modulus) / sol.modulus
        coarse = cfg.grid < 10
        record(f"{label} grid energy vs solver", coarse or rel <= 1e-2,
               f"coarse grid {cfg.grid}, gap {rel:.3e} reported only" if coarse
               else f"relative gap {rel:.3e} (grid {cfg.grid})")
        stat = w * p * gd.values ** (p - 1.0)
        spread = float((stat.max() - stat.min()) / np.median(stat)) if gd.n_cells > 1 else 0.0
        record(f"{label} stationarity spread", spread <= cfg.el_tol,
               f"relative spread {spread:.3e}, tolerance {cfg.el_tol:.1e}")
        try:
            pg = oracle.projected_gradient_minimize(w, p, delta, iters=cfg.pgd_iters)
            e_pg = oracle.discrete_energy(pg, w, p)
            rel_two = abs(e_pg - energy) / max(abs(energy), 1e-300)
            record(f"{label} two-oracle agreement", rel_two <= 1e-3,
                   f"projected gradient vs stationarity {rel_two:.3e}")
        except oracle.NonConvergence as exc:
            record(f"{label} two-oracle agreement", False, str(exc))

    rng = np.random.default_rng(cfg.seed)
    for name, prob, centers, width, columns, cell, check in (
        ("spherical", ann, ann.r1 + (np.arange(40) + 0.5) * (ann.r2 - ann.r1) / 40,
         (ann.r2 - ann.r1) / 40, 64, 2.0 * math.pi / 64, oracle.spherical_average_check),
        ("fibre", cyl, (np.arange(40) + 0.5) * cyl.length / 40,
         cyl.length / 40, 32, cyl.area / 32, oracle.fibre_average_check),
    ):
        ok, worst = True, 0.0
        try:
            for _ in range(cfg.draws):
                rho = oracle.random_admissible_2d(centers, width, columns, cell, rng)
                rep = check(rho, prob)
                ok = ok and rep.admissible_after and rep.energy_after <= rep.energy_before
                worst = max(worst, rep.energy_after - rep.energy_before)
            detail = f"{cfg.draws} draws, worst increase {worst:.3e}"
        except oracle.NotAdmissible as exc:
            ok, detail = False, str(exc)
        record(f"{name} averaging never increases energy", ok, detail)

    w, p, delta = oracle.annulus_grid(ann, max(cfg.grid, 2))
    scale = 1.3
    super_adm = np.full(w.size, scale / (w.size * delta))
    e_super = float((w * super_adm**p).sum() * delta)
    e_scaled = float((w * (super_adm / scale) ** p).sum() * delta)
    record("rescaling a super-admissible density lowers energy", e_scaled < e_super,
           f"{e_super:.6g} -> {e_scaled:.6g}")

    passed = all(c[1] for c in checks)
    diagnostics = {"grid": cfg.grid, "draws": cfg.draws, "seed": cfg.seed,
                   "quadrature_step": realized_step(ann.r1, ann.r2, quad),
                   "residual": sol_a.residual}
    table = Table("checks", ("name", "passed", "detail"), checks,
                  "{passed}  {name}  ({detail})".format_map)
    return Report("oracle-check", {"passed": passed}, diagnostics, [table],
                  tail=["all checks passed" if passed else "some checks FAILED"],
                  code=EXIT_OK if passed else EXIT_ORACLE)


_COMMANDS = {
    "annulus": (_cmd_solve, "solve one ring problem"),
    "cylinder": (_cmd_solve, "solve one cylinder problem"),
    "sweep": (_cmd_sweep, "vary the outer radius or the length"),
    "tables": (_cmd_tables, "regenerate the reference tables"),
    "oracle-check": (_cmd_oracle_check, "run the brute-force verification suite"),
}


# ---------------------------------------------------------------------------
# Argument handling


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vexmod",
        description="Variable-exponent moduli of ring and cylinder curve families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        for opt in OPTIONS:
            if command in opt.commands:
                text = opt.help.get(command) if isinstance(opt.help, dict) else opt.help
                sp.add_argument("--" + opt.flag, type=opt.type, choices=opt.choices, help=text)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _settings(args)
        report = _COMMANDS[cfg.command][0](cfg)
        text = _RENDERERS[cfg.format](report)
        if cfg.output:
            Path(cfg.output).write_text(text)
    except (BracketFailure, MaxItersExceeded, NonFiniteIntegrand, IntervalTooFine) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (OSError, ValueError) as exc:  # parse, domain, range and --output errors included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    if not cfg.output:
        sys.stdout.write(text)
    return report.code


if __name__ == "__main__":
    sys.exit(main())
