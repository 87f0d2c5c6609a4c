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
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from .annulus import (
    AnnulusProblem,
    _check_ring,
    log_density_upper_bound,
    normalization_value,
    solve_annulus,
)
from .core import modulus_sweep
from .cylinder import (
    CylinderProblem,
    constant_density_upper_bound,
    cylinder_normalization_value,
    solve_cylinder,
)
from .exponent import parse_exponent
from .quadrature import IntervalTooFine, NonFiniteIntegrand, QuadratureConfig
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
_SOLVE = ("annulus", "cylinder", "sweep", "tables")
_ORACLE = ("oracle-check",)


@dataclass(frozen=True)
class Option:
    """One ``--flag`` of the listed subcommands; a config file key under ``dest``."""

    flag: str
    type: Callable = str
    default: object = None
    commands: tuple[str, ...] = _ALL
    choices: tuple[str, ...] | None = None
    help: str | None = None
    least: int | None = None  # the least value of an integer count, checked by _settings

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
    Option("config", help='JSON object of option values, such as {"step_hint": 0.001};'
           " flags override it"),
    Option("format", default="human", choices=("human", "csv", "json"), help="report format"),
    Option("output", help="file to write the report to; stdout if not given"),
    Option("step-hint", float, QuadratureConfig.step_hint,
           help="largest quadrature step, > 0: in log(r/r1) on a ring, in t on a cylinder"),
    Option("max-subintervals", int, QuadratureConfig.max_subintervals,
           help="most Simpson subintervals of a solve, >= 4"),
    Option("residual-tol", float, BisectionConfig.residual_tol, _SOLVE,
           help="stop once |normalization - 1| is at most this, > 0"),
    Option("lambda-tol", float, BisectionConfig.lambda_tol, _SOLVE,
           help="stop once a step moves log(lambda) by at most this, > 0"),
    Option("max-iters", int, BisectionConfig.max_iters, _SOLVE,
           help="most multiplier steps of a solve, >= 1"),
    Option("geometry", default="annulus", commands=("sweep",), choices=("annulus", "cylinder"),
           help="sweep the outer radius r2 of a ring or the length of a cylinder"),
    Option("n", int, 2, _RING, help="dimension of the ring's space, an integer >= 2"),
    Option("r1", float, 1.0, _RING, help="inner radius of the ring, > 0"),
    Option("r2", float, 2.0, ("annulus",), help="outer radius of the ring, r1 < r2 < inf"),
    Option("area", float, 1.0, ("cylinder", "sweep"),
           help="measure of the cylinder's cross-section, > 0"),
    Option("length", float, 1.0, ("cylinder",), help="length of the cylinder, > 0"),
    Option("p", commands=("annulus", "cylinder", "sweep"),
           help="exponent expression: in r on a ring, in t on a cylinder; required"),
    Option("density-samples", int, 0, ("annulus", "cylinder"),
           help="evenly spaced points at which to print the density, >= 0", least=0),
    Option("values", commands=("sweep",),
           help="comma-separated r2 (ring) or length (cylinder) of the rows; this or"
           " --geometric is required"),
    Option("geometric", commands=("sweep",),
           help="start:stop:count geometric range of the rows, ends > 0, count >= 2"),
    Option("grid", int, 200, _ORACLE,
           help="cells of the grid minimizers, >= 1; below 10 the gap is reported only", least=1),
    Option("draws", int, 20, _ORACLE, help="random densities per averaging check, >= 1", least=1),
    Option("seed", int, 42, _ORACLE, help="seed of the random densities, >= 0", least=0),
)


def _settings(args: argparse.Namespace) -> argparse.Namespace:
    """Fill every option in: the flag, else the config file's value, else the default.

    A file key that is an option of no subcommand is an error; a key that
    only other subcommands take is ignored, so one file can serve them all.  A value
    below its option's ``least`` is an error, from a flag or a file alike.
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
        value = getattr(args, opt.dest)
        if opt.least is not None and value < opt.least:
            raise ValueError(f"--{opt.flag} must be at least {opt.least}, got {value}")
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
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValueError(f"bad --geometric range {text!r}: {exc}") from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"--geometric ends must be finite, got {text!r}")
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
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for table in rep.tables if rep.csv is None else rep.csv:
        writer.writerow(table.columns)
        writer.writerows([_text(x, "", "true", "false") for x in row] for row in table.rows)
    return out.getvalue()


def _json_value(x):
    """x with every NaN or infinity in it as None: JSON has no such numbers."""
    if isinstance(x, dict):
        return {k: _json_value(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_value(v) for v in x]
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def _render_json(rep: Report) -> str:
    payload = {"command": rep.command, **rep.fields}
    if rep.diagnostics:
        payload["diagnostics"] = rep.diagnostics
    for table in rep.tables:
        payload[table.name] = [dict(zip(table.columns, row)) for row in table.rows]
    return json.dumps(_json_value(payload), indent=2, allow_nan=False) + "\n"


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


def _geometry(cfg, geometry: str, b: float) -> tuple[float, str, Callable]:
    """Start and variable of the exponent's interval, and the problem as a function of
    its free end and exponent p: the ring in R^n from r1 out to that radius, or the
    cylinder of that length.  The ring's n and radii or the cylinder's area and length are
    checked first, with b as the free end, so that a bad one is named before the exponent
    is parsed."""
    if geometry == "annulus":
        _check_ring(cfg.n, cfg.r1, b)
        return cfg.r1, "r", partial(AnnulusProblem, cfg.n, cfg.r1)
    for name, value in (("area", cfg.area), ("length", b)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {name}={value}")
    return 0.0, "t", partial(CylinderProblem, cfg.area)


def _cmd_solve(cfg) -> Report:
    """``annulus`` and ``cylinder``: one problem, its bound, optional density samples."""
    if cfg.p is None:
        raise ValueError("missing exponent expression, pass --p")
    if cfg.command == "annulus":
        b, problem = cfg.r2, {"n": cfg.n, "r1": cfg.r1, "r2": cfg.r2, "p": cfg.p}
        title = "ring modulus: n={problem[n]} r1={problem[r1]} r2={problem[r2]} p={problem[p]}"
        density, compared = "log", "  bound/modulus ratio  {ratio}"
    else:
        b, problem = cfg.length, {"area": cfg.area, "length": cfg.length, "p": cfg.p}
        title = "cylinder modulus: area={problem[area]} length={problem[length]} p={problem[p]}"
        density, compared = "constant", "  extremality gap  {gap}"
    a, var, problem_at = _geometry(cfg, cfg.command, b)
    prob = problem_at(b, parse_exponent(cfg.p, var, (a, b)))
    quad, bis = _tolerances(cfg)
    sol, results = _solve(prob, quad, bis)
    diagnostics = {"residual": sol.residual, "quadrature_error": sol.quadrature_error,
                   "solver_iters": sol.solver_iters,
                   "quadrature_step": sol.quadrature_step}
    head = [
        title, "  lambda       {lambda}", "  modulus      {modulus}",
        "  upper bound  {upper_bound}   (" + density + " test density)", compared,
        "  quadrature step {quadrature_step}, solver iters {solver_iters},"
        " residual {residual}, quadrature error {quadrature_error}",
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
            "  residual={residual}  quadrature_error={quadrature_error}"
            "  step={quadrature_step}").format_map(r)


def _cmd_sweep(cfg) -> Report:
    if cfg.values is not None and cfg.geometric is not None:
        raise ValueError("--values and --geometric are mutually exclusive, pass one of them")
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
    # A NaN or infinite value is a row error wherever it sits, not the range's end.
    finite = [value for value in params if math.isfinite(value)]
    if not finite:
        raise ValueError(f"--values needs at least one finite value, got {cfg.values!r}")
    top = max(finite)
    a, var, problem_at = _geometry(cfg, cfg.geometry, top)
    p = parse_exponent(cfg.p, var, (a, top))
    template = problem_at(top, p)  # settings every row shares: a bad one fails the sweep
    bound = log_density_upper_bound if cfg.geometry == "annulus" else constant_density_upper_bound
    rows = []
    for row in modulus_sweep(template, params, quad, bis):
        values = [row.lam, row.modulus, None, row.residual, row.quadrature_error,
                  row.quadrature_step, row.error]
        if row.error is None:
            try:
                values[2] = bound(problem_at(row.r2, p), quad)
            except (ValueError, BracketFailure) as exc:  # report, keep sweeping
                values = [None] * 6 + [f"{type(exc).__name__}: {exc}"]
        rows.append([row.r2, *values])

    columns = ("param", "lambda", "modulus", "upper_bound", "residual", "quadrature_error",
               "quadrature_step", "error")
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
    diagnostics = {"quadrature_step": sol_a.quadrature_step,
                   "solver_iters": sol_a.solver_iters, "residual": sol_a.residual,
                   "quadrature_error": sol_a.quadrature_error}

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
            "quadrature step {quadrature_step}, solver residual {residual},"
            " quadrature error {quadrature_error}",
        ],
        csv=[Table("", ("name", *columns), csv_rows)],
    )


def _cmd_oracle_check(cfg) -> Report:
    quad, _ = _tolerances(cfg)
    checks: list[list] = []

    def record(name: str, passed: bool, detail: str) -> None:
        checks.append([name, bool(passed), detail])

    ann = reference_annulus_problem()
    cyl = reference_cylinder_problem()
    sol_a = solve_annulus(ann, quad, oracle._TIGHT)
    sol_c = solve_cylinder(cyl, quad, oracle._TIGHT)

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
        # The largest multiplier value: cells whose density underflows read 0.
        mu = float((w * p * gd.values ** (p - 1.0)).max())
        dual = oracle.dual_lower_bound(w, p, delta, mu)
        record(f"{label} duality gap", abs(energy - dual) <= 1e-12 * energy,
               f"energy {energy:.10g}, dual bound {dual:.10g}")

    rng = np.random.default_rng(cfg.seed)
    for name, prob, centers, width, columns, cell, check in (
        ("spherical", ann, ann.r1 + (np.arange(40) + 0.5) * (ann.r2 - ann.r1) / 40,
         (ann.r2 - ann.r1) / 40, 64, 2.0 * math.pi / 64, oracle.spherical_average_check),
        ("fibre", cyl, (np.arange(40) + 0.5) * cyl.length / 40,
         cyl.length / 40, 32, cyl.area / 32, oracle.fibre_average_check),
    ):
        ok, largest = True, -math.inf
        try:
            for _ in range(cfg.draws):
                rho = oracle.random_admissible_2d(centers, width, columns, cell, rng)
                rep = check(rho, prob)
                ok = ok and rep.admissible_after and rep.energy_after <= rep.energy_before
                largest = max(largest, rep.energy_after - rep.energy_before)
            detail = f"{cfg.draws} draws, largest energy change {largest:.3e}"
        except oracle.NotAdmissible as exc:
            ok, detail = False, str(exc)
        record(f"{name} averaging never increases energy", ok, detail)

    passed = all(c[1] for c in checks)
    diagnostics = {"grid": cfg.grid, "draws": cfg.draws, "seed": cfg.seed,
                   "quadrature_step": sol_a.quadrature_step,
                   "residual": sol_a.residual, "quadrature_error": sol_a.quadrature_error}
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
                default = "" if opt.default is None else f" (default: {opt.default})"
                sp.add_argument("--" + opt.flag, type=opt.type, choices=opt.choices,
                                help=opt.help + default)
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
    except MemoryError as exc:  # a count too large to allocate, such as --density-samples
        print(f"error: the request does not fit in memory: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    if not cfg.output:
        sys.stdout.write(text)
    return report.code


if __name__ == "__main__":
    sys.exit(main())
