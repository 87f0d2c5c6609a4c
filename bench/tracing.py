"""In-memory spans around vexmod's layer boundaries, for the traced run only.

``instrument`` swaps wrappers in for the public functions that one module
calls in another (every binding of the same function object inside the
vexmod package is replaced, so calls made through ``from .x import f`` are
caught too) and puts the originals back on exit.  A span records its name,
start, end, parent and the id of the step it belongs to; a layer's self time
is its duration minus the part covered by its child spans.  Aggregates cover
every span; the first ``MAX_SPANS`` records are kept for the trace file.
A target that vexmod no longer has is an error: a refactor that renames or
inlines a layer has to update this table, not leave its metrics at 0.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, function, span name).
TARGETS = (
    ("vexmod.exponent", "parse_exponent", "exponent.parse"),
    ("vexmod.quadrature", "integrate", "quadrature.integrate"),
    ("vexmod.rootfind", "solve_increasing", "rootfind.solve"),
    ("vexmod.annulus", "normalization_value", "annulus.normalization"),
    ("vexmod.annulus", "solve_annulus", "annulus.solve"),
    ("vexmod.annulus", "log_density_upper_bound", "annulus.bound"),
    ("vexmod.annulus", "modulus_sweep", "annulus.sweep"),
    ("vexmod.cylinder", "cylinder_normalization_value", "cylinder.normalization"),
    ("vexmod.cylinder", "solve_cylinder", "cylinder.solve"),
    ("vexmod.cylinder", "constant_density_upper_bound", "cylinder.bound"),
    ("vexmod.oracle", "discrete_minimize", "oracle.stationarity"),
    ("vexmod.oracle", "projected_gradient_minimize", "oracle.pgd"),
    ("vexmod.oracle", "spherical_average_check", "oracle.averaging"),
    ("vexmod.oracle", "fibre_average_check", "oracle.averaging"),
)
MAX_SPANS = 20_000


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent_id, step_id)
        self.n_spans = 0
        self.stack: list[list] = []  # open spans: [id, name, start_ns, child_ns]
        self.step_id = -1
        # (name, parent name) -> [calls, total_ns, self_ns, errors]
        self.edges: dict = defaultdict(lambda: [0, 0, 0, 0])
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()  # (span name, exception type) -> count

    def call(self, name: str, fn, *args, **kwargs):
        parent = self.stack[-1] if self.stack else None
        rec = [self.n_spans, name, 0, 0]
        self.n_spans += 1
        self.stack.append(rec)
        failed = False
        rec[2] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            failed = True
            self.errors[(name, type(exc).__name__)] += 1
            raise
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
            dur = end - rec[2]
            edge = self.edges[(name, parent[1] if parent else None)]
            edge[0] += 1
            edge[1] += dur
            edge[2] += dur - rec[3]
            edge[3] += failed
            if parent is not None:
                parent[3] += dur
            if len(self.spans) < MAX_SPANS:
                self.spans.append((rec[0], name, rec[2], end, parent[0] if parent else None, self.step_id))

    # -- aggregates ---------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(v[0] for (n, _), v in self.edges.items() if n == name)

    def total_ms(self, name: str, parent: str | None = "*") -> float:
        return sum(v[1] for (n, p), v in self.edges.items() if n == name and parent in ("*", p)) / 1e6

    def self_ms(self, name: str) -> float:
        return sum(v[2] for (n, _), v in self.edges.items() if n == name) / 1e6

    def layers(self) -> dict:
        out: dict = {}
        for (name, parent), (calls, total, own, errors) in sorted(self.edges.items(), key=str):
            layer = out.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0, "errors": 0, "callers": {}})
            layer["calls"] += calls
            layer["total_ms"] += total / 1e6
            layer["self_ms"] += own / 1e6
            layer["errors"] += errors
            layer["callers"][parent or "step"] = {"calls": calls, "total_ms": total / 1e6}
        return out

    def dump(self) -> dict:
        return {
            "span_fields": ["id", "name", "start_ns", "end_ns", "parent_id", "step_id"],
            "spans": self.spans,
            "spans_total": self.n_spans,
            "spans_kept": len(self.spans),
            "layers": self.layers(),
            "counts": dict(self.counts),
            "errors": {f"{n}:{t}": c for (n, t), c in self.errors.items()},
        }


# ---------------------------------------------------------------------------
# Wrappers


def _counted_eval(tracer: Tracer, evaluate):
    @functools.wraps(evaluate)
    def wrapper(x):
        tracer.counts["exponent.eval_calls"] += 1
        tracer.counts["exponent.eval_points"] += int(np.size(x))
        return evaluate(x)

    return wrapper


def _make_wrapper(tracer: Tracer, fn, span: str):
    if span == "exponent.parse":

        def wrapper(*args, **kwargs):
            result = tracer.call(span, fn, *args, **kwargs)
            return dataclasses.replace(result, eval=_counted_eval(tracer, result.eval))

    elif span == "quadrature.integrate":
        from vexmod.quadrature import subinterval_count

        def wrapper(f, a, b, *args, **kwargs):
            try:
                return tracer.call(span, fn, f, a, b, *args, **kwargs)
            finally:
                cfg = args[0] if args else kwargs.get("cfg")
                with contextlib.suppress(ValueError, TypeError):
                    tracer.counts["quadrature.nodes"] += subinterval_count(a, b, cfg) + 1

    elif span == "rootfind.solve":

        def wrapper(F, *args, **kwargs):
            def counted(x):
                return tracer.call("rootfind.eval", F, x)

            result = tracer.call(span, fn, counted, *args, **kwargs)
            tracer.counts["rootfind.iters"] += int(getattr(result, "iters", 0))
            return result

    elif span == "annulus.sweep":

        def wrapper(*args, **kwargs):
            rows = tracer.call(span, fn, *args, **kwargs)
            tracer.counts["annulus.sweep_rows"] += len(rows)
            return rows

    elif span == "oracle.pgd":

        def wrapper(weights, *args, **kwargs):
            tracer.counts["oracle.pgd_cells"] += int(np.size(weights))
            return tracer.call(span, fn, weights, *args, **kwargs)

    else:

        def wrapper(*args, **kwargs):
            return tracer.call(span, fn, *args, **kwargs)

    return functools.wraps(fn)(wrapper)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route the traced functions through ``tracer`` until the block exits."""
    modules = [m for name, m in list(sys.modules.items()) if name == "vexmod" or name.startswith("vexmod.")]
    patched: list[tuple] = []  # (owner, attribute, original)
    try:
        for modname, fname, span in TARGETS:
            original = getattr(sys.modules[modname], fname)
            wrapper = _make_wrapper(tracer, original, span)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
        exponent_cls = sys.modules["vexmod.exponent"].ExponentFunction
        restricted = exponent_cls.restricted
        patched.append((exponent_cls, "restricted", restricted))
        exponent_cls.restricted = functools.wraps(restricted)(
            lambda self, a, b: tracer.call("exponent.restrict", restricted, self, a, b)
        )
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics, each with the end-to-end metric it should move.

_BATCH_THEN_SWEEP = "ops_per_ref_s, op_p50_ms on batch, then sweep; not oracle or cli"
_SOLVERS = "op_p50_ms on batch; ops_per_ref_s, op_tail_ms on sweep"
_QUADRATURE = "ops_per_ref_s on sweep (large rows); rel_err_*, wrong_frac on batch"
_EXPONENT = "ops_per_ref_s on sweep (exp/log templates); op_p50_ms on batch"
_ORACLE = "ops_per_ref_s on oracle only"
_CLI = "op_p50_ms on cli"
LAYER_METRICS = (
    ("rootfind.evals", "count/op", _BATCH_THEN_SWEEP),
    ("rootfind.iters", "count/op", _BATCH_THEN_SWEEP),
    ("rootfind.evals_per_solve", "count/solve", _BATCH_THEN_SWEEP),
    ("rootfind.self_ms", "ms/op", _BATCH_THEN_SWEEP),
    ("rootfind.failures", "count/op", _BATCH_THEN_SWEEP),
    ("annulus.solve_ms", "ms/op", _SOLVERS),
    ("annulus.normalization_ms", "ms/op", _SOLVERS),
    ("annulus.normalization_pass_ms", "ms/pass", _SOLVERS),
    ("annulus.modulus_integral_ms", "ms/op", _SOLVERS),
    ("annulus.bound_ms", "ms/op", _SOLVERS),
    ("annulus.sweep_row_ms", "ms/row", _SOLVERS),
    ("cylinder.solve_ms", "ms/op", _SOLVERS),
    ("cylinder.normalization_ms", "ms/op", _SOLVERS),
    ("cylinder.bound_ms", "ms/op", _SOLVERS),
    ("quadrature.integrate_calls", "count/op", _QUADRATURE),
    ("quadrature.nodes", "count/op", _QUADRATURE),
    ("quadrature.integrate_ms", "ms/op", _QUADRATURE),
    ("quadrature.nodes_per_s", "1/s", _QUADRATURE),
    ("exponent.parse_calls", "count/op", _EXPONENT),
    ("exponent.parse_ms", "ms/op", _EXPONENT),
    ("exponent.restrict_calls", "count/op", _EXPONENT),
    ("exponent.restrict_ms", "ms/op", _EXPONENT),
    ("exponent.eval_calls", "count/op", _EXPONENT),
    ("exponent.eval_points", "count/op", _EXPONENT),
    ("oracle.stationarity_ms", "ms/op", _ORACLE),
    ("oracle.pgd_ms", "ms/op", _ORACLE),
    ("oracle.pgd_cells", "count/op", _ORACLE),
    ("oracle.averaging_ms", "ms/op", _ORACLE),
    ("oracle.nonconvergence", "count/op", _ORACLE),
    ("cli.startup_floor_ms", "ms", _CLI + "; setup_s everywhere"),
    ("cli.import_ms", "ms", _CLI + "; setup_s everywhere"),
    ("cli.main_ms.annulus", "ms/call", _CLI),
    ("cli.main_ms.cylinder", "ms/call", _CLI),
    ("cli.main_ms.sweep", "ms/call", _CLI),
    ("cli.main_ms.tables", "ms/call", _CLI),
    ("cli.main_ms.oracle-check", "ms/call", _CLI),
    ("trace.overhead_pct", "%", "none: traced minus untraced time of the same steps"),
)
CLI_COMMANDS = ("annulus", "cylinder", "sweep", "tables", "oracle-check")


def layer_values(tracer: Tracer, ops: int, extra: dict) -> dict:
    """Per-op values of every layer metric; ``extra`` supplies those measured
    outside the spans (start-up floor, CLI main times, tracing overhead)."""
    per_op = 1.0 / max(ops, 1)
    solves = tracer.calls("rootfind.solve")
    norm_calls = tracer.calls("annulus.normalization")
    integrate_ms = tracer.total_ms("quadrature.integrate")
    rows = tracer.counts["annulus.sweep_rows"]
    values = {
        "rootfind.evals": tracer.calls("rootfind.eval") * per_op,
        "rootfind.iters": tracer.counts["rootfind.iters"] * per_op,
        "rootfind.evals_per_solve": tracer.calls("rootfind.eval") / solves if solves else 0.0,
        "rootfind.self_ms": tracer.self_ms("rootfind.solve") * per_op,
        "rootfind.failures": sum(c for (n, _), c in tracer.errors.items() if n == "rootfind.solve") * per_op,
        "annulus.solve_ms": tracer.total_ms("annulus.solve") * per_op,
        "annulus.normalization_ms": tracer.total_ms("annulus.normalization") * per_op,
        "annulus.normalization_pass_ms": tracer.total_ms("annulus.normalization") / norm_calls if norm_calls else 0.0,
        "annulus.modulus_integral_ms": tracer.total_ms("quadrature.integrate", "annulus.solve") * per_op,
        "annulus.bound_ms": tracer.total_ms("annulus.bound") * per_op,
        "annulus.sweep_row_ms": tracer.total_ms("annulus.sweep") / rows if rows else 0.0,
        "cylinder.solve_ms": tracer.total_ms("cylinder.solve") * per_op,
        "cylinder.normalization_ms": tracer.total_ms("cylinder.normalization") * per_op,
        "cylinder.bound_ms": tracer.total_ms("cylinder.bound") * per_op,
        "quadrature.integrate_calls": tracer.calls("quadrature.integrate") * per_op,
        "quadrature.nodes": tracer.counts["quadrature.nodes"] * per_op,
        "quadrature.integrate_ms": integrate_ms * per_op,
        "quadrature.nodes_per_s": tracer.counts["quadrature.nodes"] / (integrate_ms / 1e3) if integrate_ms else 0.0,
        "exponent.parse_calls": tracer.calls("exponent.parse") * per_op,
        "exponent.parse_ms": tracer.total_ms("exponent.parse") * per_op,
        "exponent.restrict_calls": tracer.calls("exponent.restrict") * per_op,
        "exponent.restrict_ms": tracer.total_ms("exponent.restrict") * per_op,
        "exponent.eval_calls": tracer.counts["exponent.eval_calls"] * per_op,
        "exponent.eval_points": tracer.counts["exponent.eval_points"] * per_op,
        "oracle.stationarity_ms": tracer.total_ms("oracle.stationarity") * per_op,
        "oracle.pgd_ms": tracer.self_ms("oracle.pgd") * per_op,
        "oracle.pgd_cells": tracer.counts["oracle.pgd_cells"] * per_op,
        "oracle.averaging_ms": tracer.total_ms("oracle.averaging") * per_op,
        "oracle.nonconvergence": tracer.errors[("oracle.pgd", "NonConvergence")] * per_op,
    }
    values.update(extra)
    return {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit, _ in LAYER_METRICS}
