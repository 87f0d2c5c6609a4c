"""Smoke test of the benchmark itself, at a tiny size; not part of tier-1.

    python3 -m pytest -q bench/test_smoke.py

Runs every workload for a few steps, untraced and traced.  Checks that every
metric is reported with a unit, that a fixed seed reproduces the exact
counts, that the command refuses to run without the vexmod sources, and that
tracing refuses a layer function vexmod no longer has.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import DETAIL_UNITS, END_TO_END_UNITS  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

# Steps per workload: at least one full stratum cycle where that is cheap.
SMOKE_OPS = {"batch": 18, "sweep": 2, "oracle": 3, "cli": 5}
SEED = 3


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--ops", str(SMOKE_OPS[workload]), "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def result(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    last, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True, detail["not_ok"]
    assert isinstance(last["attempted"], int) and last["attempted"] >= 1
    assert last["failed"] == 0  # no op the benchmark could not run or judge
    return last, detail


def assert_metrics(metrics: dict, expected: dict) -> None:
    assert set(metrics) == set(expected)
    for name, unit in expected.items():
        assert metrics[name]["unit"] == unit, name
        assert isinstance(metrics[name]["value"], (int, float)), name


@pytest.mark.parametrize("workload", sorted(SMOKE_OPS))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    last, detail = result(bench(workload, 0))
    assert_metrics(last["metrics"], END_TO_END_UNITS)
    assert_metrics(detail["metrics"], {**END_TO_END_UNITS, **DETAIL_UNITS})
    assert last["metrics"]["setup_s"]["value"] > 0
    for key in ("cpu", "nproc", "python", "numpy", "threads", "cli.startup_floor_ms"):
        assert key in detail["machine"]


@pytest.mark.parametrize("workload", sorted(SMOKE_OPS))
def test_traced_run_reproduces_exact_counts(workload):
    first, detail_a = result(bench(workload, 1))
    second, detail_b = result(bench(workload, 1))
    assert_metrics(first["metrics"], {name: unit for name, unit, _ in LAYER_METRICS})
    for name in ("rootfind.evals", "quadrature.nodes", "exponent.eval_points"):
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    for key in ("ops", "failed", "wrong", "failed_frac"):
        assert detail_a["summary"][key] == detail_b["summary"][key], key
    assert (ROOT / detail_a["trace_file"]).is_file()


def test_refuses_to_run_without_sources():
    bare = ROOT / ".bench_out" / "bare-checkout"  # inside the checkout, ignored by git
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("batch", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, u) for n, u, _ in LAYER_METRICS]
    assert {w["name"] for w in spec["workloads"]} == set(SMOKE_OPS)


def test_missing_trace_target_is_an_error(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import vexmod.annulus
    import tracing

    original = vexmod.annulus.solve_annulus
    monkeypatch.delattr(vexmod.annulus, "log_density_upper_bound")
    with pytest.raises(AttributeError, match="log_density_upper_bound"):
        with tracing.instrument(tracing.Tracer()):
            pass
    assert vexmod.annulus.solve_annulus is original  # patched targets are restored
