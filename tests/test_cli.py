"""End-to-end command-line tests, through real subprocesses unless a test counts
library calls in-process."""

import json
import math
import subprocess
import sys

import pytest

from vexmod import cli
from vexmod.exponent import ExponentFunction, parse_exponent

REF_LAMBDA = 20.778872988263774
REF_MODULUS = 8.652192184157259
REF_UPPER_BOUND = 8.678428991685409
REF_CYL_MODULUS = 0.9883254219265588
REF_G_AT_TWO = 0.19357762825852136


def run_cli(*args, expect=0, binary=False):
    proc = subprocess.run(
        [sys.executable, "-m", "vexmod", *args],
        capture_output=True,
        text=not binary,
    )
    assert proc.returncode == expect, (proc.stdout, proc.stderr)
    return proc


def test_annulus_json_report():
    proc = run_cli("annulus", "--p", "1+r", "--format", "json")
    payload = json.loads(proc.stdout)
    assert payload["command"] == "annulus"
    assert payload["lambda"] == pytest.approx(REF_LAMBDA, rel=1e-5)
    assert payload["modulus"] == pytest.approx(REF_MODULUS, rel=1e-5)
    assert payload["upper_bound"] == pytest.approx(REF_UPPER_BOUND, rel=1e-7)
    assert payload["ratio"] == pytest.approx(REF_UPPER_BOUND / REF_MODULUS, rel=1e-5)
    diag = payload["diagnostics"]
    assert diag["quadrature_step"] == pytest.approx(0.01)
    assert diag["residual"] <= 1e-6
    assert diag["bisection_iters"] >= 1


def test_annulus_human_report_uses_six_significant_digits():
    proc = run_cli("annulus", "--p", "1+r")
    assert "20.7789" in proc.stdout
    assert "8.65219" in proc.stdout
    assert "quadrature step" in proc.stdout
    assert "residual" in proc.stdout


def test_cylinder_json_report():
    proc = run_cli("cylinder", "--p", "2+t", "--format", "json")
    payload = json.loads(proc.stdout)
    assert payload["modulus"] == pytest.approx(REF_CYL_MODULUS, rel=1e-5)
    assert payload["upper_bound"] == pytest.approx(1.0)
    assert payload["gap"] == pytest.approx(1.0 - REF_CYL_MODULUS, rel=1e-3)
    assert "quadrature_step" in payload["diagnostics"]
    assert "residual" in payload["diagnostics"]


def test_cylinder_modulus_scales_with_area():
    one = json.loads(run_cli("cylinder", "--p", "2+t", "--format", "json").stdout)
    two = json.loads(
        run_cli("cylinder", "--p", "2+t", "--area", "2", "--format", "json").stdout
    )
    assert two["modulus"] == pytest.approx(2.0 * one["modulus"], rel=1e-12)
    assert two["lambda"] == pytest.approx(one["lambda"], rel=1e-12)


def test_density_samples_in_json():
    proc = run_cli(
        "annulus", "--p", "1+r", "--density-samples", "5", "--format", "json"
    )
    payload = json.loads(proc.stdout)
    samples = payload["density"]
    assert len(samples) == 5
    assert samples[0]["r"] == pytest.approx(1.0)
    assert samples[-1]["r"] == pytest.approx(2.0)
    assert all(s["value"] > 0 for s in samples)


def test_annulus_csv_layout():
    proc = run_cli("annulus", "--p", "1+r", "--format", "csv")
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "lambda,modulus,upper_bound,ratio,residual,bisection_iters,quadrature_step"
    cells = lines[1].split(",")
    assert float(cells[0]) == pytest.approx(REF_LAMBDA, rel=1e-5)
    assert float(cells[1]) == pytest.approx(REF_MODULUS, rel=1e-5)


def test_csv_output_is_byte_deterministic():
    first = run_cli("tables", "--format", "csv", binary=True)
    second = run_cli("tables", "--format", "csv", binary=True)
    assert first.stdout == second.stdout
    assert len(first.stdout) > 0


def test_tables_csv_contents():
    proc = run_cli("tables", "--format", "csv")
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "name,lambda,value,abs_residual"
    rows = [line.split(",") for line in lines[1:]]
    g_rows = [r for r in rows if r[0] == "g"]
    h_rows = [r for r in rows if r[0] == "h"]
    assert len(g_rows) == 5
    assert len(h_rows) == 4
    assert len(rows) == 17  # plus the eight headline rows
    by_lambda = {float(r[1]): float(r[2]) for r in g_rows}
    assert by_lambda[2.0] == pytest.approx(REF_G_AT_TWO, rel=1e-8)
    headline = {r[0]: float(r[2]) for r in rows if r[0].startswith(("annulus_", "cylinder_"))}
    assert headline["annulus_modulus"] == pytest.approx(REF_MODULUS, rel=1e-5)
    assert headline["cylinder_upper_bound"] == pytest.approx(1.0)


def test_sweep_recovers_constant_exponent_closed_forms():
    proc = run_cli(
        "sweep", "--geometry", "annulus", "--p", "2",
        "--values", "2,4,8", "--format", "csv",
    )
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "param,lambda,modulus,upper_bound,residual,quadrature_step,error"
    rows = [line.split(",") for line in lines[1:]]
    assert [float(r[0]) for r in rows] == [2.0, 4.0, 8.0]
    moduli = [float(r[2]) for r in rows]
    for got, r2 in zip(moduli, (2.0, 4.0, 8.0)):
        assert got == pytest.approx(math.tau / math.log(r2), rel=1e-5)
    assert moduli[0] > moduli[1] > moduli[2]
    assert all(r[6] == "" for r in rows)


def test_sweep_cylinder_lengths():
    proc = run_cli(
        "sweep", "--geometry", "cylinder", "--p", "2",
        "--values", "1,2", "--format", "csv",
    )
    rows = [line.split(",") for line in proc.stdout.strip().splitlines()[1:]]
    assert float(rows[0][2]) == pytest.approx(1.0, rel=1e-9)
    assert float(rows[1][2]) == pytest.approx(0.5, rel=1e-9)


def test_sweep_reports_bad_rows_without_aborting():
    proc = run_cli(
        "sweep", "--geometry", "annulus", "--p", "2",
        "--values", "0.5,2", "--format", "csv",
    )
    rows = [line.split(",") for line in proc.stdout.strip().splitlines()[1:]]
    assert float(rows[0][0]) == 0.5
    assert rows[0][1] == ""  # no lambda on the failed row
    assert rows[0][6] != ""
    assert float(rows[1][2]) == pytest.approx(math.tau / math.log(2.0), rel=1e-5)
    assert rows[1][6] == ""


@pytest.mark.parametrize(
    "args",
    [("--p", "1+", "--values", "1,2"),  # does not parse
     ("--p", "2+1/(t-1)", "--values", "0.5,2"),  # not finite on [0, 2]
     ("--p", "2", "--values=-1,0"),  # no positive length
     ("--p", "2", "--area", "-1", "--values", "1,2")],  # a bad setting every row shares
)
def test_cylinder_sweep_fails_as_a_whole_on_shared_input(args):
    proc = run_cli("sweep", "--geometry", "cylinder", *args, expect=2)
    assert proc.stderr.startswith("error: ")
    assert proc.stdout == ""


def test_sweep_restricts_the_exponent_once_per_row(monkeypatch):
    calls = []
    restricted = ExponentFunction.restricted
    monkeypatch.setattr(ExponentFunction, "restricted",
                        lambda self, a, b: calls.append((a, b)) or restricted(self, a, b))
    assert cli.main(["sweep", "--p", "2", "--values", "2,4"]) == 0
    assert calls == [(1.0, 2.0), (1.0, 4.0)]


def test_sweep_parses_the_exponent_once(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "parse_exponent",
                        lambda *args: calls.append(args) or parse_exponent(*args))
    assert cli.main(["sweep", "--geometry", "cylinder", "--p", "2+t", "--values", "1,2"]) == 0
    assert calls == [("2+t", "t", (0.0, 2.0))]


def test_sweep_geometric_range():
    proc = run_cli(
        "sweep", "--geometry", "annulus", "--p", "2",
        "--geometric", "2:8:3", "--format", "json",
    )
    payload = json.loads(proc.stdout)
    params = [row["param"] for row in payload["rows"]]
    assert params == pytest.approx([2.0, 4.0, 8.0], rel=1e-12)
    for row in payload["rows"]:
        assert row["error"] is None
        assert row["modulus"] == pytest.approx(
            math.tau / math.log(row["param"]), rel=1e-4
        )
        assert row["quadrature_step"] is not None


def test_config_file_supplies_defaults(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"r2": 4.0, "p": "2"}))
    proc = run_cli("annulus", "--config", str(config), "--format", "json")
    payload = json.loads(proc.stdout)
    assert payload["modulus"] == pytest.approx(math.tau / math.log(4.0), rel=1e-5)


def test_flags_override_the_config_file(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"r2": 4.0, "p": "2"}))
    proc = run_cli(
        "annulus", "--config", str(config), "--r2", "2", "--format", "json"
    )
    payload = json.loads(proc.stdout)
    assert payload["modulus"] == pytest.approx(math.tau / math.log(2.0), rel=1e-5)


def test_config_values_parse_like_their_flags(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"n": "3", "r2": "4", "step_hint": "0.02", "p": 2}))
    from_file = run_cli("annulus", "--config", str(config), "--format", "json")
    from_flags = run_cli(
        "annulus", "--n", "3", "--r2", "4", "--step-hint", "0.02", "--p", "2",
        "--format", "json",
    )
    assert json.loads(from_file.stdout) == json.loads(from_flags.stdout)


def test_config_keys_of_other_subcommands_are_ignored(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"p": "2", "grid": "not a number", "values": "1,2"}))
    run_cli("annulus", "--config", str(config))


@pytest.mark.parametrize(
    "values, key",
    [({"n": 2.5}, "'n'"), ({"r2": "four"}, "'r2'"), ({"format": "xml"}, "'format'"),
     ({"step-hint": 0.01}, "'step-hint'")],
)
def test_bad_config_values_are_validation_errors(tmp_path, values, key):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"p": "2", **values}))
    proc = run_cli("annulus", "--config", str(config), expect=2)
    assert f"config key {key}" in proc.stderr
    assert proc.stdout == ""


def test_unreadable_config_is_a_validation_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    run_cli("annulus", "--p", "1+r", "--config", str(bad), expect=2)


def test_reversed_radii_name_the_parameter():
    proc = run_cli("annulus", "--r1", "2", "--r2", "1", "--p", "2", expect=2)
    assert "r1" in proc.stderr


def test_unknown_variable_is_a_validation_error():
    proc = run_cli("annulus", "--p", "1+q", expect=2)
    assert "q" in proc.stderr


def test_missing_exponent_is_a_validation_error():
    proc = run_cli("annulus", expect=2)
    assert "--p" in proc.stderr


@pytest.mark.parametrize(
    "args, named",
    [(("annulus", "--p", "1+r", "--lambda-tol", "inf"), "lambda_tol=inf"),
     (("cylinder", "--p", "2+t", "--residual-tol", "nan"), "residual_tol=nan"),
     (("annulus", "--p", "1+r", "--density-samples", "-3"), "--density-samples"),
     (("oracle-check", "--draws", "-1"), "--draws"),
     (("oracle-check", "--draws", "0"), "--draws")],
)
def test_non_finite_tolerances_and_negative_counts_are_validation_errors(args, named):
    proc = run_cli(*args, expect=2)
    assert proc.stderr.startswith("error: ") and named in proc.stderr
    assert proc.stdout == ""


def test_too_fine_a_step_is_a_solver_error():
    proc = run_cli("annulus", "--p", "1+r", "--step-hint", "1e-9", expect=3)
    assert "solver error" in proc.stderr


def test_output_flag_writes_the_file_and_keeps_stdout_empty(tmp_path):
    target = tmp_path / "report.csv"
    proc = run_cli(
        "annulus", "--p", "1+r", "--format", "csv", "--output", str(target)
    )
    assert proc.stdout == ""
    assert target.read_text().startswith("lambda,modulus")


def test_unwritable_output_path_is_a_validation_error(tmp_path):
    target = tmp_path / "missing-dir" / "report.txt"
    proc = run_cli("annulus", "--p", "1+r", "--output", str(target), expect=2)
    assert proc.stderr.startswith("error: ")
    assert proc.stdout == ""


def test_oracle_check_passes_by_default():
    proc = run_cli("oracle-check")
    assert "FAIL" not in proc.stdout
    assert proc.stdout.count("PASS") >= 9


def test_oracle_check_trivial_grid_still_passes():
    run_cli("oracle-check", "--grid", "1")


def test_oracle_check_fails_under_an_impossible_tolerance():
    proc = run_cli("oracle-check", "--el-tol", "1e-20", expect=4)
    assert "FAIL" in proc.stdout


def test_oracle_check_json_lists_every_check():
    proc = run_cli("oracle-check", "--format", "json")
    payload = json.loads(proc.stdout)
    assert payload["passed"] is True
    assert len(payload["checks"]) == 9
    assert all(c["passed"] for c in payload["checks"])
    assert "quadrature_step" in payload["diagnostics"]
