"""End-to-end command-line tests, through real subprocesses unless a test counts
library calls in-process."""

import csv
import dataclasses
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


def strict_json(text):
    """json.loads that rejects NaN and the infinities, as strict parsers do."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


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
    assert diag["quadrature_step"] == pytest.approx(math.log(2.0) / 72)  # in s = log(r/r1)
    assert diag["residual"] <= 1e-6
    assert 0.0 < diag["quadrature_error"] < 1e-8
    assert diag["solver_iters"] >= 1


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
    assert lines[0] == ("lambda,modulus,upper_bound,ratio,residual,quadrature_error,solver_iters,"
                        "quadrature_step")
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
    assert lines[0] == ("param,lambda,modulus,upper_bound,residual,quadrature_error,"
                        "quadrature_step,error")
    rows = [line.split(",") for line in lines[1:]]
    assert [float(r[0]) for r in rows] == [2.0, 4.0, 8.0]
    moduli = [float(r[2]) for r in rows]
    for got, r2 in zip(moduli, (2.0, 4.0, 8.0)):
        assert got == pytest.approx(math.tau / math.log(r2), rel=1e-5)
    assert moduli[0] > moduli[1] > moduli[2]
    assert all(r[7] == "" for r in rows)


def test_sweep_cylinder_lengths():
    proc = run_cli(
        "sweep", "--geometry", "cylinder", "--p", "2",
        "--values", "1,2", "--format", "csv",
    )
    rows = [line.split(",") for line in proc.stdout.strip().splitlines()[1:]]
    assert float(rows[0][2]) == pytest.approx(1.0, rel=1e-9)
    assert float(rows[1][2]) == pytest.approx(0.5, rel=1e-9)


def test_failed_sweep_row_reports_no_quadrature_step():
    proc = run_cli("sweep", "--p", "2", "--values", "1,2", "--format", "csv")
    header, *rows = csv.reader(proc.stdout.splitlines())
    step = header.index("quadrature_step")
    assert rows[0][0] == "1.0" and rows[0][7].startswith("ValueError: radii")
    assert rows[0][step] == ""
    assert float(rows[1][step]) == math.log(2.0) / 72


@pytest.mark.parametrize("command", ["annulus", "cylinder", "sweep", "tables", "oracle-check"])
def test_help_describes_every_option(command, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main([command, "--help"])
    assert info.value.code == 0
    # An option's entry is its "  --flag METAVAR" line and the deeper lines under it;
    # its help follows two spaces on that line, or fills the lines under it.
    entries: dict = {}
    for line in capsys.readouterr().out.split("\noptions:\n", 1)[1].splitlines():
        if line.startswith("  -"):
            invocation, _, text = line.strip().partition("  ")
            flag = next(word for word in invocation.split() if word.startswith("--"))
            entries[flag] = [text]
        else:
            entries[flag].append(line)
    texts = {flag: " ".join(" ".join(lines).split()) for flag, lines in entries.items()}
    options = [opt for opt in cli.OPTIONS if command in opt.commands]
    assert set(texts) == {"--help"} | {"--" + opt.flag for opt in options}
    assert all(texts.values())
    for opt in options:
        if opt.default is not None:
            assert texts["--" + opt.flag].endswith(f"(default: {opt.default})")
    if command in ("annulus", "cylinder", "sweep"):
        assert "exponent expression" in texts["--p"]


def test_sweep_reports_bad_rows_without_aborting():
    proc = run_cli(
        "sweep", "--geometry", "annulus", "--p", "2",
        "--values", "0.5,2", "--format", "csv",
    )
    rows = list(csv.reader(proc.stdout.splitlines()))[1:]
    assert all(len(row) == 8 for row in rows)
    assert float(rows[0][0]) == 0.5
    assert rows[0][1] == ""  # no lambda on the failed row
    assert rows[0][7].startswith("ValueError: radii must satisfy 0 < r1 < r2 < inf, got")
    assert float(rows[1][2]) == pytest.approx(math.tau / math.log(2.0), rel=1e-5)
    assert rows[1][7] == ""


@pytest.mark.parametrize("geometry, modulus", [("annulus", math.tau / math.log(2.0)),
                                                ("cylinder", 0.5)])
@pytest.mark.parametrize("values", ["nan,2", "2,nan", "inf,2", "2,inf", "-inf,2", "2,-inf"])
def test_non_finite_sweep_values_are_row_errors_wherever_they_sit(geometry, modulus, values,
                                                                   capsys):
    argv = ["sweep", "--geometry", geometry, "--p", "2", f"--values={values}", "--format", "json"]
    assert cli.main(argv) == 0
    rows = strict_json(capsys.readouterr().out)["rows"]
    bad, good = rows if values.endswith(",2") else rows[::-1]
    assert bad["error"].startswith("ValueError: ") and bad["modulus"] is None
    assert bad["param"] is None  # JSON has no NaN or infinity
    assert good["error"] is None and good["modulus"] == pytest.approx(modulus, rel=1e-5)


def test_an_unexpected_error_in_a_sweep_row_fails_the_sweep(monkeypatch, capsys):
    # Only the documented validation and solver errors are row errors; any other exception
    # is a fault, and it is raised, not printed as a row with exit 0.
    bound = cli.log_density_upper_bound

    def fail_at_four(prob, quad):
        if prob.r2 == 4.0:
            raise TypeError("not a row error")
        return bound(prob, quad)

    monkeypatch.setattr(cli, "log_density_upper_bound", fail_at_four)
    with pytest.raises(TypeError, match="not a row error"):
        cli.main(["sweep", "--p", "2", "--values", "2,4,8"])
    assert capsys.readouterr().out == ""


def test_a_ratio_past_the_float_range_is_null_in_json(capsys):
    argv = ["annulus", "--n", "3", "--r1", "1e-300", "--r2", "1e300", "--p", "2",
            "--format", "json"]
    assert cli.main(argv) == 0
    payload = strict_json(capsys.readouterr().out)
    assert payload["ratio"] is None
    assert payload["modulus"] > 0.0 and payload["upper_bound"] > 0.0


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


def test_sweep_never_restricts_the_exponent(monkeypatch):
    # Every row solves on the template exponent; the solve reads p at its nodes only.
    calls = []
    restricted = ExponentFunction.restricted
    monkeypatch.setattr(ExponentFunction, "restricted",
                        lambda self, a, b: calls.append((a, b)) or restricted(self, a, b))
    for geometry in ("annulus", "cylinder"):
        assert cli.main(["sweep", "--geometry", geometry, "--p", "2", "--values", "2,4"]) == 0
    assert calls == []


def test_sweep_parses_the_exponent_once(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "parse_exponent",
                        lambda *args: calls.append(args) or parse_exponent(*args))
    assert cli.main(["sweep", "--geometry", "cylinder", "--p", "2+t", "--values", "1,2"]) == 0
    assert calls == [("2+t", "t", (0.0, 2.0))]


@pytest.mark.parametrize("geometry, var", [("annulus", "r"), ("cylinder", "t")])
def test_sweep_evaluates_the_exponent_once_per_pass(geometry, var, monkeypatch):
    # The rows are solved in one pass, and their bounds read its values.
    calls = []

    def counted(*args):
        p = parse_exponent(*args)
        return dataclasses.replace(p, eval=lambda x: calls.append(x.size) or p.eval(x))

    monkeypatch.setattr(cli, "parse_exponent", counted)
    argv = ["sweep", "--geometry", geometry, "--p", f"2+0.1*{var}", "--values", "1.5,2,4,3"]
    assert cli.main(argv) == 0
    assert len(calls) == 1


def test_a_sweep_of_several_passes_evaluates_the_exponent_once_per_pass(monkeypatch, capsys):
    # Four rings of 30,001 to 30,301 nodes at step 1e-4, two to a pass of at most 65,536
    # nodes: each row's bound is read while the record still holds its pass.  Reading the
    # bounds after the sweep took 6 calls over 241,208 points.
    calls = []

    def counted(*args):
        p = parse_exponent(*args)
        return dataclasses.replace(p, eval=lambda x: calls.append(x.size) or p.eval(x))

    monkeypatch.setattr(cli, "parse_exponent", counted)
    values = ",".join(repr(math.exp(s)) for s in (3.00, 3.01, 3.02, 3.03))
    argv = ["sweep", "--geometry", "annulus", "--p", "2+0.1*log(r)", "--values", values,
            "--step-hint", "1e-4", "--format", "json"]
    assert cli.main(argv) == 0
    assert calls == [60_102, 60_502]
    rows = strict_json(capsys.readouterr().out)["rows"]
    assert [row["error"] for row in rows] == [None] * 4
    assert all(row["modulus"] < row["upper_bound"] for row in rows)


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
     ({"step-hint": 0.01}, "'step-hint'"), ({"pgd_iters": 5}, "'pgd_iters'"),
     ({"el_tol": 1e-8}, "'el_tol'")],
)
def test_bad_config_values_are_validation_errors(tmp_path, values, key):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"p": "2", **values}))
    proc = run_cli("annulus", "--config", str(config), expect=2)
    assert f"config key {key}" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("command, key, value", [
    ("oracle-check", "grid", 0), ("oracle-check", "draws", 0), ("oracle-check", "seed", -1),
    ("annulus", "density_samples", -3), ("cylinder", "density_samples", -1)])
def test_config_counts_below_their_least_are_rejected_as_their_flags_are(
        tmp_path, capsys, command, key, value):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"p": "2", key: value}))
    assert cli.main([command, "--config", str(config)]) == 2
    least = 1 if key in ("grid", "draws") else 0
    flag = key.replace("_", "-")
    assert capsys.readouterr().err == f"error: --{flag} must be at least {least}, got {value}\n"


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
     (("oracle-check", "--draws", "0"), "--draws"),
     (("oracle-check", "--seed", "-1"), "--seed"),
     (("sweep", "--p", "2", "--values", "inf"), "--values"),
     (("sweep", "--p", "2", "--values", "2", "--geometric", "3:4:2"),
      "--values and --geometric"),
     (("sweep", "--geometry", "cylinder", "--p", "2", "--values=-inf,nan"), "--values"),
     (("sweep", "--p", "2", "--geometric", "2:inf:3"), "--geometric"),
     (("sweep", "--geometry", "cylinder", "--p", "2", "--geometric", "nan:2:3"), "--geometric"),
     (("oracle-check", "--grid", "0"), "--grid"),
     (("oracle-check", "--grid", "-5"), "--grid"),
     (("sweep", "--p", "2", "--geometric", "1:2:x"), "--geometric"),
     (("sweep", "--p", "2", "--geometric", "1:2:2.5"), "--geometric"),
     (("annulus", "--p", "1+r", "--r2", "inf"), "r2=inf"),
     (("cylinder", "--p", "2+t", "--length", "inf"), "length=inf"),
     # A bad inner radius is the ring's error, not the exponent's or its interval's.
     (("sweep", "--r1", "-1", "--p", "log(r)+3", "--values", "2"), "r1="),
     (("sweep", "--r1", "0", "--p", "log(r)+3", "--values", "2"), "r1="),
     (("sweep", "--r1", "nan", "--p", "2", "--values", "2"), "r1="),
     # So is a bad area the cylinder's, named before the bad exponent.
     (("cylinder", "--area", "0", "--p", "2+"), "area="),
     (("sweep", "--geometry", "cylinder", "--area", "-1", "--values", "1,2", "--p", "2+"),
      "area=")],
)
def test_non_finite_tolerances_and_negative_counts_are_validation_errors(args, named):
    proc = run_cli(*args, expect=2)
    assert proc.stderr.startswith("error: ") and named in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("text", ["2" + "+r" * 1200, "(" * 250 + "r+1" + ")" * 250],
                         ids=["1200 terms", "250 parentheses"])
def test_too_deep_an_exponent_is_a_validation_error(text):
    proc = run_cli("annulus", "--r2", "1.001", "--p", text, expect=2)
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "(position " in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv, name", [
    (["sweep", "--p", "2", "--geometric", "1.5:2:1000000000000000"], "_geometric_range"),
    (["oracle-check", "--grid", "1000000000000000"], "oracle.annulus_grid"),
])
def test_a_request_too_large_for_memory_is_a_validation_error(argv, name, monkeypatch,
                                                              capsys):
    # numpy raises MemoryError for an array it cannot allocate; the function that would
    # allocate it raises it here, so nothing is allocated.
    def too_large(*args):
        raise MemoryError("Unable to allocate 7.11 PiB for an array with shape"
                          " (1000000000000000,) and data type float64")

    monkeypatch.setattr(f"vexmod.cli.{name}", too_large)
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1 and "7.11 PiB" in err
    assert out == ""


def test_too_fine_a_step_is_a_solver_error():
    proc = run_cli("annulus", "--p", "1+r", "--step-hint", "1e-9", expect=3)
    assert "solver error" in proc.stderr


TOO_FINE = "needs more than 4000000 subintervals, the cap is 1000000"


@pytest.mark.parametrize(
    "args",
    [("cylinder", "--p", "2", "--step-hint", "5e-324"),
     ("annulus", "--p", "2", "--step-hint", "5e-324"),
     ("tables", "--step-hint", "5e-324"),
     ("cylinder", "--length", "1e308", "--p", "2")],
)
def test_a_step_count_beyond_any_float_is_a_solver_error(args):
    # The count overflows a float; it used to end in an OverflowError traceback, exit 1.
    proc = run_cli(*args, expect=3)
    assert proc.stderr.startswith("solver error: [0.0, ")
    assert proc.stderr.endswith(f" {TOO_FINE}\n")
    assert proc.stdout == ""


def test_sweep_rows_whose_step_count_overflows_read_interval_too_fine():
    proc = run_cli("sweep", "--p", "2", "--values", "2,4", "--step-hint", "5e-324",
                   "--format", "json")
    assert [row["error"] for row in json.loads(proc.stdout)["rows"]] == [
        f"IntervalTooFine: [0.0, 0.6931471805599453] at step 5e-324 {TOO_FINE}",
        f"IntervalTooFine: [0.0, 1.3862943611198906] at step 5e-324 {TOO_FINE}"]


def test_four_hundred_dimensions_exit_cleanly():
    # The sphere area's Gamma(200) overflowed before it was taken in logs.
    proc = subprocess.run([sys.executable, "-m", "vexmod", "annulus", "--n", "400", "--p", "2"],
                          capture_output=True, text=True)
    assert proc.returncode in (0, 3), proc.stderr
    assert "Traceback" not in proc.stderr


def test_multiplier_below_the_float_range_is_a_solver_error():
    proc = run_cli("annulus", "--n", "177", "--r1", "0.00657111", "--r2", "0.436132",
                   "--p", "3.419", expect=3)
    assert proc.stderr.startswith("solver error: the multiplier is 0.0")



def test_a_bound_past_the_float_range_is_a_solver_error():
    # Both bounds raise where their energy overflows: the cylinder's once printed inf.
    proc = run_cli("cylinder", "--area", "1e306", "--length", "0.1", "--p", "2+50*t",
                   expect=3)
    assert proc.stderr.startswith("solver error: the area 1e+306 times the integral ")
    proc = run_cli("annulus", "--n", "150", "--r1", "1", "--r2", "1000", "--p", "2", expect=3)
    assert proc.stderr.startswith("solver error: integrand is inf at node ")

def test_sweep_rows_carry_the_quadrature_error():
    proc = run_cli("sweep", "--p", "1+r", "--values", "2,4", "--format", "json")
    rows = json.loads(proc.stdout)["rows"]
    assert all(0.0 < row["quadrature_error"] < 1e-8 for row in rows)
    assert rows[1]["modulus"] == pytest.approx(1.0320950943156118, rel=1e-8)


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
    assert proc.stdout.count("PASS") == 6


def test_oracle_check_trivial_grid_still_passes():
    run_cli("oracle-check", "--grid", "1")


def test_oracle_check_rejects_a_bad_grid_before_solving(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("reference problem solved")

    monkeypatch.setattr(cli, "solve_annulus", fail)
    assert cli.main(["oracle-check", "--grid", "0"]) == 2
    assert capsys.readouterr().err == "error: --grid must be at least 1, got 0\n"


def test_oracle_check_exits_4_when_a_duality_gap_opens(monkeypatch, capsys):
    dual = cli.oracle.dual_lower_bound  # equal to the grid energy at the optimum
    monkeypatch.setattr(cli.oracle, "dual_lower_bound", lambda *args: 0.5 * dual(*args))
    assert cli.main(["oracle-check"]) == 4
    lines = capsys.readouterr().out.splitlines()
    failed = [line.split("  ")[1] for line in lines if line.startswith("FAIL")]
    assert failed == ["annulus duality gap", "cylinder duality gap"]
    assert lines[-1] == "some checks FAILED"


def test_oracle_check_json_lists_every_check():
    proc = run_cli("oracle-check", "--format", "json")
    payload = json.loads(proc.stdout)
    assert payload["passed"] is True
    assert len(payload["checks"]) == 6
    assert all(c["passed"] for c in payload["checks"])
    names = [c["name"] for c in payload["checks"]]
    assert "annulus duality gap" in names and "cylinder duality gap" in names
    assert "quadrature_step" in payload["diagnostics"]


def test_oracle_check_does_not_run_projected_gradient(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("projected gradient called")

    monkeypatch.setattr(cli.oracle, "projected_gradient_minimize", fail)
    assert cli.main(["oracle-check"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_pgd_iters_is_not_an_option():
    proc = run_cli("oracle-check", "--pgd-iters", "5", expect=2)
    assert "--pgd-iters" in proc.stderr


@pytest.mark.parametrize("flag", ["--el-tol", "--residual-tol", "--lambda-tol", "--max-iters"])
def test_oracle_check_rejects_options_it_does_not_read(flag):
    proc = run_cli("oracle-check", flag, "1", expect=2)
    assert f"unrecognized arguments: {flag} 1" in proc.stderr
    assert proc.stdout == ""
