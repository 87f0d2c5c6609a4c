"""Golden reports: `vexmod.cli.main` output compared with files in tests/golden.

Runs in-process.  Human and CSV text must match exactly except for numeric
tokens, which may differ by a relative 1e-12; JSON must be equal after
`json.loads`, with the same tolerance on numbers.  Regenerate the files with
`PYTHONPATH=src python3 tests/test_cli_golden.py`.

The small `residual` and `quadrature_error` digits follow the summation order
of the BLAS dot product that sums each row, so the files hold for one dot
kernel: they were written under numpy's bundled OpenBLAS with its Haswell,
SkylakeX or Zen kernel, which agree.  Its Sandybridge and Prescott kernels sum
in another order and move 9 of the files past the tolerance (the cylinder
`quadrature_error` 1.0898768487e-09 reads 1.0898768394e-09); CI pins the
kernel with `OPENBLAS_CORETYPE=Haswell`.
"""

import contextlib
import csv
import io
import json
import math
import re
from pathlib import Path

import pytest

from vexmod import cli

GOLDEN = Path(__file__).parent / "golden"
REL = 1e-12

# (file name, expected exit code, argv); the extension names the format.
CASES = [
    ("annulus.txt", 0, ["annulus", "--p", "1+r"]),
    ("annulus.csv", 0, ["annulus", "--p", "1+r", "--format", "csv"]),
    ("annulus.json", 0, ["annulus", "--p", "1+r", "--format", "json"]),
    ("annulus-density.txt", 0, ["annulus", "--n", "3", "--r2", "4", "--p", "2+0.1*r",
                                "--density-samples", "4"]),
    ("cylinder.txt", 0, ["cylinder", "--p", "2+t"]),
    ("cylinder.csv", 0, ["cylinder", "--p", "2+t", "--format", "csv"]),
    ("cylinder.json", 0, ["cylinder", "--p", "2+t", "--format", "json"]),
    ("cylinder-density.csv", 0, ["cylinder", "--p", "2+t", "--area", "2", "--length", "3",
                                 "--density-samples", "3", "--format", "csv"]),
    ("cylinder-density.json", 0, ["cylinder", "--p", "2+t", "--density-samples", "3",
                                  "--format", "json"]),
    ("sweep.txt", 0, ["sweep", "--p", "2", "--values", "0.5,2,4"]),
    ("sweep.csv", 0, ["sweep", "--p", "2", "--values", "0.5,2,4", "--format", "csv"]),
    ("sweep.json", 0, ["sweep", "--p", "2", "--values", "0.5,2,4", "--format", "json"]),
    ("sweep-geometric.txt", 0, ["sweep", "--n", "3", "--p", "1+r", "--geometric", "1.5:40:4"]),
    ("sweep-cylinder.json", 0, ["sweep", "--geometry", "cylinder", "--p", "1.5+t",
                                "--values=-1,0.5", "--format", "json"]),
    ("tables.txt", 0, ["tables"]),
    ("tables.csv", 0, ["tables", "--format", "csv"]),
    ("tables.json", 0, ["tables", "--format", "json"]),
    ("oracle-check.txt", 0, ["oracle-check"]),
    ("oracle-check.csv", 0, ["oracle-check", "--format", "csv"]),
    ("oracle-check.json", 0, ["oracle-check", "--format", "json"]),
]

_NUMBER = re.compile(r"(\d+(?:\.\d*)?(?:e[-+]?\d+)?)")


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def close(a, b) -> bool:
    return a == b or math.isclose(a, b, rel_tol=REL, abs_tol=0.0)


def same_json(got, want) -> bool:
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(same_json(got[k], want[k]) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(same_json(g, w) for g, w in zip(got, want)))
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return close(got, want)
    return got == want


def same_text(got: str, want: str) -> bool:
    got_parts, want_parts = _NUMBER.split(got), _NUMBER.split(want)
    if len(got_parts) != len(want_parts):
        return False
    # split() puts the captured numbers at the odd positions
    return all(g == w if i % 2 == 0 else close(float(g), float(w))
               for i, (g, w) in enumerate(zip(got_parts, want_parts)))


@pytest.mark.parametrize("name, code, argv", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(name, code, argv):
    got_code, got = run(argv)
    want = (GOLDEN / name).read_text()
    assert got_code == code
    if name.endswith(".json"):
        assert same_json(json.loads(got), json.loads(want)), got
    else:
        assert same_text(got, want), got


def test_every_golden_file_is_a_case():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(c[0] for c in CASES)


@pytest.mark.parametrize("name", [c[0] for c in CASES if c[0].endswith(".csv")])
def test_golden_csv_rows_have_the_header_length(name):
    # A row of bare column names starts a table; a report may hold several.
    width = 0
    for row in csv.reader((GOLDEN / name).read_text().splitlines()):
        if all(re.fullmatch(r"[a-z_]+", field) for field in row):
            width = len(row)
        assert len(row) == width, row


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, _, argv in CASES:
        (GOLDEN / name).write_text(run(argv)[1])
