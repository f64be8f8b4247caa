"""Every bundled request still prints the report it printed when the goldens were made.

The 32 requests are the 15 non-empty covariate subsets of stan30.csv and
linear30.csv, each in text and JSON. They run from ``tests/`` with relative
``--data`` paths, so the echoed path does not depend on the checkout. Text
reports must match byte for byte. A JSON report must match in key order, with
ints, strings, booleans and nulls exact and floats within 1e-12 relative, so
a BLAS that rounds the last bits differently does not fail the test.

To regenerate the goldens after a deliberate change to the reports, run
``PYTHONPATH=src python tests/test_golden_reports.py`` from the repository
root.
"""

import contextlib
import io
import itertools
import json
import math
import os
from pathlib import Path

import pytest

from nfactor.cli import run

TESTS_DIR = Path(__file__).resolve().parent
GOLDEN = TESTS_DIR / "data" / "golden_reports.json"
COVARIATES = ("age", "posttran", "surgery", "year")
FLOAT_RTOL = 1e-12


def bundled_requests() -> list[list[str]]:
    subsets = [c for k in range(1, 5) for c in itertools.combinations(COVARIATES, k)]
    cox = [["--model", "cox-lr", "--data", "data/stan30.csv", "--time", "t1",
            "--event", "died", "--id", "id", "--covariates", ",".join(c)] for c in subsets]
    linear = [["--model", "linear-wald", "--data", "data/linear30.csv", "--response", "y"]]
    return [[*args, "--format", fmt] for args in cox + linear for fmt in ("text", "json")]


def run_request(argv) -> dict:
    """Exit code, stdout and stderr of one request, run from ``tests/``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def assert_json_close(got, want, where="$"):
    assert type(got) is type(want), f"{where}: {got!r} != {want!r}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{where}: keys {list(got)} != {list(want)}"
        for key in want:
            assert_json_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_json_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=FLOAT_RTOL, abs_tol=0.0), \
            f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


GOLDENS = json.loads(GOLDEN.read_text())


def test_goldens_cover_every_bundled_request():
    assert [g["argv"] for g in GOLDENS] == bundled_requests()
    assert len(GOLDENS) == 32


def request_id(golden) -> str:
    argv = golden["argv"]
    covariates = argv[argv.index("--covariates") + 1] if "--covariates" in argv else "y"
    return f"{Path(argv[3]).stem}:{covariates}:{argv[-1]}"


def assert_matches_golden(got, golden):
    assert got["exit"] == golden["exit"]
    assert got["stderr"] == golden["stderr"]
    if golden["argv"][-1] == "json":
        assert got["stdout"].endswith("\n") and "\n" not in got["stdout"][:-1]
        assert_json_close(json.loads(got["stdout"]), json.loads(golden["stdout"]))
    else:
        assert got["stdout"] == golden["stdout"]


@pytest.mark.parametrize("golden", GOLDENS, ids=request_id)
def test_bundled_report_matches_golden(golden, monkeypatch):
    monkeypatch.chdir(TESTS_DIR)
    assert_matches_golden(run_request(golden["argv"]), golden)


if __name__ == "__main__":
    os.chdir(TESTS_DIR)
    reports = [run_request(argv) for argv in bundled_requests()]
    GOLDEN.write_text(json.dumps(reports, indent=1) + "\n")
