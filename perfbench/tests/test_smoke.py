"""Smoke test of the benchmark itself: output schema and the answer checker.

    python3 -m pytest perfbench/tests
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
STAN30 = str(ROOT / "tests" / "data" / "stan30.csv")
COVARIATES = ("age", "posttran", "surgery", "year")


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path("perfbench") / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_smallest_run_prints_every_metric(trace, section):
    proc = _bench("--workload", "cli-bundled", "--seed", "1", "--seconds", "8",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "cli-bundled", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _stan30_report() -> dict:
    from nfactor import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(["--model", "cox-lr", "--data", STAN30, "--time", "t1",
                        "--event", "died", "--id", "id", "--covariates",
                        ",".join(COVARIATES), "--format", "json"])
    assert code == 0
    return json.loads(out.getvalue())


def _problems(doc) -> list:
    return (check.check_cox(doc, STAN30, "t1", "died", "id", COVARIATES, 0.05)
            + check.check_goldens(doc, "stan30:" + ",".join(COVARIATES)))


def test_checker_passes_the_real_answer():
    assert _problems(_stan30_report()) == []


def _shift_p0_keeping_w_int_consistent(doc):
    doc["p0"] *= 1.001
    doc["w_int"] = check.interpolate(doc["w0"], doc["p0"], doc["w1"], doc["p1"], 0.05)
    doc["n_int"] = doc["w_int"] * 30


@pytest.mark.parametrize("corrupt", [
    lambda d: d.update(p0=d["p0"] * 1.001),
    lambda d: d.update(p1=d["p1"] * 1.001),
    _shift_p0_keeping_w_int_consistent,
    lambda d: d.update(w_int=d["w_int"] + 1e-3),
    lambda d: d.update(w0=d["w0"] + 1, w1=d["w1"] + 1),
    lambda d: d["fit"].update(loglik_full=d["fit"]["loglik_full"] + 1e-6),
    lambda d: d["fit"]["coefficients"][0].update(beta=d["fit"]["coefficients"][0]["beta"] * 1.01),
])
def test_checker_catches_a_corrupted_answer(corrupt):
    doc = _stan30_report()
    corrupt(doc)
    assert check.check_cox(doc, STAN30, "t1", "died", "id", COVARIATES, 0.05)


def test_a_missing_wrapped_name_is_reported_absent(monkeypatch):
    from nfactor import cli
    from tracing import Tracer, summarize

    monkeypatch.delattr(cli, "survival_frame_from_intervals")
    tracer = Tracer()
    tracer.install()
    try:
        _stan30_report()
    finally:
        tracer.uninstall()
    assert tracer.absent == ["nfactor.cli.survival_frame_from_intervals"]
    metrics = summarize(tracer.spans, tracer.counts, 1)
    assert metrics["kernels.score.calls"] > 0 and metrics["data.frame.s"] > 0


def _outcome(label, code, stderr):
    import run

    covariates = tuple(label.split(":")[1].split(",")) if label.startswith("stan30") else ()
    request = (run.Request(label, "cox-lr", STAN30, covariates,
                           may_stall=covariates in run.STAN30_STALLS)
               if covariates else
               run.Request(label, "linear-wald", str(ROOT / "tests/data/linear30.csv"), ()))
    return run.check_answers([request], [run.Result(0, code, 0.1, "", stderr, 0, 0.1)])


def test_only_a_known_stall_may_fail():
    stall = "nfactor: error: Newton-Raphson did not converge after 100 iterations"
    assert _outcome("stan30:age", 1, stall) == []
    assert _outcome("stan30:age,posttran,surgery,year", 1, stall)
    assert _outcome("linear30:json", 1, "nfactor: error: something")
    assert _outcome("stan30:age", 1, "Traceback (most recent call last):\n"
                    "ZeroDivisionError: float division by zero")
    assert _outcome("stan30:age", -9, "")


def test_only_whole_passes_are_counted(capsys):
    import run

    requests = [run.Request(f"r{i}", "linear-wald", "x.csv", ()) for i in range(3)]
    codes = [0, 1, 2] * 2 + [1, 1]  # two whole passes, then two of a third
    results = [run.Result(i % 3, code, 0.1, "", "", 0, 0.1 * (i + 1))
               for i, code in enumerate(codes)]
    outcome = run.report_outcomes(requests, results)
    capsys.readouterr()
    assert (outcome["failed"], outcome["attempted"]) == (2, 6)
    assert outcome["nf_per_s"] == pytest.approx(4 / 0.6)
