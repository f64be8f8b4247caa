import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from warnings import warn

import pytest

import nfactor
from nfactor import chi2_sf, cli, cox, fit_wls, kernels
from nfactor.cli import emit_report, run
from nfactor.errors import DomainError, NfactorError
from nfactor.search import DEFAULT_MAX_WEIGHT

from conftest import COVARIATES, HEART_CSV, LINEAR_CSV
from test_golden_reports import (GOLDENS, TESTS_DIR, assert_matches_golden,
                                 bundled_requests, run_request)

COX_ARGS = [
    "--model", "cox-lr",
    "--data", str(HEART_CSV),
    "--time", "t1",
    "--event", "died",
    "--id", "id",
    "--covariates", "age,posttran,surgery,year",
    "--alpha", "0.05",
]
LINEAR_ARGS = [
    "--model", "linear-wald",
    "--data", str(LINEAR_CSV),
    "--response", "y",
    "--alpha", "0.05",
]


def run_json(capsys, args):
    code = run([*args, "--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out), out


# ---- end-to-end runs ----------------------------------------------------------


def test_cox_reference_run(capsys):
    code, doc, _ = run_json(capsys, COX_ARGS)
    assert code == 0
    assert doc["w0"] == 4 and doc["w1"] == 5
    assert doc["w_int"] == pytest.approx(4.751, abs=1e-3)
    assert doc["n_int"] == pytest.approx(142.53, abs=0.05)
    assert doc["nf_integer"] == 5
    assert doc["p_at_1"] == pytest.approx(0.6433, abs=5e-4)
    assert doc["fit"]["omitted"] == ["surgery"]
    assert doc["fit"]["lr_df"] == 3
    assert doc["warnings"] == []
    traced = [w for w, _ in doc["trace"]]
    assert traced[0] == 1 and {4, 5} <= set(traced)


def test_linear_reference_run(capsys):
    code, doc, _ = run_json(capsys, LINEAR_ARGS)
    assert code == 0
    assert doc["nf_integer"] == 17
    assert doc["nf_integer"] * 30 == 510
    assert doc["w0"] == 16
    assert doc["p0"] == pytest.approx(0.057, abs=5e-4)
    assert doc["p1"] == pytest.approx(0.050, abs=5e-4)
    assert doc["fit"]["coefficients"][0]["coef"] == pytest.approx(0.0929164, abs=1e-7)


def test_text_report(capsys):
    assert run(COX_ARGS) == 0
    out = capsys.readouterr().out
    assert "haz. ratio" in out
    assert "surgery" in out and "(omitted)" in out
    assert "w_int = 4.7512" in out
    assert "n_int = 142.5353" in out
    assert "warnings" not in out  # nothing to report on the clean run


def test_text_report_prints_small_probabilities_in_exponent_form(capsys):
    # at 4 decimals alpha and both bracket p-values would all read 0.0000
    assert run([*COX_ARGS, "--alpha", "1e-5"]) == 0
    out = capsys.readouterr().out
    assert "target alpha: 1.000e-05" in out
    assert "bracket: w0 = 15 (p = 1.493e-05)   w1 = 16 (p = 6.671e-06)" in out
    assert "w=14 p=3.335e-05; w=15 p=1.493e-05" in out
    assert "p = 0.6433" in out and "P>|z|" in out  # larger p-values keep 4 decimals


# Report branches the bundled goldens never reach: (CSV, arguments, text report).
# Each request reads case.csv from the working directory.
BRANCH_CASES = {
    "significant_at_1": (
        "y\n2.1\n1.9\n2.4\n1.8\n2.2\n2.0\n",
        ["--model", "linear-wald", "--response", "y"],
        "non-significance factor report\n"
        "model: linear-wald   data: case.csv   target alpha: 0.0500\n"
        "\n"
        "regression fit at weight 1: weighted n = 6, df = 5, root mse = 0.2160\n"
        "  term              coef.  std. err.       t   P>|t|\n"
        "  intercept        2.0667     0.0882   23.43   0.000\n"
        "  tested coefficient: intercept\n"
        "\n"
        "already significant at weight 1: p = 2.634e-06 <= 0.0500\n"
        "nf_integer = 1   w_int = 1.0000   n_int = 6.0000\n"
        "trace: w=1 p=2.634e-06\n",
    ),
    "zero_residual": (
        "y,x\n1,0\n3,1\n5,2\n7,3\n",
        ["--model", "linear-wald", "--response", "y", "--covariates", "x",
         "--wald-coefficient", "x"],
        "non-significance factor report\n"
        "model: linear-wald   data: case.csv   target alpha: 0.0500\n"
        "\n"
        "regression fit at weight 1: weighted n = 4, df = 2, root mse = 0.0000\n"
        "  term              coef.  std. err.       t   P>|t|\n"
        "  intercept        1.0000     0.0000     inf   0.000\n"
        "  x                2.0000     0.0000     inf   0.000\n"
        "  tested coefficient: x\n"
        "\n"
        "already significant at weight 1: p = 0.0000 <= 0.0500\n"
        "nf_integer = 1   w_int = 1.0000   n_int = 4.0000\n"
        "trace: w=1 p=0.0000\n"
        "warnings: degenerate\n",
    ),
    "omitted_term": (
        "y,x,x2\n0.3,1,2\n1.1,2,4\n0.4,3,6\n1.9,4,8\n0.8,5,10\n1.2,6,12\n",
        ["--model", "linear-wald", "--response", "y", "--covariates", "x,x2",
         "--wald-coefficient", "x"],
        "non-significance factor report\n"
        "model: linear-wald   data: case.csv   target alpha: 0.0500\n"
        "\n"
        "regression fit at weight 1: weighted n = 6, df = 4, root mse = 0.5838\n"
        "  term              coef.  std. err.       t   P>|t|\n"
        "  intercept        0.4400     0.5435    0.81   0.464\n"
        "  x                0.1457     0.1396    1.04   0.355\n"
        "  x2            (omitted)\n"
        "  tested coefficient: x\n"
        "\n"
        "bracket: w0 = 3 (p = 0.0531)   w1 = 4 (p = 0.0228)\n"
        "nf_integer = 4   w_int = 3.1030   n_int = 18.6181\n"
        "trace: w=1 p=0.3554; w=2 p=0.1298; w=4 p=0.0228; w=3 p=0.0531\n",
    ),
    "ties": (
        "id,t,e,x\n1,5,1,0.2\n2,5,1,1.4\n3,8,1,0.9\n4,9,0,0.1\n",
        ["--model", "cox-lr", "--time", "t", "--event", "e", "--id", "id",
         "--covariates", "x", "--alpha", "0.4"],
        "non-significance factor report\n"
        "model: cox-lr   data: case.csv   target alpha: 0.4000\n"
        "\n"
        "cox fit at weight 1: 4 subjects, 3 failures\n"
        "  covariate    haz. ratio  std. err.       z   P>|z|\n"
        "  x                2.6484     3.2486    0.79   0.427\n"
        "  log likelihood -3.1298 (null -3.4657)   LR chi2(1) = 0.6719   p = 0.4124\n"
        "\n"
        "bracket: w0 = 1 (p = 0.4124)   w1 = 2 (p = 0.2463)\n"
        "nf_integer = 2   w_int = 1.0745   n_int = 4.2981\n"
        "trace: w=1 p=0.4124; w=2 p=0.2463\n"
        "warnings: ties\n",
    ),
    "explicit_intervals": (
        "id,start,stop,e,x\n1,0,4,1,0.2\n2,0,6,0,1.4\n3,0,3,1,0.9\n4,0,9,0,0.1\n"
        "5,0,7,1,1.1\n6,0,5,0,0.6\n",
        ["--model", "cox-lr", "--explicit-intervals", "start,stop", "--event", "e",
         "--id", "id", "--covariates", "x"],
        "non-significance factor report\n"
        "model: cox-lr   data: case.csv   target alpha: 0.0500\n"
        "\n"
        "cox fit at weight 1: 6 subjects, 3 failures\n"
        "  covariate    haz. ratio  std. err.       z   P>|z|\n"
        "  x                1.3253     1.5637    0.24   0.811\n"
        "  log likelihood -4.0657 (null -4.0943)   LR chi2(1) = 0.0572   p = 0.8109\n"
        "\n"
        "bracket: w0 = 67 (p = 0.0502)   w1 = 68 (p = 0.0485)\n"
        "nf_integer = 68   w_int = 67.1312   n_int = 402.7872\n"
        "trace: w=1 p=0.8109; w=2 p=0.7351; w=4 p=0.6323; w=8 p=0.4987; "
        "w=16 p=0.3386; w=32 p=0.1760; w=64 p=0.0557; w=128 p=0.0068; w=96 p=0.0191; "
        "w=80 p=0.0324; w=72 p=0.0424; w=68 p=0.0485; w=66 p=0.0520; w=67 p=0.0502\n",
    ),
}


def run_branch_case(capsys, monkeypatch, tmp_path, name, fmt):
    csv, args, _ = BRANCH_CASES[name]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "case.csv").write_text(csv)
    code = run([*args, "--data", "case.csv", "--format", fmt])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("name", BRANCH_CASES)
def test_text_report_branches(capsys, monkeypatch, tmp_path, name):
    code, out = run_branch_case(capsys, monkeypatch, tmp_path, name, "text")
    assert code == 0
    assert out == BRANCH_CASES[name][2]


def test_explicit_intervals_spec(capsys, monkeypatch, tmp_path):
    code, out = run_branch_case(capsys, monkeypatch, tmp_path, "explicit_intervals", "json")
    assert code == 0
    # a dict compares equal in any key order; the report's order is pinned here
    assert list(json.loads(out)["spec"]["columns"].items()) == [
        ("start", "start"), ("stop", "stop"), ("event", "e"), ("id", "id"), ("covariates", ["x"]),
    ]


def test_json_has_no_non_finite_tokens(capsys, monkeypatch, tmp_path):
    # the zero-residual fit's t is inf; strict JSON has no token for it
    def no_constants(token):
        raise AssertionError(f"non-standard JSON token {token}")

    code, out = run_branch_case(capsys, monkeypatch, tmp_path, "zero_residual", "json")
    assert code == 0
    doc = json.loads(out, parse_constant=no_constants)
    assert [c["t"] for c in doc["fit"]["coefficients"]] == [None, None]
    assert doc["warnings"] == ["degenerate"]


def test_explicit_intervals_equivalent(capsys, heart_dataset, heart_frame, tmp_path):
    path = tmp_path / "explicit.csv"
    names = [*heart_dataset.columns, "tstart", "tstop"]
    columns = [heart_dataset.column(c) for c in heart_dataset.columns]
    columns += [heart_frame.start, heart_frame.stop]
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for i in range(heart_dataset.n_rows):
            fh.write(",".join(repr(float(col[i])) for col in columns) + "\n")
    args = [
        "--model", "cox-lr",
        "--data", str(path),
        "--explicit-intervals", "tstart,tstop",
        "--event", "died",
        "--id", "id",
        "--covariates", "age,posttran,surgery,year",
    ]
    code, doc, _ = run_json(capsys, args)
    ref_code, ref_doc, _ = run_json(capsys, COX_ARGS)
    assert code == ref_code == 0
    assert doc["w_int"] == ref_doc["w_int"]
    assert doc["fit"]["loglik_full"] == ref_doc["fit"]["loglik_full"]


def test_the_answer_does_not_depend_on_the_units_of_a_covariate(capsys, heart_dataset,
                                                                 tmp_path):
    # age in units of 128 years and year in units of 2**-20 years: both
    # scalings are exact in binary, so the data are the same data. A pivot
    # rule relative to the largest diagonal entry of the information matrix
    # refused this fit.
    scale = {"age": 2.0**-7, "year": 2.0**20}
    path = tmp_path / "rescaled.csv"
    columns = [heart_dataset.column(c) * scale.get(c, 1.0) for c in heart_dataset.columns]
    with open(path, "w") as fh:
        fh.write(",".join(heart_dataset.columns) + "\n")
        for i in range(heart_dataset.n_rows):
            fh.write(",".join(repr(float(col[i])) for col in columns) + "\n")
    args = [*COX_ARGS]
    args[args.index("--data") + 1] = str(path)
    code, doc, _ = run_json(capsys, args)
    ref_code, ref, _ = run_json(capsys, COX_ARGS)
    assert code == ref_code == 0
    assert (doc["nf_integer"], doc["w0"], doc["w1"]) == (ref["nf_integer"], ref["w0"], ref["w1"])
    assert (ref["nf_integer"], ref["w0"], ref["w1"]) == (5, 4, 5)
    for key in ("p0", "p1", "w_int", "n_int"):
        assert doc[key] == pytest.approx(ref[key], rel=1e-12, abs=0), key
    for key in ("lr_stat", "p_lr"):
        assert doc["fit"][key] == pytest.approx(ref["fit"][key], rel=1e-12, abs=0), key
    assert f"{doc['w_int']:.4f} {doc['n_int']:.4f}" == "4.7512 142.5353"


def write_age_scaled(heart_dataset, path, scale):
    columns = [heart_dataset.column(c) * (scale if c == "age" else 1.0)
               for c in heart_dataset.columns]
    with open(path, "w") as fh:
        fh.write(",".join(heart_dataset.columns) + "\n")
        for i in range(heart_dataset.n_rows):
            fh.write(",".join(repr(float(col[i])) for col in columns) + "\n")
    return [*COX_ARGS[:-4], "--covariates", "age", "--data", str(path)]


@pytest.mark.parametrize("divisor, beta, row", [
    # exp(626.68) is about 1.5e272: fixed point would print some 270 digits
    (-40000, 626.68, "  age          1.463e+272 1.494e+275    0.61   0.540"),
    # exp(783.35) overflows; it is computed without a RuntimeWarning
    (-50000, 783.35, "  age                 inf        inf    0.61   0.540"),
])
def test_a_huge_hazard_ratio_prints_in_exponent_form(capsys, heart_dataset, tmp_path,
                                                       divisor, beta, row):
    # age in units of -40000 or -50000 years has a huge coefficient, and the
    # same answer as age in years: NF 11
    args = write_age_scaled(heart_dataset, tmp_path / "age.csv", 1.0 / divisor)
    code, doc, _ = run_json(capsys, args)
    (coef,) = doc["fit"]["coefficients"]
    assert code == 0 and doc["nf_integer"] == 11 and f"{doc['w_int']:.4f}" == "10.7879"
    assert coef["beta"] == pytest.approx(beta, abs=0.01)
    if beta < 709:
        assert coef["hazard_ratio"] == pytest.approx(math.exp(coef["beta"]), rel=1e-14)
    else:
        assert coef["hazard_ratio"] is None  # JSON writes inf as null
    assert run(args) == 0
    assert row in capsys.readouterr().out.splitlines()


def test_a_hazard_ratio_of_zero_prints_an_infinite_std_err(capsys, tmp_path):
    # age is 0 on every row but the fourth, -5e-324: beta maps back to -inf,
    # the hazard ratio to 0 and its se to inf, and 0 * inf would print nan
    header, *rows = HEART_CSV.read_text().splitlines()
    age = header.split(",").index("age")
    lines = [header]
    for i, row in enumerate(rows):
        cells = row.split(",")
        cells[age] = "-5e-324" if i == 3 else "0"
        lines.append(",".join(cells))
    path = tmp_path / "age.csv"
    path.write_text("\n".join(lines) + "\n")
    args = [*COX_ARGS[:-4], "--covariates", "age", "--data", str(path)]
    code, doc, _ = run_json(capsys, args)
    (coef,) = doc["fit"]["coefficients"]
    assert code == 0 and coef["hazard_ratio"] == 0.0
    assert coef["beta"] is None and coef["se_beta"] is None  # JSON writes -inf and inf as null
    assert run(args) == 0
    out = capsys.readouterr().out
    assert "nan" not in out
    assert "  age              0.0000        inf   -1.47   0.141" in out.splitlines()


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_byte_order_mark_gives_the_same_report(capsys, tmp_path, fmt):
    # spreadsheets export UTF-8 CSVs with a leading byte-order mark
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + LINEAR_CSV.read_bytes())
    reports = []
    for path in (LINEAR_CSV, bom):
        args = [*LINEAR_ARGS, "--format", fmt]
        args[args.index("--data") + 1] = str(path)
        assert run(args) == 0
        reports.append(capsys.readouterr().out.replace(json.dumps(str(path))[1:-1], "DATA"))
    assert reports[0] == reports[1]
    assert "DATA" in reports[0]


def test_ties_warning_is_reported(capsys, tmp_path):
    path = tmp_path / "tied.csv"
    path.write_text(
        "id,t,e,x\n"
        "1,5,1,0.2\n"
        "2,5,1,1.4\n"
        "3,8,1,0.9\n"
        "4,9,0,0.1\n"
    )
    args = ["--model", "cox-lr", "--data", str(path), "--time", "t",
            "--event", "e", "--id", "id", "--covariates", "x", "--alpha", "0.4"]
    code, doc, _ = run_json(capsys, args)
    assert "ties" in doc["warnings"]


def test_a_foreign_warning_reaches_the_process_filters(capsys, monkeypatch):
    # the report's warnings are the fit's own labels; a warning that anything
    # else raises on the way leaves cli.run under the process's filters
    def fit_and_warn(*args):
        warn("probe", UserWarning)
        return fit_wls(*args)

    monkeypatch.setattr(cli, "fit_wls", fit_and_warn)
    with pytest.warns(UserWarning, match="probe"):
        code, doc, _ = run_json(capsys, LINEAR_ARGS)
    assert code == 0 and doc["warnings"] == []


def test_unreachable_exits_2_with_report(capsys):
    code, doc, _ = run_json(capsys, [*LINEAR_ARGS[:-2], "--alpha", "0.001",
                                     "--max-weight", "8"])
    assert code == 2
    assert doc["nf_integer"] is None
    assert doc["w_int"] is None
    assert doc["best_p"] == pytest.approx(0.1794, abs=5e-4)  # p at the cap w=8
    assert doc["max_weight"] == 8
    assert doc["trace"]  # evaluations are still reported
    assert doc["p_at_1"] == pytest.approx(0.643, abs=5e-4)


def test_wald_coefficient_flag(capsys, tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("y,x\n" + "".join(
        f"{0.3 * i + 0.5},{i}\n" if i % 2 else f"{0.3 * i - 0.5},{i}\n"
        for i in range(12)
    ))
    args = ["--model", "linear-wald", "--data", str(path), "--response", "y",
            "--covariates", "x", "--wald-coefficient", "x"]
    code, doc, _ = run_json(capsys, args)
    assert code == 0
    assert doc["spec"]["columns"]["wald_coefficient"] == "x"


# ---- validation and error paths ----------------------------------------------


def test_alpha_out_of_range(capsys):
    code = run([*COX_ARGS[:-2], "--alpha", "1.5"])
    err = capsys.readouterr().err
    assert code == 1
    assert "target significance must lie in (0,1)" in err


def test_missing_required_binding(capsys):
    code = run(["--model", "cox-lr", "--data", str(HEART_CSV)])
    assert code == 1
    assert "--time" in capsys.readouterr().err


@pytest.mark.parametrize("args, line", [
    (COX_ARGS[:-4], "nfactor: error: model cox-lr requires --covariates\n"),
    (LINEAR_ARGS[:-4], "nfactor: error: model linear-wald requires --response\n"),
], ids=["cox-lr without --covariates", "linear-wald without --response"])
def test_a_model_without_its_option_is_one_usage_line(capsys, args, line):
    assert run(args) == 1
    captured = capsys.readouterr()
    assert captured.err == line  # a usage error names no stage
    assert captured.out == ""


@pytest.mark.parametrize("args, refused", [
    ([*COX_ARGS, "--response", "y", "--wald-coefficient", "age"],
     "cox-lr does not take --response, --wald-coefficient"),
    ([*COX_ARGS, "--wald-coefficient", "intercept"], "cox-lr does not take --wald-coefficient"),
    ([*LINEAR_ARGS, "--time", "t1", "--event", "died", "--id", "id"],
     "linear-wald does not take --time, --event, --id"),
    ([*LINEAR_ARGS, "--explicit-intervals", "t0,t1"],
     "linear-wald does not take --explicit-intervals"),
], ids=["cox-lr with linear options", "cox-lr with the default coefficient",
        "linear-wald with cox options", "linear-wald with explicit intervals"])
def test_a_model_with_the_other_models_option_is_one_usage_line(capsys, args, refused):
    assert run(args) == 1
    captured = capsys.readouterr()
    assert captured.err == f"nfactor: error: model {refused}\n"
    assert captured.out == ""


def test_time_with_explicit_intervals_is_one_usage_line(capsys):
    args = ["--model", "cox-lr", "--data", str(HEART_CSV), "--time", "t1",
            "--explicit-intervals", "t0,t1", "--event", "died", "--id", "id",
            "--covariates", "age"]
    assert run(args) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "nfactor: error: argument --explicit-intervals: not allowed with argument --time\n")
    assert captured.out == ""


def test_unknown_model(capsys):
    code = run(["--model", "anova", "--data", str(HEART_CSV)])
    assert code == 1


def test_missing_column_in_data(capsys):
    code = run(["--model", "linear-wald", "--data", str(LINEAR_CSV),
                "--response", "nope"])
    assert code == 1
    assert "nope" in capsys.readouterr().err


def test_unreadable_data_is_one_error_line(capsys, unreadable_csv):
    path, reason = unreadable_csv
    code = run(["--model", "linear-wald", "--data", str(path), "--response", "y"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"nfactor: error: load: cannot read {path}: {reason}")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_a_term_named_twice_is_one_error_line(capsys, tmp_path):
    path = tmp_path / "intercept_column.csv"
    path.write_text("y,intercept\n" + "".join(f"{i % 3},{i}\n" for i in range(20)))
    for args, name, stage in [
        ([*COX_ARGS, "--covariates", "age,age"], "age", "frame"),
        (["--model", "linear-wald", "--data", str(path), "--response", "y",
          "--covariates", "intercept", "--wald-coefficient", "intercept"], "intercept", "fit"),
    ]:
        assert run(args) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"nfactor: error: {stage}: model term {name!r} appears more than once\n")
        assert captured.out == ""


def test_unknown_wald_coefficient(capsys):
    code = run([*LINEAR_ARGS, "--wald-coefficient", "slope"])
    assert code == 1
    assert "slope" in capsys.readouterr().err


def test_an_untestable_wald_coefficient_is_one_error_line(capsys, tmp_path):
    path = tmp_path / "collinear.csv"
    path.write_text("y,x,twice_x\n" + "".join(f"{(i * 7) % 5},{i},{2 * i}\n" for i in range(12)))
    for name, message in [("twice_x", "coefficient 'twice_x' was omitted as collinear"),
                          ("slope", "no coefficient named 'slope'")]:
        assert run(["--model", "linear-wald", "--data", str(path), "--response", "y",
                    "--covariates", "x,twice_x", "--wald-coefficient", name]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"nfactor: error: fit: {message}\n"
        assert captured.out == ""


def _refuse_past_weight_1(x, df):
    if x > 3.0:  # LR is 1.67 at weight 1 and 3.34 at weight 2
        raise DomainError("refused")
    return chi2_sf(x, df)


def _fail_to_render(document, format):
    raise NfactorError("cannot render")


@pytest.mark.parametrize("stage, csv_text, patch, message", [
    ("load", "id,died,age\n1,1,30\n", None, "required column 't1' not found"),
    ("frame", "id,t1,died,age\n1,5,0,30\n1,3,1,30\n2,4,1,40\n", None,
     "observation times for subject 1.0 are not strictly increasing"),
    ("fit", "id,t1,died,age\n1,1,1,1\n2,2,0,0\n", None,
     "coefficient for 'age' is diverging (linear predictor spans 30.2 > 30); "
     "the partial likelihood appears monotone in this direction"),
    ("search", None, (cox, "chi2_sf", _refuse_past_weight_1),
     "p-value evaluation failed at weight 2: refused"),
    ("report", None, (cli, "emit_report", _fail_to_render),
     "cannot render"),
])
def test_an_error_line_names_its_stage(capsys, monkeypatch, tmp_path,
                                       stage, csv_text, patch, message):
    args = [*COX_ARGS]
    if csv_text is not None:
        path = tmp_path / f"{stage}.csv"
        path.write_text(csv_text)
        args = [*COX_ARGS[:-4], "--covariates", "age", "--data", str(path)]
    if patch is not None:
        monkeypatch.setattr(*patch)
    assert run(args) == 1
    captured = capsys.readouterr()
    assert captured.err == f"nfactor: error: {stage}: {message}\n"
    assert captured.out == ""


def test_a_file_that_ends_inside_a_quote_is_refused_in_one_line(capsys, tmp_path):
    # read leniently, the open quote would close at end of file and x = 7
    path = tmp_path / "cut.csv"
    path.write_text('y,x\n1,2\n2,3\n3,5\n4,4\n2,"7')
    assert run(["--model", "linear-wald", "--data", str(path), "--response", "y",
                "--covariates", "x"]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"nfactor: error: load: cannot read {path}: line 6: unexpected end of data\n")
    assert captured.out == ""


def test_a_frame_separated_only_by_late_entry_is_refused(capsys, tmp_path):
    # record 4 (x = 3) entering at 1.5, after the event at t = 1, leaves each
    # event leading its risk set; entering at 0 it lies above that event and
    # the fit converges
    refusal = ("nfactor: error: fit: coefficient for 'x' is diverging (linear predictor "
               "spans 34 > 30); the partial likelihood appears monotone in this direction\n")
    path = tmp_path / "entry.csv"
    for entry, code, err in [("1.5", 1, refusal), ("0", 0, "")]:
        path.write_text(f"id,start,stop,e,x\n1,0,1,1,1\n2,0,3,0,0\n3,2,3,1,5\n4,{entry},4,0,3\n")
        assert run(["--model", "cox-lr", "--data", str(path), "--explicit-intervals",
                    "start,stop", "--event", "e", "--id", "id", "--covariates", "x"]) == code
        captured = capsys.readouterr()
        assert captured.err == err, entry
        assert captured.out == "" if code else "nf_integer = " in captured.out, entry


@pytest.mark.parametrize("value", ["onlyone", "a,", ",b", "a,b,c"])
def test_bad_explicit_intervals_value(capsys, value):
    code = run(["--model", "cox-lr", "--data", str(HEART_CSV),
                "--explicit-intervals", value, "--event", "died",
                "--id", "id", "--covariates", "age"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "nfactor: error: --explicit-intervals expects two column names: START,STOP\n")
    assert captured.out == ""


# ---- output determinism and round-tripping ------------------------------------


def test_json_output_is_deterministic(capsys):
    _, _, first = run_json(capsys, COX_ARGS)
    _, _, second = run_json(capsys, COX_ARGS)
    assert first == second


def record_outcomes(monkeypatch, module, name, outcomes):
    original = getattr(module, name)

    def recorded(*args, **kwargs):
        outcomes.append(original(*args, **kwargs))
        return outcomes[-1]

    monkeypatch.setattr(module, name, recorded)


def bits(value):
    return None if value is None else float(value).hex()


# (report key, fit attribute) for each float a fit reports; coefficient
# attributes are arrays indexed like the report's coefficient list.
COX_FLOATS = (("loglik_null", "loglik_null"), ("loglik_full", "loglik_full"),
              ("lr_stat", "lr_stat"), ("p_lr", "p_lr"))
COX_COEFFICIENT_FLOATS = (("beta", "beta"), ("hazard_ratio", "hazard_ratios"),
                          ("se_beta", "se_beta"), ("z", "z_stats"), ("p", "p_wald"))
LINEAR_FLOATS = (("weighted_n", "weighted_n"), ("df_residual", "df_residual"),
                 ("residual_ss", "residual_ss"), ("root_mse", "root_mse"))
LINEAR_COEFFICIENT_FLOATS = (("coef", "coefficients"), ("se", "standard_errors"),
                             ("t", "t_stats"), ("p", "p_values"))


@pytest.mark.parametrize("argv", [a for a in bundled_requests() if a[-1] == "json"],
                         ids=lambda a: a[a.index("--covariates") + 1] if "--covariates" in a
                         else "linear")
def test_json_report_is_exact_and_a_fixed_point(capsys, monkeypatch, argv):
    # every float the JSON report prints parses back to the double the fit or
    # the search computed, and re-encoding the parsed report reproduces it
    monkeypatch.chdir(TESTS_DIR)
    outcomes = []
    for name in ("fit_cox", "fit_wls", "compute_nf"):
        record_outcomes(monkeypatch, cli, name, outcomes)
    code = run(argv)
    text = capsys.readouterr().out
    doc = json.loads(text)
    fit, nf = outcomes
    scalars, coefficients = ((COX_FLOATS, COX_COEFFICIENT_FLOATS) if "--time" in argv
                             else (LINEAR_FLOATS, LINEAR_COEFFICIENT_FLOATS))
    for key, attr in scalars:
        assert bits(doc["fit"][key]) == bits(getattr(fit, attr)), key
    for i, reported in enumerate(doc["fit"]["coefficients"]):
        for key, attr in coefficients:
            assert bits(reported[key]) == bits(getattr(fit, attr)[i]), (reported["name"], key)
    assert code == (2 if nf.w1 is None else 0)
    for key in ("p_at_1", "p0", "p1", "w_int", "n_int"):
        assert bits(doc[key]) == bits(getattr(nf, key)), key
    if nf.w1 is None:
        assert bits(doc["best_p"]) == bits(nf.best_p)
    else:
        assert "best_p" not in doc
    assert [[w, bits(p)] for w, p in doc["trace"]] == [[w, bits(p)] for w, p in nf.trace]
    assert emit_report(json.loads(text), "json") == text


def test_an_unknown_report_format_is_refused():
    with pytest.raises(ValueError, match="unknown report format 'xml'"):
        emit_report({}, "xml")


def test_json_escapes_control_characters_in_data_path(capsys, tmp_path):
    path = tmp_path / "tab\there.csv"
    path.write_bytes(LINEAR_CSV.read_bytes())
    args = [a if a != str(LINEAR_CSV) else str(path) for a in LINEAR_ARGS]
    code, doc, text = run_json(capsys, args)
    assert code == 0
    assert doc["spec"]["data"] == str(path)
    assert "\t" not in text


def test_nf_invariants_hold_in_emitted_json(capsys):
    _, doc, _ = run_json(capsys, COX_ARGS)
    assert doc["w1"] == doc["w0"] + 1
    assert doc["p0"] > doc["target_alpha"] >= doc["p1"]
    assert doc["w0"] <= doc["w_int"] <= doc["w1"]
    assert doc["nf_integer"] == doc["w1"]
    assert doc["n_int"] == 30 * doc["w_int"]


# ---- work budget (counts, not wall time) --------------------------------------


def record_calls(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def recorded(*args, **kwargs):
        calls.append((name, args))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)


def test_cox_request_kernel_budget(capsys, monkeypatch):
    # One weight-1 fit: a score pass at beta = 0 and one per Newton step
    # (full or halved); score is the only kernel the fit calls. Refitting at
    # every searched weight took 15 calls, and 63 with a cold start and a
    # separate line-search pass.
    calls = []
    record_calls(monkeypatch, kernels, "score", calls)
    record_calls(monkeypatch, kernels, "loglik", calls)
    code, doc, _ = run_json(capsys, COX_ARGS)
    assert code == 0 and doc["nf_integer"] == 5
    names = Counter(name for name, _ in calls)
    assert set(names) == {"score"} and names["score"] <= 5, names


@pytest.mark.parametrize("args, fitter", [(COX_ARGS, "fit_cox"), (LINEAR_ARGS, "fit_wls")])
def test_weight_1_fit_runs_once(capsys, monkeypatch, args, fitter):
    # Each request fits once, at weight 1; every later weight is answered
    # from that fit in closed form.
    calls = []
    record_calls(monkeypatch, cli, fitter, calls)
    code, doc, _ = run_json(capsys, args)
    assert code == 0 and doc["trace"][0][0] == 1 and len(doc["trace"]) > 1
    assert len(calls) == 1


SURGERY_ARGS = [*COX_ARGS[:-4], "--covariates", "surgery"]


@pytest.mark.parametrize("max_weight, evaluations", [(None, 21), (10**12, 41), (2**53, 54)])
def test_degenerate_cox_test_fits_once(capsys, monkeypatch, max_weight, evaluations):
    # surgery is all zero, so no covariate is kept and p = 1 at every
    # weight: the search runs to the cap on the one weight-1 fit, whose
    # Newton with no columns stops after its first score.
    calls = []
    record_calls(monkeypatch, cli, "fit_cox", calls)
    record_calls(monkeypatch, kernels, "score", calls)
    record_calls(monkeypatch, kernels, "loglik", calls)
    cap = [] if max_weight is None else ["--max-weight", str(max_weight)]
    code, doc, _ = run_json(capsys, [*SURGERY_ARGS, *cap])
    assert code == 2 and doc["best_p"] == 1.0 and doc["fit"]["lr_df"] == 0
    assert len(doc["trace"]) == evaluations
    assert doc["trace"][-1] == [max_weight or DEFAULT_MAX_WEIGHT, 1.0]
    assert [name for name, _ in calls] == ["fit_cox", "score"]


@pytest.mark.parametrize("cap", [0, 2**53 + 1, 10**308, 10**400])
def test_max_weight_outside_1_to_2_53_is_rejected(capsys, cap):
    # float(w) overflows at 10**400, and a linear test's w * n is inf at 10**308
    code = run([*SURGERY_ARGS, "--max-weight", str(cap)])
    assert code == 1
    assert "--max-weight must be an integer from 1 to 2**53" in capsys.readouterr().err


def test_zero_wald_coefficient_keeps_p_one_up_to_2_53(capsys, tmp_path):
    # t = 0 at every weight; w * n - k stays finite up to the cap
    zero_mean = tmp_path / "zero_mean.csv"
    zero_mean.write_text("y\n-1.5\n1.5\n-0.25\n0.25\n")
    code, doc, _ = run_json(capsys, ["--model", "linear-wald", "--data", str(zero_mean),
                                     "--response", "y", "--max-weight", str(2**53)])
    assert code == 2 and doc["best_p"] == 1.0 and doc["trace"][-1] == [2**53, 1.0]


def test_requests_do_not_import_numpy_ma():
    # np.unique imports numpy.ma under numpy 2.x, which costs every CLI
    # process start-up time and memory. scipy is a test-only dependency.
    script = (
        "import sys\n"
        "from nfactor.cli import run\n"
        f"codes = [run({COX_ARGS!r}), run({LINEAR_ARGS!r})]\n"
        "print(codes, 'numpy.ma' in sys.modules, 'scipy' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(nfactor.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == "[0, 0] False False"


def test_the_reused_parser_carries_nothing_between_requests(capsys, monkeypatch):
    assert run([*COX_ARGS, "--alpha", "2"]) == 1
    assert "target significance must lie in (0,1)" in capsys.readouterr().err
    with pytest.raises(SystemExit) as help_exit:
        run(["--help"])
    assert help_exit.value.code == 0
    usage = capsys.readouterr().out
    assert usage.startswith("usage: nfactor")
    assert "coefficient to test (default: intercept)" in " ".join(usage.split())
    code, doc, _ = run_json(capsys, COX_ARGS)
    assert code == 0 and doc["spec"]["columns"]["covariates"] == COVARIATES
    code, doc, _ = run_json(capsys, LINEAR_ARGS)
    assert code == 0 and doc["spec"]["columns"]["covariates"] == []
    monkeypatch.chdir(TESTS_DIR)
    for golden in reversed(GOLDENS):
        assert_matches_golden(run_request(golden["argv"]), golden)


def test_the_parser_is_built_on_the_first_request_only():
    script = (
        "from nfactor import cli\n"
        "built = [cli._build_parser.cache_info().misses]\n"
        f"for argv in ({COX_ARGS!r}, {LINEAR_ARGS!r}):\n"
        "    cli.run([*argv, '--format', 'json'])\n"
        "    built.append(cli._build_parser.cache_info().misses)\n"
        "print(built)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(nfactor.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == "[0, 1, 1]"
