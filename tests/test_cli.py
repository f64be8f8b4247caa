import json
from collections import Counter

import pytest

from nfactor import cli, kernels
from nfactor.cli import emit_report, run

from conftest import HEART_CSV, LINEAR_CSV

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


def test_explicit_intervals_equivalent(capsys, heart_dataset, heart_frame, tmp_path):
    path = tmp_path / "explicit.csv"
    names = [*heart_dataset.column_names, "tstart", "tstop"]
    columns = [heart_dataset.column(c) for c in heart_dataset.column_names]
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


def test_unknown_model(capsys):
    code = run(["--model", "anova", "--data", str(HEART_CSV)])
    assert code == 1


def test_missing_column_in_data(capsys):
    code = run(["--model", "linear-wald", "--data", str(LINEAR_CSV),
                "--response", "nope"])
    assert code == 1
    assert "nope" in capsys.readouterr().err


def test_unknown_wald_coefficient(capsys):
    code = run([*LINEAR_ARGS, "--wald-coefficient", "slope"])
    assert code == 1
    assert "slope" in capsys.readouterr().err


def test_bad_explicit_intervals_value(capsys):
    code = run(["--model", "cox-lr", "--data", str(HEART_CSV),
                "--explicit-intervals", "onlyone", "--event", "died",
                "--id", "id", "--covariates", "age"])
    assert code == 1


# ---- output determinism and round-tripping ------------------------------------


def test_json_output_is_deterministic(capsys):
    _, _, first = run_json(capsys, COX_ARGS)
    _, _, second = run_json(capsys, COX_ARGS)
    assert first == second


def test_json_round_trip_is_fixed_point(capsys):
    from nfactor.cli import _to_json

    _, doc, text = run_json(capsys, COX_ARGS)
    again = json.loads(_to_json(doc) + "\n")
    assert again == doc
    assert _to_json(again) + "\n" == text


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
    # Each later weight starts Newton at the weight-1 estimate, and an
    # accepted full step costs one score pass; a cold start at every
    # weight with a separate line-search pass took 63 calls.
    calls = []
    record_calls(monkeypatch, kernels, "score", calls)
    record_calls(monkeypatch, kernels, "loglik", calls)
    code, doc, _ = run_json(capsys, COX_ARGS)
    assert code == 0 and doc["nf_integer"] == 5
    assert len(calls) <= 16, Counter(name for name, _ in calls)


@pytest.mark.parametrize("args, fitter", [(COX_ARGS, "fit_cox"), (LINEAR_ARGS, "fit_wls")])
def test_weight_1_fit_runs_once(capsys, monkeypatch, args, fitter):
    calls = []
    record_calls(monkeypatch, cli, fitter, calls)
    code, doc, _ = run_json(capsys, args)
    assert code == 0 and doc["trace"][0][0] == 1
    weights = [fit_args[-1] for _, fit_args in calls]
    assert weights.count(1) == 1
    assert len(weights) == len(doc["trace"])
