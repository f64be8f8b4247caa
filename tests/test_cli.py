import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import nfactor
from nfactor import cli, kernels
from nfactor.cli import emit_report, run
from nfactor.search import DEFAULT_MAX_WEIGHT

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
    # process start-up time and memory.
    script = (
        "import sys\n"
        "from nfactor.cli import run\n"
        f"codes = [run({COX_ARGS!r}), run({LINEAR_ARGS!r})]\n"
        "print(codes, 'numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(nfactor.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == "[0, 0] False"
