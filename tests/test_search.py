import json
import math

import numpy as np
import pytest
from scipy.stats import chi2

from nfactor import compute_nf, fit_cox, fit_wls, interpolate
from nfactor.errors import DegenerateBracket, EvaluationFailed, UnreachableSignificance

from test_golden_reports import TESTS_DIR, bundled_requests, run_request


def geometric_curve(p1, ratio):
    """Strictly decreasing synthetic p-curve p(w) = p1 * ratio**(w-1)."""

    def p_of_weight(w):
        return p1 * ratio ** (w - 1)

    return p_of_weight


def scan_bracket(p_of_weight, target, max_weight):
    """Definitional oracle: first weight with p <= target by exhaustive scan."""
    for w in range(1, max_weight + 1):
        if p_of_weight(w) <= target:
            return w
    return None


# ---- interpolate ------------------------------------------------------------


def test_interpolate_reference_example():
    assert interpolate(4, 0.0826, 5, 0.0392, 0.05) == pytest.approx(4.751, abs=1e-3)


def test_interpolate_endpoints():
    assert interpolate(4, 0.08, 5, 0.03, 0.03) == 5.0
    assert interpolate(4, 0.08, 5, 0.03, 0.08) == 4.0


def test_interpolate_midpoint():
    # dyadic p-values make the linearity identity exact in floating point
    assert interpolate(10, 0.75, 11, 0.25, 0.5) == 10.5


def test_interpolate_degenerate_bracket():
    with pytest.raises(DegenerateBracket):
        interpolate(4, 0.05, 5, 0.05, 0.05)


def test_interpolate_rejects_bad_bracket():
    with pytest.raises(ValueError):
        interpolate(4, 0.03, 5, 0.08, 0.05)
    with pytest.raises(ValueError):
        interpolate(4, 0.8, 5, 0.6, 0.05)


# ---- compute_nf on synthetic curves ------------------------------------------


def test_already_significant_at_weight_one():
    result = compute_nf(geometric_curve(0.04, 0.5), 30, 0.05, 100)
    assert result.nf_integer == 1
    assert result.w_int == 1.0
    assert result.n_int == 30.0
    assert result.w0 is None and result.p0 is None
    assert result.trace == ((1, 0.04),)
    assert not result.exact_hit


def test_flat_curve_is_unreachable():
    calls = []

    def flat(w):
        calls.append(w)
        return 1.0

    with pytest.raises(UnreachableSignificance) as err:
        compute_nf(flat, 30, 0.05, 1000)
    assert err.value.max_weight == 1000
    assert err.value.best_p == 1.0
    assert calls[-1] == 1000  # the cap itself was tried before giving up


def test_exact_hit_skips_interpolation():
    def stepped(w):
        return {1: 0.9, 2: 0.5}.get(w, 0.05)

    result = compute_nf(stepped, 10, 0.05, 100)
    assert result.exact_hit
    assert result.nf_integer == 3
    assert result.w_int == 3.0
    assert result.n_int == 30.0


def test_bracket_and_interpolation_against_closed_form():
    p1, ratio, target = 0.8, 0.7, 0.05
    result = compute_nf(geometric_curve(p1, ratio), 30, target, 10_000)
    w1 = scan_bracket(geometric_curve(p1, ratio), target, 10_000)
    assert result.w1 == w1
    assert result.w0 == w1 - 1
    assert result.p0 == pytest.approx(p1 * ratio ** (result.w0 - 1))
    expected = interpolate(result.w0, result.p0, result.w1, result.p1, target)
    assert result.w_int == expected
    assert result.w0 <= result.w_int <= result.w1
    assert result.n_int == 30 * result.w_int


def test_matches_linear_scan_on_random_monotone_curves():
    rng = np.random.default_rng(2026)
    max_weight = 10_000
    for _ in range(100):
        p1 = rng.uniform(0.05, 1.0)
        ratio = rng.uniform(0.5, 0.9995)
        target = rng.uniform(1e-6, 0.2)
        curve = geometric_curve(p1, ratio)
        expected_w1 = scan_bracket(curve, target, max_weight)
        if expected_w1 is None:
            with pytest.raises(UnreachableSignificance):
                compute_nf(curve, 30, target, max_weight)
            continue
        result = compute_nf(curve, 30, target, max_weight)
        assert result.nf_integer == expected_w1
        if expected_w1 > 1:
            assert (result.w0, result.w1) == (expected_w1 - 1, expected_w1)
            assert result.p0 > target >= result.p1
        # evaluation budget on the monotone fast path
        assert len(result.trace) <= 2 * math.ceil(math.log2(max(result.nf_integer, 2))) + 3


def test_trace_records_evaluations_in_order():
    seen = []

    def curve(w):
        seen.append(w)
        return 0.9 * 0.8 ** (w - 1)

    result = compute_nf(curve, 30, 0.05, 1000)
    assert [w for w, _ in result.trace] == seen
    assert len(seen) == len(set(seen))  # cache prevents repeat evaluations


def test_evaluation_failure_is_wrapped():
    def broken(w):
        if w >= 4:
            raise RuntimeError("model exploded")
        return 0.9 / w

    with pytest.raises(EvaluationFailed) as err:
        compute_nf(broken, 30, 0.05, 100)
    assert err.value.weight == 4
    assert isinstance(err.value.cause, RuntimeError)


def test_rejects_out_of_range_p_value():
    with pytest.raises(EvaluationFailed):
        compute_nf(lambda w: 1.5, 30, 0.05, 10)


def test_validates_arguments():
    curve = geometric_curve(0.9, 0.9)
    with pytest.raises(ValueError):
        compute_nf(curve, 30, 0.0, 10)
    with pytest.raises(ValueError):
        compute_nf(curve, 30, 1.0, 10)
    with pytest.raises(ValueError):
        compute_nf(curve, 30, 0.05, 0)


def test_max_weight_one_already_significant():
    result = compute_nf(lambda w: 0.01, 5, 0.05, 1)
    assert result.nf_integer == 1


def test_max_weight_one_unreachable():
    with pytest.raises(UnreachableSignificance):
        compute_nf(lambda w: 0.5, 5, 0.05, 1)


# ---- end-to-end with the model engines ---------------------------------------


def test_cox_end_to_end(heart_frame):
    result = compute_nf(fit_cox(heart_frame).p_at, 30, 0.05)
    assert (result.w0, result.w1) == (4, 5)
    assert result.w_int == pytest.approx(4.751, abs=1e-3)
    assert result.n_int == pytest.approx(142.53, abs=0.05)
    assert result.nf_integer == 5
    assert result.p_at_1 == pytest.approx(0.6433, abs=5e-4)
    traced_weights = [w for w, _ in result.trace]
    assert traced_weights[0] == 1
    assert {4, 5} <= set(traced_weights)


def test_cox_generous_target_needs_no_weighting(heart_frame):
    result = compute_nf(fit_cox(heart_frame).p_at, 30, 0.7)
    assert result.nf_integer == 1
    assert result.w_int == 1.0


def test_linear_end_to_end(wald_dataset):
    fit = fit_wls(wald_dataset, "y", ())
    result = compute_nf(fit.p_at, 30, 0.05)
    assert result.nf_integer == 17
    assert result.nf_integer * 30 == 510
    assert (result.w0, result.w1) == (16, 17)
    assert result.p0 == pytest.approx(0.057, abs=5e-4)
    assert result.p1 == pytest.approx(0.050, abs=5e-4)
    assert not result.exact_hit
    assert 16 < result.w_int < 17


STAN30_JSON = [a for a in bundled_requests() if "cox-lr" in a and a[-1] == "json"]


@pytest.mark.parametrize("argv", STAN30_JSON, ids=lambda a: a[a.index("--covariates") + 1])
def test_nf_is_the_exact_crossing(monkeypatch, argv):
    # p(W) = chi2.sf(W * LR, df) falls to alpha exactly at w* = chi2.isf(alpha, df) / LR,
    # so the NF is ceil(w*) and the bracket holds w*. The reported w* of every
    # stan30 subset lies at least 0.11 from an integer.
    monkeypatch.chdir(TESTS_DIR)
    got = run_request(argv)
    doc = json.loads(got["stdout"])
    lr_stat, lr_df = doc["fit"]["lr_stat"], doc["fit"]["lr_df"]
    if argv[argv.index("--covariates") + 1] == "surgery":
        # the all-zero column is omitted, and w* = inf: no weight moves a
        # zero statistic, so the search gives up at the cap
        assert (lr_df, lr_stat) == (0, 0.0)
        assert got["exit"] == 2 and doc["nf_integer"] is None and doc["best_p"] == 1.0
        return
    w_star = chi2.isf(doc["target_alpha"], lr_df) / lr_stat
    assert got["exit"] == 0
    assert doc["nf_integer"] == math.ceil(w_star)
    assert doc["w0"] < w_star <= doc["w1"]
