import json
import math

import numpy as np
import pytest
from scipy.stats import chi2

from nfactor import Dataset, compute_nf, fit_cox, fit_wls, student_t_two_sided
from nfactor.data import MAX_WEIGHT
from nfactor.errors import EvaluationFailed

from test_golden_reports import TESTS_DIR, bundled_requests, run_request


def geometric_curve(p1, ratio):
    """Strictly decreasing synthetic p-curve p(w) = p1 * ratio**(w-1)."""

    def p_of_weight(w):
        return p1 * ratio ** (w - 1)

    return p_of_weight


def assert_unreachable(result, max_weight):
    """The record of a search that no weight up to ``max_weight`` satisfied."""
    assert (result.w0, result.p0, result.w1, result.p1) == (None, None, None, None)
    assert (result.w_int, result.n_int, result.nf_integer, result.exact_hit) == (None,) * 4
    assert result.trace[0][0] == 1 and result.p_at_1 == result.trace[0][1]
    assert max(w for w, _ in result.trace) == max_weight  # the cap itself was tried
    assert result.best_p == min(p for _, p in result.trace) > result.target_alpha


def scan_bracket(p_of_weight, target, max_weight):
    """Definitional oracle: first weight with p <= target by exhaustive scan."""
    for w in range(1, max_weight + 1):
        if p_of_weight(w) <= target:
            return w
    return None


# ---- compute_nf on synthetic curves ------------------------------------------


def test_already_significant_at_weight_one():
    result = compute_nf(geometric_curve(0.04, 0.5), 30, 0.05, 100)
    assert result.nf_integer == 1
    assert result.w_int == 1.0
    assert result.n_int == 30.0
    assert result.w0 is None and result.p0 is None
    assert result.trace == ((1, 0.04),)
    assert not result.exact_hit
    assert result.best_p == 0.04


def test_flat_curve_is_unreachable():
    calls = []

    def flat(w):
        calls.append(w)
        return 1.0

    result = compute_nf(flat, 30, 0.05, 1000)
    assert_unreachable(result, 1000)
    assert result.best_p == 1.0
    assert calls[-1] == 1000
    assert [w for w, _ in result.trace] == calls


def stepped_curve(points, rest):
    """p(w) from ``points`` where it has w, and ``rest`` at every other weight."""
    return lambda w: points.get(w, rest)


@pytest.mark.parametrize("points, rest, target, bracket, w_int", [
    # the reference example: p(4) = 0.0826 and p(5) = 0.0392 give 4.751
    ({1: 0.6433, 2: 0.3, 3: 0.15, 4: 0.0826}, 0.0392, 0.05, (4, 5),
     pytest.approx(4.751, abs=1e-3)),
    # dyadic p-values make the linearity identity exact in floating point
    ({w: 0.75 for w in range(1, 11)}, 0.25, 0.5, (10, 11), 10.5),
    # p1 is within 1e-12 of a 1e-12 target without equalling it: read on the
    # line, not taken as a hit at W1
    ({1: 0.9, 2: 0.5, 3: 4e-12}, 0.5e-12, 1e-12, (3, 4),
     4 - (1e-12 - 0.5e-12) / (4e-12 - 0.5e-12)),
], ids=["reference example", "dyadic midpoint", "tiny target"])
def test_interpolates_inside_the_bracket(points, rest, target, bracket, w_int):
    result = compute_nf(stepped_curve(points, rest), 30, target, 100)
    assert (result.w0, result.w1) == bracket and not result.exact_hit
    assert result.w_int == w_int
    assert result.n_int == 30 * result.w_int


def test_exact_hit_skips_interpolation():
    result = compute_nf(stepped_curve({1: 0.9, 2: 0.5}, 0.05), 10, 0.05, 100)
    assert result.exact_hit
    assert result.nf_integer == 3
    assert result.w_int == 3.0
    assert result.n_int == 30.0


def test_bracket_and_interpolation_against_closed_form():
    p1, ratio, target = 0.8, 0.7, 0.05
    result = compute_nf(geometric_curve(p1, ratio), 30, target, 10_000)
    w1 = scan_bracket(geometric_curve(p1, ratio), target, 10_000)
    w0 = w1 - 1
    assert (result.w0, result.w1) == (w0, w1)
    q0, q1 = p1 * ratio ** (w0 - 1), p1 * ratio ** (w1 - 1)
    assert (result.p0, result.p1) == (q0, q1)
    assert result.w_int == (w0 * (target - q1) + w1 * (q0 - target)) / (q0 - q1)
    assert result.w0 <= result.w_int <= result.w1
    assert result.n_int == 30 * result.w_int


def test_trace_records_evaluations_in_order():
    seen = []

    def curve(w):
        seen.append(w)
        return 0.9 * 0.8 ** (w - 1)

    result = compute_nf(curve, 30, 0.05, 1000)
    assert [w for w, _ in result.trace] == seen
    assert len(seen) == len(set(seen))  # each weight is evaluated once


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
    # the cap is an integer weight: no float, however whole, and no bool
    for cap in (2.5, 40.0, np.float64(3.0), True, False):
        with pytest.raises(ValueError, match="max_weight must be an integer"):
            compute_nf(curve, 30, 0.05, cap)


def test_a_cap_past_the_largest_weight_is_refused_before_any_evaluation():
    def p_of_weight(w):
        raise AssertionError(f"evaluated weight {w}")

    for cap in (MAX_WEIGHT + 1, 2**60):
        with pytest.raises(ValueError, match=r"max_weight must be an integer from 1 to 2\*\*53"):
            compute_nf(p_of_weight, 30, 0.05, cap)
    assert compute_nf(lambda w: 0.01, 30, 0.05, MAX_WEIGHT).nf_integer == 1


def test_a_numpy_integer_cap_keeps_the_trace_in_ints():
    result = compute_nf(lambda w: 0.5 / w, 10, 0.01, np.int64(40))
    assert_unreachable(result, 40)
    assert all(type(w) is int for w, _ in result.trace)


def test_max_weight_one_already_significant():
    result = compute_nf(lambda w: 0.01, 5, 0.05, 1)
    assert result.nf_integer == 1


def test_max_weight_one_unreachable():
    result = compute_nf(lambda w: 0.5, 5, 0.05, 1)
    assert_unreachable(result, 1)
    assert result.trace == ((1, 0.5),)


# ---- end-to-end with the model engines ---------------------------------------


def test_cox_generous_target_needs_no_weighting(heart_frame):
    result = compute_nf(fit_cox(heart_frame).p_at, 30, 0.7)
    assert result.nf_integer == 1
    assert result.w_int == 1.0


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


@pytest.mark.parametrize("alpha, w_int", [("1e-12", 35.3356), ("1e-13", 38.0765)])
def test_a_tiny_alpha_reads_w_int_on_the_line(monkeypatch, alpha, w_int):
    # p1 is within 1e-12 of alpha here, yet not equal to it: no exact hit
    monkeypatch.chdir(TESTS_DIR)
    argv = [a for a in STAN30_JSON if "age,posttran,surgery,year" in a][0]
    got = run_request([*argv, "--alpha", alpha])
    assert got["exit"] == 0
    doc = json.loads(got["stdout"])
    w0, p0, w1, p1 = doc["w0"], doc["p0"], doc["w1"], doc["p1"]
    assert doc["exact_hit"] is False and p1 != float(alpha)
    assert w0 < doc["w_int"] < w1
    paper = (w0 * (float(alpha) - p1) + w1 * (p0 - float(alpha))) / (p0 - p1)
    assert doc["w_int"] == pytest.approx(paper, rel=1e-12, abs=0)
    assert round(doc["w_int"], 4) == w_int


def wald_p(fit, w):
    """The Wald profile at a real weight: t * sqrt(df_w / df_1) on df_w = w * n - k."""
    j = fit.term_names.index(fit.tested)
    df = w * fit.weighted_n - len(fit.term_names)
    return student_t_two_sided(fit.t_stats[j] * math.sqrt(df / fit.df_residual), df)


def wald_crossing(fit, target):
    """The real weight w* > 1 where ``wald_p`` falls to ``target``, to adjacent doubles.

    Doubling, then bisection on the monotone p(w); the caller checks p(1) > target.
    """
    lo, hi = 1.0, 2.0
    while wald_p(fit, hi) > target:
        lo, hi = hi, 2.0 * hi
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if wald_p(fit, mid) > target else (lo, mid)
    return hi


def seeded_linear_fit(seed):
    """A least-squares fit of 8-59 rows with 0-2 covariates, testing a weak term."""
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(8, 60)), int(rng.integers(0, 3))
    columns = {f"x{i}": rng.standard_normal(n) for i in range(k)}
    tested = str(rng.choice(["intercept", *columns]))
    y = rng.standard_normal(n) + sum(0.5 * c for name, c in columns.items() if name != tested)
    y += rng.uniform(0.0, 0.3) * (columns[tested] if tested in columns else 1.0)
    return fit_wls(Dataset({"y": y, **columns}), "y", list(columns), tested), n


@pytest.mark.parametrize("seed", [None, *range(20)],
                         ids=lambda s: "linear30" if s is None else f"seed {s}")
def test_wald_nf_is_the_exact_crossing(wald_dataset, seed):
    # The crossing is found with none of the search's code: the NF is
    # ceil(w*) and the bracket holds w*.
    if seed is None:
        fit, n = fit_wls(wald_dataset, "y", ()), wald_dataset.n_rows
    else:
        fit, n = seeded_linear_fit(seed)
    result = compute_nf(fit.p_at, n, 0.05, 10**12)
    if wald_p(fit, 1.0) <= 0.05:
        # the crossing lies at or below weight 1
        assert (result.nf_integer, result.w0) == (1, None)
        return
    w_star = wald_crossing(fit, 0.05)
    if result.exact_hit:
        assert w_star == pytest.approx(result.w1, rel=1e-9)
    else:
        assert result.nf_integer == math.ceil(w_star)
        assert result.w0 < w_star <= result.w1
