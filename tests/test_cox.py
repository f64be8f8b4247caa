import dataclasses
import itertools
import math

import numpy as np
import pytest

from nfactor import (
    SurvivalFrame,
    chi2_sf,
    cox,
    cox_loglik,
    cox_score_hessian,
    fit_cox,
    kernels,
    replicate_frame,
    stset_reconstruct,
)
from nfactor.errors import (
    DegenerateTestWarning,
    InvalidWeight,
    MonotoneLikelihood,
    NoEvents,
    NotConverged,
    TiesWarning,
)
from nfactor.numerics import solve_spd
from nfactor.search import DEFAULT_MAX_WEIGHT

# Reference output for the 30-row fixture, weight 1.
LL_NULL = -42.335616
LL_FULL = -41.499959
HAZARD_RATIOS = {"age": 0.9764, "posttran": 0.6116, "year": 2.9011}


def padded(fit):
    """beta vector over all four covariates, 0 for the omitted surgery column."""
    return np.insert(fit.beta, 2, 0.0)


def tiny_frame(x_values, events, stops=None):
    n = len(x_values)
    x = np.asarray(x_values, float).reshape(n, -1)
    return SurvivalFrame(
        subject_ids=np.arange(n, dtype=float),
        start=np.zeros(n),
        stop=np.asarray(stops if stops is not None else np.arange(1, n + 1), float),
        event=np.asarray(events, bool),
        covariates=x,
        covariate_names=tuple(f"x{j}" for j in range(x.shape[1])),
    )


# ---- golden fit, weight 1 ---------------------------------------------------


def test_golden_logliks(heart_fit):
    assert heart_fit.loglik_null == pytest.approx(LL_NULL, abs=1e-4)
    assert heart_fit.loglik_full == pytest.approx(LL_FULL, abs=1e-4)


def test_golden_lr_test(heart_fit):
    assert heart_fit.lr_stat == pytest.approx(1.67, abs=0.01)
    assert heart_fit.lr_df == 3
    assert heart_fit.p_lr == pytest.approx(0.6433, abs=5e-4)


def test_golden_hazard_ratios(heart_fit):
    assert heart_fit.covariate_names == ("age", "posttran", "year")
    for name, expected in HAZARD_RATIOS.items():
        i = heart_fit.covariate_names.index(name)
        assert heart_fit.hazard_ratios[i] == pytest.approx(expected, abs=2e-4)


def test_golden_omitted_and_counts(heart_fit):
    assert heart_fit.omitted == ("surgery",)
    assert heart_fit.n_subjects == 20
    assert heart_fit.n_failures == 20


def test_golden_wald_column(heart_fit):
    # displayed-table columns: Haz. Ratio, its std. err., z, P>|z|
    se_hr = heart_fit.hazard_ratios * heart_fit.se_beta
    np.testing.assert_allclose(se_hr, [0.0269655, 0.3984063, 3.001411], atol=2e-6)
    np.testing.assert_allclose(heart_fit.z_stats.round(2), [-0.87, -0.75, 1.03])
    np.testing.assert_allclose(heart_fit.p_wald.round(3), [0.387, 0.450, 0.303])


# ---- golden weighted fits ---------------------------------------------------


def test_golden_weight_4(heart_frame, heart_fit):
    fit = fit_cox(heart_frame, 4)
    assert fit.loglik_full == pytest.approx(-276.90339, abs=1e-3)
    assert fit.loglik_null == pytest.approx(-280.24601, abs=1e-3)
    assert fit.lr_stat == pytest.approx(6.69, abs=0.01)
    assert fit.p_lr == pytest.approx(0.0826, abs=5e-4)
    assert fit.n_subjects == 80
    assert fit.n_failures == 80
    np.testing.assert_allclose(fit.hazard_ratios, heart_fit.hazard_ratios, rtol=1e-6)


def test_golden_weight_5(heart_frame, heart_fit):
    fit = fit_cox(heart_frame, 5)
    assert fit.lr_stat == pytest.approx(8.36, abs=0.01)
    assert fit.p_lr == pytest.approx(0.0392, abs=5e-4)
    i = fit.covariate_names.index("age")
    assert fit.hazard_ratios[i] * fit.se_beta[i] == pytest.approx(0.0120593, abs=1e-6)
    np.testing.assert_allclose(fit.hazard_ratios, heart_fit.hazard_ratios, rtol=1e-6)


# ---- cox_loglik -------------------------------------------------------------


def test_loglik_at_zero(heart_frame):
    assert cox_loglik(heart_frame, np.zeros(4), 1) == pytest.approx(LL_NULL, abs=1e-5)


def test_loglik_at_estimate(heart_frame, heart_fit):
    assert cox_loglik(heart_frame, padded(heart_fit), 1) == pytest.approx(LL_FULL, abs=1e-5)


def test_loglik_weight_4_at_estimate(heart_frame, heart_fit):
    ll4 = cox_loglik(heart_frame, padded(heart_fit), 4)
    assert ll4 == pytest.approx(-276.90339, abs=1e-4)
    assert ll4 == pytest.approx(4 * heart_fit.loglik_full - 4 * 20 * math.log(4), rel=1e-12)


def test_loglik_single_record_is_zero():
    frame = tiny_frame([[0.0]], [True], stops=[5.0])
    for beta in (0.0, 0.7, -2.0):
        assert cox_loglik(frame, [beta], 1) == 0.0


def test_loglik_validates_dimensions(heart_frame):
    with pytest.raises(ValueError):
        cox_loglik(heart_frame, np.zeros(3), 1)
    with pytest.raises(InvalidWeight):
        cox_loglik(heart_frame, np.zeros(4), 0)


@pytest.mark.parametrize("w", [2, 3, 7, 13])
def test_weight_identity_loglik(heart_frame, heart_fit, w):
    # ll(beta, w) = w * ll(beta, 1) - w * D * ln(w), D = 20 event records
    lhs = cox_loglik(heart_frame, padded(heart_fit), w)
    rhs = w * cox_loglik(heart_frame, padded(heart_fit), 1) - w * 20 * math.log(w)
    assert lhs == pytest.approx(rhs, rel=1e-9)


@pytest.mark.parametrize("w", [2, 3, 7, 13])
def test_weight_identity_fit(heart_frame, heart_fit, w):
    fit = fit_cox(heart_frame, w)
    np.testing.assert_allclose(fit.beta, heart_fit.beta, rtol=1e-9, atol=1e-12)
    assert fit.lr_stat == pytest.approx(w * heart_fit.lr_stat, rel=1e-9)
    np.testing.assert_allclose(fit.se_beta * math.sqrt(w), heart_fit.se_beta, rtol=1e-8)


def test_p_lr_strictly_decreasing_in_weight(heart_frame):
    values = [fit_cox(heart_frame, w).p_lr for w in (1, 2, 3, 5, 8)]
    assert all(a > b for a, b in zip(values, values[1:]))


# ---- convergence at every weight ---------------------------------------------

SWEEP_WEIGHTS = (
    *range(1, 65),
    *(2**k for k in range(7, DEFAULT_MAX_WEIGHT.bit_length())),
    DEFAULT_MAX_WEIGHT,
)
HEART_COVARIATES = ("age", "posttran", "surgery", "year")
SUBSETS = [
    sub
    for r in range(1, len(HEART_COVARIATES) + 1)
    for sub in itertools.combinations(HEART_COVARIATES, r)
]


@pytest.mark.filterwarnings("ignore::nfactor.errors.DegenerateTestWarning")
@pytest.mark.parametrize("subset", SUBSETS, ids=",".join)
def test_every_subset_converges_at_every_weight(heart_dataset, subset):
    # Frequency weights rescale the partial likelihood, so beta-hat does not
    # move with w and the LR statistic is exactly w times its weight-1 value.
    # So the closed-form profile p_lr_at(w) is the p-value of a refit at w.
    frame = stset_reconstruct(heart_dataset, "t1", "died", "id", list(subset))
    base = fit_cox(frame, 1)
    assert base.p_lr_at(1) == base.p_lr
    for w in SWEEP_WEIGHTS[1:]:
        fit = fit_cox(frame, w)
        np.testing.assert_allclose(fit.beta, base.beta, rtol=1e-9, atol=0, err_msg=f"w={w}")
        assert fit.lr_stat == pytest.approx(w * base.lr_stat, rel=1e-9, abs=0), w
        assert base.p_lr_at(w) == pytest.approx(fit.p_lr, rel=1e-9, abs=0), w


@pytest.mark.filterwarnings("ignore::nfactor.errors.DegenerateTestWarning")
@pytest.mark.parametrize("subset", SUBSETS, ids=",".join)
def test_warm_start_from_weight_1_is_converged(heart_dataset, subset):
    # The closed-form profile rests on the weight-1 estimate being the optimum
    # at every weight: Newton started there stops at once, and the weighted
    # log likelihood is ll_w(beta) = w*ll_1(beta) - w*d*log(w).
    frame = stset_reconstruct(heart_dataset, "t1", "died", "id", list(subset))
    base = fit_cox(frame, 1)
    kept = [frame.covariate_names.index(name) for name in base.covariate_names]
    kept_frame = dataclasses.replace(
        frame, covariates=frame.covariates[:, kept], covariate_names=base.covariate_names
    )
    d = frame.n_events
    for w in SWEEP_WEIGHTS:
        grad, neg_hess = cox_score_hessian(kept_frame, base.beta, w)
        if kept:
            decrement = float(grad @ solve_spd(neg_hess, grad))
            assert decrement <= cox.DECREMENT_PER_EVENT * w * d, w
        shift = w * d * math.log(w)
        assert cox_loglik(kept_frame, base.beta, w) == pytest.approx(
            w * base.loglik_full - shift, rel=1e-12, abs=0
        ), w
        assert cox_loglik(kept_frame, np.zeros(len(kept)), w) == pytest.approx(
            w * base.loglik_null - shift, rel=1e-12, abs=0
        ), w


def test_cold_fit_that_halves_a_step_converges(monkeypatch):
    # The outlying covariate makes the full Newton step overshoot once; the
    # halved step is accepted and Newton goes on to the optimum.
    frame = tiny_frame([[0.0], [1.0], [0.0], [1.0], [0.0], [10.0]],
                       [True, False, True, False, False, True], stops=[2, 3, 4, 5, 6, 1])
    halvings = []
    real_loglik = kernels.loglik

    def loglik(*args):
        halvings.append(args)
        return real_loglik(*args)

    monkeypatch.setattr(kernels, "loglik", loglik)
    fit = fit_cox(frame, 1)
    assert len(halvings) == 1 and fit.iterations > 1
    grad, neg_hess = cox_score_hessian(frame, fit.beta, 1)
    assert grad @ np.linalg.solve(neg_hess, grad) <= cox.DECREMENT_PER_EVENT * frame.n_events


def raw_scale_frame(seed, n_subjects=800):
    """Survival records with age and two-digit calendar year at raw scale.

    Effects are drawn near zero and about 40% of subjects carry two records,
    as in the bundled data. Seed 1 never converges under an absolute
    gradient tolerance.
    """
    rng = np.random.default_rng(seed)
    age = rng.integers(18, 71, n_subjects).astype(float)
    year = rng.integers(67, 75, n_subjects).astype(float)
    posttran = (rng.random(n_subjects) < 0.5).astype(float)
    x = np.column_stack([age, posttran, year])
    eta = (x - x.mean(axis=0)) @ (rng.normal(0.0, 0.02, 3) / x.std(axis=0))
    died_at = np.ceil(rng.exponential(300.0, n_subjects) * np.exp(-eta))
    censored_at = rng.integers(30, 1500, n_subjects).astype(float)
    died = died_at <= censored_at
    last = np.maximum(np.where(died, died_at, censored_at), 2.0)
    split = np.floor(rng.random(n_subjects) * (last - 1.0)) + 1.0
    two = rng.random(n_subjects) < 0.4
    first = np.flatnonzero(two)
    ids = np.concatenate([first, np.arange(n_subjects)])
    order = np.argsort(2 * ids + np.concatenate([np.zeros(first.size), np.ones(n_subjects)]))
    return SurvivalFrame(
        subject_ids=ids[order].astype(float),
        start=np.concatenate([np.zeros(first.size), np.where(two, split, 0.0)])[order],
        stop=np.concatenate([split[two], last])[order],
        event=np.concatenate([np.zeros(first.size, bool), died])[order],
        covariates=x[ids][order],
        covariate_names=("age", "posttran", "year"),
    )


def test_raw_scale_synthetic_frame_converges():
    frame = raw_scale_frame(1)
    assert frame.n_records > 1000
    with pytest.warns(TiesWarning):
        fit = fit_cox(frame, 1)
    assert fit.iterations <= 10
    grad, neg_hess = cox_score_hessian(frame, fit.beta, 1)
    assert grad @ np.linalg.solve(neg_hess, grad) <= 1e-12


def test_not_converged_names_weight_and_decrement(heart_dataset, monkeypatch):
    frame = stset_reconstruct(heart_dataset, "t1", "died", "id", ["age", "posttran", "year"])
    monkeypatch.setattr(cox, "MAX_ITERATIONS", 0)
    with pytest.raises(NotConverged) as info:
        fit_cox(frame, 3)
    exc = info.value
    assert (exc.weight, exc.iterations) == (3, 0)
    # at beta = 0 the Newton decrement is the score test statistic
    grad, neg_hess = cox_score_hessian(frame, np.zeros(3), 3)
    assert exc.decrement == pytest.approx(grad @ np.linalg.solve(neg_hess, grad), rel=1e-12)
    assert "did not converge at weight 3 " in str(exc)


def test_failed_line_search_raises_at_once(heart_frame, monkeypatch):
    # no step length can restore a likelihood that is not finite; the full
    # step is judged by score's ll and the halvings by loglik, so both lose
    # it away from beta = 0
    real_score, real_loglik = kernels.score, kernels.loglik

    def score(start, stop, event, x, beta, w):
        ll, grad, neg_hess = real_score(start, stop, event, x, beta, w)
        return (-math.inf if beta.any() else ll), grad, neg_hess

    def loglik(start, stop, event, x, beta, w):
        return -math.inf if beta.any() else real_loglik(start, stop, event, x, beta, w)

    monkeypatch.setattr(kernels, "score", score)
    monkeypatch.setattr(kernels, "loglik", loglik)
    with pytest.raises(NotConverged) as info:
        fit_cox(heart_frame, 2)
    assert (info.value.weight, info.value.iterations) == (2, 1)


# ---- replication oracle -----------------------------------------------------


@pytest.mark.parametrize("w", [2, 5])
def test_replication_oracle(heart_frame, w):
    weighted = fit_cox(heart_frame, w)
    with pytest.warns(TiesWarning):
        replicated = fit_cox(replicate_frame(heart_frame, w), 1)
    np.testing.assert_allclose(replicated.beta, weighted.beta, rtol=1e-8)
    assert replicated.loglik_full == pytest.approx(weighted.loglik_full, rel=1e-8)
    assert replicated.loglik_null == pytest.approx(weighted.loglik_null, rel=1e-8)
    assert replicated.lr_stat == pytest.approx(weighted.lr_stat, rel=1e-8)
    assert replicated.n_subjects == weighted.n_subjects


# ---- derivatives ------------------------------------------------------------


def finite_difference_gradient(frame, beta, w, h=1e-6):
    grad = np.zeros_like(beta)
    for j in range(len(beta)):
        up, down = beta.copy(), beta.copy()
        up[j] += h
        down[j] -= h
        grad[j] = (cox_loglik(frame, up, w) - cox_loglik(frame, down, w)) / (2 * h)
    return grad


def test_gradient_matches_finite_differences(heart_frame):
    rng = np.random.default_rng(42)
    for _ in range(5):
        beta = 0.2 * rng.standard_normal(4)
        grad, _ = cox_score_hessian(heart_frame, beta, 1)
        fd = finite_difference_gradient(heart_frame, beta, 1)
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-6)


def test_hessian_matches_finite_differences(heart_frame):
    rng = np.random.default_rng(43)
    h = 1e-5
    for _ in range(5):
        beta = 0.2 * rng.standard_normal(4)
        _, neg_hess = cox_score_hessian(heart_frame, beta, 1)
        fd = np.zeros((4, 4))
        for j in range(4):
            up, down = beta.copy(), beta.copy()
            up[j] += h
            down[j] -= h
            g_up, _ = cox_score_hessian(heart_frame, up, 1)
            g_down, _ = cox_score_hessian(heart_frame, down, 1)
            fd[:, j] = -(g_up - g_down) / (2 * h)
        np.testing.assert_allclose(neg_hess, fd, rtol=1e-5, atol=1e-5)


def test_gradient_vanishes_at_estimate(heart_frame, heart_fit):
    grad, _ = cox_score_hessian(heart_frame, padded(heart_fit), 1)
    # surgery is all zero, so its score component is identically zero too
    assert np.abs(grad).max() <= 1e-6


# ---- CoxFit invariants ------------------------------------------------------


def test_fit_invariants(heart_frame):
    for w in (1, 3):
        fit = fit_cox(heart_frame, w)
        assert fit.lr_stat >= -1e-9
        assert fit.lr_stat == pytest.approx(
            2 * (fit.loglik_full - fit.loglik_null), rel=1e-12
        )
        assert fit.p_lr == chi2_sf(max(fit.lr_stat, 0.0), fit.lr_df)
        np.testing.assert_allclose(fit.hazard_ratios, np.exp(fit.beta), rtol=1e-15)
        assert fit.loglik_full >= fit.loglik_null - 1e-9
        np.testing.assert_allclose(
            fit.p_wald,
            [math.erfc(abs(z) / math.sqrt(2)) for z in fit.z_stats],
            rtol=1e-12,
        )


# ---- edge cases -------------------------------------------------------------


def test_all_zero_covariate_gives_degenerate_test():
    frame = tiny_frame([[0.0], [0.0], [0.0]], [True, True, False])
    with pytest.warns(DegenerateTestWarning):
        fit = fit_cox(frame, 1)
    assert fit.omitted == ("x0",)
    assert fit.covariate_names == ()
    assert fit.lr_df == 0
    assert fit.lr_stat == 0.0
    assert fit.p_lr == 1.0
    assert fit.loglik_full == fit.loglik_null
    # events at t = 1 and t = 2 with 3 and 2 records at risk
    assert fit.loglik_null == pytest.approx(-(math.log(3) + math.log(2)), rel=1e-15)
    with pytest.warns(DegenerateTestWarning):
        fit4 = fit_cox(frame, 4)
    assert fit4.loglik_null == pytest.approx(-4 * (math.log(12) + math.log(8)), rel=1e-15)
    no_covariates = dataclasses.replace(frame, covariates=np.empty((3, 0)), covariate_names=())
    assert cox_loglik(no_covariates, [], 4) == fit4.loglik_null
    for w in (1, 4, 10**12):
        assert fit.p_lr_at(w) == 1.0


def test_no_events_raises():
    frame = tiny_frame([[1.0], [2.0]], [False, False])
    with pytest.raises(NoEvents):
        fit_cox(frame, 1)


def test_tied_event_times_warn_and_fit():
    frame = tiny_frame([[1.0], [0.0], [2.0]], [True, True, True], stops=[5.0, 5.0, 9.0])
    with pytest.warns(TiesWarning):
        fit = fit_cox(frame, 1)
    assert np.isfinite(fit.loglik_full)


def test_perfectly_separating_covariate_raises_monotone():
    # the only event has the strictly largest covariate in its risk set, so
    # the likelihood increases in beta without bound; the small scale keeps
    # the flat region beyond the coefficient cap
    frame = tiny_frame([[0.1], [0.0]], [True, False], stops=[1.0, 2.0])
    with pytest.raises(MonotoneLikelihood):
        fit_cox(frame, 1)


def test_fit_rejects_bad_weight(heart_frame):
    with pytest.raises(InvalidWeight):
        fit_cox(heart_frame, 1.5)


@pytest.mark.parametrize("weight", [0, -3, 2.0, 1.5])
def test_profile_rejects_bad_weight(heart_fit, weight):
    with pytest.raises(InvalidWeight):
        heart_fit.p_lr_at(weight)
