import collections
import dataclasses
import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest

from nfactor import (
    SurvivalFrame,
    chi2_sf,
    cox,
    fit_cox,
    kernels,
    replicate_frame,
    stset_reconstruct,
)
from nfactor.errors import InvalidWeight, MonotoneLikelihood, NoEvents, NotConverged
from nfactor.search import DEFAULT_MAX_WEIGHT, compute_nf

from oracles import _score_loops, breslow_lr_decimal, score_per_event_time
from test_kernels import kernel_args, score_records

# Reference output for the 30-row fixture, weight 1.
LL_NULL = -42.335616
LL_FULL = -41.499959


def padded(fit):
    """beta vector over all four covariates, 0 for the omitted surgery column."""
    return np.insert(fit.beta, 2, 0.0)


def loglik(frame, beta):
    return kernels.score(*kernel_args(frame), np.asarray(beta, dtype=float))[0]


def score_hessian(frame, beta):
    _, grad, neg_hess, _ = kernels.score(*kernel_args(frame), np.asarray(beta, dtype=float))
    return grad, neg_hess


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


# ---- log likelihood ---------------------------------------------------------


def test_loglik_at_zero(heart_frame):
    assert loglik(heart_frame, np.zeros(4)) == pytest.approx(LL_NULL, abs=1e-5)


def test_loglik_at_estimate(heart_frame, heart_fit):
    assert loglik(heart_frame, padded(heart_fit)) == pytest.approx(LL_FULL, abs=1e-5)


def test_loglik_weight_4_at_estimate(heart_frame, heart_fit):
    ll4 = loglik(replicate_frame(heart_frame, 4), padded(heart_fit))
    assert ll4 == pytest.approx(-276.90339, abs=1e-4)
    assert ll4 == pytest.approx(4 * heart_fit.loglik_full - 4 * 20 * math.log(4), rel=1e-12)


def test_loglik_single_record_is_zero():
    frame = tiny_frame([[0.0]], [True], stops=[5.0])
    for beta in (0.0, 0.7, -2.0):
        assert loglik(frame, [beta]) == 0.0


def test_p_lr_strictly_decreasing_in_weight(heart_fit):
    values = [heart_fit.p_at(w) for w in (1, 2, 3, 5, 8)]
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


@pytest.fixture(scope="module")
def oracle_sweep(heart_dataset):
    """subset -> (weight-1 fit, n events, {w: weighted loop oracle at w}).

    Each entry holds the weighted log likelihood, gradient and negated
    Hessian at the weight-1 estimate, and the log likelihood at 0, all over
    the kept covariates. Nothing is refitted at w: Newton runs once, at
    weight 1, and the profile p_at answers every other weight.
    """
    sweeps = {}

    def sweep(subset):
        if subset not in sweeps:
            frame = stset_reconstruct(heart_dataset, "t1", "died", "id", list(subset))
            base = fit_cox(frame)
            kept = [frame.covariate_names.index(name) for name in base.covariate_names]
            args = (frame.start, frame.stop, frame.event, frame.covariates[:, kept])
            zero = np.zeros(len(kept))
            at_w = {
                w: (*_score_loops(*args, base.beta, float(w)),
                    _score_loops(*args, zero, float(w))[0])
                for w in SWEEP_WEIGHTS
            }
            sweeps[subset] = base, int(frame.event.sum()), at_w
        return sweeps[subset]

    return sweep


@pytest.mark.parametrize("subset", SUBSETS, ids=",".join)
def test_every_subset_profile_matches_the_weighted_oracle(oracle_sweep, subset):
    # Frequency weights rescale the partial likelihood, so beta-hat does not
    # move with w and the LR statistic is exactly w times its weight-1 value.
    # So the closed-form profile p_at(w) is the p-value of the fit at w.
    base, _, at_w = oracle_sweep(subset)
    assert base.p_at(1) == base.p_lr
    for w, (ll_hat, _, _, ll_zero) in at_w.items():
        lr = 2.0 * (ll_hat - ll_zero)
        assert lr == pytest.approx(w * base.lr_stat, rel=1e-9, abs=0), w
        expected = chi2_sf(max(lr, 0.0), base.lr_df) if base.lr_df else 1.0
        assert base.p_at(w) == pytest.approx(expected, rel=1e-9, abs=0), w


@pytest.mark.parametrize("subset", SUBSETS, ids=",".join)
def test_the_weight_1_estimate_meets_the_stopping_rule_at_every_weight(oracle_sweep, subset):
    # The profile rests on the weight-1 estimate being the optimum at every
    # weight: it meets _newton's stopping rule scaled to w events per event.
    base, d, at_w = oracle_sweep(subset)
    if not base.covariate_names:
        return
    for w, (_, grad, neg_hess, _) in at_w.items():
        decrement = float(grad @ np.linalg.solve(neg_hess, grad))
        assert decrement <= cox.DECREMENT_PER_EVENT * w * d, w


def overshooting_frame():
    """Six records whose outlying covariate makes the first full Newton step overshoot."""
    return tiny_frame([[0.0], [1.0], [0.0], [1.0], [0.0], [10.0]],
                      [True, False, True, False, False, True], stops=[2, 3, 4, 5, 6, 1])


def test_cold_fit_that_halves_a_step_converges(monkeypatch):
    # The outlying covariate makes the full Newton step overshoot once; the
    # halved step is accepted and Newton goes on to the optimum. Each score
    # call is the start, a full step or a halving: 1 + iterations + 1.
    frame = overshooting_frame()
    calls = []
    real_score = kernels.score

    def score(*args):
        calls.append(args)
        return real_score(*args)

    monkeypatch.setattr(kernels, "score", score)
    fit = fit_cox(frame)
    assert fit.iterations > 1 and len(calls) == 1 + fit.iterations + 1
    grad, neg_hess = score_hessian(frame, fit.beta)
    assert (grad @ np.linalg.solve(neg_hess, grad)
            <= cox.DECREMENT_PER_EVENT * frame.event.sum())


@pytest.mark.parametrize("which, halvings", [("heart", 0), ("overshooting", 1)])
def test_a_fit_lays_out_its_risk_sets_once(heart_frame, monkeypatch, which, halvings):
    # The layout depends on the records alone, so the fit builds it once
    # and every score call, the start, each full step and each halving,
    # reads that one layout.
    frame = heart_frame if which == "heart" else overshooting_frame()
    layouts, calls = [], []
    real_layout, real_score = kernels.risk_set_layout, kernels.score

    def risk_set_layout(*args):
        layout, x = real_layout(*args)
        layouts.append(layout)
        return layout, x

    def score(layout, x, beta):
        calls.append(layout)
        return real_score(layout, x, beta)

    monkeypatch.setattr(kernels, "risk_set_layout", risk_set_layout)
    monkeypatch.setattr(kernels, "score", score)
    fit = fit_cox(frame)
    assert len(layouts) == 1
    assert len(calls) == 1 + fit.iterations + halvings
    assert all(layout is layouts[0] for layout in calls)


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
    fit = fit_cox(frame)
    assert fit.warnings == ("ties",)
    assert fit.iterations <= 10
    grad, neg_hess = score_hessian(frame, fit.beta)
    assert grad @ np.linalg.solve(neg_hess, grad) <= 1e-12


def test_not_converged_names_iterations_and_decrement(heart_dataset, monkeypatch):
    frame = stset_reconstruct(heart_dataset, "t1", "died", "id", ["age", "posttran", "year"])
    monkeypatch.setattr(cox, "MAX_ITERATIONS", 0)
    with pytest.raises(NotConverged) as info:
        fit_cox(frame)
    exc = info.value
    assert exc.iterations == 0
    # at beta = 0 the Newton decrement is the score test statistic
    grad, neg_hess = score_hessian(frame, np.zeros(3))
    assert exc.decrement == pytest.approx(grad @ np.linalg.solve(neg_hess, grad), rel=1e-12)
    assert str(exc).startswith("Newton-Raphson did not converge after 0 iterations ")


def test_failed_line_search_raises_at_once(heart_frame, monkeypatch):
    # no step length can restore a likelihood that is not finite; every
    # step, full or halved, is judged by score's ll, which loses it away
    # from beta = 0
    real_score = kernels.score

    def score(layout, x, beta):
        ll, grad, neg_hess, gain = real_score(layout, x, beta)
        return (-math.inf if beta.any() else ll), grad, neg_hess, gain

    monkeypatch.setattr(kernels, "score", score)
    with pytest.raises(NotConverged) as info:
        fit_cox(heart_frame)
    assert info.value.iterations == 1


# ---- the likelihood ratio against a 50-digit oracle ----------------------------


def exact_lr(frame, fit):
    """The 50-digit LR over the fit's kept covariates, at its estimate."""
    kept = [frame.covariate_names.index(name) for name in fit.covariate_names]
    return breslow_lr_decimal(frame.start, frame.stop, frame.event, frame.covariates[:, kept],
                              fit.beta)


def faint_signal_frame(eps, seed=0, n=200):
    """n continuous-time records whose one covariate ``x0 + eps * v`` barely matters.

    ``x0`` has zero score at beta = 0 (to round-off) and ``v`` tracks the
    event flag, so the LR is of order eps**2 while each log likelihood is
    about -494: their difference would cancel all but a few digits.
    """
    rng = np.random.default_rng(seed)
    stop = rng.uniform(1.0, 100.0, n)
    start = np.zeros(n)
    event = rng.random(n) < 0.6
    u, z, v = rng.standard_normal((3, n))

    def score_at_zero(column):
        return score_records(start, stop, event, column[:, None], np.zeros(1))[1][0]

    x0 = u - score_at_zero(u) / score_at_zero(z) * z
    return SurvivalFrame(subject_ids=np.arange(n, dtype=float), start=start, stop=stop,
                         event=event, covariates=(x0 + eps * (v + event))[:, None],
                         covariate_names=("x",))


@pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3, 1e-4, 1e-5])
def test_a_small_lr_keeps_its_digits(eps):
    frame = faint_signal_frame(eps)
    fit = fit_cox(frame)
    assert fit.lr_stat == pytest.approx(exact_lr(frame, fit), rel=1e-9, abs=0)


@pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3])
def test_a_small_lr_gives_the_exact_nf(eps):
    # w_int grows as 1 / LR, so an LR off by 1e-8 moves a printed w_int of
    # 4e5 in its last decimal
    frame = faint_signal_frame(eps)
    fit = fit_cox(frame)
    lr = exact_lr(frame, fit)
    got = compute_nf(fit.p_at, 200, 0.05, 10**9)
    want = compute_nf(lambda w: chi2_sf(w * lr, 1), 200, 0.05, 10**9)
    assert got.nf_integer == want.nf_integer
    assert f"{got.w_int:.4f}" == f"{want.w_int:.4f}"


@pytest.mark.parametrize("subset", SUBSETS, ids=",".join)
def test_stan30_lr_matches_the_decimal_oracle(heart_dataset, subset):
    frame = stset_reconstruct(heart_dataset, "t1", "died", "id", list(subset))
    fit = fit_cox(frame)
    assert fit.lr_stat == pytest.approx(exact_lr(frame, fit), rel=1e-13, abs=0)


# ---- derivatives ------------------------------------------------------------


def test_gradient_vanishes_at_estimate(heart_frame, heart_fit):
    grad, _ = score_hessian(heart_frame, padded(heart_fit))
    # surgery is all zero, so its score component is identically zero too
    assert np.abs(grad).max() <= 1e-6


# ---- CoxFit invariants ------------------------------------------------------


def test_fit_invariants(heart_frame):
    for w in (1, 3):
        fit = fit_cox(replicate_frame(heart_frame, w))
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
    fit = fit_cox(frame)
    assert fit.warnings == ("degenerate",)
    assert fit.omitted == ("x0",)
    assert fit.covariate_names == ()
    assert fit.lr_df == 0
    assert fit.lr_stat == 0.0
    assert fit.p_lr == 1.0
    assert fit.loglik_full == fit.loglik_null
    # events at t = 1 and t = 2 with 3 and 2 records at risk
    assert fit.loglik_null == pytest.approx(-(math.log(3) + math.log(2)), rel=1e-15)
    fit4 = fit_cox(replicate_frame(frame, 4))
    assert fit4.warnings == ("degenerate", "ties")
    assert fit4.loglik_null == pytest.approx(-4 * (math.log(12) + math.log(8)), rel=1e-15)
    no_covariates = dataclasses.replace(frame, covariates=np.empty((3, 0)), covariate_names=())
    assert loglik(replicate_frame(no_covariates, 4), []) == fit4.loglik_null
    for w in (1, 4, 10**12):
        assert fit.p_at(w) == 1.0


def test_no_events_raises():
    frame = tiny_frame([[1.0], [2.0]], [False, False])
    with pytest.raises(NoEvents):
        fit_cox(frame)


def test_tied_event_times_warn_and_fit():
    frame = tiny_frame([[1.0], [0.0], [2.0]], [True, True, True], stops=[5.0, 5.0, 9.0])
    fit = fit_cox(frame)
    assert fit.warnings == ("ties",)
    assert np.isfinite(fit.loglik_full)


@pytest.mark.parametrize("scale", [1e-4, 1.0, 1e4])
def test_perfectly_separating_covariate_raises_monotone(scale):
    # the only event has the strictly largest covariate in its risk set, so
    # the likelihood increases in beta without bound. Once the event's eta
    # leads by about 37 the gradient rounds to 0 and Newton would stop there;
    # the span rule fires first, at every scale of x.
    frame = tiny_frame([[scale], [0.0]], [True, False], stops=[1.0, 2.0])
    with pytest.raises(MonotoneLikelihood) as info:
        fit_cox(frame)
    assert info.value.name == "x0"
    assert cox.MAX_ETA_SPAN < info.value.span < 36
    assert "is diverging" in str(info.value)


def test_monotone_likelihood_names_the_column_that_drives_the_span():
    # x1 is largest in every risk set at its event; x0 is not separating
    frame = tiny_frame([[0.0, 3.0], [1.0, 2.0], [0.0, 1.0], [1.0, 0.0]],
                       [True, True, True, False])
    with pytest.raises(MonotoneLikelihood) as info:
        fit_cox(frame)
    assert info.value.name == "x1"


def strong_effect_frame(n, b, truncated=False, seed=11):
    """x ~ N(0, 1), hazard exp(b x), exponential censoring at twice the median time.

    ``truncated`` enters 40% of the subjects late, at a uniform share of
    their stop time. Nothing separates: few events have the largest x in
    their risk set.
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    failure = rng.exponential(1.0 / np.exp(b * x))
    censor = rng.exponential(2.0 * np.median(failure), n)
    stop = np.minimum(failure, censor)
    start = np.where(rng.random(n) < 0.4, stop * rng.random(n), 0.0) if truncated else np.zeros(n)
    return SurvivalFrame(subject_ids=np.arange(n, dtype=float), start=start, stop=stop,
                         event=failure <= censor, covariates=x[:, None], covariate_names=("x",))


def plain_newton(frame):
    """beta and the LR statistic from undamped Newton on the per-event-time oracle."""
    args = (frame.start, frame.stop, frame.event, frame.covariates)
    beta = np.zeros(frame.covariates.shape[1])
    ll_null, grad, hess = score_per_event_time(*args, beta)
    ll = ll_null
    for _ in range(cox.MAX_ITERATIONS):
        step = np.linalg.solve(hess, grad)
        if grad @ step <= cox.DECREMENT_PER_EVENT * frame.event.sum():
            return beta, 2.0 * (ll - ll_null)
        beta = beta + step
        ll, grad, hess = score_per_event_time(*args, beta)
    raise AssertionError("the oracle Newton did not converge")


def record_separation_checks(monkeypatch):
    """The list that every call of ``cox._separating_column`` appends its answer to."""
    answers, real = [], cox._separating_column
    monkeypatch.setattr(cox, "_separating_column",
                        lambda *args: answers.append(real(*args)) or answers[-1])
    return answers


@pytest.mark.parametrize("n, b, truncated", [
    (2000, 5.0, False), (2000, 6.0, False), (500, 8.0, False),
    (1000, 5.0, True), (500, 6.0, True), (500, 8.0, True),
])
def test_a_strong_finite_effect_is_estimated_past_the_span_trigger(monkeypatch, n, b, truncated):
    # the linear predictor spans more than MAX_ETA_SPAN, so the definition
    # is checked; no direction separates, and Newton goes on to the optimum
    frame = strong_effect_frame(n, b, truncated)
    checks = record_separation_checks(monkeypatch)
    fit = fit_cox(frame)
    beta, lr_stat = plain_newton(frame)
    assert checks and set(checks) == {None}
    np.testing.assert_allclose(fit.beta, beta, rtol=1e-8)
    assert fit.lr_stat == pytest.approx(lr_stat, rel=1e-8)


def separated_frame(seed, kind):
    """40 records whose column ``sep`` separates, beside a column ``z`` with hazard exp(2 z).

    ``binary``: ``sep`` is 0/1 and every event is at level 1 (quasi-complete
    separation; censored records sit at both levels). ``leads``: ``sep`` is
    minus the stop time, so each event has the largest in its risk set.
    ``trails``: ``sep`` is the stop time, so each event has the smallest.
    A third of the records enter late, and one more record enters after the
    last event time, so it is in no risk set; its ``sep`` lies far on the
    side that would break the separation if it were at risk.
    """
    rng = np.random.default_rng(seed)
    n = 40
    z = rng.normal(size=n)
    stop = rng.exponential(1.0 / np.exp(2.0 * z))
    event = rng.random(n) < 0.6
    sep = {"binary": np.where(event, 1.0, rng.random(n) < 0.5),
           "leads": -stop, "trails": stop}[kind]
    start = np.where(rng.random(n) < 1 / 3, stop * rng.random(n), 0.0)
    last = stop.max()
    never_at_risk = (-10.0 if kind == "trails" else 10.0) * last
    return SurvivalFrame(subject_ids=np.arange(n + 1, dtype=float),
                         start=np.append(start, last), stop=np.append(stop, last + 1.0),
                         event=np.append(event, False),
                         covariates=np.column_stack([np.append(z, 0.0),
                                                     np.append(sep, never_at_risk)]),
                         covariate_names=("z", "sep"))


@pytest.mark.parametrize("kind", ["binary", "leads", "trails"])
@pytest.mark.parametrize("seed", range(4))
def test_a_separating_column_beside_others_raises_monotone(monkeypatch, seed, kind):
    # the definition finds the direction at the first step past the span
    # trigger: the single columns, in both signs, catch it before Newton's
    # step has shed the z component
    checks = record_separation_checks(monkeypatch)
    with pytest.raises(MonotoneLikelihood) as info:
        fit_cox(separated_frame(seed, kind))
    assert info.value.name == "sep"
    assert checks == [1]


def combination_separated_frame(seed):
    """Records separated along a + b only, with two tied events at each event time.

    At event times 1..k the two events share an integer a + b that falls
    with time, and differ in a. A censored record's a + b lies 1 to 5 below
    that of the last event time at or before its stop; a third of the
    censored records enter late. a is spread by up to 8 either way about
    half the sum, and b is the rest.
    """
    rng = np.random.default_rng(seed)
    k, n_censored = int(rng.integers(5, 11)), int(rng.integers(6, 16))
    times = np.arange(1.0, k + 1.0)
    top = 10.0 * k - (3 + rng.integers(0, 3, k)).cumsum()
    censored_stop = rng.uniform(0.5, k + 1.0, n_censored)
    last = np.maximum(np.searchsorted(times, censored_stop, side="right") - 1, 0)
    total = np.concatenate([np.repeat(top, 2), top[last] - rng.integers(1, 6, n_censored)])
    a = np.floor(total / 2) + rng.integers(-8, 9, total.size)
    a[1:2 * k:2] += a[1:2 * k:2] == a[0:2 * k:2]
    late = rng.random(n_censored) < 1 / 3
    censored_start = np.where(late, censored_stop * rng.random(n_censored), 0.0)
    start = np.concatenate([np.zeros(2 * k), censored_start])
    return SurvivalFrame(subject_ids=np.arange(total.size, dtype=float), start=start,
                         stop=np.concatenate([np.repeat(times, 2), censored_stop]),
                         event=np.arange(total.size) < 2 * k,
                         covariates=np.column_stack([a, total - a]), covariate_names=("a", "b"))


def every_event_leads(frame, v):
    """Whether each event's ``x @ v`` is the largest in its risk set, at every event time."""
    xv = frame.covariates @ v
    return all(xv[frame.event & (frame.stop == t)].min()
               >= xv[(frame.start < t) & (t <= frame.stop)].max()
               for t in np.unique(frame.stop[frame.event]))


@pytest.mark.parametrize("seed", range(60))
def test_separation_along_a_combination_with_ties_raises_monotone(seed):
    # no single column separates, in either sign, since each tied pair
    # differs in a; only a + b does, so the check must find the direction
    # in Newton's step or beta
    frame = combination_separated_frame(seed)
    a, total = frame.covariates[:, 0], frame.covariates.sum(axis=1)
    for t in np.unique(frame.stop[frame.event]):
        at_risk = (frame.start < t) & (t <= frame.stop)
        tied = frame.event & (frame.stop == t)
        assert tied.sum() == 2 and np.ptp(total[tied]) == 0 and np.ptp(a[tied]) > 0
        assert total[tied][0] == total[at_risk].max()
        assert (total[at_risk & ~frame.event] < total[tied][0]).all()
    assert every_event_leads(frame, np.ones(2))
    assert not any(every_event_leads(frame, sign * e) for sign in (1, -1) for e in np.eye(2))
    with pytest.raises(MonotoneLikelihood) as info:
        fit_cox(frame)
    assert info.value.name in ("a", "b")


def nearly_separated_frame(rng):
    """start, stop, event and x = (sep, z) where sep separates, or fails at one record.

    The distinct event times are 1..T, each with one or two events whose sep
    is a small integer m_k drawn at random. Every record's sep is at most the
    smallest m over its run of event times, so each event leads its risk
    set; an event's run starts after the last earlier time with a smaller m.
    Records enter at random event indices, many of them late, some on an
    event time itself, and may then lie above an earlier m. One record
    enters after the last event time with a sep far above every m. Returns
    the records and whether one censored record was instead put a quarter
    above the smallest m of its run, which breaks the separation there.
    """
    n_times = int(rng.integers(3, 40))
    m = rng.integers(0, 8, n_times).astype(float)
    runs = []  # (entry, leave, event, sep): at risk at event indices entry..leave-1
    for k in range(n_times):
        lower = np.flatnonzero(m[:k] < m[k])
        for _ in range(rng.integers(1, 3)):
            runs.append((rng.integers(lower[-1] + 1 if lower.size else 0, k + 1), k + 1,
                         True, m[k]))
    for _ in range(rng.integers(3, 2 * n_times)):
        entry = int(rng.integers(0, n_times))
        leave = int(rng.integers(entry + 1, n_times + 1))
        runs.append((entry, leave, False, m[entry:leave].min() - rng.choice([0.0, 0.5, 2.0])))
    broken = rng.random() < 0.5
    if broken:
        entry, leave, _, _ = runs[-1]
        runs[-1] = (entry, leave, False, m[entry:leave].min() + 0.25)
    entry, leave, event, sep = (np.array(c) for c in zip(*runs))
    # event index k is time k + 1, so entry e means a start in [e, e + 1)
    # and leave b a stop in [b, b + 1)
    start = entry + rng.choice([0.0, 0.5], entry.size)
    stop = np.where(event, leave, leave + rng.choice([0.0, 0.5], leave.size))
    start, stop = np.append(start, n_times + 0.25), np.append(stop, n_times + 1.5)
    x = np.column_stack([np.append(sep, 100.0), rng.standard_normal(start.size)])
    return start, stop, np.append(event, False), x, broken


def separating_column_by_masks(start, stop, event, x, directions):
    """``cox._separating_column`` by the definition, over each risk set's mask."""
    v = np.column_stack([directions, np.eye(x.shape[1])])
    v = np.hstack([v, -v])
    xv = x @ v
    slack = cox.ULP_SLACK * np.finfo(float).eps * np.abs(xv).max(axis=0)
    leads = np.ones(v.shape[1], dtype=bool)
    for t in np.unique(stop[event]):
        at_risk = (start < t) & (t <= stop)
        leads &= xv[event & (stop == t)].min(axis=0) >= xv[at_risk].max(axis=0) - slack
    return int(np.argmax(np.abs(v[:, leads.argmax()]) * np.ptp(x, axis=0))) if leads.any() else None


def test_the_separation_check_is_the_definition_on_nearly_separated_frames():
    # each record's run of event times, and the range minimum over it, must
    # give the definition's answer, whether late entry makes the separation
    # or one record breaks it anywhere in its run
    rng = np.random.default_rng(7)
    answers = collections.Counter()
    for case in range(300):
        start, stop, event, x, broken = nearly_separated_frame(rng)
        directions = rng.standard_normal((2, 2))
        want = separating_column_by_masks(start, stop, event, x, directions)
        layout, x_sorted = kernels.risk_set_layout(start, stop, event, x)
        assert cox._separating_column(layout, x_sorted, directions) == want, case
        assert broken or want is not None, case  # sep itself separates
        # a record (not the one never at risk) that enters after t yet lies
        # above an event at t: sep separates only because it enters late
        late_above = any((x[:-1, 0][start[:-1] > t] > x[event & (stop == t), 0].min()).any()
                         for t in np.unique(stop[event]))
        answers["none" if want is None else "late entry" if late_above else "found"] += 1
    # both answers, most separations holding only because of late entry
    assert answers["none"] >= 100 and answers["late entry"] >= 100, answers


# C functions the check may call whatever the frame's size, and more per
# level of its window minima (one level per doubling of the event times,
# held one at a time, so O(n + T) memory per candidate)
CHECK_C_CALLS, CHECK_C_CALLS_PER_LEVEL = 40, 4
# traced bytes one check may hold at its peak, in arrays of n records by its
# 2(p + 2) candidates: a table of every level of run minima needs more
CHECK_PEAK_ARRAYS = 6


@pytest.mark.parametrize("n", [10**3, 10**5])
def test_the_separation_check_reads_the_record_runs_without_a_risk_set_walk(monkeypatch, n):
    # x = (z, -stop) with 40% of the records left-truncated: the second
    # column leads every risk set at its events. The check must find it
    # without a score pass, and its C calls under the profiler must not
    # grow with the records or the event times, as a walk over the risk
    # sets would (several calls per event time); its traced peak must stay
    # within a few arrays of the records by the candidates
    rng = np.random.default_rng(n)
    stop = rng.exponential(10.0, n)
    start = np.where(rng.random(n) < 0.4, stop * rng.random(n), 0.0)
    event = rng.random(n) < 0.7
    layout, x = kernels.risk_set_layout(start, stop, event,
                                        np.column_stack([rng.standard_normal(n), -stop]))
    assert (start > 0).mean() > 0.35 and layout.d.size > 0.6 * n
    monkeypatch.setattr(kernels, "score", lambda *args: pytest.fail("the check called score"))
    calls = collections.Counter()  # by name: a bound method would keep its array alive

    def profile(frame, event, arg):
        if event == "c_call":
            calls[arg.__qualname__] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        column = cox._separating_column(layout, x, rng.standard_normal((2, 2)))
    finally:
        sys.setprofile(previous)
    assert column == 1
    bound = CHECK_C_CALLS + CHECK_C_CALLS_PER_LEVEL * layout.d.size.bit_length()
    assert calls.total() <= bound, calls.most_common(5)
    tracemalloc.start()
    try:
        cox._separating_column(layout, x, rng.standard_normal((2, 2)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= CHECK_PEAK_ARRAYS * n * 2 * (2 + 2) * 8, peak


# arrays of n records by p columns that a fit's traced peak may hold beyond
# those its design counts: boolean masks, per-time arrays, numpy's buffers
FIT_PEAK_SLACK = 0.25


def test_a_cox_fit_holds_the_arrays_its_design_counts():
    # 10^5 records on 59 tied integer times, 40% left-truncated: the kernel
    # walks each time's risk set, and tied times keep the fit near 0.5 s.
    # An O(n log n) kernel would let the same bound run on continuous times
    n, p = 10**5, 3
    rng = np.random.default_rng(0)
    stop = rng.integers(2, 61, n)
    start = np.where(rng.random(n) < 0.4, rng.integers(1, stop), 0).astype(float)
    event = rng.random(n) < 0.7
    frame = SurvivalFrame(subject_ids=np.arange(n, dtype=float), start=start,
                          stop=stop.astype(float), event=event,
                          covariates=rng.standard_normal((n, p)),
                          covariate_names=("x0", "x1", "x2"))
    widest = max(((start < t) & (t <= stop)).mean() for t in np.unique(stop[event]))
    # In arrays of n by p, an n-vector of doubles or indices being 1/p:
    # - building the layout holds the scaled columns and their stop-order
    #   copy (2), with the order, stops, entries and leaves (4/p) and the
    #   event indices (event share / p);
    # - a score pass holds the kept columns (1), the layout's entries,
    #   leaves and event indices and its eta ((3 + event share) / p). At
    #   the widest risk set, a share of the records, one time's gathered
    #   rows, their weights and the weighted rows are live
    #   (widest * (2 + 1/p)); each time frees its gathers before the next.
    # A second copy of the columns adds 1, and one time's gathers kept
    # bound while the next gathers its own add about 0.4: each exceeds
    # the slack.
    layout_build = 2 + (4 + event.mean()) / p
    score_pass = 1 + (3 + event.mean()) / p + widest * (2 + 1 / p)
    tracemalloc.start()
    try:
        fit_cox(frame)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = peak / (n * p * 8)
    assert arrays <= max(layout_build, score_pass) + FIT_PEAK_SLACK, (arrays, score_pass)


def test_the_rank_rule_reads_the_null_information(heart_frame, monkeypatch):
    # the first score, at beta = 0, is the only pass over the risk sets
    # before the rank rule; its negated Hessian is what the rule factors
    seen = []
    real_rank, real_score = cox.pivoted_rank_factor, kernels.score
    monkeypatch.setattr(cox, "pivoted_rank_factor", lambda a: seen.append(a) or real_rank(a))
    monkeypatch.setattr(kernels, "score", lambda *args: seen.append(args) or real_score(*args))
    fit = fit_cox(heart_frame)
    (x, beta), information = seen[0][1:], seen[1]
    assert not beta.any() and x.shape[1] == 4
    np.testing.assert_allclose(x.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_array_equal(information, real_score(*seen[0])[2])
    assert fit.omitted == ("surgery",) and len(seen) == 2 + fit.iterations


def test_single_record_risk_sets_carry_no_information():
    # each event is alone in its risk set, so x varies across events but
    # within no risk set: the null information is 0 and x is omitted
    frame = SurvivalFrame(
        subject_ids=np.arange(3.0),
        start=np.array([0.0, 1.0, 2.0]),
        stop=np.array([1.0, 2.0, 3.0]),
        event=np.ones(3, bool),
        covariates=np.array([[0.0], [5.0], [-2.0]]),
        covariate_names=("x0",),
    )
    fit = fit_cox(frame)
    assert fit.warnings == ("degenerate",)
    assert fit.omitted == ("x0",) and fit.p_lr == 1.0
    assert fit.loglik_full == fit.loglik_null == 0.0


@pytest.mark.parametrize("weight", [0, -3, 2.0, 1.5, 2**53 + 1])
def test_profile_rejects_bad_weight(heart_fit, weight):
    with pytest.raises(InvalidWeight):
        heart_fit.p_at(weight)
