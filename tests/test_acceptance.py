"""Acceptance gate: every release criterion at its stated tolerance.

These criteria are the one home of the paper's reference numbers (the stan30
and linear30 tables and NF answers) and of the weight identities. The other
test modules check the behaviour that no criterion checks.

Weight w is the paper's definition: every record repeated w times
(``replicate``, ``replicate_frame``). The weighted criteria fit replicated
data and check the weight-1 fit's closed-form profile against the same
numbers. Each test prints one PASS/FAIL line (run with ``pytest -s`` to see
them all even when interleaved with the progress dots).
"""

import functools
import math

import numpy as np
import pytest

from nfactor import (
    chi2_sf,
    compute_nf,
    fit_cox,
    fit_wls,
    kernels,
    replicate,
    replicate_frame,
    student_t_two_sided,
)

from oracles import chi2_sf_quadrature, student_t_two_sided_quadrature
from test_kernels import kernel_args
from test_numerics import CHI2_SPOTS, T_SPOTS
from test_search import assert_unreachable


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {number}: {label}")
                raise
            print(f"PASS criterion {number}: {label}")

        return wrapper

    return decorate


@criterion(1, "Cox golden fit at weight 1")
def test_criterion_1(heart_fit):
    assert heart_fit.loglik_null == pytest.approx(-42.335616, abs=1e-4)
    assert heart_fit.loglik_full == pytest.approx(-41.499959, abs=1e-4)
    assert heart_fit.lr_stat == pytest.approx(1.67, abs=0.01)
    assert heart_fit.lr_df == 3
    assert heart_fit.p_lr == pytest.approx(0.6433, abs=5e-4)
    assert heart_fit.covariate_names == ("age", "posttran", "year")
    np.testing.assert_allclose(heart_fit.hazard_ratios, [0.9764, 0.6116, 2.9011], rtol=0,
                               atol=2e-4)
    # the displayed table's other columns: std. err. of the hazard ratio, z, P>|z|
    se_hr = heart_fit.hazard_ratios * heart_fit.se_beta
    np.testing.assert_allclose(se_hr, [0.0269655, 0.3984063, 3.001411], atol=2e-6)
    np.testing.assert_allclose(heart_fit.z_stats.round(2), [-0.87, -0.75, 1.03])
    np.testing.assert_allclose(heart_fit.p_wald.round(3), [0.387, 0.450, 0.303])
    assert heart_fit.omitted == ("surgery",)
    assert heart_fit.n_subjects == heart_fit.n_failures == 20


@criterion(2, "Cox weighted fits at weights 4 and 5")
def test_criterion_2(replicated_heart_fit, heart_fit):
    fit4 = replicated_heart_fit(4)
    assert fit4.loglik_full == pytest.approx(-276.90339, abs=1e-3)
    assert fit4.loglik_null == pytest.approx(-280.24601, abs=1e-3)
    assert fit4.lr_stat == pytest.approx(6.69, abs=0.01)
    assert fit4.p_lr == pytest.approx(0.0826, abs=5e-4)
    assert fit4.n_subjects == fit4.n_failures == 80
    fit5 = replicated_heart_fit(5)
    assert fit5.lr_stat == pytest.approx(8.36, abs=0.01)
    assert fit5.p_lr == pytest.approx(0.0392, abs=5e-4)
    # the age row's std. err. of the hazard ratio, replicated and from the profile
    age = fit5.covariate_names.index("age")
    assert fit5.hazard_ratios[age] * fit5.se_beta[age] == pytest.approx(0.0120593, abs=1e-6)
    se_5 = heart_fit.se_beta[age] / math.sqrt(5)
    assert heart_fit.hazard_ratios[age] * se_5 == pytest.approx(0.0120593, abs=1e-6)
    for fit in (fit4, fit5):
        np.testing.assert_allclose(fit.hazard_ratios, heart_fit.hazard_ratios, rtol=1e-6)
    assert 4 * heart_fit.lr_stat == pytest.approx(6.69, abs=0.01)
    assert heart_fit.p_at(4) == pytest.approx(0.0826, abs=5e-4)
    assert 5 * heart_fit.lr_stat == pytest.approx(8.36, abs=0.01)
    assert heart_fit.p_at(5) == pytest.approx(0.0392, abs=5e-4)


@pytest.mark.parametrize("route", ["replicated", "profile"])
@criterion(3, "NF end-to-end for the Cox test at alpha 0.05")
def test_criterion_3(route, replicated_heart_fit, heart_fit):
    if route == "profile":
        p_of_weight = heart_fit.p_at
    else:
        def p_of_weight(w):
            return replicated_heart_fit(w).p_lr
    result = compute_nf(p_of_weight, 30, 0.05)
    assert (result.w0, result.w1) == (4, 5)
    assert result.w_int == pytest.approx(4.751, abs=1e-3)
    assert result.n_int == pytest.approx(142.53, abs=0.05)


# The linear fixture's intercept-only table with every row repeated w times:
# weight -> (std err, t, p, df, root mse).
LINEAR_TABLES = {
    1: (0.1981124, 0.47, 0.643, 29, 1.0851),
    16: (0.0487464, 1.91, 0.057, 479, 1.068),
    17: (0.0472881, 1.96, 0.050, 509, 1.0679),
    18: (0.0459532, 2.02, 0.044, 539, 1.0679),
}


@pytest.mark.parametrize("w", sorted(LINEAR_TABLES))
@criterion(4, "linear fixture tables at alpha 0.05")
def test_criterion_4(w, wald_dataset):
    se, t, p, df, root_mse = LINEAR_TABLES[w]
    fit1 = fit_wls(wald_dataset, "y", ())
    assert fit1.p_at(w) == pytest.approx(p, abs=5e-4)
    profile_t = fit1.t_stats[0] * math.sqrt((w * fit1.weighted_n - 1) / fit1.df_residual)
    assert round(float(profile_t), 2) == t
    fit = fit_wls(replicate(wald_dataset, w), "y", ())
    assert fit.term_names == ("intercept",)
    assert fit.coefficients[0] == pytest.approx(0.0929164, abs=1e-7)
    assert fit.standard_errors[0] == pytest.approx(se, abs=1e-6)
    assert round(float(fit.t_stats[0]), 2) == t
    assert fit.p_values[0] == pytest.approx(p, abs=5e-4)
    assert fit.df_residual == df
    assert fit.root_mse == pytest.approx(root_mse, abs=1e-4)
    assert fit.weighted_n == 30 * w


@criterion(4, "linear fixture NF 17 at alpha 0.05")
def test_criterion_4_nf(wald_dataset):
    fit1 = fit_wls(wald_dataset, "y", ())
    fit16, fit17 = (fit_wls(replicate(wald_dataset, w), "y", ()) for w in (16, 17))
    assert fit1.residual_ss == pytest.approx(34.1462048, abs=1e-6)
    assert 17 * fit1.residual_ss == pytest.approx(580.485481, abs=1e-5)
    assert fit17.residual_ss == pytest.approx(580.485481, abs=1e-5)
    # both the replicated fits and the profile bracket alpha between 16 and 17 copies
    assert fit16.p_values[0] > 0.05 > fit17.p_values[0]
    assert fit1.p_at(17) < 0.05 < fit1.p_at(16)
    result = compute_nf(fit1.p_at, 30, 0.05)
    assert result.nf_integer == 17
    assert result.nf_integer * 30 == 510


@pytest.mark.parametrize("w", [2, 3, 7, 13])
@criterion(5, "weight identities for log likelihood, LR, and standard errors")
def test_criterion_5(w, heart_frame, heart_fit, replicated_heart_fit):
    beta_hat = np.insert(heart_fit.beta, 2, 0.0)  # surgery column is omitted
    ll1 = kernels.score(*kernel_args(heart_frame), beta_hat)[0]
    identity = w * ll1 - 20 * w * math.log(w)
    ll_w = kernels.score(*kernel_args(replicate_frame(heart_frame, w)), beta_hat)[0]
    assert ll_w == pytest.approx(identity, rel=1e-9)
    fit = replicated_heart_fit(w)
    np.testing.assert_allclose(fit.beta, heart_fit.beta, rtol=1e-9, atol=1e-12)
    assert fit.lr_stat == pytest.approx(w * heart_fit.lr_stat, rel=1e-9)
    np.testing.assert_allclose(fit.se_beta * math.sqrt(w), heart_fit.se_beta, rtol=1e-8)
    assert heart_fit.p_at(w) == pytest.approx(fit.p_lr, rel=1e-9)


# Criterion 6 checks the weighted fits that the weight-1 fits imply against
# fits of the physically replicated data.
@pytest.mark.parametrize("w", [2, 5])
@criterion(6, "physical replication matches weighted fits for the Cox model")
def test_criterion_6_cox(w, heart_frame, heart_fit):
    assert heart_fit.warnings == ()
    replicated = fit_cox(replicate_frame(heart_frame, w))
    assert replicated.warnings == ("ties",)
    np.testing.assert_allclose(replicated.beta, heart_fit.beta, rtol=1e-8)
    shift = 20 * w * math.log(w)
    assert replicated.loglik_full == pytest.approx(w * heart_fit.loglik_full - shift, rel=1e-8)
    assert replicated.loglik_null == pytest.approx(w * heart_fit.loglik_null - shift, rel=1e-8)
    assert replicated.lr_stat == pytest.approx(w * heart_fit.lr_stat, rel=1e-8)
    assert replicated.p_lr == pytest.approx(heart_fit.p_at(w), rel=1e-8)
    assert replicated.n_subjects == w * 20


@pytest.mark.parametrize("w", [2, 5])
@criterion(6, "physical replication matches weighted fits for the linear model")
def test_criterion_6_linear(w, wald_dataset):
    lin_1 = fit_wls(wald_dataset, "y", ())
    lin_r = fit_wls(replicate(wald_dataset, w), "y", ())
    shrink = math.sqrt(lin_1.df_residual / (w * 30 - 1))
    np.testing.assert_allclose(lin_r.coefficients, lin_1.coefficients, rtol=1e-8)
    assert lin_r.residual_ss == pytest.approx(w * lin_1.residual_ss, rel=1e-8)
    np.testing.assert_allclose(lin_r.standard_errors, lin_1.standard_errors * shrink, rtol=1e-8)
    assert lin_r.p_values[0] == pytest.approx(lin_1.p_at(w), rel=1e-8)


DERIVATIVE_BETAS = 0.2 * np.random.default_rng(7).standard_normal((5, 4))


@pytest.mark.parametrize("beta", DERIVATIVE_BETAS, ids=range(len(DERIVATIVE_BETAS)))
@criterion(7, "analytic derivatives match finite differences")
def test_criterion_7(beta, heart_frame):
    h = 1e-5
    args = kernel_args(heart_frame)
    _, grad, neg_hess, _ = kernels.score(*args, beta)
    fd_grad = np.zeros(4)
    fd_hess = np.zeros((4, 4))
    for j in range(4):
        up, down = beta.copy(), beta.copy()
        up[j] += h
        down[j] -= h
        fd_grad[j] = (kernels.score(*args, up)[0] - kernels.score(*args, down)[0]) / (2 * h)
        g_up = kernels.score(*args, up)[1]
        g_down = kernels.score(*args, down)[1]
        fd_hess[:, j] = -(g_up - g_down) / (2 * h)
    np.testing.assert_allclose(grad, fd_grad, rtol=1e-6, atol=1e-7)
    np.testing.assert_allclose(neg_hess, fd_hess, rtol=1e-5, atol=1e-5)


@criterion(8, "tail probabilities match the quadrature oracle")
def test_criterion_8():
    for x, df, _ in CHI2_SPOTS:
        assert chi2_sf(x, df) == pytest.approx(chi2_sf_quadrature(x, df), abs=1e-10)
    for t, df, _ in T_SPOTS:
        assert student_t_two_sided(t, df) == pytest.approx(
            student_t_two_sided_quadrature(t, df), abs=1e-10
        )
    for x in (0.2, 1.7, 4.1, 9.6, 18.0):
        assert chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2), abs=1e-12)


@criterion(9, "bracket search equals exhaustive scan on synthetic curves")
def test_criterion_9():
    rng = np.random.default_rng(9)
    max_weight = 10_000
    reachable = 0
    for _ in range(100):
        p1 = rng.uniform(0.05, 1.0)
        ratio = rng.uniform(0.5, 0.9995)
        target = rng.uniform(1e-6, 0.2)

        def curve(w, p1=p1, ratio=ratio):
            return p1 * ratio ** (w - 1)

        expected = next(
            (w for w in range(1, max_weight + 1) if curve(w) <= target), None
        )
        result = compute_nf(curve, 30, target, max_weight)
        assert result.nf_integer == expected
        if expected is None:
            assert_unreachable(result, max_weight)
            assert result.best_p == curve(max_weight)
            continue
        reachable += 1
        if expected > 1:
            assert (result.w0, result.w1) == (expected - 1, expected)
            q0, q1 = result.p0, result.p1
            assert q0 > target >= q1
            paper = ((expected - 1) * (target - q1) + expected * (q0 - target)) / (q0 - q1)
            assert result.w_int == pytest.approx(paper, rel=1e-12, abs=0)
        # evaluation budget on the monotone fast path
        assert len(result.trace) <= 2 * math.ceil(math.log2(max(expected, 2))) + 3
    assert reachable >= 50  # the draw actually exercises the search path
    flat = compute_nf(lambda w: 1.0, 30, 0.05, 1000)
    assert flat.w1 is None and flat.best_p == 1.0
