import math

import numpy as np
import pytest

from nfactor import INTERCEPT, Dataset, fit_wls, replicate, student_t_two_sided
from nfactor.errors import (
    DuplicateTerm,
    InsufficientObservations,
    InvalidWeight,
    NfactorError,
    UntestableCoefficient,
)
from nfactor.search import DEFAULT_MAX_WEIGHT

from oracles import gauss_solve, wls_wald_p_values


# ---- invariants -------------------------------------------------------------


@pytest.mark.parametrize("w", [2, 9, 40])
def test_coefficients_do_not_depend_on_weight(wald_dataset, w):
    base = fit_wls(wald_dataset, "y", ())
    fit = fit_wls(replicate(wald_dataset, w), "y", ())
    np.testing.assert_allclose(fit.coefficients, base.coefficients, rtol=1e-10)


@pytest.mark.parametrize("w", [2, 5])
def test_replication_oracle(w):
    rng = np.random.default_rng(21)
    d = Dataset(
        {
            "y": rng.standard_normal(12) + 0.4,
            "a": rng.standard_normal(12),
            "b": rng.uniform(-2, 2, 12),
        }
    )
    # the weighted fit that the weight-1 fit implies: rss and df grow to
    # w * rss and w * n - k, so se shrinks by sqrt((n - k) / (w * n - k))
    base = fit_wls(d, "y", ("a", "b"))
    unrolled = fit_wls(replicate(d, w), "y", ("a", "b"))
    df = w * base.weighted_n - 3
    shrink = math.sqrt(base.df_residual / df)
    np.testing.assert_allclose(unrolled.coefficients, base.coefficients, rtol=1e-10)
    np.testing.assert_allclose(unrolled.standard_errors, base.standard_errors * shrink,
                               rtol=1e-10)
    np.testing.assert_allclose(unrolled.t_stats, base.t_stats / shrink, rtol=1e-10)
    np.testing.assert_allclose(
        unrolled.p_values,
        [fit_wls(d, "y", ("a", "b"), term).p_at(w) for term in base.term_names],
        rtol=1e-10,
    )
    assert unrolled.df_residual == df
    assert unrolled.residual_ss == pytest.approx(w * base.residual_ss, rel=1e-10)
    assert unrolled.root_mse == pytest.approx(math.sqrt(w * base.residual_ss / df), rel=1e-10)
    assert unrolled.weighted_n == w * base.weighted_n


@pytest.mark.parametrize("w", [1, 4, 17])
def test_intercept_se_scaling_law(wald_dataset, w):
    fit = fit_wls(replicate(wald_dataset, w), "y", ())
    y = wald_dataset.column("y")
    ss1 = float(((y - y.mean()) ** 2).sum())
    n = wald_dataset.n_rows
    expected = math.sqrt(w * ss1 / (w * n - 1)) / math.sqrt(w * n)
    assert fit.standard_errors[0] == pytest.approx(expected, rel=1e-12)


def covariate_dataset():
    rng = np.random.default_rng(33)
    n = 25
    a = rng.standard_normal(n)
    b = rng.uniform(-2, 2, n)
    return Dataset({"y": 0.02 + 0.01 * a - 0.005 * b + rng.standard_normal(n), "a": a, "b": b})


PROFILE_WEIGHTS = (1, 2, 3, 7, 16, 17, 18, 64, 1000, 2**19, DEFAULT_MAX_WEIGHT)


@pytest.mark.parametrize("which", ["linear30", "covariates"])
def test_profile_matches_refit_at_every_weight(wald_dataset, which):
    # t_w = t_1 * sqrt((w*n - k) / (n - k)) with df = w*n - k, so the
    # closed-form profile is the p-value of a fit of the replicated rows; past
    # 1000 copies, of the textbook weighted fit.
    d, covariates = (wald_dataset, ()) if which == "linear30" else (covariate_dataset(), ("a", "b"))
    base = fit_wls(d, "y", covariates)
    design = np.column_stack([np.ones(d.n_rows), *(d.column(c) for c in covariates)])
    profiles = [fit_wls(d, "y", covariates, term) for term in base.term_names]
    for j, profile in enumerate(profiles):
        assert profile.p_at(1) == base.p_values[j]
    for w in PROFILE_WEIGHTS[1:]:
        if w <= 1000:
            expected = fit_wls(replicate(d, w), "y", covariates).p_values
        else:
            expected = wls_wald_p_values(d.column("y"), design, w)
        for j, profile in enumerate(profiles):
            assert profile.p_at(w) == pytest.approx(
                expected[j], rel=1e-9, abs=0
            ), (profile.tested, w)


@pytest.mark.parametrize("response, p", [([5.0] * 8, 0.0), ([0.0] * 8, 1.0)])
def test_zero_residual_profile_keeps_weight_1_p(response, p):
    # t stays +-inf or 0 at every weight; the t tail maps them to 0 and 1
    # without an inf / inf (every warning is an error in this suite)
    fit = fit_wls(Dataset({"y": response}), "y", ())
    assert fit.warnings == ("degenerate",)
    for w in (1, 2, 10**6):
        assert fit.p_at(w) == p


@pytest.mark.parametrize("weight", [0, -3, 2.0, 1.5, 2**53 + 1])
def test_profile_rejects_bad_weight(wald_dataset, weight):
    with pytest.raises(InvalidWeight):
        fit_wls(wald_dataset, "y", ()).p_at(weight)


def test_p_values_strictly_decrease_in_weight(wald_dataset):
    base = fit_wls(wald_dataset, "y", ())
    values = [base.p_at(w) for w in (1, 2, 5, 11, 23)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_zero_mean_response_keeps_p_at_one():
    d = Dataset({"y": [-1.5, 1.5, -0.25, 0.25]})
    for w in (1, 7):
        fit = fit_wls(replicate(d, w), "y", ())
        assert fit.coefficients[0] == 0.0
        assert fit.t_stats[0] == 0.0
        assert fit.p_values[0] == 1.0


def test_fit_invariants(wald_dataset):
    fit = fit_wls(replicate(wald_dataset, 3), "y", ())
    assert fit.t_stats[0] == pytest.approx(
        fit.coefficients[0] / fit.standard_errors[0], rel=1e-15
    )
    assert fit.p_values[0] == student_t_two_sided(fit.t_stats[0], fit.df_residual)
    assert fit.df_residual == fit.weighted_n - len(fit.term_names)


# ---- with covariates --------------------------------------------------------


def test_covariate_fit_matches_normal_equations_oracle():
    rng = np.random.default_rng(31)
    n = 40
    a = rng.standard_normal(n)
    b = rng.standard_normal(n)
    y = 1.0 + 0.5 * a - 0.25 * b + rng.standard_normal(n)
    d = Dataset({"y": y, "a": a, "b": b})
    fit = fit_wls(d, "y", ("a", "b"))
    design = np.column_stack([np.ones(n), a, b])
    expected = gauss_solve(design.T @ design, design.T @ y)
    np.testing.assert_allclose(fit.coefficients, expected, rtol=1e-10)
    resid = y - design @ expected
    mse = float(resid @ resid) / (n - 3)
    cov = mse * np.linalg.inv(design.T @ design)
    np.testing.assert_allclose(fit.standard_errors, np.sqrt(np.diag(cov)), rtol=1e-9)


def test_collinear_covariate_is_omitted():
    rng = np.random.default_rng(32)
    a = rng.standard_normal(15)
    d = Dataset({"y": rng.standard_normal(15), "a": a, "twice_a": 2 * a})
    fit = fit_wls(d, "y", ("a", "twice_a"))
    assert fit.term_names == ("intercept", "a")
    assert fit.omitted == ("twice_a",)


def test_a_raw_scale_covariate_keeps_its_column():
    # a spread of 2e-5 of the mean: in the uncentred X'X, x's pivot after the
    # intercept is 4e-10 of its diagonal, below the collinearity threshold
    rng = np.random.default_rng(43)
    x = 5e4 + rng.standard_normal(60)
    y = 1.0 + 0.3 * (x - 5e4) + rng.standard_normal(60)
    fit = fit_wls(Dataset({"y": y, "x": x}), "y", ["x"], tested="x")
    assert fit.term_names == ("intercept", "x") and fit.omitted == ()
    design = np.column_stack([np.ones(60), x])
    coef = np.linalg.lstsq(design, y, rcond=None)[0]
    resid = y - design @ coef
    # the rows of the pseudo-inverse give (X'X)^-1 = pinv pinv'
    pinv = np.linalg.lstsq(design, np.eye(60), rcond=None)[0]
    t = coef / np.sqrt(float(resid @ resid) / 58 * (pinv * pinv).sum(axis=1))
    np.testing.assert_allclose(fit.coefficients, coef, rtol=1e-8)
    np.testing.assert_allclose(fit.t_stats, t, rtol=1e-8)


@pytest.mark.parametrize("x_scale, y_scale",
                         [(1e300, 1e300), (1e-300, 1e-300), (1e300, 1e-300), (-1e-300, 1e300)])
def test_covariate_and_response_units_do_not_move_t(x_scale, y_scale):
    # squares of 1e+-300 leave the doubles; the fit scales each column and
    # the response by a power of two first, and maps the estimates back
    rng = np.random.default_rng(44)
    x = rng.standard_normal(30)
    y = 1.0 + 0.4 * x + rng.standard_normal(30)
    base = fit_wls(Dataset({"y": y, "x": x}), "y", ["x"], tested="x")
    fit = fit_wls(Dataset({"y": y * y_scale, "x": x * x_scale}), "y", ["x"], tested="x")
    assert fit.term_names == base.term_names and fit.warnings == ()
    np.testing.assert_allclose(fit.t_stats, base.t_stats * [1.0, math.copysign(1.0, x_scale)],
                               rtol=1e-12)
    np.testing.assert_allclose(fit.p_values, base.p_values, rtol=1e-12)
    assert fit.p_at(7) == pytest.approx(base.p_at(7), rel=1e-12)
    # past the double range an estimate reads inf (or 0), as the product does
    units = np.array([y_scale, y_scale / x_scale])
    np.testing.assert_allclose(fit.coefficients, base.coefficients * units, rtol=1e-12)
    np.testing.assert_allclose(fit.standard_errors, base.standard_errors * abs(units),
                               rtol=1e-12)
    assert fit.root_mse == pytest.approx(base.root_mse * y_scale, rel=1e-12)
    assert fit.residual_ss == pytest.approx(base.residual_ss * y_scale * y_scale, rel=1e-12)


# ---- degenerate and error cases ----------------------------------------------


def test_constant_response_is_degenerate():
    d = Dataset({"y": [5.0] * 8})
    fit = fit_wls(d, "y", ())
    assert fit.warnings == ("degenerate",)
    assert fit.coefficients[0] == pytest.approx(5.0, rel=1e-15)
    assert fit.residual_ss == 0.0
    assert fit.standard_errors[0] == 0.0
    assert fit.t_stats[0] == math.inf
    assert fit.p_values[0] == 0.0


def test_constant_zero_response_is_degenerate_with_p_one():
    d = Dataset({"y": [0.0] * 8})
    fit = fit_wls(d, "y", ())
    assert fit.warnings == ("degenerate",)
    assert fit.t_stats[0] == 0.0
    assert fit.p_values[0] == 1.0


def test_round_off_coefficient_of_an_exact_fit_is_zero(wald_dataset):
    # y on itself: the intercept comes out as round-off, about 1e-17, which
    # in exact arithmetic is 0 and must not read as infinitely significant
    fit = fit_wls(wald_dataset, "y", ["y"])
    assert fit.warnings == ("degenerate",)
    assert fit.term_names == (INTERCEPT, "y")
    assert fit.t_stats.tolist() == [0.0, math.inf]
    assert fit.p_values.tolist() == [1.0, 0.0]


def test_exact_constant_fit_keeps_an_infinite_t():
    # the intercept's term contributes |1| * sqrt(3), far above round-off
    fit = fit_wls(Dataset({"y": [1.0, 1.0, 1.0]}), "y", ())
    assert fit.warnings == ("degenerate",)
    assert fit.t_stats[0] == math.inf
    assert fit.p_values[0] == 0.0


def test_insufficient_observations():
    with pytest.raises(InsufficientObservations):
        fit_wls(Dataset({"y": [1.0]}), "y", ())
    with pytest.raises(InsufficientObservations):
        fit_wls(Dataset({"y": np.empty(0)}), "y", ())


@pytest.mark.parametrize("covariates,name", [(["x", "x"], "x"), ([INTERCEPT], INTERCEPT)])
def test_a_term_named_twice_is_rejected(covariates, name):
    rng = np.random.default_rng(31)
    d = Dataset({c: rng.standard_normal(20) for c in ("y", "x", INTERCEPT)})
    with pytest.raises(DuplicateTerm) as err:
        fit_wls(d, "y", covariates)
    assert err.value.name == name


def test_the_wald_test_does_not_depend_on_the_units_of_a_covariate():
    # a rescaled by 2**-20 (exact in binary) is the same covariate: each
    # coefficient scales by 2**20 and its t and p stay. A pivot rule relative
    # to the largest diagonal entry of X'X refused a scale of 1e-6.
    rng = np.random.default_rng(41)
    a, b = rng.standard_normal(40), rng.uniform(-3.0, 3.0, 40)
    y = 0.3 + 0.5 * a - 0.2 * b + rng.standard_normal(40)
    base = fit_wls(Dataset({"y": y, "a": a, "b": b}), "y", ["a", "b"], tested="a")
    scaled = fit_wls(Dataset({"y": y, "a": a * 2.0**-20, "b": b}), "y", ["a", "b"], tested="a")
    np.testing.assert_allclose(scaled.t_stats, base.t_stats, rtol=1e-12, atol=0)
    np.testing.assert_allclose(scaled.p_values, base.p_values, rtol=1e-12, atol=0)
    assert scaled.coefficients[1] == pytest.approx(base.coefficients[1] * 2.0**20, rel=1e-12)
    for w in (1, 7, 10**6):
        assert scaled.p_at(w) == pytest.approx(base.p_at(w), rel=1e-12, abs=0)


def test_the_tested_coefficient_is_bound_by_the_fit():
    rng = np.random.default_rng(42)
    x = rng.standard_normal(30)
    d = Dataset({"y": 0.1 + 2.0 * x + rng.standard_normal(30), "x": x, "twice_x": 2.0 * x})
    fit = fit_wls(d, "y", ["x"], tested="x")
    assert fit.tested == "x"
    assert fit.p_at(1) == fit.p_values[1]
    assert fit_wls(d, "y", ["x"]).p_at(1) == fit.p_values[0]  # the intercept by default
    for tested, message in [("twice_x", "coefficient 'twice_x' was omitted as collinear"),
                            ("slope", "no coefficient named 'slope'")]:
        with pytest.raises(UntestableCoefficient) as err:
            fit_wls(d, "y", ["x", "twice_x"], tested=tested)
        assert isinstance(err.value, NfactorError)
        assert str(err.value) == message
        assert err.value.name == tested
