import math

import numpy as np
import pytest
from scipy import stats

from nfactor.errors import DomainError, NotPositiveDefinite
from nfactor.numerics import (
    COLLINEARITY_RTOL,
    chi2_sf,
    inverse_spd,
    normal_two_sided,
    pivoted_rank_factor,
    solve_spd,
    student_t_two_sided,
)
from nfactor.search import compute_nf

from oracles import (
    chi2_sf_quadrature,
    gauss_solve,
    matrix_rank_by_elimination,
    normal_two_sided_series,
    student_t_two_sided_quadrature,
)

# Frozen from the quadrature oracles in oracles.py: (argument, df, tail mass).
CHI2_SPOTS = (
    (0.05, 1, 0.8230632737581212),
    (0.3, 1, 0.583882420770365),
    (1.2, 1, 0.2733216782922981),
    (0.8, 2, 0.6703200460356392),
    (2.7, 2, 0.25924026064589145),
    (5.5, 2, 0.06392786120670758),
    (1.671314, 3, 0.6433300671991018),
    (3.2, 3, 0.36180502749753196),
    (6.685257, 3, 0.08263586755329919),
    (8.356572, 3, 0.03918954389868536),
    (0.5, 4, 0.9735009788392561),
    (7.9, 4, 0.09531077378816526),
    (2.2, 5, 0.8208359692144955),
    (11.4, 6, 0.0767731774216784),
    (4.4, 7, 0.7327230835638655),
    (15.0, 8, 0.059145459832683954),
    (6.25, 9, 0.71465991106539),
    (9.9, 10, 0.4493100747596527),
    (23.5, 12, 0.023768855306415624),
    (30.0, 15, 0.01192149593815969),
)

T_SPOTS = (
    (0.469009, 29, 0.6425700750684558),
    (1.906117, 479, 0.05723326062873522),
    (1.964901, 509, 0.04996916977824666),
    (2.021861, 539, 0.04368425665939825),
    (0.5, 1, 0.7048327646991333),
    (1.0, 2, 0.42264973081037416),
    (2.5, 3, 0.08770664700806556),
    (3.3, 4, 0.02993342008412609),
    (0.25, 5, 0.8125341307441227),
    (1.75, 7, 0.12359302852228812),
    (2.2, 10, 0.0524410684493532),
    (0.9, 12, 0.38582543179490064),
    (1.5, 20, 0.14923577116925285),
    (2.8, 29, 0.008998372310774204),
    (0.05, 50, 0.9603215958119502),
    (1.96, 100, 0.05277890136622828),
    (3.5, 200, 0.0005735400749830028),
    (0.75, 3.5, 0.5004980342595097),
    (1.3, 0.8, 0.45473853026421096),
    (2.0, 509, 0.04603111844758944),
)


def random_spd(rng, n):
    m = rng.standard_normal((n, n))
    return m @ m.T + n * np.eye(n)


# ---- solve_spd --------------------------------------------------------------


def test_solve_identity():
    np.testing.assert_array_equal(solve_spd(np.eye(2), [3.0, -1.0]), [3.0, -1.0])


def test_solve_diagonal():
    x = solve_spd(np.array([[4.0, 0.0], [0.0, 9.0]]), [8.0, 27.0])
    np.testing.assert_allclose(x, [2.0, 3.0], rtol=0, atol=1e-15)


def test_solve_matches_elimination_oracle():
    rng = np.random.default_rng(5)
    a = random_spd(rng, 5)
    b = rng.standard_normal(5)
    np.testing.assert_allclose(solve_spd(a, b), gauss_solve(a, b), rtol=0, atol=1e-10)


@pytest.mark.parametrize("n", [1, 3, 8, 14, 20])
def test_solve_residual_bound(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        a = random_spd(rng, n)
        b = rng.standard_normal(n)
        x = solve_spd(a, b)
        residual = np.abs(a @ x - b).max()
        assert residual <= 1e-8 * np.abs(b).max()


def test_solve_reads_lower_triangle_only():
    a = np.array([[4.0, 123.0], [1.0, 9.0]])  # garbage above the diagonal
    sym = np.array([[4.0, 1.0], [1.0, 9.0]])
    np.testing.assert_allclose(solve_spd(a, [1.0, 2.0]), gauss_solve(sym, [1.0, 2.0]))


def test_solve_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite) as info:
        solve_spd(np.array([[1.0, 2.0], [2.0, 1.0]]), [1.0, 1.0])
    assert (info.value.pivot_index, info.value.pivot) == (1, -3.0)


def test_solve_rejects_zero_matrix():
    with pytest.raises(NotPositiveDefinite) as info:
        solve_spd(np.zeros((2, 2)), [1.0, 1.0])
    assert (info.value.pivot_index, info.value.pivot) == (0, 0.0)


def test_tiny_third_pivot_is_named():
    # L L' with a third pivot of 2e-13, below 1e-12 of its own diagonal
    # entry a[2, 2] = 0.3125 + 2e-13
    lower = np.array([[2.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.5, 0.25, math.sqrt(2e-13)]])
    a = lower @ lower.T
    for call in (lambda: solve_spd(a, np.ones(3)), lambda: inverse_spd(a)):
        with pytest.raises(NotPositiveDefinite) as info:
            call()
        assert info.value.pivot_index == 2
        # a[2, 2] carries the pivot only to the ulp of 0.3125, ~3e-4 of it
        assert info.value.pivot == pytest.approx(2e-13, rel=1e-3)


def _scaled_3x3():
    """A well-conditioned 3 x 3 with its second row and column scaled by 2**-25."""
    m = np.random.default_rng(7).standard_normal((3, 3))
    scale = np.diag([1.0, 2.0**-25, 1.0])
    return scale @ (m @ m.T + 3.0 * np.eye(3)) @ scale


@pytest.mark.parametrize("a", [np.diag([2.0**-30, 2.0**30]), _scaled_3x3()],
                         ids=["diag(2**-30, 2**30)", "3x3 row scaled by 2**-25"])
def test_solves_do_not_see_the_units_of_a_column(a):
    # each pivot is judged against its own diagonal entry; a rule relative to
    # the largest diagonal entry refused both matrices at their small pivot
    n = len(a)
    b = np.random.default_rng(8).standard_normal(n)
    np.testing.assert_allclose(solve_spd(a, b), gauss_solve(a, b), rtol=1e-12, atol=0)
    expected = np.column_stack([gauss_solve(a, e) for e in np.eye(n)])
    np.testing.assert_allclose(inverse_spd(a), expected, rtol=1e-12, atol=0)


def test_solve_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        solve_spd(np.eye(2), [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        solve_spd(np.ones((2, 3)), [1.0, 2.0])


def test_inverse_matches_elimination_oracle():
    rng = np.random.default_rng(6)
    a = random_spd(rng, 4)
    expected = np.column_stack([gauss_solve(a, e) for e in np.eye(4)])
    np.testing.assert_allclose(inverse_spd(a), expected, rtol=0, atol=1e-10)


def test_empty_system():
    # a model with no kept covariate solves and inverts a 0 x 0 Hessian
    assert solve_spd(np.zeros((0, 0)), []).shape == (0,)
    assert inverse_spd(np.zeros((0, 0))).shape == (0, 0)


# ---- pivoted_rank_factor ----------------------------------------------------


def rank_split(x):
    """(kept, omitted) columns of ``x`` by the rank rule on its Gram matrix."""
    return pivoted_rank_factor(x.T @ x)


def test_all_zero_column_is_omitted(heart_frame):
    kept, omitted = rank_split(heart_frame.covariates[heart_frame.event])
    assert kept == [0, 1, 3]
    assert omitted == [2]  # surgery


def test_duplicate_column_second_omitted():
    rng = np.random.default_rng(11)
    c = rng.standard_normal(20)
    kept, omitted = rank_split(np.column_stack([c, c]))
    assert kept == [0]
    assert omitted == [1]


def test_exact_linear_combination_is_omitted():
    rng = np.random.default_rng(12)
    a = rng.standard_normal(25)
    b = rng.standard_normal(25)
    kept, omitted = rank_split(np.column_stack([a, b, 2.0 * a - 3.0 * b]))
    assert kept == [0, 1]
    assert omitted == [2]


def test_full_rank_random_matrix_keeps_everything():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((30, 3))
    assert matrix_rank_by_elimination(x) == 3
    kept, omitted = rank_split(x)
    assert kept == [0, 1, 2]
    assert omitted == []


def test_kept_columns_are_full_rank_by_oracle(heart_frame):
    x = heart_frame.covariates[heart_frame.event]
    kept, _ = rank_split(x)
    assert matrix_rank_by_elimination(x[:, kept]) == len(kept)


def test_all_zero_input_omits_everything():
    kept, omitted = rank_split(np.zeros((10, 2)))
    assert kept == []
    assert omitted == [0, 1]


def test_no_columns_keep_and_omit_nothing():
    assert rank_split(np.zeros((4, 0))) == ([], [])


# ---- hostile designs: rank rule and solves against the elimination oracles ----


def _near_collinear(residual_share):
    """Three unit columns; the third's squared residual against the first two
    is ``residual_share`` of its squared norm."""
    q, _ = np.linalg.qr(np.random.default_rng(21).standard_normal((40, 3)))
    angle = math.asin(math.sqrt(residual_share))
    third = math.cos(angle) * (q[:, 0] + q[:, 1]) / math.sqrt(2.0) + math.sin(angle) * q[:, 2]
    return np.column_stack([q[:, 0], q[:, 1], third])


def _raw_scale(n=60):
    """Intercept, calendar year near 1970, age in days and a unit-scale column."""
    rng = np.random.default_rng(22)
    year = rng.integers(1965, 1976, n).astype(float)
    age_days = rng.uniform(20 * 365.25, 70 * 365.25, n).round()
    return np.column_stack([np.ones(n), year, age_days, rng.standard_normal(n)])


def _hostile_designs():
    rng = np.random.default_rng(23)
    a, b = rng.standard_normal((2, 30))
    raw = _raw_scale()
    birth_year = raw[:, 1] - raw[:, 2] / 365.25
    return {
        "residual 4x above rtol": (_near_collinear(4 * COLLINEARITY_RTOL), [0, 1, 2]),
        "residual 4x below rtol": (_near_collinear(COLLINEARITY_RTOL / 4), [0, 1]),
        "raw scale": (raw, [0, 1, 2, 3]),
        "raw scale, birth year from year and age": (
            np.column_stack([raw, birth_year]), [0, 1, 2, 3]),
        "duplicated": (np.column_stack([a, b, a]), [0, 1]),
        "duplicated on raw scale": (np.column_stack([raw, raw[:, 2]]), [0, 1, 2, 3]),
        "constant after intercept": (np.column_stack([np.ones(30), a, np.full(30, 5.0)]), [0, 1]),
        "constant alone": (np.column_stack([np.full(30, 5.0), a]), [0, 1]),
        "all-zero": (np.column_stack([a, np.zeros(30), b]), [0, 2]),
    }


HOSTILE = _hostile_designs()


def _unit_columns(x):
    norms = np.linalg.norm(x, axis=0)
    return x / np.where(norms > 0, norms, 1.0)


def _relative_residual(a, x, b):
    # normwise backward error of x as a solution of a x = b
    return np.linalg.norm(a @ x - b) / (np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(b))


# A backward stable solve of a k x k system (k <= 4) leaves a relative
# residual of a few ulps; 64 ulps leaves room for the order of summation.
RESIDUAL_BOUND = 64 * np.finfo(float).eps


@pytest.mark.parametrize("case", HOSTILE)
def test_rank_rule_on_hostile_designs(case):
    x, expected_kept = HOSTILE[case]
    kept, omitted = rank_split(x)
    assert kept == expected_kept
    assert omitted == [j for j in range(x.shape[1]) if j not in expected_kept]
    # the per-column rule does not see column scale; the oracle's global
    # threshold does, so it sees unit columns
    assert matrix_rank_by_elimination(_unit_columns(x)) == len(kept)
    assert matrix_rank_by_elimination(_unit_columns(x[:, kept])) == len(kept)


@pytest.mark.parametrize("case", HOSTILE)
def test_solves_on_hostile_designs(case):
    x, expected_kept = HOSTILE[case]
    gram = x[:, expected_kept].T @ x[:, expected_kept]
    b = gram @ np.random.default_rng(24).standard_normal(len(expected_kept))
    oracle = gauss_solve(gram, b)
    assert _relative_residual(gram, oracle, b) <= RESIDUAL_BOUND
    assert _relative_residual(gram, solve_spd(gram, b), b) <= RESIDUAL_BOUND
    inverse = inverse_spd(gram)
    oracle_inverse = np.column_stack([gauss_solve(gram, e) for e in np.eye(len(b))])
    for inv in (inverse, oracle_inverse):
        assert (np.linalg.norm(gram @ inv - np.eye(len(b)))
                / (np.linalg.norm(gram) * np.linalg.norm(inv))) <= RESIDUAL_BOUND


# ---- chi2_sf ----------------------------------------------------------------


@pytest.mark.parametrize("x,df,expected", CHI2_SPOTS)
def test_chi2_spot_values(x, df, expected):
    assert chi2_sf(x, df) == pytest.approx(expected, abs=1e-10)
    # the frozen values themselves still agree with the live oracle
    assert chi2_sf_quadrature(x, df) == pytest.approx(expected, abs=1e-12)


def test_chi2_reference_values():
    assert chi2_sf(1.671314, 3) == pytest.approx(0.6433, abs=5e-4)
    assert chi2_sf(2 * (372.62187 - 368.44359), 3) == pytest.approx(0.0392, abs=5e-4)


@pytest.mark.parametrize("df", [1, 2, 5, 30])
def test_chi2_at_zero_is_one(df):
    assert chi2_sf(0.0, df) == 1.0


@pytest.mark.parametrize("x", [0.1, 0.9, 2.3, 7.7, 21.0])
def test_chi2_df2_closed_form(x):
    assert chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2), abs=1e-12)


def test_chi2_strictly_decreasing_in_x():
    grid = np.linspace(0.0, 40.0, 200)
    for df in (1, 3, 10):
        values = [chi2_sf(x, df) for x in grid]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_chi2_domain_errors():
    with pytest.raises(DomainError):
        chi2_sf(-0.1, 3)
    with pytest.raises(DomainError):
        chi2_sf(1.0, 0)
    with pytest.raises(DomainError):
        chi2_sf(math.nan, 3)


@pytest.mark.parametrize("df", [1, 3, 30])
def test_chi2_at_infinity_is_zero(df):
    assert chi2_sf(math.inf, df) == 0.0
    assert chi2_sf(np.float64(math.inf), df) == 0.0


TAIL_DFS = (*range(1, 41), 99, 200)
TAIL_XS = (0.0, 1e-12, 1e-3, 0.5, 3.84, 20.0, 100.0, 700.0, 1400.0)


@pytest.mark.parametrize("df", TAIL_DFS)
def test_chi2_closed_form_is_relatively_exact(df):
    # every term of the closed form is positive, so the relative error stays
    # near round-off from p ~ 1 down to p ~ 1e-300, for odd and even df
    for x in TAIL_XS:
        p = chi2_sf(x, df)
        for reference in (chi2_sf_quadrature(x, df), stats.chi2.sf(x, df)):
            if reference > 1e-300:
                assert p == pytest.approx(reference, rel=1e-12, abs=0), (x, df)


@pytest.mark.parametrize("df", range(1, 41))
def test_chi2_is_a_probability(df):
    # from df 7 up the rounded sum of the closed form passes 1 at small x
    for x in np.logspace(-15, 3, 1000):
        assert 0.0 <= chi2_sf(x, df) <= 1.0, x


def test_a_tiny_lr_at_11_df_is_searched():
    # unclamped, the sum reads 1.0000000000000002 at weight 2, which the
    # search refuses as no probability
    lr = 0.00016215548836946578
    result = compute_nf(lambda w: chi2_sf(w * lr, 11), 100, 0.05)
    assert result.p_at_1 == 1.0
    assert result.nf_integer == math.ceil(stats.chi2.isf(0.05, 11) / lr) == 121336


def test_chi2_rejects_a_fractional_df():
    for df in (2.5, math.inf, math.nan):
        with pytest.raises(DomainError):
            chi2_sf(1.0, df)
    assert chi2_sf(3.0, 2.0) == chi2_sf(3.0, 2)


# ---- student_t_two_sided ----------------------------------------------------


@pytest.mark.parametrize("t,df,expected", T_SPOTS)
def test_t_spot_values(t, df, expected):
    assert student_t_two_sided(t, df) == pytest.approx(expected, abs=1e-10)
    assert student_t_two_sided_quadrature(t, df) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("df", [30, 1e4, 1e6, 1e7, 1e8, 1e9])
@pytest.mark.parametrize("t", [1.0, 1.96, 3.0, 5.0])
def test_t_matches_scipy_at_large_df(t, df):
    # the linear model's df grows with the weight, up to ~10^9 in a search
    assert student_t_two_sided(t, df) == pytest.approx(2 * stats.t.sf(t, df), rel=1e-10, abs=0)


def test_t_reference_values():
    assert student_t_two_sided(0.0929164 / 0.1981124, 29) == pytest.approx(0.643, abs=5e-4)
    assert student_t_two_sided(0.0929164 / 0.0472881, 509) == pytest.approx(0.050, abs=5e-4)


@pytest.mark.parametrize("df", [0.5, 1, 29, 509])
def test_t_at_zero_is_one(df):
    assert student_t_two_sided(0.0, df) == 1.0


def test_t_is_even_in_t():
    assert student_t_two_sided(1.7, 12) == student_t_two_sided(-1.7, 12)


def test_t_strictly_decreasing_in_abs_t():
    grid = np.linspace(0.0, 6.0, 100)
    for df in (1, 29, 509):
        values = [student_t_two_sided(t, df) for t in grid]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_t_infinite_statistic():
    assert student_t_two_sided(math.inf, 29) == 0.0
    # a numpy infinity would warn on inf / inf if it reached the beta tail
    for t in (np.float64(math.inf), np.float64(-math.inf)):
        for df in (0.5, 29, 1e12):
            assert student_t_two_sided(t, df) == 0.0


def test_t_domain_error():
    # an infinite df is the normal limit, which this function does not give
    for t, df in [(1.0, 0.0), (1.0, -2.0), (math.nan, 29), (3.0, math.inf),
                  (3.0, math.nan), (math.inf, math.inf)]:
        with pytest.raises(DomainError):
            student_t_two_sided(t, df)


@pytest.mark.parametrize("t, p", [(1e200, 0.0), (1e-170, 1.0)],
                         ids=["t squared overflows", "t squared underflows"])
def test_t_tail_where_t_squared_leaves_the_doubles(t, p):
    # t * t is inf (x = df / (df + t^2) is 0) or 0 (its complement y is 0)
    for sign in (1.0, -1.0):
        assert student_t_two_sided(sign * t, 10) == p == 2.0 * stats.t.sf(t, 10)


# ---- normal_two_sided -------------------------------------------------------


def test_normal_center():
    assert normal_two_sided(0.0) == 1.0


def test_normal_reference_value():
    # displayed z of -0.87 reproduces the displayed p only approximately
    assert normal_two_sided(-0.87) == pytest.approx(0.384, abs=2e-3)


def test_normal_five_percent_point():
    assert normal_two_sided(1.959964) == pytest.approx(0.05, abs=1e-6)


@pytest.mark.parametrize("z", [-3.3, -1.959964, -0.87, 0.1, 0.87, 1.2, 2.5, 4.0])
def test_normal_matches_erf_series(z):
    assert normal_two_sided(z) == pytest.approx(normal_two_sided_series(z), abs=1e-10)
