import math

import numpy as np
import pytest
from scipy import stats

from nfactor import (
    chi2_sf,
    normal_two_sided,
    pivoted_rank_factor,
    solve_spd,
    student_t_two_sided,
)
from nfactor.errors import DomainError, NotPositiveDefinite
from nfactor.numerics import inverse_spd

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
    with pytest.raises(NotPositiveDefinite):
        solve_spd(np.array([[1.0, 2.0], [2.0, 1.0]]), [1.0, 1.0])


def test_solve_rejects_zero_matrix():
    with pytest.raises(NotPositiveDefinite):
        solve_spd(np.zeros((2, 2)), [1.0, 1.0])


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


def test_all_zero_column_is_omitted(heart_frame):
    kept, omitted = pivoted_rank_factor(heart_frame.covariates[heart_frame.event])
    assert kept == [0, 1, 3]
    assert omitted == [2]  # surgery


def test_duplicate_column_second_omitted():
    rng = np.random.default_rng(11)
    c = rng.standard_normal(20)
    kept, omitted = pivoted_rank_factor(np.column_stack([c, c]))
    assert kept == [0]
    assert omitted == [1]


def test_exact_linear_combination_is_omitted():
    rng = np.random.default_rng(12)
    a = rng.standard_normal(25)
    b = rng.standard_normal(25)
    kept, omitted = pivoted_rank_factor(np.column_stack([a, b, 2.0 * a - 3.0 * b]))
    assert kept == [0, 1]
    assert omitted == [2]


def test_full_rank_random_matrix_keeps_everything():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((30, 3))
    assert matrix_rank_by_elimination(x) == 3
    kept, omitted = pivoted_rank_factor(x)
    assert kept == [0, 1, 2]
    assert omitted == []


def test_kept_columns_are_full_rank_by_oracle(heart_frame):
    x = heart_frame.covariates[heart_frame.event]
    kept, _ = pivoted_rank_factor(x)
    assert matrix_rank_by_elimination(x[:, kept]) == len(kept)


def test_all_zero_input_omits_everything():
    kept, omitted = pivoted_rank_factor(np.zeros((10, 2)))
    assert kept == []
    assert omitted == [0, 1]


def test_rank_factor_requires_a_column():
    with pytest.raises(ValueError):
        pivoted_rank_factor(np.zeros((4, 0)))


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
