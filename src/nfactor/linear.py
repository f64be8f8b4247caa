"""Least squares with per-coefficient Wald t-tests, and their weight profile.

A uniform frequency weight w multiplies the residual sum of squares and
inflates the residual degrees of freedom to w*n - k, exactly as if every
row appeared w times; the coefficients themselves do not depend on w.
So ``t_w = t_1 * sqrt((w*n - k) / (n - k))``: the fit is made once,
unweighted, and ``LinearFit.p_value_at`` answers a coefficient's p-value at
any weight.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .data import Dataset, check_weight
from .errors import DegenerateTestWarning, InsufficientObservations
from .numerics import inverse_spd, pivoted_rank_factor, solve_spd, student_t_two_sided

INTERCEPT = "intercept"


@dataclass(frozen=True)
class LinearFit:
    """OLS estimates with t-statistics against a zero null.

    ``term_names`` lists the estimated terms (intercept first) and aligns
    with the per-coefficient arrays; collinear covariates appear in
    ``omitted`` instead. ``weighted_n`` (the row count) and ``df_residual``
    are floats; ``p_value_at`` scales the test to any weight.
    """

    term_names: tuple[str, ...]
    coefficients: np.ndarray
    standard_errors: np.ndarray
    t_stats: np.ndarray
    p_values: np.ndarray
    omitted: tuple[str, ...]
    df_residual: float
    residual_ss: float
    root_mse: float
    weighted_n: float

    def p_value_at(self, term: str, weight) -> float:
        """Wald p-value of ``term`` with every row's weight multiplied by ``weight``.

        The residual degrees of freedom grow from ``df_residual`` to
        ``weight * weighted_n - k`` and the t-statistic by the square root
        of their ratio, so this equals the p-value of a fit of
        ``replicate(d, weight)`` up to round-off. A zero-residual fit keeps
        its weight-1 p-value: its t is +-inf or 0 at every weight.
        """
        w = check_weight(weight)
        j = self.term_names.index(term)
        df = w * self.weighted_n - len(self.term_names)
        t = self.t_stats[j] * math.sqrt(df / self.df_residual)
        return student_t_two_sided(t, df)


def fit_wls(
    d: Dataset,
    response: str,
    covariates: list[str] | tuple[str, ...] = (),
) -> LinearFit:
    """Fit ``response ~ intercept + covariates`` by ordinary least squares.

    An intercept column of ones is always included (first). A response with
    zero residual variance yields zero standard errors and degenerate
    p-values (0 for a nonzero coefficient, 1 for a zero one) together with a
    DegenerateTestWarning. The fit at frequency weight w is the fit of
    ``replicate(d, w)``; ``LinearFit.p_value_at`` gives its p-values.
    """
    y = d.column(response)
    n = d.n_rows
    if n < 1:
        raise InsufficientObservations(0, 1)

    names = (INTERCEPT, *covariates)
    design = np.column_stack([np.ones(n)] + [d.column(c) for c in covariates])
    kept, dropped = pivoted_rank_factor(design)
    term_names = tuple(names[j] for j in kept)
    omitted = tuple(names[j] for j in dropped)
    x = design[:, kept]
    k = len(kept)
    if n <= k:
        raise InsufficientObservations(n, k)

    gram = x.T @ x
    coef = solve_spd(gram, x.T @ y)
    resid = y - x @ coef
    rss = float(resid @ resid)
    df = float(n - k)

    # a residual sum of squares at round-off level is a zero-variance fit
    if rss <= (64 * np.finfo(float).eps) ** 2 * float(y @ y):
        warnings.warn(
            "response has zero residual variance; the Wald test is degenerate",
            DegenerateTestWarning,
            stacklevel=2,
        )
        rss = 0.0
        mse = 0.0
        se = np.zeros(k)
        t = np.array([math.copysign(math.inf, c) if c != 0.0 else 0.0 for c in coef])
    else:
        mse = rss / df
        # cov(beta) = mse * (X'X)^-1
        se = np.sqrt(np.diag(inverse_spd(gram)) * mse)
        t = coef / se
    p = np.array([student_t_two_sided(v, df) for v in t])

    return LinearFit(
        term_names=term_names,
        coefficients=coef,
        standard_errors=se,
        t_stats=t,
        p_values=p,
        omitted=omitted,
        df_residual=df,
        residual_ss=rss,
        root_mse=math.sqrt(mse),
        weighted_n=float(n),
    )
