"""Least squares with per-coefficient Wald t-tests, and their weight profile.

A uniform frequency weight w multiplies the residual sum of squares and
inflates the residual degrees of freedom to w*n - k, exactly as if every
row appeared w times; the coefficients themselves do not depend on w.
So ``t_w = t_1 * sqrt((w*n - k) / (n - k))``: the fit is made once,
unweighted, and ``LinearFit.p_at`` answers the tested coefficient's p-value
at any weight.

Each covariate and the response are first divided by a power of two near
their largest |value| (``numerics.scale_exponent``): exact, and it keeps
``X'X`` and the residual sum of squares inside the double range in any
units. t is formed in those units; the estimates are mapped back.

Each covariate is centred on its mean once per fit, as in the Cox fit.
The rank rule then judges a column by its spread, not by its offset from
zero: in ``X'X`` a column of ``5e4 + N(0, 1)`` would look collinear with the
intercept. The centred model has the same slopes and residuals; its
intercept and that intercept's variance are mapped back to the uncentred
model, whose intercept is the one reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, check_distinct_terms, check_weight
from .errors import InsufficientObservations, UntestableCoefficient
from .numerics import (inverse_spd, pivoted_rank_factor, scale_exponent, solve_spd,
                       student_t_two_sided)

INTERCEPT = "intercept"


@dataclass(frozen=True)
class LinearFit:
    """OLS estimates with t-statistics against a zero null.

    ``term_names`` lists the estimated terms (intercept first) and aligns
    with the per-coefficient arrays; collinear covariates appear in
    ``omitted`` instead. ``weighted_n`` (the row count) and ``df_residual``
    are floats; ``p_at`` scales the Wald test of the term named ``tested``
    to any weight. ``warnings`` holds the labels ``fit_wls`` describes.
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
    tested: str
    warnings: tuple[str, ...]

    def p_at(self, weight) -> float:
        """Wald p-value of ``tested`` with every row's weight multiplied by ``weight``.

        The residual degrees of freedom grow from ``df_residual`` to
        ``weight * weighted_n - k`` and the t-statistic by the square root
        of their ratio, so this equals the p-value of a fit of
        ``replicate(d, weight)`` up to round-off. A zero-residual fit keeps
        its weight-1 p-value: its t is +-inf or 0 at every weight.
        """
        w = check_weight(weight)
        j = self.term_names.index(self.tested)
        df = w * self.weighted_n - len(self.term_names)
        t = self.t_stats[j] * math.sqrt(df / self.df_residual)
        return student_t_two_sided(t, df)


def fit_wls(
    d: Dataset,
    response: str,
    covariates: list[str] | tuple[str, ...] = (),
    tested: str = INTERCEPT,
) -> LinearFit:
    """Fit ``response ~ intercept + covariates`` by ordinary least squares.

    An intercept column of ones is always included (first); a covariate
    named twice, or named ``intercept``, raises DuplicateTerm. A response with
    zero residual variance yields zero standard errors and degenerate
    p-values (0 for a nonzero coefficient, 1 for a zero one, where a
    coefficient whose term adds only round-off to the fit counts as zero)
    and ``warnings`` ``("degenerate",)``; any other fit has none. ``tested``
    names the coefficient whose p-value ``LinearFit.p_at`` gives at any
    weight w, as in a fit of ``replicate(d, w)``; UntestableCoefficient says
    when it is omitted as collinear or is not a term at all.
    """
    y = d.column(response)
    n = d.n_rows
    if n < 1:
        raise InsufficientObservations(0, 1)

    names = (INTERCEPT, *covariates)
    check_distinct_terms(names)
    # the intercept column of ones is not scaled; its exponent is 0
    raw = np.column_stack([np.ones(n)] + [d.column(c) for c in covariates])
    exponent = np.concatenate(([0], scale_exponent(raw[:, 1:])))
    y_exponent = scale_exponent(y)
    scaled = np.ldexp(raw, -exponent)
    y = np.ldexp(y, -y_exponent)
    offset = np.concatenate(([0.0], scaled[:, 1:].mean(axis=0)))
    design = scaled - offset
    gram = design.T @ design
    kept, dropped = pivoted_rank_factor(gram)
    term_names = tuple(names[j] for j in kept)
    omitted = tuple(names[j] for j in dropped)
    x = design[:, kept]
    gram = gram[np.ix_(kept, kept)]
    k = len(kept)
    if n <= k:
        raise InsufficientObservations(n, k)
    if tested not in term_names:
        raise UntestableCoefficient(tested, omitted=tested in omitted)

    centred_coef = solve_spd(gram, x.T @ y)
    resid = y - x @ centred_coef
    # uncentred = to_raw @ centred: only the intercept (column 0, always
    # kept) moves, by -offset @ slopes
    to_raw = np.eye(k)
    to_raw[0, 1:] = -offset[kept[1:]]
    coef = to_raw @ centred_coef
    rss = float(resid @ resid)
    df = float(n - k)

    # a residual sum of squares at round-off level is a zero-variance fit
    roundoff = 64 * np.finfo(float).eps
    degenerate = rss <= roundoff ** 2 * float(y @ y)
    if degenerate:
        rss = 0.0
        mse = 0.0
        se = np.zeros(k)
        # so is a coefficient whose term adds only round-off to the fitted y
        zero = np.abs(coef) * np.linalg.norm(scaled[:, kept], axis=0) <= roundoff * math.sqrt(y @ y)
        t = np.array([0.0 if z else math.copysign(math.inf, c) for c, z in zip(coef, zero)])
    else:
        mse = rss / df
        # cov(beta) = mse * to_raw (X'X)^-1 to_raw', X the centred design
        se = np.sqrt(np.diag(to_raw @ inverse_spd(gram) @ to_raw.T) * mse)
        t = coef / se
    p = np.array([student_t_two_sided(v, df) for v in t])

    # back to the data's units, y's over the column's for a coefficient; an
    # estimate past the double range reads inf
    unit = y_exponent - exponent[kept]
    with np.errstate(over="ignore"):
        return LinearFit(
            term_names=term_names,
            coefficients=np.ldexp(coef, unit),
            standard_errors=np.ldexp(se, unit),
            t_stats=t,
            p_values=p,
            omitted=omitted,
            df_residual=df,
            residual_ss=float(np.ldexp(rss, 2 * y_exponent)),
            root_mse=float(np.ldexp(math.sqrt(mse), y_exponent)),
            weighted_n=float(n),
            tested=tested,
            warnings=("degenerate",) if degenerate else (),
        )
