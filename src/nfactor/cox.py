"""Frequency-weighted Cox proportional-hazards regression.

The objective is the weighted log partial likelihood in Breslow form: each
event record contributes its linear predictor minus the log of the summed
weighted hazards of everything at risk at its stop time, all scaled by the
frequency weight. Tied event times simply reuse the full risk-set sum, which
keeps the fit exactly equivalent to physically replicating every record.

Newton-Raphson stops when the Newton decrement ``g' H^-1 g`` (gradient ``g``,
negated Hessian ``H``), about twice the log likelihood still to gain, is at
most ``DECREMENT_PER_EVENT`` times the weighted number of events. Both sides
scale linearly with the frequency weight, so the fit stops on the same
iterate at every weight. (A bound relative to ``|ll|`` would not: ll carries
the coefficient-free term ``-w * d * log(w)``.) A step is accepted when its
log likelihood is no more than ``ULP_SLACK`` ulps of ``|ll|`` below the
current one; near the optimum the likelihood is flat to within round-off,
and demanding a strict rise there would stall the search on a tie.
Otherwise the step is halved, down to ``MIN_STEP_SCALE``.

Each Newton step costs one kernel pass when the full step is accepted: the
full step is scored with ``kernels.score`` and judged by the ``ll`` it
returns. ``kernels.loglik`` runs only while halving (then ``score`` once at
the accepted step) and for a model with no kept covariate.

A uniform frequency weight only rescales the likelihood:
``ll_w(beta) = w * ll_1(beta) - w * d * log(w)``. So the estimate does not
depend on w and ``LR_w = w * LR_1``; ``CoxFit.p_lr_at`` answers the
likelihood-ratio p-value at any weight from one fit, without refitting.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels
from .data import SurvivalFrame, check_weight
from .errors import (
    DegenerateTestWarning,
    MonotoneLikelihood,
    NoEvents,
    NotConverged,
    TiesWarning,
)
from .numerics import chi2_sf, inverse_spd, normal_two_sided, pivoted_rank_factor, solve_spd

MAX_ITERATIONS = 100
MAX_ABS_COEF = 50.0
DECREMENT_PER_EVENT = 1e-20
ULP_SLACK = 8.0
MIN_STEP_SCALE = 1e-10
_EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
class CoxFit:
    """Converged Cox regression with its likelihood-ratio test.

    ``covariate_names`` lists the estimated (kept) covariates in input order;
    per-coefficient arrays align with it. ``n_subjects`` and ``n_failures``
    are weighted counts. The likelihood-ratio test compares the fitted model
    against the null model over the same kept covariates.
    """

    covariate_names: tuple[str, ...]
    beta: np.ndarray
    hazard_ratios: np.ndarray
    se_beta: np.ndarray
    z_stats: np.ndarray
    p_wald: np.ndarray
    omitted: tuple[str, ...]
    loglik_null: float
    loglik_full: float
    lr_stat: float
    lr_df: int
    p_lr: float
    n_subjects: float
    n_failures: float
    iterations: int

    def p_lr_at(self, weight) -> float:
        """Likelihood-ratio p-value with every record's weight multiplied by ``weight``.

        The statistic scales linearly with a uniform weight, so this is
        ``chi2_sf(weight * lr_stat, lr_df)``: on a weight-1 fit it equals
        ``fit_cox(frame, weight).p_lr`` up to round-off, and at weight 1 it
        is ``p_lr`` exactly. A test with no kept covariate has p = 1 at
        every weight.
        """
        w = check_weight(weight)
        if self.lr_df == 0:
            return 1.0
        return chi2_sf(max(w * self.lr_stat, 0.0), self.lr_df)


def _kernel_args(frame: SurvivalFrame, x: np.ndarray):
    return (
        frame.start,
        frame.stop,
        frame.event,
        np.ascontiguousarray(x, dtype=np.float64),
    )


def cox_loglik(frame: SurvivalFrame, beta, weight: int = 1) -> float:
    """Weighted Breslow log partial likelihood at coefficient vector ``beta``."""
    w = check_weight(weight)
    beta = np.asarray(beta, dtype=np.float64)
    if frame.n_records == 0:
        raise NoEvents("survival frame is empty")
    if beta.shape != (frame.covariates.shape[1],):
        raise ValueError(
            f"beta has length {beta.size}, frame has {frame.covariates.shape[1]} covariates"
        )
    return float(kernels.loglik(*_kernel_args(frame, frame.covariates), beta, w))


def cox_score_hessian(frame: SurvivalFrame, beta, weight: int = 1):
    """Gradient and negated Hessian of the weighted log partial likelihood.

    The negated Hessian is positive semidefinite; it is the risk-set
    covariance of the covariates summed over event records.
    """
    w = check_weight(weight)
    beta = np.asarray(beta, dtype=np.float64)
    if frame.n_records == 0:
        raise NoEvents("survival frame is empty")
    if beta.shape != (frame.covariates.shape[1],):
        raise ValueError(
            f"beta has length {beta.size}, frame has {frame.covariates.shape[1]} covariates"
        )
    _, grad, neg_hess = kernels.score(*_kernel_args(frame, frame.covariates), beta, w)
    return grad, neg_hess


def _newton(frame: SurvivalFrame, x: np.ndarray, names, w: float):
    """Maximize the partial likelihood over the kept covariates.

    Newton starts at beta = 0, where the null log likelihood falls out of
    the first score.
    """
    args = _kernel_args(frame, x)
    beta = np.zeros(x.shape[1])
    ll, grad, neg_hess = kernels.score(*args, beta, w)
    loglik_null = ll
    tolerance = DECREMENT_PER_EVENT * w * frame.n_events
    iterations = 0
    while True:
        step = solve_spd(neg_hess, grad)
        decrement = float(grad @ step)
        if decrement <= tolerance:
            break
        if iterations >= MAX_ITERATIONS:
            raise NotConverged(int(w), iterations, decrement)
        iterations += 1
        floor = ll - ULP_SLACK * _EPS * abs(ll)
        candidate = beta + step
        scored = kernels.score(*args, candidate, w)
        scale = 1.0
        while not scored[0] >= floor:
            scale *= 0.5
            if scale < MIN_STEP_SCALE:
                # g'step > 0, so a short enough step must raise ll unless
                # the likelihood itself is not finite there.
                raise NotConverged(int(w), iterations, decrement)
            candidate = beta + scale * step
            if kernels.loglik(*args, candidate, w) >= floor:
                scored = kernels.score(*args, candidate, w)
                break
        worst = int(np.abs(candidate).argmax())
        if abs(candidate[worst]) > MAX_ABS_COEF:
            raise MonotoneLikelihood(names[worst], float(candidate[worst]))
        beta = candidate
        ll, grad, neg_hess = scored
    return beta, ll, loglik_null, neg_hess, iterations


def fit_cox(frame: SurvivalFrame, weight: int = 1) -> CoxFit:
    """Fit the weighted Cox model and its likelihood-ratio test.

    Collinear covariate columns (detected on the event records) are omitted
    from estimation and reported in ``omitted``. Newton-Raphson runs with
    step-halving from beta = 0, where the null log likelihood falls out of
    the first iteration.
    """
    w = check_weight(weight)
    if frame.n_events == 0:
        raise NoEvents("survival frame has no event records")
    if frame.has_tied_event_times:
        warnings.warn(
            "tied event times present; each tied event keeps the full "
            "risk-set sum in its denominator",
            TiesWarning,
            stacklevel=2,
        )

    n_subjects = w * frame.n_subjects
    n_failures = w * frame.n_events

    if frame.covariates.shape[1] > 0:
        kept, dropped = pivoted_rank_factor(frame.covariates[frame.event])
    else:
        kept, dropped = [], []
    kept_names = tuple(frame.covariate_names[j] for j in kept)
    omitted = tuple(frame.covariate_names[j] for j in dropped)

    x = frame.covariates[:, kept]
    if not kept:
        warnings.warn(
            "no estimable covariates remain; likelihood-ratio test is degenerate",
            DegenerateTestWarning,
            stacklevel=2,
        )
        empty = np.empty(0)
        ll0 = float(kernels.loglik(*_kernel_args(frame, x), empty, w))
        return CoxFit(
            covariate_names=(),
            beta=empty,
            hazard_ratios=empty.copy(),
            se_beta=empty.copy(),
            z_stats=empty.copy(),
            p_wald=empty.copy(),
            omitted=omitted,
            loglik_null=ll0,
            loglik_full=ll0,
            lr_stat=0.0,
            lr_df=0,
            p_lr=1.0,
            n_subjects=n_subjects,
            n_failures=n_failures,
            iterations=0,
        )

    beta, ll_full, ll_null, neg_hess, iterations = _newton(frame, x, kept_names, w)

    covariance = inverse_spd(neg_hess)
    se = np.sqrt(np.diag(covariance))
    z = beta / se
    p_wald = np.array([normal_two_sided(v) for v in z])

    lr_stat = 2.0 * (ll_full - ll_null)
    lr_df = len(kept)
    p_lr = chi2_sf(max(lr_stat, 0.0), lr_df)

    return CoxFit(
        covariate_names=kept_names,
        beta=beta,
        hazard_ratios=np.exp(beta),
        se_beta=se,
        z_stats=z,
        p_wald=p_wald,
        omitted=omitted,
        loglik_null=ll_null,
        loglik_full=ll_full,
        lr_stat=lr_stat,
        lr_df=lr_df,
        p_lr=p_lr,
        n_subjects=n_subjects,
        n_failures=n_failures,
        iterations=iterations,
    )
