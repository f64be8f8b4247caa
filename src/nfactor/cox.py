"""Cox proportional-hazards regression and its weight profile.

The objective is the log partial likelihood in Breslow form: each event
record contributes its linear predictor minus the log of the summed hazards
of everything at risk at its stop time. Tied event times simply reuse the
full risk-set sum, so a fit of replicated records (every record repeated w
times, which ties each event w ways) is exactly the frequency-weighted fit.

Newton-Raphson stops when the Newton decrement ``g' H^-1 g`` (gradient ``g``,
negated Hessian ``H``), about twice the log likelihood still to gain, is at
most ``DECREMENT_PER_EVENT`` times the number of events. A step is accepted
when its log likelihood is no more than ``ULP_SLACK`` ulps of ``|ll|`` below
the current one; near the optimum the likelihood is flat to within
round-off, and demanding a strict rise there would stall the search on a
tie. Otherwise the step is halved, down to ``MIN_STEP_SCALE``.

Each column is divided by a power of two near its largest |value|
(``numerics.scale_exponent``), which is exact, and then centred on its
mean, once per fit. The scaling keeps the mean and the squares in the
information inside the double range whatever the column's units; beta and
its standard errors are mapped back at the end. The centring shifts every
record's linear predictor by the same amount, which the partial likelihood
does not see, and keeps a column's offset out of the predictor and out of
the kernel's sums.

Two rules decide what the fit can estimate, and neither sees a column's
units, its offset or its coding:

- **Rank.** The first score, at beta = 0, returns the null information
  ``H(0)``. A pivoted factor of it (``pivoted_rank_factor``) omits each
  column that varies within no risk set once the earlier kept columns are
  accounted for: a constant column under any coding, a duplicate, a linear
  combination. The information at any beta has the same null space, so
  Newton solves on the kept block alone; it continues from that first
  score's kept sub-blocks.
- **Divergence.** The span decides when to look, the definition decides what
  is found. An accepted step whose linear predictor spans more than
  ``MAX_ETA_SPAN`` (max eta - min eta over the records) triggers a check of
  candidate directions v against the definition of a monotone likelihood
  (``kernels.events_lead``): at every event time, each event's ``x @ v`` is at
  least the largest in its risk set (Bryson & Johnson, Technometrics 23,
  1981). The candidates are the step, the new beta and each single column, in
  both signs; the columns catch a separating column beside others that do not.
  If one passes, the fit raises MonotoneLikelihood, naming the column j with
  the largest ``|v_j|`` times its spread; otherwise Newton goes on, a strong
  but finite effect, within ``MAX_ITERATIONS``. Past ``-log(eps)``, about 36,
  a lagging record's weight rounds to 0 beside a leading one and the gradient
  vanishes, so a fit on separated data would "converge" there if the check did
  not refuse it first.

The fit scales and centres the columns in file order, then lays out the risk
sets once (``kernels.risk_set_layout``, which also tells whether event times
tie) with the columns in stop order; ``kernels.score`` reads those on every
pass, sorting nothing. Each Newton step costs one pass when the full step
is accepted, because a step is judged by the ``ll`` that scoring it returns;
each halving costs one more pass. A model with no kept covariate is Newton
with no columns: the first score gives its log likelihood, and it has
converged at beta = () after 0 iterations.

The likelihood ratio is twice the gain ``ll_full - ll_null`` that the
kernel sums on the last accepted pass, without the cancellation of
subtracting the two log likelihoods; ``w_int`` scales as one over it.

A uniform frequency weight only rescales the likelihood:
``ll_w(beta) = w * ll_1(beta) - w * d * log(w)``. So the estimate does not
depend on w and ``LR_w = w * LR_1``; the fit is made once, unweighted, and
``CoxFit.p_at`` answers the likelihood-ratio p-value at any weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .data import SurvivalFrame, check_weight
from .errors import MonotoneLikelihood, NoEvents, NotConverged
from .numerics import (chi2_sf, inverse_spd, normal_two_sided, pivoted_rank_factor,
                       scale_exponent, solve_spd)

MAX_ITERATIONS = 100
# Span (max eta - min eta over the records) of an accepted step's linear
# predictor past which the fit checks for a monotone likelihood; below the
# ~36 where exp(-span) rounds away beside 1.
MAX_ETA_SPAN = 30.0
DECREMENT_PER_EVENT = 1e-20
ULP_SLACK = 8.0
MIN_STEP_SCALE = 1e-10
_EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
class CoxFit:
    """Converged Cox regression with its likelihood-ratio test.

    ``covariate_names`` lists the estimated (kept) covariates in input order;
    per-coefficient arrays align with it. ``n_subjects`` and ``n_failures``
    count the frame's subjects and event records (as floats). The
    likelihood-ratio test compares the fitted model against the null model
    over the same kept covariates; ``p_at`` scales it to any weight, and
    ``p_lr`` is ``p_at(1)``. ``warnings`` holds the sorted labels
    ``fit_cox`` describes.
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
    n_subjects: float
    n_failures: float
    iterations: int
    warnings: tuple[str, ...]

    def p_at(self, weight) -> float:
        """Likelihood-ratio p-value with every record's weight multiplied by ``weight``.

        The statistic scales linearly with a uniform weight, so this is
        ``chi2_sf(weight * lr_stat, lr_df)``: it equals
        ``fit_cox(replicate_frame(frame, weight)).p_lr`` up to round-off. A
        test with no kept covariate has p = 1 at every weight.
        """
        lr_stat = check_weight(weight) * self.lr_stat
        return chi2_sf(max(lr_stat, 0.0), self.lr_df) if self.lr_df else 1.0

    @property
    def p_lr(self) -> float:
        return self.p_at(1)


def _separating_column(layout: kernels.RiskSetLayout, x: np.ndarray, directions):
    """The column that most drives a direction of separation, or None if none is found.

    The candidates v are each column of ``directions`` and each single column
    of ``x``, in both signs. One separates when every event's ``x @ v`` is at
    least the largest in its risk set, within ``ULP_SLACK`` ulps of
    ``max |x @ v|`` (``kernels.events_lead``); the first names the column j
    with the largest ``|v_j|`` times the spread of ``x[:, j]``.
    """
    v = np.column_stack([directions, np.eye(x.shape[1])])
    v = np.hstack([v, -v])
    xv = x @ v
    leads = kernels.events_lead(layout, xv, ULP_SLACK * _EPS * np.abs(xv).max(axis=0))
    return int(np.argmax(np.abs(v[:, leads.argmax()]) * np.ptp(x, axis=0))) if leads.any() else None


def _newton(layout: kernels.RiskSetLayout, x: np.ndarray, names, ll, grad, neg_hess):
    """Maximize the partial likelihood over the centred, kept columns ``x``.

    Newton starts at beta = 0, whose score (``ll``, ``grad``, ``neg_hess``)
    the caller has already taken. With no columns it stops there, after 0
    iterations. Returns beta, its ``ll``, its gain ``ll - ll(0)`` as the
    kernel sums it, the negated Hessian and the iteration count.
    """
    beta = np.zeros(x.shape[1])
    gain = 0.0
    tolerance = DECREMENT_PER_EVENT * layout.d.sum()
    iterations = 0
    while True:
        step = solve_spd(neg_hess, grad)
        decrement = float(grad @ step)
        if decrement <= tolerance:
            break
        if iterations >= MAX_ITERATIONS:
            raise NotConverged(iterations, decrement)
        iterations += 1
        floor = ll - ULP_SLACK * _EPS * abs(ll)
        scale = 1.0
        while True:
            candidate = beta + scale * step
            scored = kernels.score(layout, x, candidate)
            if scored[0] >= floor:
                break
            scale *= 0.5
            if scale < MIN_STEP_SCALE:
                # g'step > 0, so a short enough step must raise ll unless
                # the likelihood itself is not finite there.
                raise NotConverged(iterations, decrement)
        span = float(np.ptp(x @ candidate))
        if span > MAX_ETA_SPAN:
            column = _separating_column(layout, x, np.column_stack([scale * step, candidate]))
            if column is not None:
                raise MonotoneLikelihood(names[column], span, MAX_ETA_SPAN)
        beta = candidate
        ll, grad, neg_hess, gain = scored
    return beta, ll, gain, neg_hess, iterations


def fit_cox(frame: SurvivalFrame) -> CoxFit:
    """Fit the Cox model and its likelihood-ratio test, unweighted.

    Covariates that the null information shows to be constant or collinear
    within the risk sets are omitted from estimation and reported in
    ``omitted``. Newton-Raphson runs with step-halving from beta = 0, where
    the null log likelihood falls out of the first score; a step whose
    linear predictor spans more than ``MAX_ETA_SPAN`` raises
    MonotoneLikelihood if a direction of separation is found. The fit at
    frequency weight w is the fit of ``replicate_frame(frame, w)``;
    ``CoxFit.p_at`` gives its p-value.
    ``warnings`` has ``"degenerate"`` when no covariate is kept and ``"ties"``
    when event times tie (each tied event keeps the full risk-set sum).
    """
    if not frame.event.any():
        raise NoEvents("survival frame has no event records")
    exponent = scale_exponent(frame.covariates)
    x = np.ldexp(frame.covariates, -exponent)
    x -= x.mean(axis=0)
    layout, x = kernels.risk_set_layout(frame.start, frame.stop, frame.event, x)
    ll_null, grad, neg_hess, _ = kernels.score(layout, x, np.zeros(x.shape[1]))
    kept, dropped = pivoted_rank_factor(neg_hess)
    kept_names = tuple(frame.covariate_names[j] for j in kept)
    omitted = tuple(frame.covariate_names[j] for j in dropped)

    x = np.take(x, kept, axis=1)  # frees the all-columns copy for the whole of Newton
    beta, ll_full, gain, neg_hess, iterations = _newton(
        layout, x, kept_names, ll_null, grad[kept], neg_hess[np.ix_(kept, kept)],
    )

    se = np.sqrt(np.diag(inverse_spd(neg_hess)))
    z = beta / se
    p_wald = np.array([normal_two_sided(v) for v in z])
    # back to the frame's units: a small-unit covariate can have a large
    # beta, and its hazard ratio, or the beta itself, may overflow to inf
    with np.errstate(over="ignore"):
        beta, se = np.ldexp(beta, -exponent[kept]), np.ldexp(se, -exponent[kept])
        hazard_ratios = np.exp(beta)

    return CoxFit(
        covariate_names=kept_names,
        beta=beta,
        hazard_ratios=hazard_ratios,
        se_beta=se,
        z_stats=z,
        p_wald=p_wald,
        omitted=omitted,
        loglik_null=ll_null,
        loglik_full=ll_full,
        lr_stat=2.0 * gain,
        lr_df=len(kept),
        n_subjects=float(frame.n_subjects),
        n_failures=float(frame.event.sum()),
        iterations=iterations,
        warnings=tuple(label for label, fired in (
            ("degenerate", not kept), ("ties", layout.d.max() > 1)) if fired),
    )
