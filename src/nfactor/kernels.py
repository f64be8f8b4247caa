"""The Cox partial likelihood kernel, and the risk-set layout it reads.

``score`` is the one likelihood kernel: it returns the log partial likelihood
together with its gradient, its negated Hessian and its gain over beta = 0,
over counting-process risk sets:

    ll   = sum over event records i of  eta_i - log S0(t_i)
    grad = sum over event records i of  x_i - S1(t_i) / S0(t_i)
    hess = sum over event records i of  (S2/S0 - (S1/S0)(S1/S0)')(t_i)

where eta = X @ beta, the risk set at time t is {j : start_j < t <= stop_j},
and S0, S1, S2 are the exp(eta)-weighted sums of 1, x, and x x' over it.
``hess`` is the negated Hessian (positive semidefinite). exp arguments are
shifted by the risk-set maximum m of eta so large coefficients cannot overflow.
An ``x`` with no columns (and an empty ``beta``) gives the empty model,
whose log likelihood is ``-sum log |risk set|``. ``loglik`` is ``score``'s
first output and nothing in the package calls it.

The gain ``ll(beta) - ll(0)`` adds, at each distinct event time with d
events, ``sum of their eta - d * (m + log1p(mean over the risk set of
expm1(eta - m)))``. Its terms are of the size of eta, so a small
likelihood ratio keeps the digits that subtracting two values of ``ll``
would cancel. The weights stay ``exp``, not ``expm1 + 1``, which would
keep a weight below 1/2 only to about eps in absolute terms.

Nothing about which records are at risk depends on beta, so it is laid out
once per fit by ``risk_set_layout``, which puts the records in stable stop
order and gives ``x`` back in that order. There, record j is at risk at the
k-th distinct event time t_k exactly when ``entry[j] <= k < leave[j]``, its
run. Only this module reads the runs. ``score`` finds the records at risk at
t_k as the suffix with ``leave > k``, less those with ``entry > k``;
``events_lead``, the fit's separation check, takes range minima over the
runs in O((n + T) log T). Building the layout costs O(n log n). A ``score``
call costs O(T n p^2) over the T distinct event times, each of which reads
its whole suffix: still quadratic on continuous event times. A layout with
no event times gives zeros throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RiskSetLayout:
    """Which records are at risk at each distinct event time, in stop order.

    Every index is into the records in stable stop order. ``events`` lists
    the event records, so tied events keep file order; ``first`` holds the
    offset in ``events`` of each distinct event time's group and ``d`` its
    size. ``entry[j]`` is the first k with ``start_j < t_k`` and
    ``leave[j]`` the first k with ``stop_j < t_k``.
    """

    events: np.ndarray
    first: np.ndarray
    d: np.ndarray
    entry: np.ndarray
    leave: np.ndarray


def risk_set_layout(start, stop, event, x) -> tuple[RiskSetLayout, np.ndarray]:
    """``score``'s layout of the records ``(start, stop]``, and ``x`` in its stop order."""
    order = np.argsort(stop, kind="stable")
    stop = stop[order]
    events = np.flatnonzero(event[order])
    times, first, d = np.unique(stop[events], return_index=True, return_counts=True)
    layout = RiskSetLayout(
        events=events, first=first, d=d,
        entry=np.searchsorted(times, start[order], side="right"),
        leave=np.searchsorted(times, stop, side="right"),
    )
    return layout, x[order]


def score(layout: RiskSetLayout, x, beta):
    p = x.shape[1]
    hess = np.zeros((p, p))
    eta = x @ beta
    top, s0, excess = np.empty((3, layout.d.size))
    xbar = np.empty((layout.d.size, p))
    suffixes = np.searchsorted(layout.leave, np.arange(layout.d.size), side="right")
    for k, (lo, d_k) in enumerate(zip(suffixes.tolist(), layout.d.tolist())):
        entered = layout.entry[lo:] <= k
        rel, xr = eta[lo:][entered], x[lo:][entered]
        m = rel.max()
        rel -= m
        excess[k] = np.expm1(rel).sum() / rel.size
        np.exp(rel, out=rel)
        s0_k = rel.sum()
        xbar_k = (rel @ xr) / s0_k
        xr -= xbar_k
        hess += (d_k / s0_k) * ((rel[:, None] * xr).T @ xr)
        top[k], s0[k], xbar[k] = m, s0_k, xbar_k
        del rel, xr
    d = layout.d
    eta_d = np.add.reduceat(eta[layout.events], layout.first)
    ll = float((eta_d - d * (top + np.log(s0))).sum())
    gain = float((eta_d - d * (top + np.log1p(excess))).sum())
    grad = x[layout.events].sum(axis=0) - d @ xbar
    return ll, grad, hess, gain


def events_lead(layout: RiskSetLayout, xv, slack):
    """Per column of ``xv``: no record's value less ``slack`` exceeds its run's least event value.

    Window minima are held one level at a time, O(n + T) memory per column:
    two windows of 2^i times cover a run of 2^i to 2^(i+1) - 1, so those
    records are answered at level i, before the windows fold to level i + 1.
    """
    level = np.frexp(layout.leave - layout.entry)[1] - 1  # floor(log2(run)); -1 if never at risk
    window = np.minimum.reduceat(xv[layout.events], layout.first)
    leads = np.ones(xv.shape[1], dtype=bool)
    for i in range(layout.d.size.bit_length()):
        h, ask = 2 ** i, level == i
        run_min = np.minimum(window[layout.entry[ask]], window[layout.leave[ask] - h])
        leads &= (xv[ask] - slack <= run_min).all(axis=0)
        np.minimum(window[:-h], window[h:], out=window[:-h])
    return leads


# Kept only by name, for perfbench's tracer, which wraps ``kernels.loglik``:
# perfbench/tests/test_smoke.py::test_a_missing_wrapped_name_is_reported_absent
# expects the tracer to find every wrapped name but the one it deletes.
def loglik(layout: RiskSetLayout, x, beta):
    return score(layout, x, beta)[0]
