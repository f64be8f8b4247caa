"""Kernels for the weighted Cox partial likelihood.

``loglik`` returns the log partial likelihood and ``score`` returns it
together with its gradient and negated Hessian, both over counting-process
risk sets, with frequency weight ``w``:

    ll   = sum over event records i of  w * (eta_i - log(w * S0(t_i)))
    grad = sum over event records i of  w * (x_i - S1(t_i) / S0(t_i))
    hess = sum over event records i of  w * (S2/S0 - (S1/S0)(S1/S0)')(t_i)

where eta = X @ beta, the risk set at time t is {j : start_j < t <= stop_j},
and S0, S1, S2 are the exp(eta)-weighted sums of 1, x, and x x' over it.
``hess`` is the negated Hessian (positive semidefinite). exp arguments are
shifted by the risk-set maximum of eta so large coefficients cannot overflow.
An ``x`` with no columns (and an empty ``beta``) gives the empty model,
whose log likelihood is ``-sum w * log(w * |risk set|)``.

Event records sharing a stop time share one risk set, so each distinct event
time is visited once.
"""

from __future__ import annotations

import math

import numpy as np


def loglik(start, stop, event, x, beta, w):
    eta = x @ beta
    ev_stop = stop[event]
    ev_eta = eta[event]
    ll = 0.0
    for t in np.unique(ev_stop):
        at_t = ev_stop == t
        risk = (start < t) & (t <= stop)
        m = eta[risk].max()
        s0 = np.exp(eta[risk] - m).sum()
        ll += w * (ev_eta[at_t].sum() - at_t.sum() * (math.log(w * s0) + m))
    return ll


def score(start, stop, event, x, beta, w):
    p = x.shape[1]
    eta = x @ beta
    ll = 0.0
    grad = np.zeros(p)
    hess = np.zeros((p, p))
    ev_stop = stop[event]
    ev_eta = eta[event]
    ev_x = x[event]
    for t in np.unique(ev_stop):
        at_t = ev_stop == t
        d = int(at_t.sum())
        risk = (start < t) & (t <= stop)
        m = eta[risk].max()
        rel = np.exp(eta[risk] - m)
        s0 = rel.sum()
        xr = x[risk]
        xbar = (rel @ xr) / s0
        centered = xr - xbar
        ll += w * (ev_eta[at_t].sum() - d * (math.log(w * s0) + m))
        grad += w * (ev_x[at_t].sum(axis=0) - d * xbar)
        hess += (w * d / s0) * ((rel[:, None] * centered).T @ centered)
    return ll, grad, hess
