"""Independent reference implementations the tests check the package against.

Each oracle deliberately takes a different route than the code under test:
tail probabilities come from adaptive quadrature of the density written out
from its textbook formula, linear solves from Gaussian elimination with
partial pivoting, the normal tail from the erf Taylor series, weighted
least-squares p-values from the normal equations and scipy's t tail, and the
Cox log likelihood, score and negated Hessian from scalar loops that rebuild
the risk set of every event record separately (ties included) instead of
vectorizing once per distinct event time, and take the Hessian's sums about
the risk-set mean in a second pass. The loops and the least-squares oracle
take a frequency weight; the package's fits do not, so these are the
weighted reference where replicating the data would be too large. The
survival-frame constructors are checked against loops that chain each
subject's records one record at a time through a dict keyed by subject id.
``score_per_event_time`` is an earlier Cox kernel, kept verbatim but for
``np.unique`` in place of a package helper: it finds each distinct event
time's records and its risk set with masks over all records in file order,
where the package's kernel reads a suffix of the stop order, so the two
agree to round-off. ``breslow_loglik_decimal`` is the Breslow log
likelihood in 50-digit decimal arithmetic, so a likelihood ratio taken as
the difference of two of them keeps every digit a double can hold. Nothing
here imports from the package but its exception types, which the frame
oracles raise so that their outcomes compare with the package's.
"""

import decimal
import math

import numpy as np
from scipy.integrate import quad
from scipy.stats import t as student_t

from nfactor.errors import InvalidEventFlag, NonIncreasingTime


def chi2_sf_quadrature(x: float, df: int) -> float:
    """Upper chi-square tail by adaptive quadrature of the density.

    Both branches keep the relative error near 1e-13 down to tails of
    1e-300. Up to one past the mode the tail is at least ~0.4, and it is one
    minus the integral over [0, x], where quadrature copes with the df = 1
    pole at 0. Beyond, the density at x is factored out of the integral, so
    the integrand ``(1 + s/x)^(df/2 - 1) e^(-s/2)`` is of order one however
    small the tail.
    """
    half = df / 2.0 - 1.0
    log_norm = -(df / 2.0) * math.log(2.0) - math.lgamma(df / 2.0)
    if x <= max(df - 2.0, 0.0) + 1.0:

        def density(u):
            return math.exp(log_norm + half * math.log(u) - u / 2.0)

        value, _ = quad(density, 0.0, x, limit=400, epsabs=0.0, epsrel=1e-13)
        return 1.0 - value

    def shape(s):
        return math.exp(half * math.log1p(s / x) - s / 2.0)

    value, _ = quad(shape, 0.0, np.inf, limit=400, epsabs=0.0, epsrel=1e-13)
    return math.exp(log_norm + half * math.log(x) - x / 2.0) * value


def student_t_two_sided_quadrature(t: float, df: float) -> float:
    """Two-sided Student-t tail by adaptive quadrature of the density."""
    if t == 0.0:
        return 1.0
    log_norm = (
        math.lgamma((df + 1.0) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
    )

    def density(u):
        return math.exp(log_norm - (df + 1.0) / 2.0 * math.log1p(u * u / df))

    value, _ = quad(density, abs(t), np.inf, limit=400, epsabs=1e-14, epsrel=1e-13)
    return 2.0 * value


def normal_two_sided_series(z: float) -> float:
    """Two-sided normal tail via the erf Taylor series (converges for |z| < ~6)."""
    u = abs(z) / math.sqrt(2.0)
    total = 0.0
    term = u
    n = 0
    while abs(term) > 1e-18 * max(1.0, abs(total)):
        total += term / (2 * n + 1)
        n += 1
        term *= -u * u / n
    return 1.0 - 2.0 / math.sqrt(math.pi) * total


def gauss_solve(a, b) -> np.ndarray:
    """Solve a linear system by Gaussian elimination with partial pivoting."""
    a = np.array(a, dtype=np.float64)
    b = np.array(b, dtype=np.float64)
    n = len(b)
    for col in range(n):
        pivot = col + int(np.abs(a[col:, col]).argmax())
        if a[pivot, col] == 0.0:
            raise ZeroDivisionError("singular matrix")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, n):
            factor = a[row, col] / a[col, col]
            a[row, col:] -= factor * a[col, col:]
            b[row] -= factor * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x


def wls_wald_p_values(y, x, w: int) -> np.ndarray:
    """Two-sided Wald p-values of least squares with every row weighted ``w``.

    The textbook route: weighted normal equations by Gaussian elimination,
    the covariance ``mse * (w X'X)^-1``, and scipy's Student t tail.
    """
    y = np.asarray(y, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    n, k = x.shape
    gram = w * (x.T @ x)
    coef = gauss_solve(gram, w * (x.T @ y))
    resid = y - x @ coef
    df = w * n - k
    mse = w * float(resid @ resid) / df
    inverse_diag = np.array([gauss_solve(gram, e)[j] for j, e in enumerate(np.eye(k))])
    t = coef / np.sqrt(mse * inverse_diag)
    return 2.0 * student_t.sf(np.abs(t), df)


def matrix_rank_by_elimination(x, rtol: float = 1e-9) -> int:
    """Column rank via elimination on the Gram matrix (same metric, other route)."""
    g = np.asarray(x, dtype=np.float64)
    g = g.T @ g
    n = g.shape[0]
    scale = max(float(g[i, i]) for i in range(n)) if n else 0.0
    rank = 0
    g = g.copy()
    for col in range(n):
        pivot = col + int(np.abs(np.diag(g)[col:]).argmax())
        if abs(g[pivot, pivot]) <= rtol * scale:
            break
        if pivot != col:
            g[[col, pivot]] = g[[pivot, col]]
            g[:, [col, pivot]] = g[:, [pivot, col]]
        rank += 1
        for row in range(col + 1, n):
            factor = g[row, col] / g[col, col]
            g[row, col:] -= factor * g[col, col:]
            g[col:, row] -= factor * g[col:, col]
    return rank


def _score_loops(start, stop, event, x, beta, w):
    n, p = x.shape
    eta = np.dot(x, beta)
    ll = 0.0
    grad = np.zeros(p)
    hess = np.zeros((p, p))
    s1 = np.zeros(p)
    s2 = np.zeros((p, p))
    for i in range(n):
        if not event[i]:
            continue
        t = stop[i]
        m = -np.inf
        for j in range(n):
            if start[j] < t and t <= stop[j] and eta[j] > m:
                m = eta[j]
        s0 = 0.0
        s1[:] = 0.0
        for j in range(n):
            if start[j] < t and t <= stop[j]:
                rel = np.exp(eta[j] - m)
                s0 += rel
                for a in range(p):
                    s1[a] += rel * x[j, a]
        # a second pass sums about the risk-set mean: S2/S0 - (S1/S0)^2
        # would cancel where the weight sits on records with nearly equal x
        s2[:, :] = 0.0
        for j in range(n):
            if start[j] < t and t <= stop[j]:
                rel = np.exp(eta[j] - m)
                for a in range(p):
                    for b in range(a + 1):
                        s2[a, b] += rel * (x[j, a] - s1[a] / s0) * (x[j, b] - s1[b] / s0)
        ll += w * (eta[i] - (np.log(w * s0) + m))
        for a in range(p):
            grad[a] += w * (x[i, a] - s1[a] / s0)
            for b in range(a + 1):
                hess[a, b] += w * s2[a, b] / s0
    for a in range(p):
        for b in range(a):
            hess[b, a] = hess[a, b]
    return ll, grad, hess


def breslow_loglik_decimal(start, stop, event, x, beta, digits=50):
    """The Breslow log partial likelihood as a ``decimal.Decimal`` of ``digits`` digits.

    The doubles in ``x`` and ``beta`` convert to decimals exactly, so the
    only rounding is the context's, at ``digits`` significant digits. Every
    event record adds its linear predictor minus the log of the summed
    hazards over its own risk set (ties included).
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        x = np.asarray(x, dtype=np.float64)
        beta = [decimal.Decimal(float(b)) for b in beta]
        eta = [sum((decimal.Decimal(float(v)) * b for v, b in zip(row, beta)),
                   decimal.Decimal(0)) for row in x]
        hazard = [e.exp() for e in eta]
        ll = decimal.Decimal(0)
        for i in np.flatnonzero(event):
            t = stop[i]
            s0 = sum((h for h, a, b in zip(hazard, start, stop) if a < t <= b),
                     decimal.Decimal(0))
            ll += eta[i] - s0.ln()
        return +ll


def breslow_lr_decimal(start, stop, event, x, beta) -> float:
    """``2 * (ll(beta) - ll(0))`` from two 50-digit log likelihoods, rounded once to a double."""
    zero = np.zeros(len(beta))
    lr = 2 * (breslow_loglik_decimal(start, stop, event, x, beta)
              - breslow_loglik_decimal(start, stop, event, x, zero))
    return float(lr)


def score_per_event_time(start, stop, event, x, beta):
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
        ll += ev_eta[at_t].sum() - d * (math.log(s0) + m)
        grad += ev_x[at_t].sum(axis=0) - d * xbar
        hess += (d / s0) * ((rel[:, None] * centered).T @ centered)
    return ll, grad, hess


def _check_event_flags_loop(events):
    for i, e in enumerate(events):
        if e not in (0.0, 1.0):
            raise InvalidEventFlag(i + 1, e)


def stset_starts_loop(ids, times, events):
    """Interval starts rebuilt from last-observation times, record by record.

    Each record opens at its subject's previous time in file order (0 for
    its first); the first record whose time does not exceed that raises
    NonIncreasingTime. Event flags are checked first.
    """
    _check_event_flags_loop(events)
    start = np.zeros(len(times))
    last_time = {}
    for i in range(len(times)):
        sid = float(ids[i])
        prev = last_time.get(sid, 0.0)
        if times[i] <= prev:
            raise NonIncreasingTime(sid)
        start[i] = prev
        last_time[sid] = float(times[i])
    return start


def check_intervals_loop(ids, start, stop, events):
    """Validate explicit intervals: flags, then start < stop, then chaining.

    Each stage names the first offending record in file order; a subject's
    record must start where its previous record stopped.
    """
    _check_event_flags_loop(events)
    for i in range(len(stop)):
        if start[i] >= stop[i]:
            raise NonIncreasingTime(float(ids[i]))
    last_stop = {}
    for i in range(len(stop)):
        sid = float(ids[i])
        if sid in last_stop and start[i] != last_stop[sid]:
            raise NonIncreasingTime(sid)
        last_stop[sid] = float(stop[i])
