"""Dense symmetric linear algebra and distribution tail probabilities.

This module keeps only what numpy lacks. One pivoting Cholesky serves both
the solves and the collinearity rule: it judges each pivot against its own
diagonal entry, so neither sees the units of a column. The solves raise
NotPositiveDefinite, naming the first pivot it skips at ``rtol`` 1e-12; the
collinearity rule omits the columns it skips at ``COLLINEARITY_RTOL``. The
triangular solves and inverses run on ``numpy.linalg``.

The chi-square tail is the upper regularized gamma at a half-integer shape,
in closed form: ``erfc`` or ``exp`` plus a sum of positive terms, about
1e-13 relative down to tails of 1e-300. The Student t tail follows the
continued fraction of the regularized incomplete beta function and, since
its degrees of freedom grow with the frequency weight, switches to an
asymptotic expansion for large ``df``; it keeps about 1e-14 relative
accuracy up to ``df`` of 10^10.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NotPositiveDefinite

# Relative pivot threshold for declaring a covariate collinear: generous
# enough to catch an all-zero or duplicated column, far below anything a
# merely ill-scaled but identifiable column produces.
COLLINEARITY_RTOL = 1e-9

_SPD_PIVOT_RTOL = 1e-12


def _pivoting_cholesky(a: np.ndarray, rtol: float) -> tuple[np.ndarray, list[tuple[int, float]]]:
    """Lower Cholesky factor of symmetric ``a`` that skips dependent rows.

    Only the lower triangle of ``a`` is read. Row ``j`` is skipped when its
    pivot, ``a[j, j]`` less what the earlier kept rows explain of it, is at
    most ``rtol * a[j, j]``: each pivot is judged against its own diagonal
    entry, so rescaling a row and column of ``a`` does not change the rule.
    A skipped row takes no part in the later rows. Returns the factor, whose
    rows and columns at kept indices form the Cholesky factor of the kept
    block, and the skipped ``(index, pivot)`` pairs in order.
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    lower = np.zeros_like(a)
    skipped = []
    for j in range(n):
        pivot = a[j, j] - lower[j, :j] @ lower[j, :j]
        # a nan pivot is skipped too
        if not pivot > rtol * a[j, j]:
            skipped.append((j, float(pivot)))
            continue
        lower[j, j] = math.sqrt(pivot)
        lower[j + 1 :, j] = (a[j + 1 :, j] - lower[j + 1 :, :j] @ lower[j, :j]) / lower[j, j]
    return lower, skipped


def _cholesky_spd(a: np.ndarray) -> np.ndarray:
    """Cholesky factor of ``a``; NotPositiveDefinite names the first skipped row."""
    lower, skipped = _pivoting_cholesky(a, _SPD_PIVOT_RTOL)
    if skipped:
        raise NotPositiveDefinite(*skipped[0])
    return lower


def solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ x = b`` for symmetric positive definite ``a``.

    The lower triangle of ``a`` is authoritative; the upper triangle is never
    read. Raises NotPositiveDefinite at the first pivot at or below 1e-12
    times its own diagonal entry.
    """
    b = np.asarray(b, dtype=np.float64)
    lower = _cholesky_spd(a)
    if lower.shape[0] != len(b):
        raise ValueError("matrix and right-hand side dimensions differ")
    return np.linalg.solve(lower.T, np.linalg.solve(lower, b))


def inverse_spd(a: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix via its Cholesky factor."""
    inverse_lower = np.linalg.inv(_cholesky_spd(a))
    return inverse_lower.T @ inverse_lower


def pivoted_rank_factor(a: np.ndarray) -> tuple[list[int], list[int]]:
    """Split the columns behind a symmetric information matrix into (kept, omitted).

    ``a`` is a Gram matrix ``X'X`` or a Cox information matrix; only its
    lower triangle is read. Columns are visited in order; a column is
    omitted when its pivot, what the previously kept columns leave of its
    diagonal entry, is at most ``COLLINEARITY_RTOL`` times that entry. So a
    zero diagonal entry is omitted, and earlier columns take precedence over
    later duplicates. A 0 x 0 matrix gives ``([], [])``.
    """
    _, skipped = _pivoting_cholesky(a, COLLINEARITY_RTOL)
    omitted = [j for j, _ in skipped]
    return [j for j in range(len(a)) if j not in omitted], omitted


def scale_exponent(a: np.ndarray) -> np.ndarray:
    """Per column of ``a`` (of a 1-d ``a``), the e with 2**e <= max |value| < 2**(e+1), or -1.

    The exact ``np.ldexp(a, -e)`` puts each largest |value| in [1, 2), where
    squares and means stay inside the double range whatever the units.
    """
    return np.frexp(np.abs(a).max(axis=0))[1] - 1


# ---- chi-square tail ----------------------------------------------------------


def chi2_sf(x: float, df: int) -> float:
    """Upper tail P(X >= x) of the chi-square distribution with ``df`` degrees.

    This is the upper regularized gamma Q(a, u) at u = x/2 and the
    half-integer shape a = df/2, in closed form: it starts from
    ``Q(1/2, u) = erfc(sqrt(u))`` or ``Q(1, u) = exp(-u)`` and climbs
    ``Q(a + 1, u) = Q(a, u) + u^a e^-u / Gamma(a + 1)``. Every term is
    positive, so nothing cancels, and each is formed by one ``exp``: no
    running product underflows on the way to a term that does not. The cost
    is about df/2 terms. At small x the rounded sum can pass 1 by an ulp; a
    probability, it is clamped there.
    """
    if not (df >= 1 and float(df).is_integer()):
        raise DomainError(f"degrees of freedom must be an integer >= 1, got {df}")
    if not x >= 0:
        raise DomainError(f"chi-square statistic must be nonnegative, got {x}")
    if x == math.inf:
        return 0.0
    u = x / 2.0
    if u == 0.0:
        return 1.0
    odd = int(df) % 2
    q = math.erfc(math.sqrt(u)) if odd else math.exp(-u)
    log_u = math.log(u)
    for i in range((int(df) - 1) // 2):
        a = i + (0.5 if odd else 1.0)
        q += math.exp(a * log_u - u - math.lgamma(a + 1.0))
    return min(q, 1.0)


# ---- regularized incomplete beta -------------------------------------------

_EPS = 1e-16
_MAX_ITER = 600
_FPMIN = 1e-300


def _beta_contfrac(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h


# Coefficients B_2k / (2k (2k - 1)) of Stirling's series for log Gamma.
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0)
# Above this argument the truncated series is exact to double precision.
_STIRLING_MIN = 15.0
# Domain and length of the large-a expansion in _beta_inc_large_a.
_GRAT_MIN_A = 15.0
_GRAT_TERMS = 30


def _stirling_tail(z: float) -> float:
    """log Gamma(z) minus its leading terms (z - 1/2) log z - z + log(2 pi) / 2."""
    inv2 = 1.0 / (z * z)
    total = 0.0
    for coef in reversed(_STIRLING):
        total = total * inv2 + coef
    return total / z


def _log_gamma_ratio(a: float, b: float) -> float:
    """log(Gamma(a + b) / Gamma(a)) for b > 0.

    For large ``a`` the difference of two lgamma values near ``a log a``
    cancels; the Stirling form keeps only terms of the size of the result.
    """
    if a < _STIRLING_MIN:
        return math.lgamma(a + b) - math.lgamma(a)
    return (
        b * math.log(a)
        + (a + b - 0.5) * math.log1p(b / a)
        - b
        + (_stirling_tail(a + b) - _stirling_tail(a))
    )


# (2m + 1)! for the coefficients of the large-a expansion below.
_ODD_FACTORIALS = tuple(float(math.factorial(2 * m + 1)) for m in range(_GRAT_TERMS))


def _beta_inc_large_a(a: float, x: float, y: float) -> float:
    """I_x(a, 1/2) for a >= 15 and x >= 1/2.

    The asymptotic expansion in incomplete gamma functions of DiDonato and
    Morris (ACM TOMS 708, 1992, eq. 9; their BGRAT). Every term is formed
    without cancellation, so the relative error stays near machine precision
    however large ``a`` is; the continued fraction loses about ``a`` ulps as
    x approaches 1.
    """
    b = 0.5
    bm1 = b - 1.0
    nu = a + bm1 / 2.0
    log_x = math.log1p(-y) if y < 0.35 else math.log(x)
    u = -nu * log_x
    # h = u^b e^-u / Gamma(b); k_n = h * J_n of the reference.
    h = math.exp(b * math.log(u) - u - math.lgamma(b))
    scale = math.exp(_log_gamma_ratio(a, b) - b * math.log(nu))
    k = math.erfc(math.sqrt(u))  # Q(1/2, u)
    total = k
    p = [1.0]
    half_log_x_sq = (log_x / 2.0) ** 2
    power = h
    four_nu_sq = 4.0 * nu * nu
    b2n = b
    for n in range(1, _GRAT_TERMS):
        pn = bm1 / _ODD_FACTORIALS[n]
        pn += sum((m * b - n) * p[n - m] / _ODD_FACTORIALS[m] for m in range(1, n)) / n
        p.append(pn)
        k = (b2n * (b2n + 1.0) * k + (u + b2n + 1.0) * power) / four_nu_sq
        power *= half_log_x_sq
        b2n += 2.0
        term = pn * k
        total += term
        if abs(term) <= _EPS * abs(total):
            break
    return scale * total


def _beta_inc(a: float, x: float, y: float) -> float:
    """Regularized incomplete beta I_x(a, 1/2) for a > 0 and 0 <= x <= 1.

    Takes both ``x`` and ``y = 1 - x``, each to full precision.
    """
    if x == 0.0:
        return 0.0
    if y == 0.0:
        return 1.0
    if a >= _GRAT_MIN_A and x >= 0.5:
        return _beta_inc_large_a(a, x, y)
    log_x = math.log1p(-y) if y < 0.5 else math.log(x)
    log_y = math.log1p(-x) if x < 0.5 else math.log(y)
    # log B(a, 1/2), for every a > 0
    log_beta = math.lgamma(0.5) - _log_gamma_ratio(a, 0.5)
    front = math.exp(a * log_x + 0.5 * log_y - log_beta)
    # The continued fraction converges fast on the side where x is below the
    # distribution mean; use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) otherwise.
    if x < (a + 1.0) / (a + 2.5):
        return front * _beta_contfrac(a, 0.5, x) / a
    return 1.0 - front * _beta_contfrac(0.5, a, y) / 0.5


def student_t_two_sided(t: float, df: float) -> float:
    """Two-sided tail P(|T| >= |t|) of Student's t with ``df`` degrees of freedom."""
    if not 0 < df < math.inf:
        raise DomainError(f"degrees of freedom must be positive and finite, got {df}")
    if math.isnan(t):
        raise DomainError("t statistic is nan")
    if t == 0.0:
        return 1.0
    if math.isinf(t):
        return 0.0
    # Form x = df / (df + t^2) and its complement separately: at large df,
    # 1 - x recomputed from a rounded x has lost most of its digits.
    t2 = t * t
    return _beta_inc(df / 2.0, df / (df + t2), t2 / (df + t2))


def normal_two_sided(z: float) -> float:
    """Two-sided tail 2 * (1 - Phi(|z|)) of the standard normal distribution."""
    return math.erfc(abs(z) / math.sqrt(2.0))
