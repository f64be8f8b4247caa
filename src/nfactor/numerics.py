"""Dense symmetric linear algebra and distribution tail probabilities.

This module keeps only what numpy lacks: the Cholesky pivot check that
names the failing pivot, the per-column collinearity rule, and the tails.
The triangular solves and inverses run on ``numpy.linalg``. The tails
follow the classic series / continued-fraction evaluations of the
regularized incomplete gamma and beta functions and are accurate to well
below 1e-12 absolute over the ranges the tests exercise. The Student t
tail, whose degrees of freedom grow with the frequency weight, switches to
an asymptotic expansion for large ``df`` and keeps about 1e-14 relative
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


def _cholesky_lower(a: np.ndarray) -> np.ndarray:
    """Cholesky factor of a symmetric positive definite matrix.

    Only the lower triangle of ``a`` is read. Raises NotPositiveDefinite when
    a leading-minor pivot falls at or below 1e-12 times the largest diagonal
    entry of ``a``.
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    tol = _SPD_PIVOT_RTOL * max((float(a[i, i]) for i in range(n)), default=0.0)
    lower = np.zeros_like(a)
    for j in range(n):
        pivot = a[j, j] - lower[j, :j] @ lower[j, :j]
        if pivot <= tol:
            raise NotPositiveDefinite(j, float(pivot))
        lower[j, j] = math.sqrt(pivot)
        if j + 1 < n:
            lower[j + 1 :, j] = (a[j + 1 :, j] - lower[j + 1 :, :j] @ lower[j, :j]) / lower[j, j]
    return lower


def solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ x = b`` for symmetric positive definite ``a``.

    The lower triangle of ``a`` is authoritative; the upper triangle is never
    read.
    """
    b = np.asarray(b, dtype=np.float64)
    lower = _cholesky_lower(a)
    if lower.shape[0] != len(b):
        raise ValueError("matrix and right-hand side dimensions differ")
    return np.linalg.solve(lower.T, np.linalg.solve(lower, b))


def inverse_spd(a: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix via its Cholesky factor."""
    inverse_lower = np.linalg.inv(_cholesky_lower(a))
    return inverse_lower.T @ inverse_lower


def pivoted_rank_factor(x: np.ndarray) -> tuple[list[int], list[int]]:
    """Split covariate columns into (kept, omitted) by rank of the Gram matrix.

    Columns are visited in order; a column is omitted when its squared
    residual against the span of previously kept columns is at most
    ``COLLINEARITY_RTOL`` times its original squared norm. Earlier columns
    therefore take precedence over later duplicates. A matrix with no
    columns gives ``([], [])``.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("expected a matrix")
    gram = x.T @ x
    p = gram.shape[0]
    kept: list[int] = []
    omitted: list[int] = []
    # Cholesky factor of the kept columns' Gram matrix, in its top-left corner.
    factor = np.zeros((p, p))
    for j in range(p):
        k = len(kept)
        coeffs = np.linalg.solve(factor[:k, :k], gram[kept, j])
        residual = gram[j, j] - coeffs @ coeffs
        if residual <= COLLINEARITY_RTOL * gram[j, j]:
            omitted.append(j)
            continue
        kept.append(j)
        factor[k, :k] = coeffs
        factor[k, k] = math.sqrt(residual)
    return kept, omitted


# ---- regularized incomplete gamma -----------------------------------------

_EPS = 1e-16
_MAX_ITER = 600
_FPMIN = 1e-300


def _gamma_p_series(a: float, x: float) -> float:
    """Lower regularized gamma P(a, x) by its power series; needs x < a + 1."""
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))

def _gamma_q_contfrac(a: float, x: float) -> float:
    """Upper regularized gamma Q(a, x) by modified Lentz continued fraction."""
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma function Q(a, x) for a > 0, x >= 0."""
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_p_series(a, x)
    return _gamma_q_contfrac(a, x)


def chi2_sf(x: float, df: int) -> float:
    """Upper tail P(X >= x) of the chi-square distribution with ``df`` degrees."""
    if df < 1:
        raise DomainError(f"degrees of freedom must be >= 1, got {df}")
    if not x >= 0:
        raise DomainError(f"chi-square statistic must be nonnegative, got {x}")
    if x == math.inf:
        return 0.0
    return _gamma_q(df / 2.0, x / 2.0)


# ---- regularized incomplete beta -------------------------------------------


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


def _beta_inc_large_a(a: float, b: float, x: float, y: float) -> float:
    """I_x(a, b) for a >= 15, b <= 1 and x >= 1/2.

    The asymptotic expansion in incomplete gamma functions of DiDonato and
    Morris (ACM TOMS 708, 1992, eq. 9; their BGRAT). Every term is formed
    without cancellation, so the relative error stays near machine precision
    however large ``a`` is; the continued fraction loses about ``a`` ulps as
    x approaches 1.
    """
    bm1 = b - 1.0
    nu = a + bm1 / 2.0
    log_x = math.log1p(-y) if y < 0.35 else math.log(x)
    u = -nu * log_x
    # h = u^b e^-u / Gamma(b); k_n = h * J_n of the reference.
    h = math.exp(b * math.log(u) - u - math.lgamma(b))
    scale = math.exp(_log_gamma_ratio(a, b) - b * math.log(nu))
    k = _gamma_q(b, u)
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


def _beta_inc(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and 0 <= x <= 1.

    Takes both ``x`` and ``y = 1 - x``, each to full precision.
    """
    if x == 0.0:
        return 0.0
    if y == 0.0:
        return 1.0
    if b <= 1.0 and a >= _GRAT_MIN_A and x >= 0.5:
        return _beta_inc_large_a(a, b, x, y)
    log_x = math.log1p(-y) if y < 0.5 else math.log(x)
    log_y = math.log1p(-x) if x < 0.5 else math.log(y)
    if a >= b:
        log_beta = math.lgamma(b) - _log_gamma_ratio(a, b)
    else:
        log_beta = math.lgamma(a) - _log_gamma_ratio(b, a)
    front = math.exp(a * log_x + b * log_y - log_beta)
    # The continued fraction converges fast on the side where x is below the
    # distribution mean; use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) otherwise.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_contfrac(a, b, x) / a
    return 1.0 - front * _beta_contfrac(b, a, y) / b


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
    return _beta_inc(df / 2.0, 0.5, df / (df + t2), t2 / (df + t2))


def normal_two_sided(z: float) -> float:
    """Two-sided tail 2 * (1 - Phi(|z|)) of the standard normal distribution."""
    return math.erfc(abs(z) / math.sqrt(2.0))
