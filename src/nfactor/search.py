"""Search for the smallest frequency weight that makes a test significant.

The weight axis is explored with geometric doubling followed by integer
bisection, which needs O(log W) p-value evaluations on a monotone curve.
The bracketing weights (largest still-nonsignificant W0, smallest
significant W1 = W0 + 1) are then refined to a fractional weight by linear
interpolation of the p-values:

    w_int = (W0 * (target - p1) + W1 * (p0 - target)) / (p0 - p1)

Doubling and bisection keep p(lo) > target >= p(hi) at every step, so the
bracket always straddles the target and the denominator is positive; on a
monotone p-curve W1 is the smallest significant weight. ``compute_nf``'s
``result`` is the one place that decides the record: ``w_int`` is W1 itself
when there is no W0 or when p1 hits the target, and the formula otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

from .errors import EvaluationFailed

EXACT_HIT_TOL = 1e-12

DEFAULT_MAX_WEIGHT = 1_000_000


@dataclass(frozen=True)
class NfResult:
    """Outcome of a non-significance-factor search.

    ``nf_integer`` is the smallest integer weight whose p-value reaches the
    target; ``w_int`` the interpolated fractional weight and ``n_int`` the
    implied sample size (base rows times ``w_int``). ``w0``/``p0`` are None
    when the test is already significant at weight 1 and no bracket exists.
    When no weight up to the cap reaches the target, every field from ``w0``
    to ``exact_hit`` is None. ``best_p`` is the smallest p-value evaluated
    and ``trace`` lists every (weight, p) evaluation in order.
    """

    target_alpha: float
    p_at_1: float
    w0: int | None
    p0: float | None
    w1: int | None
    p1: float | None
    w_int: float | None
    n_int: float | None
    nf_integer: int | None
    trace: tuple[tuple[int, float], ...]
    exact_hit: bool | None
    best_p: float


def compute_nf(
    p_of_weight,
    base_n: int,
    target: float,
    max_weight: int = DEFAULT_MAX_WEIGHT,
) -> NfResult:
    """Find the bracketing integer weights around ``target`` and interpolate.

    ``p_of_weight`` must deterministically map a positive integer weight to
    the test's p-value. When no weight up to ``max_weight`` reaches the
    target, the result's ``w1`` is None.
    """
    if not 0.0 < target < 1.0:
        raise ValueError(f"target significance must lie in (0,1), got {target}")
    if isinstance(max_weight, bool) or not isinstance(max_weight, Integral) or max_weight < 1:
        raise ValueError(f"max_weight must be an integer of at least 1, got {max_weight!r}")
    max_weight = int(max_weight)

    # Insertion-ordered: both the cache of evaluations and their trace.
    trace: dict[int, float] = {}

    def evaluate(w: int) -> float:
        if w not in trace:
            try:
                p = float(p_of_weight(w))
            except Exception as exc:
                raise EvaluationFailed(w, exc) from exc
            if not 0.0 <= p <= 1.0:
                raise EvaluationFailed(w, ValueError(f"p-value {p} outside [0, 1]"))
            trace[w] = p
        return trace[w]

    def result(w0=None, w1=None):
        p0, p1 = trace.get(w0), trace.get(w1)
        exact_hit = None if w1 is None else abs(p1 - target) <= EXACT_HIT_TOL
        if w1 is None:
            w_int = None
        elif w0 is None or exact_hit:
            w_int = float(w1)
        else:
            w_int = (w0 * (target - p1) + w1 * (p0 - target)) / (p0 - p1)
        return NfResult(
            target_alpha=target,
            p_at_1=trace[1],
            w0=w0,
            p0=p0,
            w1=w1,
            p1=p1,
            w_int=w_int,
            n_int=None if w_int is None else base_n * w_int,
            nf_integer=w1,
            trace=tuple(trace.items()),
            exact_hit=exact_hit,
            best_p=min(trace.values()),
        )

    if evaluate(1) <= target:
        return result(w1=1)

    # Geometric doubling until the target is reached or the cap is hit.
    lo = hi = 1
    while evaluate(hi) > target:
        if hi == max_weight:
            return result()
        lo, hi = hi, min(2 * hi, max_weight)

    # Integer bisection for the smallest significant weight in (lo, hi].
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if evaluate(mid) <= target:
            hi = mid
        else:
            lo = mid

    return result(lo, hi)
