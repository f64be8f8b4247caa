"""Search for the smallest frequency weight that makes a test significant.

The weight axis is explored with geometric doubling followed by integer
bisection, which needs O(log W) p-value evaluations on a monotone curve.
The bracketing weights (largest still-nonsignificant W0, smallest
significant W1 = W0 + 1) are then refined to a fractional weight on the
paper's line through (W0, p0) and (W1, p1), read at the target from W1:

    w_int = W1 - (target - p1) / (p0 - p1)

Doubling starts at ``lo, hi = 0, 1``. Doubling and bisection keep ``lo``
0 or a weight with p(lo) > target, and p(hi) <= target once doubling stops,
so the bracket straddles the target and the denominator is positive; on a
monotone p-curve W1 is the smallest significant weight. ``compute_nf``'s
``result`` is the one place that decides the record: ``w_int`` is W1 itself
only when there is no W0 or when p1 equals the target, and the line otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

from .data import check_weight
from .errors import EvaluationFailed, InvalidWeight

DEFAULT_MAX_WEIGHT = 1_000_000


@dataclass(frozen=True)
class NfResult:
    """Outcome of a non-significance-factor search.

    ``nf_integer`` is the smallest integer weight whose p-value reaches the
    target; ``w_int`` is the interpolated weight, W1 itself only when there
    is no W0 or when p1 equals the target (``exact_hit``), and ``n_int`` is
    base rows times ``w_int``. ``w0``/``p0`` are None when the test is
    already significant at weight 1. When no weight up to the cap reaches
    the target, every field from ``w0`` to ``exact_hit`` is None. ``best_p``
    is the smallest p-value evaluated and ``trace`` every (weight, p) in order.
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
    target, the result's ``w1`` is None. The cap is at most
    ``data.MAX_WEIGHT``, the largest weight the profiles take.
    """
    if not 0.0 < target < 1.0:
        raise ValueError(f"target significance must lie in (0,1), got {target}")
    try:
        max_weight = int(check_weight(max_weight))
    except InvalidWeight:
        raise ValueError(
            f"max_weight must be an integer from 1 to 2**53, got {max_weight!r}") from None

    # Every evaluation in order; the search never asks for a weight twice.
    trace: dict[int, float] = {}

    def evaluate(w: int) -> float:
        try:
            p = float(p_of_weight(w))
        except Exception as exc:
            raise EvaluationFailed(w, exc) from exc
        if not 0.0 <= p <= 1.0:
            raise EvaluationFailed(w, ValueError(f"p-value {p} outside [0, 1]"))
        trace[w] = p
        return p

    def result(w0=None, w1=None):
        p0, p1 = trace.get(w0), trace.get(w1)
        exact_hit = None if w1 is None else p1 == target
        if w1 is None:
            w_int = None
        elif w0 is None:
            w_int = float(w1)
        else:
            w_int = w1 - (target - p1) / (p0 - p1)
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

    # Geometric doubling from weight 1 until the target is reached or the
    # cap is hit; lo = 0 stands for "no W0".
    lo, hi = 0, 1
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

    return result(lo or None, hi)
