"""Search for the smallest frequency weight that makes a test significant.

The weight axis is explored with geometric doubling followed by integer
bisection, which needs O(log W) p-value evaluations on a monotone curve.
The bracketing weights (largest still-nonsignificant W0, smallest
significant W1 = W0 + 1) are then refined to a fractional weight by linear
interpolation of the p-values:

    w_int = (W0 * (target - p1) + W1 * (p0 - target)) / (p0 - p1)

Doubling and bisection keep p(lo) > target >= p(hi) at every step, so the
bracket always straddles the target; on a monotone p-curve W1 is the
smallest significant weight.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateBracket, EvaluationFailed, UnreachableSignificance

EXACT_HIT_TOL = 1e-12

DEFAULT_MAX_WEIGHT = 1_000_000


@dataclass(frozen=True)
class NfResult:
    """Outcome of a non-significance-factor search.

    ``nf_integer`` is the smallest integer weight whose p-value reaches the
    target; ``w_int`` the interpolated fractional weight and ``n_int`` the
    implied sample size (base rows times ``w_int``). ``w0``/``p0`` are None
    when the test is already significant at weight 1 and no bracket exists.
    ``trace`` lists every (weight, p) evaluation in order.
    """

    target_alpha: float
    p_at_1: float
    w0: int | None
    p0: float | None
    w1: int
    p1: float
    w_int: float
    n_int: float
    nf_integer: int
    trace: tuple[tuple[int, float], ...]
    exact_hit: bool


def interpolate(w0: int, p0: float, w1: int, p1: float, target: float) -> float:
    """Linearly interpolated fractional weight where the p-curve crosses ``target``."""
    if p0 == p1:
        raise DegenerateBracket(f"p-values at both bracket weights equal {p0}")
    if p0 < p1:
        raise ValueError(f"bracket p-values must decrease: p0={p0} < p1={p1}")
    if not (p0 >= target >= p1):
        raise ValueError(f"target {target} not inside bracket [{p1}, {p0}]")
    return (w0 * (target - p1) + w1 * (p0 - target)) / (p0 - p1)


class _Evaluator:
    """Caches p-value evaluations by weight and records them in call order."""

    def __init__(self, p_of_weight):
        self._fn = p_of_weight
        self._cache: dict[int, float] = {}
        self.trace: list[tuple[int, float]] = []

    def __call__(self, w: int) -> float:
        if w not in self._cache:
            try:
                p = float(self._fn(w))
            except Exception as exc:
                raise EvaluationFailed(w, exc) from exc
            if not 0.0 <= p <= 1.0:
                raise EvaluationFailed(w, ValueError(f"p-value {p} outside [0, 1]"))
            self._cache[w] = p
            self.trace.append((w, p))
        return self._cache[w]

    @property
    def best_p(self) -> float:
        return min(p for _, p in self.trace)


def compute_nf(
    p_of_weight,
    base_n: int,
    target: float,
    max_weight: int = DEFAULT_MAX_WEIGHT,
) -> NfResult:
    """Find the bracketing integer weights around ``target`` and interpolate.

    ``p_of_weight`` must deterministically map a positive integer weight to
    the test's p-value. Raises UnreachableSignificance when no weight up to
    ``max_weight`` reaches the target.
    """
    if not 0.0 < target < 1.0:
        raise ValueError(f"target significance must lie in (0,1), got {target}")
    if max_weight < 1:
        raise ValueError(f"max_weight must be at least 1, got {max_weight}")

    evaluate = _Evaluator(p_of_weight)

    def result(w0, p0, w1, p1, w_int):
        return NfResult(
            target_alpha=target,
            p_at_1=evaluate(1),
            w0=w0,
            p0=p0,
            w1=w1,
            p1=p1,
            w_int=w_int,
            n_int=base_n * w_int,
            nf_integer=w1,
            trace=tuple(evaluate.trace),
            exact_hit=abs(p1 - target) <= EXACT_HIT_TOL,
        )

    p_first = evaluate(1)
    if p_first <= target:
        return result(None, None, 1, p_first, 1.0)

    # Geometric doubling until the target is reached or the cap is hit.
    lo, hi = 1, None
    w = 1
    while w < max_weight:
        w = min(2 * w, max_weight)
        if evaluate(w) <= target:
            hi = w
            break
        lo = w
    if hi is None:
        raise UnreachableSignificance(max_weight, evaluate.best_p, evaluate.trace)

    # Integer bisection for the smallest significant weight in (lo, hi].
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if evaluate(mid) <= target:
            hi = mid
        else:
            lo = mid

    w1, w0 = hi, hi - 1
    p1 = evaluate(w1)
    p0 = evaluate(w0)
    if abs(p1 - target) <= EXACT_HIT_TOL:
        return result(w0, p0, w1, p1, float(w1))
    return result(w0, p0, w1, p1, interpolate(w0, p0, w1, p1, target))
