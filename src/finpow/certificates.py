"""A-priori error certificates for truncated power elements.

The truncation error of one matrix element of a real power is bounded by the
tail of the series ``2 w**alpha * sum_{j >= j_pq} |C(alpha, j)| x**j`` with
``x = (w - c) / w`` (half of it, one tail, for the driver's matrix-free
sweep, whose depth ``required_depth`` finds).  The full sum has closed forms;
the tail is computed as full sum minus partial sum, with a direct-summation
fallback guarding against cancellation, except where the tail itself has a
closed form (``alpha = -1``, and ``c = 0`` past ``alpha``).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .core import SpectralEnvelope, Window
from .errors import DivergentSeriesError, DomainError, NumericalFailureError
from .powers import binomial_coefficients
from .series import TruncationDepth

# Direct tail summation stops once a term drops below this fraction of the
# running total; the chunked loop gives up (and reports failure) beyond
# MAX_TAIL_TERMS terms.  The closed-form sums of a positive alpha take O(alpha)
# terms, so alpha is capped at MAX_TAIL_TERMS too.
TAIL_TERM_CUTOFF = 1e-18
CANCELLATION_GUARD = 1e-6
MAX_TAIL_TERMS = 10_000_000
_CHUNK = 65_536
_LOG_DBL_MAX = float(np.log(np.finfo(np.float64).max))
_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class Certificate:
    """A truncated power element together with its a-priori error bound.

    Under the spectral premises of the envelope, the unknown infinite-matrix
    element differs from ``value`` by strictly less than ``bound``, apart
    from round-off: the bound covers the truncation error only, not the
    floating-point error of computing ``value``.
    """

    value: complex
    window: Window
    depth: TruncationDepth
    bound: float
    envelope_used: SpectralEnvelope
    alpha: float

    def to_record(self) -> dict:
        """Serializable record of the certificate."""
        return {
            "value": [self.value.real, self.value.imag],
            "bound": self.bound,
            "j_pq": self.depth.j_pq,
            "P": self.window.P,
            "Q": self.window.Q,
            "alpha": self.alpha,
            "c": self.envelope_used.c,
            "w": self.envelope_used.w,
        }

    def to_json(self) -> str:
        """JSON record with floats printed to 17 significant digits."""
        record = self.to_record()
        parts = []
        for key, val in record.items():
            if isinstance(val, list):
                body = ", ".join(format(float(x), ".17g") for x in val)
                parts.append(f'"{key}": [{body}]')
            elif isinstance(val, int):
                parts.append(f'"{key}": {val}')
            else:
                parts.append(f'"{key}": {format(float(val), ".17g")}')
        return "{" + ", ".join(parts) + "}"


def _is_nonneg_integer(alpha: float) -> bool:
    return alpha >= 0.0 and float(alpha) == int(alpha)


def full_series_sum(alpha: float, c: float, w: float) -> float:
    """Closed form of ``sum_{j>=0} |C(alpha, j)| ((w - c)/w)**j``.

    Negative ``alpha`` (requires c > 0) sums to ``(c/w)**alpha``.  Positive
    non-integer ``alpha`` sums to a short alternating-sign finite sum plus a
    ``(c/w)**alpha`` remainder.  Nonnegative integer ``alpha`` is a finite sum
    evaluated directly.  This is the premise check of every bound; the driver
    runs it before it plans any window.

    Raises
    ------
    DivergentSeriesError
        ``alpha < 0`` with ``c = 0``.
    DomainError
        ``alpha`` not finite, or ``c > w``, ``c < 0`` or ``w <= 0``.
    NumericalFailureError
        ``alpha`` above ``MAX_TAIL_TERMS``, or the largest bound, ``2 w**alpha``
        times this sum, is not a finite float.
    """
    if not math.isfinite(alpha):
        raise DomainError(f"alpha must be finite, got {alpha}")
    if not (w > 0.0) or not math.isfinite(w):
        raise DomainError(f"series shift w must be positive and finite, got {w}")
    if c < 0.0 or not math.isfinite(c):
        raise DomainError(f"lower spectral bound c must be >= 0, got {c}")
    if c > w:
        raise DomainError(f"lower bound c={c} exceeds the shift w={w}")
    if c == 0.0 and alpha < 0.0:
        raise DivergentSeriesError(
            f"the bounding series diverges for alpha={alpha} < 0 with c = 0"
        )
    if alpha > MAX_TAIL_TERMS:
        raise NumericalFailureError(
            f"alpha={alpha} needs more than {MAX_TAIL_TERMS} series terms"
        )
    x = (w - c) / w
    try:
        # For alpha > 0 the sum is at least (1 + x)**floor(alpha).  When
        # that puts the sum, or the largest bound, a factor e or more past
        # the float range, the sums below would overflow: take the overflow
        # exit now, without their O(alpha) work.
        if alpha > 0.0 and (
            math.floor(alpha) * math.log1p(x) + max(0.0, math.log(2.0) + alpha * math.log(w))
            > _LOG_DBL_MAX + 1.0
        ):
            raise OverflowError
        with np.errstate(over="ignore", invalid="ignore"):
            if alpha < 0.0:
                total = (c / w) ** alpha
            elif _is_nonneg_integer(alpha):
                # the series terminates: C(alpha, j) = 0 exactly for j > alpha
                total = _partial_abs_sum(alpha, x, int(alpha) + 1)
            else:
                fl = int(math.floor(alpha))
                coeffs = binomial_coefficients(alpha, fl + 2)
                total = 0.0
                sign = -1.0 if fl % 2 else 1.0
                for j in range(fl + 2):
                    total += coeffs[j] * (x ** j + sign * (-x) ** j)
                total += -sign * (c / w) ** alpha
            largest_bound = 2.0 * w ** alpha * total
    except OverflowError:
        largest_bound = math.inf
    if not math.isfinite(largest_bound):
        raise NumericalFailureError(
            f"the bound 2 w**alpha sum |C(alpha, j)| x**j overflows for "
            f"alpha={alpha}, c={c}, w={w}"
        )
    return total


def _abs_terms(alpha: float, x: float, j: int, term: float, count: int):
    """``count`` terms ``|C(alpha, i)| x**i`` from ``i = j``, the first being
    ``term``, by the ratio recurrence; and the term after them."""
    idx = np.arange(j, j + count, dtype=np.float64)
    ratios = np.empty(count)
    ratios[0] = 1.0
    ratios[1:] = np.abs(alpha - idx[:-1]) * x / (idx[:-1] + 1.0)
    terms = term * np.cumprod(ratios)
    after = float(terms[-1]) * abs(alpha - (j + count - 1)) * x / (j + count)
    return terms, after


def _partial_abs_sum(alpha: float, x: float, j_count: int) -> float:
    """``sum_{j < j_count} |C(alpha, j)| x**j`` by the stable recurrence."""
    total = 0.0
    term = 1.0
    j = 0
    while j < j_count:
        block = min(_CHUNK, j_count - j)
        terms, term = _abs_terms(alpha, x, j, term, block)
        total += float(terms.sum())
        j += block
        if term == 0.0:
            break
    return total


def _first_chunk(x: float) -> int:
    """Length of the first summation chunk at decay rate ``x``.

    Far out the term ratio tends to ``x``.  After ``n`` terms with
    ``x**n = TAIL_TERM_CUTOFF * (1 - x)``, the last term and the geometric
    remainder it leaves, ``x / (1 - x)`` times it, are both about
    ``TAIL_TERM_CUTOFF`` of the first.
    """
    if x <= 0.0:
        return 1
    if x >= 1.0:
        return _CHUNK
    terms = math.log(TAIL_TERM_CUTOFF * (1.0 - x)) / math.log(x)
    return min(_CHUNK, max(1, math.ceil(terms)))


def _direct_tail_sum(alpha: float, x: float, j_start: int) -> float:
    """``sum_{j >= j_start} |C(alpha, j)| x**j`` summed term by term.

    Chunks start at the length the decay rate ``x`` calls for and double up
    to ``_CHUNK`` while the terms have not yet fallen below the cutoff.  At
    ``x = 1`` with ``alpha > 0`` the terms decay only like a power of ``j``;
    there the sum stops after ``MAX_TAIL_TERMS`` terms and bounds the rest
    from the term ``t_K`` it stopped at: for ``k > alpha`` the term ratio
    ``1 - (alpha + 1)/(k + 1)`` is at most ``((k + 1)/(k + 2))**(alpha + 1)``,
    so the rest is at most ``t_K (1 + (K + 1)/alpha)``.
    """
    # Leading term |C(alpha, j_start)| x**j_start, built without cancellation.
    term = 1.0
    for i in range(1, j_start + 1):
        term *= abs(alpha - (i - 1)) * x / i
        if term == 0.0:
            return 0.0
    total = 0.0
    j = j_start
    chunk = _first_chunk(x)
    while j - j_start < MAX_TAIL_TERMS:
        terms, term = _abs_terms(alpha, x, j, term, chunk)
        total += float(terms.sum())
        if float(terms[-1]) <= TAIL_TERM_CUTOFF * total:
            return total
        j += chunk
        chunk = min(2 * chunk, _CHUNK)
    if x == 1.0 and alpha > 0.0:
        return total + term * (1.0 + (j + 1) / alpha)
    raise NumericalFailureError(
        f"direct tail summation for alpha={alpha}, x={x} did not converge "
        f"within {MAX_TAIL_TERMS} terms"
    )


def _abs_binomial(a: float, j: int) -> float:
    """``|C(a, j)|`` by the ratio recurrence of ``_abs_terms``, in chunks."""
    term = 1.0
    i = 0
    while i < j and term != 0.0:
        block = min(_CHUNK, j - i)
        _, term = _abs_terms(a, 1.0, i, term, block)
        i += block
    return term


def _tail(alpha: float, x: float, full: float, j_start: int) -> float:
    """The tail sum of ``tail_bound``, given the full sum ``full``."""
    if _is_nonneg_integer(alpha) and j_start > int(alpha):
        return 0.0
    if x == 1.0 and alpha > 0.0 and j_start > math.floor(alpha):
        # Past alpha the terms (-1)**j C(alpha, j) keep one sign, and all of
        # them sum to (1 - 1)**alpha = 0, so the tail is
        # |sum_{j < j_start} (-1)**j C(alpha, j)| = |C(alpha - 1, j_start - 1)|.
        # Each step of its recurrence rounds at most four times; the factor
        # keeps the float an upper bound on the exact tail.
        return _abs_binomial(alpha - 1.0, j_start - 1) * (1.0 + 4.0 * j_start * _EPS)
    if alpha == -1.0 and x < 1.0 and j_start > 0:
        # |C(-1, j)| = 1: the geometric tail (from depth 0 it is ``full``).
        # The power, the difference, the quotient and the product each round
        # once; the factor keeps the float an upper bound on the exact tail.
        return x ** j_start / (1.0 - x) * (1.0 + 4.0 * _EPS)
    tail = full - _partial_abs_sum(alpha, x, j_start)
    if tail < CANCELLATION_GUARD * full:
        tail = _direct_tail_sum(alpha, x, j_start)
    return tail


def tail_bound(alpha: float, c: float, w: float, j_start: int) -> float:
    """Error bound ``2 w**alpha * sum_{j >= j_start} |C(alpha, j)| x**j``.

    Computed as full closed-form sum minus the partial sum of the leading
    ``j_start`` terms; when that difference cancels to below a 1e-6 relative
    guard, the tail is re-summed directly until terms fall below 1e-18 of the
    running total.  At ``x = 1`` (``c = 0``) past ``alpha > 0`` the tail is
    the closed form ``|C(alpha - 1, j_start - 1)|``, and at ``alpha = -1``
    the geometric ``x**j_start / (1 - x)``.  The bound is finite or the call
    raises.

    Raises
    ------
    DomainError
        As ``full_series_sum`` (``DivergentSeriesError`` included), or
        ``j_start < 0``.
    NumericalFailureError
        As ``full_series_sum``, or the direct tail sum did not converge
        within ``MAX_TAIL_TERMS`` terms.
    """
    full = full_series_sum(alpha, c, w)
    if j_start < 0:
        raise DomainError(f"j_start must be >= 0, got {j_start}")
    return 2.0 * w ** alpha * _tail(alpha, (w - c) / w, full, j_start)


def required_depth(
    alpha: float,
    envelope: SpectralEnvelope,
    full: float,
    tol: float,
    weight: float,
    max_dim: int,
) -> tuple[int, float]:
    """Smallest depth ``1 <= J <= max_dim`` whose one-tail bound
    ``weight * w**alpha * sum_{j>=J} |C(alpha, j)| x**j`` meets ``tol`` in
    float, and that bound; ``(max_dim + 1, inf)`` when no such depth does.

    The bound is ``weight`` times half of ``tail_bound``, in its arithmetic;
    ``full`` is the ``full_series_sum`` the caller's premise check returned.
    ``J`` doubles, then bisects; the tail falls with ``J``, so every deeper
    bound meets ``tol`` too.
    """
    x = (envelope.w - envelope.c) / envelope.w
    scale = 2.0 * envelope.w ** alpha
    bounds: dict[int, float] = {}

    def meets(j: int) -> bool:
        if j not in bounds:
            bounds[j] = weight * (scale * _tail(alpha, x, full, j) / 2.0)
        return bounds[j] <= tol

    hi = 1
    while hi < max_dim and not meets(hi):
        hi *= 2
    lo, hi = hi // 2 + 1, min(hi, max_dim)
    depth = lo + bisect_left(range(lo, hi + 1), True, key=meets)
    return (depth, bounds[depth]) if depth <= max_dim else (max_dim + 1, math.inf)


def certify(
    value: complex,
    alpha: float,
    envelope: SpectralEnvelope,
    depth: TruncationDepth,
) -> Certificate:
    """Package an approximate element with its a-priori tail bound.

    The depth must have been computed for the same window that produced the
    value.  A saturated depth (support closed inside the window) certifies
    the element exactly, with bound zero.
    """
    return Certificate(
        value=complex(value),
        window=depth.window,
        depth=depth,
        bound=0.0 if depth.saturated else tail_bound(alpha, envelope.c, envelope.w, depth.j_pq),
        envelope_used=envelope,
        alpha=alpha,
    )
