"""A-priori error certificates for truncated power elements.

The truncation error of one matrix element of a real power is bounded by the
tail of the series ``2 w**alpha * sum_{j >= j_pq} |C(alpha, j)| x**j`` with
``x = (w - c) / w``.  The full sum has closed forms; the tail is computed as
full sum minus partial sum, with a direct-summation fallback guarding against
cancellation.
"""

from __future__ import annotations

import math
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


@dataclass(frozen=True)
class Certificate:
    """A truncated power element together with its a-priori error bound.

    Under the spectral premises of the envelope, the unknown infinite-matrix
    element differs from ``value`` by strictly less than ``bound``.
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
    to ``_CHUNK`` while the terms have not yet fallen below the cutoff.
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
    raise NumericalFailureError(
        f"direct tail summation for alpha={alpha}, x={x} did not converge "
        f"within {MAX_TAIL_TERMS} terms"
    )


def tail_bound(alpha: float, c: float, w: float, j_start: int) -> float:
    """Error bound ``2 w**alpha * sum_{j >= j_start} |C(alpha, j)| x**j``.

    Computed as full closed-form sum minus the partial sum of the leading
    ``j_start`` terms; when that difference cancels to below a 1e-6 relative
    guard, the tail is re-summed directly until terms fall below 1e-18 of the
    running total.  The bound is finite or the call raises.

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
    if _is_nonneg_integer(alpha) and j_start > int(alpha):
        return 0.0
    x = (w - c) / w
    tail = full - _partial_abs_sum(alpha, x, j_start)
    if tail < CANCELLATION_GUARD * full:
        tail = _direct_tail_sum(alpha, x, j_start)
    return 2.0 * w ** alpha * tail


def certified_bound(
    alpha: float,
    envelope: SpectralEnvelope,
    depth: TruncationDepth,
) -> float:
    """The bound ``certify`` attaches at ``depth``: zero when saturated."""
    if depth.saturated:
        return 0.0
    return tail_bound(alpha, envelope.c, envelope.w, depth.j_pq)


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
        bound=certified_bound(alpha, envelope, depth),
        envelope_used=envelope,
        alpha=alpha,
    )
