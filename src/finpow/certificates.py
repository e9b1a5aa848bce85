"""A-priori error certificates for truncated power elements.

The truncation error of one matrix element of a real power is bounded by the
tail of the series ``2 w**alpha * sum_{j >= j_pq} |C(alpha, j)| x**j`` with
``x = (w - c) / w`` (half of it, one tail, for the driver's matrix-free
sweep, whose depth ``required_depth`` finds).  Every tail comes from one
forward pass, ``_tails``: the terms by their ratio recurrence, summed from
the far end into all suffix sums at once, plus an upper bound on the terms
past the last one summed.  Where the terms decay slowly (``c`` small against
``w``) that bound is the closed-form full sum less the terms summed.  Two
tails have closed forms instead (``alpha = -1``, and ``c = 0`` past
``alpha``).  The full sum, the premise check of every bound, has closed
forms too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SpectralEnvelope, Window, _number
from .errors import DivergentSeriesError, DomainError, NumericalFailureError
from .series import TruncationDepth

# How far ``_tails`` sums (see there).  The closed-form full sum of a
# positive alpha takes O(alpha) terms, so alpha is capped at MAX_TAIL_TERMS.
TAIL_TERM_CUTOFF = 1e-18
CLOSED_FORM_GAP = 1e-9
MAX_TAIL_TERMS = 10_000_000
MAX_DEPTH = 1 << 20
_FIRST_CHUNK = 256
# ``_closed_sum`` sums a head of at most this many terms as floats: numpy sums
# fewer than 8 numbers in order, so the floats come out the same.
_SCALAR_HEAD = 7
_SLOW_DECAY = 1 << 13
_CLOSED_FORM_ULPS = 16
_LOG_DBL_MAX = float(np.log(np.finfo(np.float64).max))
_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)


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
    ``(c/w)**alpha`` remainder.  Nonnegative integer ``alpha`` sums to
    ``(1 + x)**alpha``: its terms are nonnegative and end at ``alpha``.  This
    is the premise check of every bound; the driver runs it before it plans
    any window.

    Raises
    ------
    DivergentSeriesError
        ``alpha < 0`` with ``c = 0``.
    DomainError
        ``alpha`` not a finite real number, or ``c > w``, ``c < 0`` or
        ``w <= 0``.
    NumericalFailureError
        ``alpha`` above ``MAX_TAIL_TERMS``, the sum is not a finite float, or
        the largest bound, ``2 w**alpha`` times the sum, is not; or
        ``alpha < 0`` with ``c/w`` so small that it rounds to 0 (``x`` is 1,
        where the terms do not decay).
    """
    _number(alpha, "alpha must be finite, got {!r}", real=True, finite=True)
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
    if alpha < 0.0 and c / w == 0.0:  # (c/w)**alpha would divide by zero
        raise NumericalFailureError(f"the series terms for alpha={alpha}, x={x} do not decay")
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
        if _is_nonneg_integer(alpha):
            # the binomial theorem: C(alpha, j) = 0 for j > alpha, and every
            # earlier term is nonnegative
            total = math.pow(1.0 + x, alpha)
        else:
            total = _closed_sum(alpha, x, c / w)
        # The largest bound in log form: w**alpha may underflow where the
        # sum is large, and their product is still a float.
        if not math.isfinite(total) or (
            math.log(2.0) + alpha * math.log(w) + math.log(total) > _LOG_DBL_MAX
        ):
            raise OverflowError
    except OverflowError:
        raise NumericalFailureError(
            f"the bound 2 w**alpha sum |C(alpha, j)| x**j overflows for "
            f"alpha={alpha}, c={c}, w={w}"
        ) from None
    return total


def _closed_sum(alpha: float, x: float, r: float) -> float:
    """``full_series_sum`` at ``x``, ``r = 1 - x > 0``, for ``alpha`` not a
    nonnegative integer.

    The head is every other term up to ``floor(alpha)``.  When it has at
    most ``_SCALAR_HEAD`` terms, they are multiplied and summed as floats in
    the order numpy takes: its cumulative product runs in order, and so does
    its sum of fewer than 8 numbers (pairwise from 8).  A longer head takes
    ``_abs_terms`` and numpy's sum.
    """
    if alpha < 0.0:
        return r ** alpha
    fl = math.floor(alpha)
    sign = -1.0 if fl % 2 else 1.0
    # C(alpha, j) >= 0 up to j = floor(alpha) + 1: these are the series' terms
    if fl // 2 < _SCALAR_HEAD:
        head, term = 0.0, 1.0
        for i in range(fl + 1):
            if i % 2 == fl % 2:
                head += term
            term *= abs(alpha - i) * x / (i + 1)
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow shows as inf
            terms, _ = _abs_terms(alpha, x, 0, 1.0, fl + 2)
            head = float(terms[fl % 2 :: 2].sum())
    return 2.0 * head - sign * r ** alpha


def _abs_terms(alpha: float, x: float, j: int, term: float, count: int):
    """``count`` terms ``|C(alpha, i)| x**i`` from ``i = j``, the first being
    ``term``, by the ratio recurrence; and the term after them.

    The ratios are built in place and multiplied up by one
    ``np.multiply.accumulate``, which runs in order; ``term`` scales the
    products after, as ``term * np.cumprod(ratios)`` would.
    """
    k = np.arange(j, j + count - 1, dtype=np.float64)  # i - 1 for the ratio into term i
    ratios = np.empty(count)
    ratios[0] = 1.0
    into = ratios[1:]
    np.subtract(alpha, k, out=into)
    np.abs(into, out=into)
    into *= x
    k += 1.0
    into /= k
    terms = np.multiply.accumulate(ratios)
    if term != 1.0:
        terms *= term
    after = float(terms[-1]) * abs(alpha - (j + count - 1)) * x / (j + count)
    return terms, after


def _tails(alpha: float, x: float, depth: int, floor: float = 0.0) -> np.ndarray:
    """Suffix sums ``S[j] = sum_{i>=j} |C(alpha, i)| x**i``, ``j = 0..n``.

    ``n`` is ``depth``, or less once some ``S[j]``, ``j >= 1``, is at most
    ``floor``.  Terms come from ``_abs_terms`` in chunks that double from
    ``_FIRST_CHUNK``; ``S`` is their cumulative sum from the far end plus
    ``rest``, so it does not increase.  ``rest`` bounds the terms past
    ``t_n`` from above by the least of: ``t_n / (1 - rho)``, ``rho`` the
    largest term ratio past ``n``; for ``alpha > 0`` past alpha, ``t_n n /
    alpha``, ``x**n`` times the tail ``|C(alpha - 1, n - 1)|`` at ``x = 1``;
    and, once the decay is slow (past ``_SLOW_DECAY`` terms, or from the
    start if ``x**_SLOW_DECAY > TAIL_TERM_CUTOFF``), the closed-form full sum
    less the terms summed, plus ``_CLOSED_FORM_ULPS`` of it (less them, a
    lower bound).  With ``h`` the first ``j >= 1`` where ``S[j] <= floor``
    (else ``depth``), the pass ends at the first chunk where ``rest`` is at
    most ``TAIL_TERM_CUTOFF`` of ``S[h]``, or the bounds on the terms left
    are within ``CLOSED_FORM_GAP`` of ``S[h]`` once the decay is slow; so
    ``_tails(alpha, x, h)`` returns the same ``S[h]``.  It also ends once
    ``S[depth]`` exceeds ``floor > 0`` beyond that gap, and at ``MAX_DEPTH``,
    the deepest tail it reads.  Negative ``alpha`` at ``x = 1`` raises
    ``NumericalFailureError``.  Two tails have closed forms, rounded up.
    """
    depth = min(depth, MAX_DEPTH)
    if alpha == -1.0 and x < 1.0:
        # |C(-1, j)| = 1: the tail x**j / (1 - x), built a little past where
        # it falls below floor; the factor covers its four roundings.
        n = depth
        if 0.0 < x and 0.0 < floor * (1.0 - x) < math.inf:
            n = min(depth, 2 + max(0, math.ceil(math.log(floor * (1.0 - x)) / math.log(x))))
        tails = x ** np.arange(n + 1.0) * ((1.0 + 4.0 * _EPS) / (1.0 - x))
        tails[0] = 1.0 / (1.0 - x)
        return tails
    if x == 1.0 and alpha > 0.0:
        # Past alpha the terms (-1)**j C(alpha, j) keep one sign and sum to
        # (1 - 1)**alpha = 0, so the tail is |C(alpha - 1, j - 1)|; the factor
        # covers four roundings a step.  The terms up to alpha sum onto it.
        last = math.floor(alpha)
        n = max(depth, last + 1)
        tails = np.empty(n + 1)
        steps = np.arange(1, n + 1, dtype=np.float64)
        tails[1:] = _abs_terms(alpha - 1.0, 1.0, 0, 1.0, n)[0] * (1.0 + 4.0 * _EPS * steps)
        head = np.append(_abs_terms(alpha, 1.0, 0, 1.0, last + 1)[0], tails[last + 1])
        tails[: last + 2] = np.cumsum(head[::-1])[::-1]
        return tails[: depth + 1]
    if x == 1.0 and alpha < 0.0:  # at alpha = 0 every term past the first is 0
        raise NumericalFailureError(f"the series terms for alpha={alpha}, x={x} do not decay")
    full = math.nan  # the closed-form full sum, once the decay is slow
    # from the start where x alone could not end the pass by _SLOW_DECAY terms
    slow = _SLOW_DECAY if x**_SLOW_DECAY <= TAIL_TERM_CUTOFF else 0
    terms, term, n = None, 1.0, 0
    while True:
        count = max(n, _FIRST_CHUNK)
        block, term = _abs_terms(alpha, x, n, term, count)
        terms = np.concatenate((terms, block)) if n else block
        n += count
        rho = max(abs(alpha - n) * x / (n + 1), x)
        rest = 0.0 if not term else term / (1.0 - rho) if rho < 1.0 else math.inf
        if alpha > 0.0 and n > alpha:
            rest = min(rest, term * n / alpha)
        low = 0.0
        if n >= slow and rest and not _is_nonneg_integer(alpha):
            if math.isnan(full):
                try:
                    full = _closed_sum(alpha, x, 1.0 - x)
                except OverflowError:  # (1 - x)**alpha, where c/w rounds apart
                    full = math.inf
            err = _CLOSED_FORM_ULPS * _EPS * full
            left = full - float(terms.sum())
            rest, low = min(rest, left + err), max(0.0, left - err)
        if rest == math.inf:  # the terms do not decay (yet)
            if n >= MAX_DEPTH:
                raise NumericalFailureError(
                    f"the series terms for alpha={alpha}, x={x} do not decay "
                    f"within {n} terms"
                )
            continue
        # the cumulative sum of rest, t_{n-1}, ..., t_0, in that order
        summed = np.empty(n + 1)
        summed[0] = rest
        summed[1:] = terms[::-1]
        tails = np.add.accumulate(summed)[::-1]
        top = min(depth, n)
        below = tails[1 : top + 1] <= floor
        first = int(below.argmax()) if top else 0
        met = top > 0 and bool(below[first])
        head = first + 1 if met else top
        known = rest <= TAIL_TERM_CUTOFF * tails[head] or (
            n >= slow and rest - low <= CLOSED_FORM_GAP * tails[head]
        )
        missed = n >= depth and 0.0 < floor < tails[top] - (rest - low)
        if ((met or n >= depth) and known) or missed or n >= MAX_DEPTH:
            return tails[: top + 1]


def _scaled(alpha: float, w: float, tail: float) -> float:
    """``2 w**alpha * tail``, in log form where ``w**alpha`` underflows."""
    scale = 2.0 * w ** alpha
    if scale >= _TINY or not tail:
        return scale * tail
    return math.exp(min(math.log(2.0 * tail) + alpha * math.log(w), _LOG_DBL_MAX))


def tail_bound(alpha: float, c: float, w: float, j_start: int) -> float:
    """Error bound ``2 w**alpha * sum_{j >= j_start} |C(alpha, j)| x**j``.

    The tail is ``_tails``' last suffix sum, summed from ``j = 0`` and
    closed by an upper bound on the terms left, or a closed form: at
    ``x = 1`` (``c = 0``) past ``alpha > 0``, ``|C(alpha - 1, j_start - 1)|``,
    and at ``alpha = -1``, ``x**j_start / (1 - x)``.  Past ``MAX_DEPTH`` it
    is the tail there.  The bound is finite or the call raises.

    Raises
    ------
    DomainError
        As ``full_series_sum`` (``DivergentSeriesError`` included), or
        ``j_start < 0``.
    NumericalFailureError
        As ``full_series_sum``, or the terms of a negative ``alpha`` do not
        decay in float (``c`` so small against ``w`` that ``x`` rounds to 1).
    """
    full_series_sum(alpha, c, w)
    if j_start < 0:
        raise DomainError(f"j_start must be >= 0, got {j_start}")
    return _scaled(alpha, w, float(_tails(alpha, (w - c) / w, j_start)[-1]))


def required_depth(
    alpha: float,
    envelope: SpectralEnvelope,
    tol: float,
    weight: float,
    max_dim: int,
) -> tuple[int, float]:
    """Smallest depth ``1 <= J <= min(max_dim, MAX_DEPTH)`` whose one-tail
    bound ``weight * w**alpha * sum_{j>=J} |C(alpha, j)| x**j`` meets ``tol``
    in float, and that bound; ``(max_dim + 1, inf)`` when no such depth does.

    The bound is ``weight`` times half of ``tail_bound``, in its arithmetic.
    One ``_tails`` pass gives every tail up to ``max_dim``, or up to a little
    past the first below ``tol / (weight * w**alpha)``, where it stops as
    ``tail_bound`` at that depth does.  The premises are the caller's: it
    has run ``full_series_sum``.
    """
    w = envelope.w
    scale = 2.0 * w ** alpha
    if scale >= _TINY:
        floor = 2.0 * tol / (weight * scale) if weight * scale > 0.0 else math.inf
    else:
        log_floor = math.log(tol) - math.log(weight) - alpha * math.log(w)
        floor = math.exp(min(log_floor, _LOG_DBL_MAX))
    x = (w - envelope.c) / w
    tails = _tails(alpha, x, max(max_dim, 0), floor)

    def bound(j: int) -> float:
        return weight * (_scaled(alpha, w, float(tails[j])) / 2.0)

    # The first tail at most floor, moved past round-off to the first depth
    # whose bound meets tol.
    below = tails <= floor
    below[0] = False
    depth = int(below.argmax()) or len(tails)
    while depth > 1 and bound(depth - 1) <= tol:
        depth -= 1
    while depth < len(tails) and not bound(depth) <= tol:
        depth += 1
    if depth == len(tails):
        return max_dim + 1, math.inf
    return depth, bound(depth)


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
