"""Independent oracles for the test suite.

Everything here deliberately avoids the library code paths it is used to
check: dense sections are assembled straight from the row generator, series
sums run in mpmath arbitrary precision, and random banded specs derive their
spectral envelopes from the Fourier symbol of their own stencil.

The cross-checks of the spectral pipeline live here too, outside the
library's public API: the scalar ``binomial_coefficient`` recurrence, the
partial binomial series of a finite matrix (``finite_power_series``), the
FFT-diagonalized power of the periodic lattice truncation
(``circulant_power_element``), exact integer powers at one element by path
expansion (``integer_power_element``) and the closed-form truncation depth
of a fully populated band (``banded_depth_closed_form``).

The ``numpy_*`` functions are the whole-array numpy formulations of the
series plan that the library computes with fewer numpy calls, kept verbatim
as the references its helpers must equal bitwise: the binomial
coefficients, the terms ``|C(alpha, j)| x**j``, the closed-form full sum,
the suffix sums of the tails, and the series and carries of an element
sweep.
"""

import math

import mpmath as mp
import numpy as np

from finpow import (
    DomainError,
    FiniteHermitian,
    FinpowError,
    SingularityError,
    SpectralEnvelope,
    banded_spec,
    binomial_coefficients,
    lattice_spec,
    periodic_boundary,
    truncate,
)
from finpow.certificates import (
    _CLOSED_FORM_ULPS,
    _EPS,
    _FIRST_CHUNK,
    _SLOW_DECAY,
    CLOSED_FORM_GAP,
    MAX_DEPTH,
    TAIL_TERM_CUTOFF,
    _is_nonneg_integer,
)
from finpow.errors import NumericalFailureError
from finpow.powers import _check_spectrum

mp.mp.dps = 40

DEFAULT_NODE_BUDGET = 1_000_000


class BudgetExceededError(FinpowError):
    """Path expansion grew past the caller-supplied node budget."""


def binomial_coefficient(alpha, j):
    """Generalized binomial coefficient C(alpha, j) for real alpha.

    Uses the multiplicative recurrence C(a, j) = C(a, j-1) * (a - j + 1) / j,
    which is exact for integer alpha in range and avoids the cancellation of
    gamma-function formulas.
    """
    if j < 0:
        raise DomainError(f"binomial index j must be >= 0, got {j}")
    value = 1.0
    for i in range(1, j + 1):
        # single subtraction: (alpha - i) + 1 would cancel for small alpha
        value *= (alpha - (i - 1)) / i
    return value


def finite_power_series(matrix, alpha, w, terms):
    """Partial binomial series for ``matrix**alpha`` around the shift ``w``.

    Returns ``w**alpha * sum_{j<terms} C(alpha, j) ((M - w I) / w)**j``.  The
    spectrum must lie inside ``[0, w]``; if it touches zero, ``alpha`` must be
    nonnegative for the full series to converge.  It converges to the
    spectral power as ``terms`` grows.
    """
    if terms < 1:
        raise DomainError(f"terms must be >= 1, got {terms}")
    if w <= 0:
        raise DomainError(f"series shift w must be positive, got {w}")
    evals = np.linalg.eigvalsh(matrix.data)
    tol = _check_spectrum(evals, alpha)
    if evals[0] < -tol or evals[-1] > w + tol:
        raise DomainError(
            f"spectrum [{evals[0]:.6g}, {evals[-1]:.6g}] is not inside "
            f"[0, {w}]; the binomial series does not apply"
        )

    dim = matrix.dim
    ratio = (matrix.data - w * np.eye(dim, dtype=matrix.data.dtype)) / w
    coeffs = binomial_coefficients(alpha, terms)
    total = np.zeros_like(ratio)
    power = np.eye(dim, dtype=ratio.dtype)
    for j in range(terms):
        total += coeffs[j] * power
        if j + 1 < terms:
            power = power @ ratio
    return FiniteHermitian(matrix.window, (w ** alpha) * total)


def circulant_power_element(window, params, alpha, m, n):
    """Element ``(m, n)`` of the periodic truncation raised to ``alpha``.

    Diagonalizes the assembled circulant by FFT of its first row and sums
    ``(1/N) * sum_k lambda_k**alpha cos(2 pi k (m - n) / N)``.  Agrees with
    the generic spectral power of the same truncation.
    """
    if not (window.contains(m) and window.contains(n)):
        raise DomainError(
            f"indices ({m}, {n}) outside window [-{window.P}, {window.Q}]"
        )
    matrix = truncate(lattice_spec(params), window, periodic_boundary(window, params))
    first_row = np.asarray(matrix.data[0], dtype=np.float64)
    eigenvalues = np.fft.fft(first_row).real
    if alpha < 0.0 and eigenvalues.min() <= 0.0:
        raise SingularityError(
            f"circulant has eigenvalue {eigenvalues.min():.6g} <= 0; "
            f"negative power {alpha} is singular"
        )
    N = window.dim
    k = np.arange(N)
    weights = np.cos(2.0 * np.pi * k * (m - n) / N)
    return float((eigenvalues ** alpha) @ weights / N)


def dense_section(spec, radius):
    """Plain dense section of the infinite matrix over [-radius, radius]."""
    dim = 2 * radius + 1
    A = np.zeros((dim, dim), dtype=complex)
    for m in range(-radius, radius + 1):
        for col, v in spec.row(m).items():
            if -radius <= col <= radius:
                A[m + radius, col + radius] = complex(v)
    return A


def dense_power_element(matrix, j, row_pos, col_pos):
    """Element of the j-th power of a dense matrix via repeated products."""
    return np.linalg.matrix_power(matrix, j)[row_pos, col_pos]


def mp_abs_binom_tail(alpha, x, j_start=0, rel=mp.mpf("1e-30"), max_terms=2_000_000):
    """``sum_{j >= j_start} |C(alpha, j)| x**j`` in arbitrary precision.

    At ``x = 1`` the terms decay only like a power of ``j``; there, for
    ``j_start > alpha > 0``, the signs of ``C(alpha, j)`` alternate and the
    tail telescopes to ``|C(alpha - 1, j_start - 1)|``.
    """
    alpha = mp.mpf(alpha)
    x = mp.mpf(x)
    if x == 1 and 0 < alpha < j_start:
        return abs(mp.binomial(alpha - 1, j_start - 1))
    term = mp.mpf(1)
    for i in range(1, j_start + 1):
        term *= abs(alpha - i + 1) * x / i
    total = mp.mpf(0)
    j = j_start
    while j - j_start < max_terms:
        total += term
        term *= abs(alpha - j) * x / (j + 1)
        j += 1
        if term < rel * total:
            return total
    raise RuntimeError(f"mp tail sum did not converge: alpha={alpha}, x={x}")


def mp_abs_binom_full(alpha, x):
    """``sum_{j >= 0} |C(alpha, j)| x**j`` in closed form, ``x < 1``, for
    ``alpha`` not a nonnegative integer: ``(1 - x)**alpha`` for negative
    ``alpha``; for positive ``alpha`` the terms up to ``floor(alpha) + 1``,
    with alternating signs, and ``(1 - x)**alpha``."""
    alpha = mp.mpf(alpha)
    x = mp.mpf(x)
    if alpha < 0:
        return (1 - x) ** alpha
    fl = int(mp.floor(alpha))
    sign = -1 if fl % 2 else 1
    head = sum(mp.binomial(alpha, j) * x**j for j in range(fl % 2, fl + 2, 2))
    return 2 * head - sign * (1 - x) ** alpha


def mp_abs_binom_partial(alpha, x, terms):
    """``sum_{j < terms} |C(alpha, j)| x**j`` in arbitrary precision."""
    alpha = mp.mpf(alpha)
    x = mp.mpf(x)
    term = mp.mpf(1)
    total = mp.mpf(0)
    for j in range(terms):
        total += term
        term *= abs(alpha - j) * x / (j + 1)
    return total


def symbol_range(offsets, stencil, samples=8192):
    """Range of the Fourier symbol of a Hermitian stencil on a fine grid."""
    kappa = np.arange(samples) / samples
    total = np.zeros(samples)
    for o, v in zip(offsets, stencil):
        total += np.real(complex(v) * np.exp(2j * np.pi * o * kappa))
    return float(total.min()), float(total.max())


def random_banded_spec(rng, l, allow_complex=True):
    """Random (2l+1)-diagonal Hermitian spec with a sound tight envelope.

    Couplings are bounded away from zero so every band entry is nonzero; the
    diagonal is shifted so that c/w lands in [0.1, 0.9], and the envelope is
    the symbol range padded outward by a small safety margin.
    """
    while True:
        mags = rng.uniform(0.2, 1.0, size=l)
        if allow_complex and rng.random() < 0.3:
            couplings = mags * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=l))
        else:
            couplings = mags * rng.choice([-1.0, 1.0], size=l)
        offsets = list(range(-l, l + 1))
        stencil = [
            0.0 if o == 0 else (couplings[o - 1] if o > 0 else np.conj(couplings[-o - 1]))
            for o in offsets
        ]
        raw_min, raw_max = symbol_range(offsets, stencil)
        width = raw_max - raw_min
        if width < 1e-2:
            continue
        ratio = rng.uniform(0.1, 0.9)
        shift = (ratio * raw_max - raw_min) / (1.0 - ratio)
        stencil[l] = shift
        pad = 1e-5 * width
        c = raw_min + shift - pad
        w = raw_max + shift + pad
        if c <= 0.0:
            continue
        envelope = SpectralEnvelope(c=c, norm_bound=w, d=0.0)
        return banded_spec(offsets, stencil, envelope)


def toeplitz_power_element(spec, alpha, m, n):
    """``(W**alpha)[m, n]`` of a translation-invariant spec by its dispersion
    integral ``(1/2pi) int f(theta)**alpha e^{i(m-n)theta}``, with the symbol
    ``f(theta) = sum_o W[0, o] e^{i o theta}``: the periodic trapezoid rule,
    doubling the points until two estimates agree to 1e-14 of the mean of
    ``f**alpha`` (at least 1), about the rounding noise of the mean."""
    row = spec.row(0)
    points, previous = 256, None
    while points <= 2**20:
        theta = 2.0 * np.pi * np.arange(points) / points
        f = sum(complex(v) * np.exp(1j * o * theta) for o, v in row.items()).real
        powered = f**alpha
        estimate = complex(np.mean(powered * np.exp(1j * (m - n) * theta)))
        agreement = 1e-14 * max(1.0, float(np.mean(powered)))
        if previous is not None and abs(estimate - previous) <= agreement:
            return estimate
        previous, points = estimate, 2 * points
    raise RuntimeError("dispersion integral did not converge")


def mp_dispersion_integral(a, b, alpha, delta):
    """Dispersion integral of the lattice model in arbitrary precision."""
    a, b, alpha = mp.mpf(a), mp.mpf(b), mp.mpf(alpha)

    def integrand(kappa):
        symbol = a + 2 * b - 2 * b * mp.cos(2 * mp.pi * kappa)
        return symbol ** alpha * mp.cos(2 * mp.pi * kappa * delta)

    return mp.quad(integrand, [0, 1])


def _shifted_row(spec, p, shift):
    row = dict(spec.row(p))
    if shift != 0.0:
        row[p] = row.get(p, 0.0) - shift
    return row


def integer_power_element(spec, shift, j, m, n, node_budget=DEFAULT_NODE_BUDGET):
    """Element ``(m, n)`` of ``(W - shift*I)**j`` by sparse path expansion.

    Expands breadth first from ``m``, accumulating path coefficients in a map
    keyed by index; ``shift = 0`` gives plain powers of W.  ``j = 0`` returns
    the Kronecker delta, ``j = 1`` the shifted entry itself.

    Raises
    ------
    BudgetExceededError
        If the accumulated frontier exceeds ``node_budget`` indices, which
        signals a sparsity bound too loose for this depth.
    """
    if j < 0:
        raise DomainError(f"power j must be a nonnegative integer, got {j}")
    if j == 0:
        return 1.0 + 0.0j if m == n else 0.0 + 0.0j
    coeffs = {m: 1.0 + 0.0j}
    for _ in range(j):
        expanded = {}
        for p, weight in coeffs.items():
            for q, value in _shifted_row(spec, p, shift).items():
                expanded[q] = expanded.get(q, 0.0 + 0.0j) + weight * complex(value)
        if len(expanded) > node_budget:
            raise BudgetExceededError(
                f"path frontier grew to {len(expanded)} indices, "
                f"exceeding the node budget {node_budget}"
            )
        coeffs = expanded
    return coeffs.get(n, 0.0 + 0.0j)


def banded_depth_closed_form(l, window, m, n):
    """Truncation depth of a fully populated (2l+1)-diagonal matrix.

    Valid only when every band entry is nonzero and both indices lie at least
    one step inside the window; equals ``truncation_depth`` there.
    """
    if l < 1:
        raise DomainError(f"half-bandwidth l must be >= 1, got {l}")
    mi, ma = min(m, n), max(m, n)
    if not (-window.P <= mi - 1 and window.Q >= ma + 1):
        raise DomainError(
            f"closed form requires indices strictly inside the window: "
            f"got (m, n)=({m}, {n}) in [-{window.P}, {window.Q}]"
        )
    return 1 + min(mi + window.P - 1, window.Q - ma - 1) // l


def numpy_binomial_coefficients(alpha, count):
    """First ``count`` coefficients C(alpha, 0..count-1) by the recurrence."""
    if count <= 0:
        return np.zeros(0)
    j = np.arange(1, count)
    ratios = (alpha - (j - 1)) / j
    out = np.empty(count)
    out[0] = 1.0
    np.cumprod(ratios, out=out[1:])
    return out


def numpy_series_and_carries(alpha, terms):
    """The signed series ``C(beta, j) (-1)**j``, ``j < terms``, and the
    ``k = floor(alpha)`` carries ``C(beta + r, terms - 1) (-1)**(terms - 1)``
    of an element sweep, ``beta = alpha - k``: one coefficient array per
    carry."""
    k = max(math.floor(alpha), 0)
    beta = alpha - k
    sign = (-1.0) ** (terms - 1)
    carries = [sign * numpy_binomial_coefficients(beta + r, terms)[-1] for r in range(k)]
    series = numpy_binomial_coefficients(beta, terms)
    series[1::2] *= -1.0
    return series, carries


def numpy_closed_sum(alpha, x, r):
    """``sum_j |C(alpha, j)| x**j`` in closed form, ``r = 1 - x``, for
    ``alpha`` not a nonnegative integer."""
    if alpha < 0.0:
        return r ** alpha
    fl = math.floor(alpha)
    # C(alpha, j) >= 0 up to j = floor(alpha) + 1: these are the series' terms
    terms, _ = numpy_abs_terms(alpha, x, 0, 1.0, fl + 2)
    sign = -1.0 if fl % 2 else 1.0
    return 2.0 * float(terms[fl % 2 :: 2].sum()) - sign * r ** alpha


def numpy_abs_terms(alpha, x, j, term, count):
    """``count`` terms ``|C(alpha, i)| x**i`` from ``i = j``, the first being
    ``term``, by the ratio recurrence; and the term after them."""
    idx = np.arange(j, j + count, dtype=np.float64)
    ratios = np.empty(count)
    ratios[0] = 1.0
    ratios[1:] = np.abs(alpha - idx[:-1]) * x / (idx[:-1] + 1.0)
    terms = term * np.cumprod(ratios)
    after = float(terms[-1]) * abs(alpha - (j + count - 1)) * x / (j + count)
    return terms, after


def numpy_tails(alpha, x, depth, floor=0.0):
    """Suffix sums ``S[j] = sum_{i>=j} |C(alpha, i)| x**i``, ``j = 0..n``, as
    ``finpow.certificates._tails`` defines them."""
    depth = min(depth, MAX_DEPTH)
    if alpha == -1.0 and x < 1.0:
        n = depth
        if 0.0 < x and 0.0 < floor * (1.0 - x) < math.inf:
            n = min(depth, 2 + max(0, math.ceil(math.log(floor * (1.0 - x)) / math.log(x))))
        tails = x ** np.arange(n + 1.0) * ((1.0 + 4.0 * _EPS) / (1.0 - x))
        tails[0] = 1.0 / (1.0 - x)
        return tails
    if x == 1.0 and alpha > 0.0:
        last = math.floor(alpha)
        n = max(depth, last + 1)
        tails = np.empty(n + 1)
        steps = np.arange(1, n + 1, dtype=np.float64)
        tails[1:] = numpy_abs_terms(alpha - 1.0, 1.0, 0, 1.0, n)[0] * (1.0 + 4.0 * _EPS * steps)
        head = np.append(numpy_abs_terms(alpha, 1.0, 0, 1.0, last + 1)[0], tails[last + 1])
        tails[: last + 2] = np.cumsum(head[::-1])[::-1]
        return tails[: depth + 1]
    if x == 1.0:
        raise NumericalFailureError(f"the series terms for alpha={alpha}, x={x} do not decay")
    full = math.nan
    slow = _SLOW_DECAY if x**_SLOW_DECAY <= TAIL_TERM_CUTOFF else 0
    terms, term, n = np.empty(0), 1.0, 0
    while True:
        count = max(n, _FIRST_CHUNK)
        block, term = numpy_abs_terms(alpha, x, n, term, count)
        terms = np.concatenate((terms, block))
        n += count
        rho = max(abs(alpha - n) * x / (n + 1), x)
        rest = 0.0 if not term else term / (1.0 - rho) if rho < 1.0 else math.inf
        if alpha > 0.0 and n > alpha:
            rest = min(rest, term * n / alpha)
        low = 0.0
        if n >= slow and rest and not _is_nonneg_integer(alpha):
            if math.isnan(full):
                try:
                    full = numpy_closed_sum(alpha, x, 1.0 - x)
                except OverflowError:
                    full = math.inf
            err = _CLOSED_FORM_ULPS * _EPS * full
            left = full - float(terms.sum())
            rest, low = min(rest, left + err), max(0.0, left - err)
        if rest == math.inf:
            if n >= MAX_DEPTH:
                raise NumericalFailureError(
                    f"the series terms for alpha={alpha}, x={x} do not decay "
                    f"within {n} terms"
                )
            continue
        tails = np.cumsum(np.append(terms, rest)[::-1])[::-1]
        top = min(depth, n)
        met = np.flatnonzero(tails[1 : top + 1] <= floor)
        head = int(met[0]) + 1 if met.size else top
        known = rest <= TAIL_TERM_CUTOFF * tails[head] or (
            n >= slow and rest - low <= CLOSED_FORM_GAP * tails[head]
        )
        missed = n >= depth and 0.0 < floor < tails[top] - (rest - low)
        if ((met.size or n >= depth) and known) or missed or n >= MAX_DEPTH:
            return tails[: top + 1]
