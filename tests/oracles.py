"""Independent oracles for the test suite.

Everything here deliberately avoids the library code paths it is used to
check: dense sections are assembled straight from the row generator, series
sums run in mpmath arbitrary precision, and random banded specs derive their
spectral envelopes from the Fourier symbol of their own stencil.

The cross-checks of the spectral pipeline live here too, outside the
library's public API: the scalar ``binomial_coefficient`` recurrence, the
partial binomial series of a finite matrix (``finite_power_series``) and the
FFT-diagonalized power of the periodic lattice truncation
(``circulant_power_element``).
"""

import mpmath as mp
import numpy as np

from finpow import (
    DomainError,
    FiniteHermitian,
    SingularityError,
    SpectralEnvelope,
    banded_spec,
    binomial_coefficients,
    lattice_spec,
    periodic_boundary,
    truncate,
)
from finpow.powers import _check_spectrum

mp.mp.dps = 40


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
    """``sum_{j >= j_start} |C(alpha, j)| x**j`` in arbitrary precision."""
    alpha = mp.mpf(alpha)
    x = mp.mpf(x)
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


def mp_dispersion_integral(a, b, alpha, delta):
    """Dispersion integral of the lattice model in arbitrary precision."""
    a, b, alpha = mp.mpf(a), mp.mpf(b), mp.mpf(alpha)

    def integrand(kappa):
        symbol = a + 2 * b - 2 * b * mp.cos(2 * mp.pi * kappa)
        return symbol ** alpha * mp.cos(2 * mp.pi * kappa * delta)

    return mp.quad(integrand, [0, 1])
