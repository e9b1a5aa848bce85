"""Real powers of finite Hermitian matrices.

The production path is spectral: eigendecompose, raise the eigenvalues, and
reassemble.  A truncated binomial-series path is provided as an independent
cross-check; it converges to the spectral result as the number of terms grows
whenever the spectrum lies inside ``[0, w]``.
"""

from __future__ import annotations

import numpy as np

from .core import FiniteHermitian
from .errors import DomainError, SingularityError

# Eigenvalues in [-tol, 0) are treated as round-off and clamped to zero for
# nonnegative powers; tol defaults to this factor times the spectral radius.
EIG_CLAMP_FACTOR = 1e-10


def binomial_coefficient(alpha: float, j: int) -> float:
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


def binomial_coefficients(alpha: float, count: int) -> np.ndarray:
    """First ``count`` coefficients C(alpha, 0..count-1) by the recurrence."""
    if count <= 0:
        return np.zeros(0)
    j = np.arange(1, count)
    ratios = (alpha - (j - 1)) / j
    out = np.empty(count)
    out[0] = 1.0
    np.cumprod(ratios, out=out[1:])
    return out


def _check_spectrum(evals, alpha, tol):
    if evals[0] < -tol and not float(alpha).is_integer():
        raise DomainError(
            f"matrix has eigenvalue {evals[0]:.6g} < -tol; non-integer power "
            f"{alpha} is undefined"
        )
    if alpha < 0 and np.any(np.abs(evals) <= tol):
        raise SingularityError(
            f"matrix has a (near-)zero eigenvalue within tol={tol:.3g}; "
            f"negative power {alpha} is singular"
        )


def power_eigenvalues(
    evals: np.ndarray,
    alpha: float,
    eig_tol: float | None = None,
) -> np.ndarray:
    """``evals**alpha`` for the ascending eigenvalues of a Hermitian matrix.

    Eigenvalues in ``[-tol, 0)`` are clamped to zero for ``alpha >= 0`` as
    round-off protection; ``tol`` defaults to ``EIG_CLAMP_FACTOR`` times the
    spectral radius.

    Raises
    ------
    DomainError
        Eigenvalue below ``-tol`` with non-integer ``alpha``.
    SingularityError
        (Near-)zero eigenvalue with ``alpha < 0``.
    """
    scale = max(abs(evals[0]), abs(evals[-1]), np.finfo(float).tiny)
    tol = EIG_CLAMP_FACTOR * scale if eig_tol is None else eig_tol
    _check_spectrum(evals, alpha, tol)
    if alpha >= 0:
        evals = np.where((evals < 0.0) & (evals >= -tol), 0.0, evals)
    return evals.astype(np.float64) ** float(alpha)


def spectral_element(vecs: np.ndarray, powered: np.ndarray, i: int, j: int):
    """Entry ``(i, j)`` of ``vecs @ diag(powered) @ vecs^H`` in O(N).

    Averages the ``(i, j)`` read with the conjugate of the ``(j, i)`` read,
    as ``FiniteHermitian`` symmetrizes, so swapping ``i`` and ``j`` gives the
    exact conjugate.
    """
    upper = (vecs[i] * powered) @ vecs[j].conj()
    lower = (vecs[j] * powered) @ vecs[i].conj()
    return (upper + np.conj(lower)) / 2.0


def finite_power(
    matrix: FiniteHermitian,
    alpha: float,
    eig_tol: float | None = None,
) -> FiniteHermitian:
    """Spectral power ``matrix**alpha`` of a finite Hermitian matrix.

    Eigendecomposes, raises the eigenvalues to ``alpha`` with
    ``power_eigenvalues`` and reassembles.

    Raises
    ------
    DomainError
        Eigenvalue below ``-tol`` with non-integer ``alpha``.
    SingularityError
        (Near-)zero eigenvalue with ``alpha < 0``.
    """
    evals, vecs = np.linalg.eigh(matrix.data)
    powered = power_eigenvalues(evals, alpha, eig_tol)
    result = (vecs * powered) @ vecs.conj().T
    return FiniteHermitian(matrix.window, result)


def finite_power_series(
    matrix: FiniteHermitian,
    alpha: float,
    w: float,
    terms: int,
    eig_tol: float | None = None,
) -> FiniteHermitian:
    """Partial binomial series for ``matrix**alpha`` around the shift ``w``.

    Returns ``w**alpha * sum_{j<terms} C(alpha, j) ((M - w I) / w)**j``.  The
    spectrum must lie inside ``[0, w]``; if it touches zero, ``alpha`` must be
    nonnegative for the full series to converge.
    """
    if terms < 1:
        raise DomainError(f"terms must be >= 1, got {terms}")
    if w <= 0:
        raise DomainError(f"series shift w must be positive, got {w}")
    evals = np.linalg.eigvalsh(matrix.data)
    scale = max(abs(evals[0]), abs(evals[-1]), np.finfo(float).tiny)
    tol = EIG_CLAMP_FACTOR * scale if eig_tol is None else eig_tol
    _check_spectrum(evals, alpha, tol)
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
