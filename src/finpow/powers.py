"""Real powers of finite Hermitian matrices.

The path is spectral: eigendecompose, raise the eigenvalues, and reassemble.
"""

from __future__ import annotations

import numpy as np

from .core import FiniteHermitian
from .errors import DomainError, SingularityError

# Eigenvalues in [-tol, 0) are treated as round-off and clamped to zero for
# nonnegative powers; tol is this factor times the spectral radius.
EIG_CLAMP_FACTOR = 1e-10


def binomial_coefficients(alpha: float, count: int) -> np.ndarray:
    """First ``count`` coefficients C(alpha, 0..count-1) by the recurrence
    ``C(alpha, j) = C(alpha, j - 1) (alpha - (j - 1)) / j``: row 0 of
    ``_binomial_rows``."""
    if count <= 0:
        return np.zeros(0)
    return _binomial_rows(alpha, 1, count)[0]


def _binomial_rows(alpha: float, rows: int, count: int) -> np.ndarray:
    """``C(alpha + r, 0..count-1)`` in row ``r < rows``, ``count >= 1``.

    The recurrence's ratios ``(alpha + r - (j - 1)) / j`` are multiplied up
    along each row by one ``np.multiply.accumulate``, which runs in order: so
    every row is bitwise the one-row recurrence at ``alpha + r`` (row 0 at
    ``alpha`` itself, a zero's sign included).
    """
    top = alpha + np.arange(rows)
    top[0] = alpha
    j = np.arange(1.0, count)
    ratios = np.empty((rows, count))
    ratios[:, 0] = 1.0
    np.divide(top[:, None] - (j - 1.0), j, out=ratios[:, 1:])
    return np.multiply.accumulate(ratios, axis=1)


def _check_spectrum(evals, alpha) -> float:
    """Check ascending eigenvalues for ``alpha``; return the clamp tolerance."""
    scale = max(abs(evals[0]), abs(evals[-1]), np.finfo(float).tiny)
    tol = EIG_CLAMP_FACTOR * scale
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
    return tol


def power_eigenvalues(evals: np.ndarray, alpha: float) -> np.ndarray:
    """``evals**alpha`` for the ascending eigenvalues of a Hermitian matrix.

    Eigenvalues in ``[-tol, 0)`` are clamped to zero for ``alpha >= 0`` as
    round-off protection; ``tol`` is ``EIG_CLAMP_FACTOR`` times the spectral
    radius.

    Raises
    ------
    DomainError
        Eigenvalue below ``-tol`` with non-integer ``alpha``.
    SingularityError
        (Near-)zero eigenvalue with ``alpha < 0``.
    """
    tol = _check_spectrum(evals, alpha)
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


def finite_power(matrix: FiniteHermitian, alpha: float) -> FiniteHermitian:
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
    powered = power_eigenvalues(evals, alpha)
    result = (vecs * powered) @ vecs.conj().T
    return FiniteHermitian(matrix.window, result)

