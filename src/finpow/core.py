"""Infinite sparse Hermitian matrices and their finite window truncations.

An infinite matrix is presented as a row generator: a pure function mapping a
row index to the finite list of ``(column, value)`` pairs of that row.  Finite
truncations over an index window ``[-P, Q]`` copy the generator entries and
add a Hermitian boundary correction at the four window corners.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    InvalidBoundaryError,
    MalformedSpecError,
    NumericalFailureError,
)

# Relative tolerance of the Hermitian spot-check performed on each assembled
# truncation.  Violations beyond round-off indicate a malformed generator.
HERMITIAN_SPOT_TOL = 1e-12

RowGenerator = Callable[[int], Sequence[tuple[int, complex]]]


@dataclass(frozen=True)
class SpectralEnvelope:
    """Spectral bracket (c, norm_bound, d) of an infinite Hermitian matrix.

    ``c`` is a lower bound on the spectrum, ``norm_bound`` an upper bound on
    the operator norm, and ``d`` the allowed inflation of the norm bound by
    boundary corrections.  The derived series shift is ``w = norm_bound + d``.
    """

    c: float
    norm_bound: float
    d: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.c <= self.norm_bound):
            raise ValueError(
                f"spectral envelope requires 0 <= c <= norm_bound, "
                f"got c={self.c}, norm_bound={self.norm_bound}"
            )
        if not math.isfinite(self.norm_bound):
            raise ValueError("norm_bound must be finite")
        if self.d < 0.0 or not math.isfinite(self.d):
            raise ValueError(f"boundary inflation d must be >= 0, got {self.d}")

    @property
    def w(self) -> float:
        """Uniform spectral upper bound for all admissible truncations."""
        return self.norm_bound + self.d


@dataclass(frozen=True)
class Window:
    """Truncation index range [-P, Q] of dimension P + Q + 1."""

    P: int
    Q: int

    def __post_init__(self):
        if self.P < 0 or self.Q < 0:
            raise ValueError(f"window requires P, Q >= 0, got P={self.P}, Q={self.Q}")

    @property
    def dim(self) -> int:
        return self.P + self.Q + 1

    @property
    def corners(self) -> tuple[int, int]:
        """The two corner indices {-P, Q}."""
        return (-self.P, self.Q)

    def contains(self, i: int) -> bool:
        return -self.P <= i <= self.Q

    def is_corner(self, i: int) -> bool:
        return i == -self.P or i == self.Q

    def indices(self) -> range:
        return range(-self.P, self.Q + 1)

    def offset(self, i: int) -> int:
        """Array position of logical index ``i``."""
        return i + self.P


@dataclass
class InfiniteMatrixSpec:
    """Row-generator presentation of an infinite sparse Hermitian matrix.

    Parameters
    ----------
    row_generator : callable
        Maps a row index to the finite list of ``(column, value)`` pairs of
        the nonzero entries of that row.  Must be side-effect free and must
        describe a Hermitian matrix; both properties are spot-checked lazily
        on the touched index set, never globally.
    sparsity_bound_k : int
        Declared maximum number of nonzero entries per row.
    envelope : SpectralEnvelope
        Spectral bracket of the matrix as an operator on square-summable
        sequences.

    Validated rows are cached; the cache is append-only and derived purely
    from the generator, so concurrent readers are safe.
    """

    row_generator: RowGenerator
    sparsity_bound_k: int
    envelope: SpectralEnvelope
    _rows: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.sparsity_bound_k < 1:
            raise ValueError(
                f"sparsity_bound_k must be a positive integer, got {self.sparsity_bound_k}"
            )

    def row(self, m: int) -> Mapping[int, complex]:
        """Validated row ``m`` as a mapping column -> value (cached)."""
        cached = self._rows.get(m)
        if cached is not None:
            return cached
        raw = self.row_generator(m)
        entries = {}
        for col, value in raw:
            if col in entries:
                raise MalformedSpecError(
                    f"row {m} lists column {col} more than once"
                )
            if not cmath.isfinite(value):
                raise MalformedSpecError(
                    f"row {m} has the non-finite entry {value} at column {col}"
                )
            entries[int(col)] = value
        if len(entries) > self.sparsity_bound_k:
            raise MalformedSpecError(
                f"row {m} has {len(entries)} nonzeros, exceeding the declared "
                f"sparsity bound k={self.sparsity_bound_k}"
            )
        self._rows[m] = entries
        return entries

    def support(self, m: int) -> Iterable[int]:
        """Column indices of the nonzero entries of row ``m``."""
        return self.row(m).keys()

    def entry(self, m: int, n: int) -> complex:
        """Matrix element at ``(m, n)``; zero outside the row support."""
        return self.row(m).get(n, 0.0)


def banded_spec(
    offsets: Sequence[int],
    stencil: Sequence[complex],
    envelope: SpectralEnvelope,
) -> InfiniteMatrixSpec:
    """Translation-invariant banded matrix from a stencil.

    ``offsets[i]`` is the column offset from the diagonal carrying the value
    ``stencil[i]`` in every row.  Zero stencil values are dropped, so the
    declared sparsity bound counts actual nonzeros.  The stencil must be
    Hermitian: the value at offset ``-o`` equal to the conjugate of the value
    at ``o``.
    """
    if len(offsets) != len(stencil):
        raise ValueError("offsets and stencil must have equal length")
    band = {int(o): v for o, v in zip(offsets, stencil) if v != 0}
    if len(band) != sum(1 for v in stencil if v != 0):
        raise ValueError("duplicate offsets in stencil")
    for o, v in band.items():
        mirror = band.get(-o)
        if mirror is None or mirror != np.conj(v):
            raise ValueError(
                f"stencil is not Hermitian: offset {o} has value {v}, "
                f"offset {-o} has {mirror}"
            )
    pairs = tuple(sorted(band.items()))

    def generate(m: int):
        return [(m + o, v) for o, v in pairs]

    return InfiniteMatrixSpec(generate, max(len(pairs), 1), envelope)


@dataclass
class BoundarySpec:
    """Hermitian correction supported on the window corners {-P, Q}.

    Entries are keyed by ``(row, col)`` pairs of logical indices.  Missing
    conjugate partners are filled in on construction; inconsistent pairs or
    non-real diagonal values are rejected.
    """

    entries: dict[tuple[int, int], complex] = field(default_factory=dict)

    def __post_init__(self):
        completed = {}
        for (i, j), v in self.entries.items():
            key = (int(i), int(j))
            completed[key] = complex(v)
        for (i, j), v in list(completed.items()):
            if i == j:
                if v.imag != 0.0:
                    raise InvalidBoundaryError(
                        f"diagonal boundary entry at ({i},{i}) must be real, got {v}"
                    )
                continue
            partner = completed.get((j, i))
            if partner is None:
                completed[(j, i)] = v.conjugate()
            elif partner != v.conjugate():
                raise InvalidBoundaryError(
                    f"boundary entries at ({i},{j}) and ({j},{i}) are not "
                    f"conjugate: {v} vs {partner}"
                )
        self.entries = completed

    @classmethod
    def zero(cls) -> "BoundarySpec":
        return cls({})

    def validate_for(self, window: Window) -> None:
        """Reject entries outside the corner set {-P, Q} x {-P, Q}."""
        corners = set(window.corners)
        for i, j in self.entries:
            if i not in corners or j not in corners:
                raise InvalidBoundaryError(
                    f"boundary entry at ({i},{j}) lies outside the corner set "
                    f"{sorted(corners)} of window [-{window.P}, {window.Q}]"
                )


@dataclass(frozen=True)
class FiniteHermitian:
    """Dense Hermitian matrix over the logical index range [-P, Q].

    The stored array is symmetrized exactly on construction, so
    ``element(m, n) == conj(element(n, m))`` holds bitwise.
    """

    window: Window
    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.shape != (self.window.dim, self.window.dim):
            raise ValueError(
                f"data shape {arr.shape} does not match window dimension "
                f"{self.window.dim}"
            )
        if not np.iscomplexobj(arr):
            arr = arr.astype(np.float64, copy=True)
            sym = (arr + arr.T) / 2.0
        else:
            arr = arr.astype(np.complex128, copy=True)
            sym = (arr + arr.conj().T) / 2.0
        sym.setflags(write=False)
        object.__setattr__(self, "data", sym)

    @property
    def dim(self) -> int:
        return self.window.dim

    def element(self, m: int, n: int) -> complex:
        """Entry at logical indices ``(m, n)``."""
        w = self.window
        if not (w.contains(m) and w.contains(n)):
            raise IndexError(f"({m},{n}) outside window [-{w.P}, {w.Q}]")
        return self.data[w.offset(m), w.offset(n)]


@dataclass(frozen=True)
class ValidationReport:
    """Eigenvalue extremes of a truncation checked against its envelope."""

    min_eigenvalue: float
    max_eigenvalue: float
    lower_limit: float
    upper_limit: float
    tol: float
    lower_ok: bool
    upper_ok: bool

    @property
    def passed(self) -> bool:
        return self.lower_ok and self.upper_ok

    @classmethod
    def from_eigenvalues(
        cls,
        eigenvalues: np.ndarray,
        envelope: SpectralEnvelope,
        tol: float,
    ) -> "ValidationReport":
        """Check ascending eigenvalues against ``[c - tol, w + tol]``."""
        lo = float(eigenvalues[0])
        hi = float(eigenvalues[-1])
        return cls(
            min_eigenvalue=lo,
            max_eigenvalue=hi,
            lower_limit=envelope.c,
            upper_limit=envelope.w,
            tol=tol,
            lower_ok=lo >= envelope.c - tol,
            upper_ok=hi <= envelope.w + tol,
        )


def truncate(
    spec: InfiniteMatrixSpec,
    window: Window,
    boundary: BoundarySpec | None = None,
) -> FiniteHermitian:
    """Assemble the finite truncation of ``spec`` over ``window``.

    Interior entries (at least one index strictly inside the window) are
    copied from the row generator; the four corner entries additionally
    receive the boundary correction.  The result is exactly Hermitian.

    Raises
    ------
    MalformedSpecError
        If a generated row violates the sparsity bound or the assembled
        window fails the Hermitian spot-check.
    InvalidBoundaryError
        If boundary entries fall outside the window corners.
    """
    if boundary is None:
        boundary = BoundarySpec.zero()
    boundary.validate_for(window)

    P, Q = window.P, window.Q
    dim = window.dim
    rows = [spec.row(m) for m in window.indices()]
    needs_complex = any(
        complex(v).imag != 0.0 for r in rows for v in r.values()
    ) or any(v.imag != 0.0 for v in boundary.entries.values())
    dtype = np.complex128 if needs_complex else np.float64

    A = np.zeros((dim, dim), dtype=dtype)
    for m, row in zip(window.indices(), rows):
        i = window.offset(m)
        for col, value in row.items():
            if window.contains(col):
                entry = complex(value) if needs_complex else float(np.real(value))
                A[i, window.offset(col)] = entry

    mismatch = np.abs(A - A.conj().T).max()
    scale = max(np.abs(A).max(), 1.0)
    if mismatch > HERMITIAN_SPOT_TOL * scale:
        raise MalformedSpecError(
            f"generator is not Hermitian on window [-{P}, {Q}]: "
            f"max asymmetry {mismatch:.3e}"
        )

    for (i, j), v in boundary.entries.items():
        A[window.offset(i), window.offset(j)] += v if needs_complex else v.real

    return FiniteHermitian(window, A)


def validate_truncation(
    matrix: FiniteHermitian,
    envelope: SpectralEnvelope,
    tol: float,
) -> ValidationReport:
    """Check the eigenvalue extremes of a truncation against its envelope.

    Passes when the smallest eigenvalue is at least ``c - tol`` and the
    largest at most ``norm_bound + d + tol``.  The caller decides whether a
    failure is fatal.
    """
    try:
        eigenvalues = np.linalg.eigvalsh(matrix.data)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigendecomposition failed: {exc}") from exc
    return ValidationReport.from_eigenvalues(eigenvalues, envelope, tol)
