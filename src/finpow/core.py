"""Infinite sparse Hermitian matrices and their finite sections.

An infinite matrix is presented as a row generator: a pure function mapping a
row index to the finite list of ``(column, value)`` pairs of that row.  Its
section over an index window ``[-P, Q]`` holds the generator entries inside
the window, checked for Hermitian symmetry (``_section``).  The matrix-free
sweeps step the binomial series by it, as the sparse mat-vec
``v -> (I - W_R/w) v`` (``sparse_section``): a banded spec's step is one
convolution with its stencil, any other spec's is built from the section on
each call.  The paper's dense truncations (``truncate``) scatter the section
into an array and add a Hermitian boundary correction at the four window
corners.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    DomainError,
    InvalidBoundaryError,
    MalformedSpecError,
    NumericalFailureError,
)

# Relative tolerance of the Hermitian spot-check performed on each section.
# Violations beyond round-off indicate a malformed generator.
HERMITIAN_SPOT_TOL = 1e-12

# The largest offset a banded spec records: its offsets are np.intp.
_INTP_MAX = int(np.iinfo(np.intp).max)
_BOOLS = (bool, np.bool_)  # they convert to numbers, but are none

RowGenerator = Callable[[int], Sequence[tuple[int, complex]]]


def _integer(x, message: str = "an index must be an integer, got {!r}") -> int:
    """``x`` as an ``int``: an integral number (``2``, ``2.0``, ``np.int64(2)``)
    gives its ``int``.  A boolean, which converts to one, is none.  Anything
    else raises ``DomainError(message.format(x))``.

    The one integer check of every index, size and offset a user passes."""
    if type(x) is int:
        return x
    try:
        if not isinstance(x, _BOOLS) and int(x) == x:
            return int(x)
    except (TypeError, ValueError, OverflowError):
        pass
    raise DomainError(message.format(x))


def _number(x, message: str, *, real: bool = False, finite: bool = False) -> float | complex:
    """``x`` as a ``float`` (``real``) or a ``complex``, and finite if
    ``finite``.  A ``str`` or ``bytes``, which ``complex()`` would parse, a
    boolean, which converts to a number, and ``None`` are none, and neither
    is a complex number where a real one is due: each raises
    ``DomainError(message.format(x))``.  An int too large for a float reads
    as infinite, so a finiteness check rejects it.

    The one number check of every value a user passes."""
    number = x if type(x) is float else None
    if number is None and not isinstance(x, (str, bytes, *_BOOLS)):
        try:
            number = float(x) if real else complex(x)
        except OverflowError:
            number = math.inf
        except (TypeError, ValueError):
            pass
    if number is None or finite and not cmath.isfinite(number):
        raise DomainError(message.format(x))
    return number if real else complex(number)


@dataclass(frozen=True)
class SpectralEnvelope:
    """Spectral bracket (c, norm_bound, d) of an infinite Hermitian matrix.

    ``c`` is a lower bound on the spectrum, ``norm_bound`` an upper bound on
    the operator norm, and ``d`` the allowed inflation of the norm bound by
    boundary corrections.  The derived series shift is ``w = norm_bound + d``.
    Each is a real number, stored as a ``float``, with
    ``0 <= c <= norm_bound < inf`` and ``0 <= d < inf``; anything else
    (a boolean, a string, ``None``, ``nan``, ``10**400``) raises
    ``DomainError``.
    """

    c: float
    norm_bound: float
    d: float = 0.0

    def __post_init__(self):
        message = "a spectral envelope holds real numbers, got {!r}"
        c = _number(self.c, message, real=True)
        norm_bound = _number(self.norm_bound, message, real=True)
        d = _number(self.d, message, real=True)
        if not (0.0 <= c <= norm_bound):
            raise DomainError(
                f"spectral envelope requires 0 <= c <= norm_bound, "
                f"got c={self.c}, norm_bound={self.norm_bound}"
            )
        if not math.isfinite(norm_bound):
            raise DomainError("norm_bound must be finite")
        if d < 0.0 or not math.isfinite(d):
            raise DomainError(f"boundary inflation d must be >= 0, got {self.d}")
        if c is not self.c or norm_bound is not self.norm_bound or d is not self.d:
            vars(self).update(c=c, norm_bound=norm_bound, d=d)  # frozen: past its __setattr__

    @property
    def w(self) -> float:
        """Uniform spectral upper bound for all admissible truncations."""
        return self.norm_bound + self.d


@dataclass(frozen=True)
class Window:
    """Truncation index range [-P, Q] of dimension P + Q + 1; any non-empty
    range, so it need not contain the origin.  ``P`` and ``Q`` are integers,
    stored as ``int``s; an integral float counts as its ``int``, and anything
    else (``0.5``, a boolean, a string) raises ``DomainError``."""

    P: int
    Q: int

    def __post_init__(self):
        P = _integer(self.P, "window P must be an integer, got {!r}")
        Q = _integer(self.Q, "window Q must be an integer, got {!r}")
        if P + Q < 0:
            raise DomainError(f"window requires P + Q >= 0, got P={P}, Q={Q}")
        if P is not self.P or Q is not self.Q:
            vars(self).update(P=P, Q=Q)  # frozen: past its __setattr__

    @property
    def dim(self) -> int:
        return self.P + self.Q + 1

    @property
    def corners(self) -> tuple[int, int]:
        """The two corner indices {-P, Q}."""
        return (-self.P, self.Q)

    def contains(self, i: int) -> bool:
        return -self.P <= i <= self.Q

    def indices(self) -> range:
        return range(-self.P, self.Q + 1)

    def offset(self, i: int) -> int:
        """Array position of logical index ``i``."""
        return i + self.P

    def __str__(self) -> str:
        return f"[{-self.P}, {self.Q}]"


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
        Declared maximum number of nonzero entries per row: a positive
        integer, stored as an ``int`` (``DomainError`` otherwise).
    envelope : SpectralEnvelope
        Spectral bracket of the matrix as an operator on square-summable
        sequences (``DomainError`` for any other type).

    A spec that ``banded_spec`` builds also records its stencil, checked in
    full there, in a private field no constructor sets: the support walk
    (``series.SupportWalk``) and the series step (``sparse_section``) read
    the stencil and no row.  Like the row cache, the stencil describes the
    generator the spec was built with.  ``dataclasses.replace`` drops it, so
    use ``replace`` to give a banded spec a new generator: assigning
    ``row_generator`` leaves the stencil, and so the walk and the step, as
    they were.

    Validated rows are cached; the cache is append-only and derived purely
    from the generator.  It never stores a failure: a malformed row raises
    on every read.  It is a field no constructor sets, so
    ``dataclasses.replace`` and equal specs never share it.  Concurrent
    readers are safe: the cache holds only what a fresh read makes, so two
    that race at worst read a row twice.
    """

    row_generator: RowGenerator
    sparsity_bound_k: int
    envelope: SpectralEnvelope
    _rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _stencil: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        message = "sparsity_bound_k must be a positive integer, got {!r}"
        self.sparsity_bound_k = _integer(self.sparsity_bound_k, message)
        if self.sparsity_bound_k < 1:
            raise DomainError(message.format(self.sparsity_bound_k))
        if not isinstance(self.envelope, SpectralEnvelope):
            raise DomainError(f"envelope must be a SpectralEnvelope, got {self.envelope!r}")

    def row(self, m: int) -> Mapping[int, complex]:
        """Validated row ``m`` as a mapping column -> value (cached).

        Each column is an integer, stored as an ``int``, and each value a
        complex number, finite as one, stored as a ``complex``: the package's
        number rule (``_integer``, ``_number``), so a boolean, a string or
        ``None`` is neither.  Any other entry raises ``MalformedSpecError``,
        as do a repeated column and more than ``sparsity_bound_k`` entries.
        """
        cached = self._rows.get(m)
        if cached is not None:
            return cached
        raw = self.row_generator(m)
        entries = {}
        try:
            for col, value in raw:
                # DomainError is a ValueError: it reads as a malformed entry
                key = _integer(col, "the non-integral column {!r}")
                if key in entries:
                    raise MalformedSpecError(
                        f"row {m} lists column {col} more than once"
                    )
                number = _number(value, f"the non-numeric value {{!r}} at column {key}")
                if not cmath.isfinite(number):
                    raise MalformedSpecError(
                        f"row {m} has the non-finite entry {value} at column {col}"
                    )
                entries[key] = number
        except (TypeError, ValueError, OverflowError) as exc:
            raise MalformedSpecError(f"row {m} has a malformed entry: {exc}") from exc
        if len(entries) > self.sparsity_bound_k:
            raise MalformedSpecError(
                f"row {m} has {len(entries)} nonzeros, exceeding the declared "
                f"sparsity bound k={self.sparsity_bound_k}"
            )
        self._rows[m] = entries
        return entries

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
    ``stencil[i]`` in every row.  An offset is an integer and a value a
    complex number, finite as one, both by the package's number rule (see
    ``_integer`` and ``_number``).  Zero stencil values are dropped, so the
    declared sparsity bound counts actual nonzeros.  The stencil must be
    Hermitian: the value at offset ``-o``, as a complex number, equal to the
    conjugate of the value at ``o``.  Each check is exact, so every row
    passes ``row``'s checks and every section the Hermitian spot-check; a
    stencil that fails one raises ``DomainError`` here.

    The spec records the stencil, as read-only sorted offsets and complex
    values, so the support walk and the series step are computed from it in
    closed form (see ``InfiniteMatrixSpec``).  An offset must therefore be a
    machine integer (``np.intp``).  The checks run on Python numbers: each
    value is converted to a ``complex`` once, and compared with its mirror by
    ``complex.conjugate()``.
    """
    if len(offsets) != len(stencil):
        raise DomainError("offsets and stencil must have equal length")
    shifts = [_integer(o, "stencil offset {!r} is not an integer") for o in offsets]
    for o, shift in zip(offsets, shifts):
        if abs(shift) > _INTP_MAX:
            raise DomainError(f"stencil offset {o!r} is outside the machine-integer range")
    band, nonzero = {}, 0  # offset -> (value, complex value), for the nonzero values
    for o, v in zip(shifts, stencil):
        z = _number(v, f"stencil offset {o} has the value {{!r}}, not a number")
        if not cmath.isfinite(z):
            raise DomainError(f"stencil offset {o} has the non-finite value {v}")
        if v != 0:
            band[o] = (v, z)
            nonzero += 1
    if len(band) != nonzero:
        raise DomainError("duplicate offsets in stencil")
    for o, (v, z) in band.items():
        mirror, conjugate = band.get(-o, (None, None))
        if conjugate != z.conjugate():
            raise DomainError(
                f"stencil is not Hermitian: offset {o} has value {v}, "
                f"offset {-o} has {mirror}"
            )
    order = sorted(band)
    pairs = tuple((o, band[o][0]) for o in order)

    def generate(m: int):
        return [(m + o, v) for o, v in pairs]

    spec = InfiniteMatrixSpec(generate, max(len(pairs), 1), envelope)
    shifts = np.array(order, dtype=np.intp)
    values = np.array([band[o][1] for o in order], dtype=np.complex128)
    shifts.setflags(write=False)
    values.setflags(write=False)
    spec._stencil = (shifts, values)
    return spec


@dataclass
class BoundarySpec:
    """Hermitian correction supported on the window corners {-P, Q}.

    ``entries`` is a mapping keyed by ``(row, col)`` pairs of logical
    indices, integers stored as ``int``s, with values that are complex
    numbers, finite as one, stored as ``complex``; anything else (a list of
    pairs, a key ``0`` or ``(0, 1, 2)``, an index ``0.5``, a boolean, a
    string, ``nan``, ``10**400``) raises ``DomainError``.  Missing
    conjugate partners are filled in on construction; inconsistent pairs or
    non-real diagonal values are rejected.
    """

    entries: dict[tuple[int, int], complex] = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.entries, Mapping):
            raise DomainError(f"boundary entries must be a mapping, got {self.entries!r}")
        completed = {}
        value = "a boundary value must be a finite complex number, got {!r}"
        for key, v in self.entries.items():
            if not (isinstance(key, tuple) and len(key) == 2):
                raise DomainError(f"a boundary key must be a (row, col) pair, got {key!r}")
            completed[(_integer(key[0]), _integer(key[1]))] = _number(v, value, finite=True)
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

    def validate_for(self, window: Window) -> None:
        """Reject entries outside the corner set {-P, Q} x {-P, Q}."""
        corners = set(window.corners)
        for i, j in self.entries:
            if i not in corners or j not in corners:
                raise InvalidBoundaryError(
                    f"boundary entry at ({i},{j}) lies outside the corner set "
                    f"{sorted(corners)} of window {window}"
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
        # Halving first (exact above the subnormal range) keeps entries near
        # the float limit from overflowing.  A real array's conj() is the
        # array itself, so a real matrix is symmetrized as half + half.T.
        half = np.asarray(arr, dtype=np.complex128 if np.iscomplexobj(arr) else np.float64) / 2.0
        sym = half + half.conj().T
        sym.setflags(write=False)
        object.__setattr__(self, "data", sym)

    def element(self, m: int, n: int) -> complex:
        """Entry at logical indices ``(m, n)``."""
        w = self.window
        if not (w.contains(m) and w.contains(n)):
            raise IndexError(f"({m},{n}) outside window {w}")
        return self.data[w.offset(m), w.offset(n)]


def _section(spec: InfiniteMatrixSpec, window: Window):
    """The entries of ``spec`` inside ``window`` as COO arrays ``(rows, cols,
    values)``, indexed by array position, row by row and, within a row, by
    column as the row lists them.

    Every entry is checked against its conjugate partner, the entry at
    ``(col, row)`` or 0 if none.  ``values`` are real when no entry has an
    imaginary part.  It serves the dense truncation (``truncate``) of every
    spec, and the series step (``_step``) of a spec without a stencil.

    Raises
    ------
    MalformedSpecError
        If a generated row violates the sparsity bound or the entries fail
        the Hermitian spot-check.
    """
    lo, hi, dim = -window.P, window.Q, window.dim
    rows, cols, values = [], [], []
    for m in window.indices():
        for col, value in spec.row(m).items():
            if lo <= col <= hi:
                rows.append(m - lo)
                cols.append(col - lo)
                values.append(value)
    rows = np.array(rows, dtype=np.intp)
    cols = np.array(cols, dtype=np.intp)
    vals = np.array(values, dtype=np.complex128)
    keys, partner_keys = rows * dim + cols, cols * dim + rows
    order = np.argsort(keys)
    at = order[np.searchsorted(keys, partner_keys, sorter=order) % max(len(keys), 1)]
    partners = np.where(keys[at] == partner_keys, vals[at], 0.0)
    mismatch = np.abs(vals - partners.conj()).max(initial=0.0)
    if mismatch > HERMITIAN_SPOT_TOL * max(np.abs(vals).max(initial=0.0), 1.0):
        raise MalformedSpecError(
            f"generator is not Hermitian on window {window}: "
            f"max asymmetry {mismatch:.3e}"
        )
    return rows, cols, vals if vals.imag.any() else vals.real


def sparse_section(
    spec: InfiniteMatrixSpec, window: Window
) -> Callable[[np.ndarray], np.ndarray]:
    """Step ``v -> b_R v`` of the binomial series, ``b_R = I - W_R/w``, where
    ``W_R`` is ``spec`` restricted to ``window`` and ``w`` is the envelope's
    shift, on arrays indexed by array position.

    A spec with a stencil (``banded_spec``) steps by one ``np.convolve`` with
    the kernel ``kernel[l - o] = -s_o / w``, plus 1 at the centre, over the
    offsets ``o`` with ``|o| < dim`` (no other offset joins two positions of
    the window), ``l`` the largest of them: ``b_R v`` is the full
    convolution's ``[l, l + dim)``, for every ``dim``.  The kernel is real
    when the stencil is.  It reads no row: ``banded_spec`` checked the
    stencil in full.

    Any other spec holds ``b_R`` as COO values, built on each call:
    ``_section``'s entries divided by ``-w``, with the identity added on the
    diagonal.  Each product is one ``np.bincount``; a complex product is
    summed as interleaved real and imaginary parts.

    Raises
    ------
    MalformedSpecError
        As ``_section``, for a spec without a stencil.
    """
    if spec._stencil is not None:
        return _convolution(spec, window)
    return _step(spec, window)


def _convolution(spec: InfiniteMatrixSpec, window: Window) -> Callable[[np.ndarray], np.ndarray]:
    """``sparse_section``'s step for a spec with a stencil, from the stencil
    alone.

    The offsets are sorted and come in pairs ``+-o``, so the last is the
    largest ``|o|``: when it is below ``dim``, as on every region of one walk
    step or more, the kernel takes every offset and no mask is built."""
    offsets, values = spec._stencil
    dim = window.dim
    if len(offsets) and offsets[-1] >= dim:
        near = np.abs(offsets) < dim
        offsets, values = offsets[near], values[near]
    reach = int(offsets[-1]) if len(offsets) else 0
    if not values.imag.any():
        values = values.real
    kernel = np.zeros(2 * reach + 1, dtype=values.dtype)
    kernel[reach - offsets] = values / -spec.envelope.w
    kernel[reach] += 1.0

    def step(v: np.ndarray) -> np.ndarray:
        return np.convolve(v, kernel)[reach : reach + dim]

    return step


def _step(spec: InfiniteMatrixSpec, window: Window) -> Callable[[np.ndarray], np.ndarray]:
    """``sparse_section``'s step for a spec without a stencil, from
    ``_section``'s COO entries."""
    rows, cols, vals = _section(spec, window)
    dim, w = window.dim, spec.envelope.w
    off = rows != cols
    diagonal = np.ones(dim, dtype=vals.dtype)
    diagonal[rows[~off]] -= vals[~off] / w
    rows = np.concatenate([rows[off], np.arange(dim)])
    vals = np.concatenate([vals[off] / -w, diagonal])
    cols = np.concatenate([cols[off], np.arange(dim)])
    interleaved = np.stack([2 * rows, 2 * rows + 1], axis=1).ravel()

    def step(v: np.ndarray) -> np.ndarray:
        prod = vals * v[cols]
        if np.iscomplexobj(prod):
            return np.bincount(interleaved, prod.view(np.float64), 2 * dim).view(np.complex128)
        return np.bincount(rows, prod, dim)

    return step


def truncate(
    spec: InfiniteMatrixSpec,
    window: Window,
    boundary: BoundarySpec | None = None,
) -> FiniteHermitian:
    """Assemble the finite truncation of ``spec`` over ``window``.

    Interior entries (at least one index strictly inside the window) are
    ``_section``'s; the four corner entries additionally receive the boundary
    correction.  The array is complex when an entry inside the window or a
    boundary entry is.  The result is exactly Hermitian.

    Raises
    ------
    MalformedSpecError
        As ``_section``.
    InvalidBoundaryError
        If boundary entries fall outside the window corners.
    """
    if boundary is None:
        boundary = BoundarySpec()
    boundary.validate_for(window)
    rows, cols, vals = _section(spec, window)
    needs_complex = np.iscomplexobj(vals) or any(
        v.imag != 0.0 for v in boundary.entries.values()
    )
    A = np.zeros((window.dim, window.dim), dtype=np.complex128 if needs_complex else np.float64)
    A[rows, cols] = vals
    for (i, j), v in boundary.entries.items():
        A[window.offset(i), window.offset(j)] += v if needs_complex else v.real
    return FiniteHermitian(window, A)


def validate_truncation(
    matrix: FiniteHermitian,
    envelope: SpectralEnvelope,
    tol: float,
) -> bool:
    """Whether the eigenvalue extremes of a truncation lie in its envelope:
    the smallest at least ``c - tol``, the largest at most
    ``norm_bound + d + tol``.  The caller decides whether a failure is fatal.
    """
    try:
        eigenvalues = np.linalg.eigvalsh(matrix.data)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigendecomposition failed: {exc}") from exc
    return bool(envelope.c - tol <= eigenvalues[0] and eigenvalues[-1] <= envelope.w + tol)
