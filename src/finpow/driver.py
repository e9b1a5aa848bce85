"""Tolerance-driven window choice and local solves.

An element's a-priori bound depends on its window only through the
truncation depth.  So ``tol`` fixes the smallest depth ``J`` whose bound
meets it (``required_depth``), and one walk of the sparsity structure from
the element's indices fixes the smallest window reaching ``J``
(``minimal_window``).  Each call solves that one window: truncate, one
eigendecomposition, the envelope check, the depth, an O(N) read and
``certify``.  Local solutions of ``W x = f`` for finitely supported ``f``
need no eigensolve: one Neumann sweep of sparse mat-vecs on the region that
``J - 1`` steps from ``supp f`` reach gives every component at once.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Sequence

import numpy as np

from .certificates import Certificate, certify, full_series_sum, required_depth, tail_bound
from .core import (
    BoundarySpec,
    InfiniteMatrixSpec,
    SpectralEnvelope,
    ValidationReport,
    Window,
    sparse_section,
    truncate,
    validate_truncation,  # noqa: F401 - perfbench/tracer.py wraps it by this name
)
from .errors import (
    DomainError,
    FinpowError,
    InvalidBoundaryError,
    MalformedSpecError,
    NotConvergedError,
    NumericalFailureError,
    SingularOperatorError,
)
from .powers import (
    finite_power,  # noqa: F401 - perfbench/tracer.py wraps it by this name
    power_eigenvalues,
    spectral_element,
)
from .series import minimal_window, truncation_depth

BoundaryPolicy = Callable[[Window], BoundarySpec]

# Relative slack allowed when checking truncation eigenvalues, or the Rayleigh
# quotients of a local solve, against the envelope, scaled by the envelope's
# upper bound w (at least 1).
SPECTRUM_TOL = 1e-9

# Default cap on the truncation dimension of the adaptive driver, and on the
# region dimension and depth of a local solve.
MAX_DIM = 2049


def zero_boundary(window: Window) -> BoundarySpec:
    """Boundary policy that applies no corner correction."""
    return BoundarySpec.zero()


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be positive and finite, got {tol}")


def _solve(
    spec: InfiniteMatrixSpec,
    boundary_policy: BoundaryPolicy,
    alpha: float,
    window: Window,
    m: int,
    n: int,
) -> Certificate:
    """Certificate of ``(m, n)`` at ``window``: one truncation, one ``eigh``,
    the envelope check, then the depth and an O(N) read.

    Raises
    ------
    InvalidBoundaryError
        The truncation's eigenvalues leave the envelope.
    NumericalFailureError
        The eigendecomposition failed.
    """
    depth = truncation_depth(spec, window, m, n)
    envelope = spec.envelope
    matrix = truncate(spec, window, boundary_policy(window))
    try:
        evals, vecs = np.linalg.eigh(matrix.data)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigendecomposition failed: {exc}") from exc
    report = ValidationReport.from_eigenvalues(
        evals, envelope, SPECTRUM_TOL * max(envelope.w, 1.0)
    )
    if not report.passed:
        raise InvalidBoundaryError(
            f"truncation at window {window} violates the "
            f"envelope: eigenvalues in [{report.min_eigenvalue:.6g}, "
            f"{report.max_eigenvalue:.6g}], required "
            f"[{report.lower_limit:.6g}, {report.upper_limit:.6g}]"
        )
    powered = power_eigenvalues(evals, alpha)
    value = spectral_element(vecs, powered, window.offset(m), window.offset(n))
    return certify(value, alpha, envelope, depth)


def evaluate_window(
    spec: InfiniteMatrixSpec,
    boundary_policy: BoundaryPolicy,
    alpha: float,
    m: int,
    n: int,
    window: Window,
) -> Certificate:
    """One-shot pipeline evaluation at a fixed window containing ``(m, n)``."""
    full_series_sum(alpha, spec.envelope.c, spec.envelope.w)
    if not (window.contains(m) and window.contains(n)):
        raise DomainError(f"element ({m}, {n}) lies outside window {window}")
    return _solve(spec, boundary_policy, alpha, window, m, n)


def _not_converged(max_dim: int, tol: float) -> str:
    return f"dimension limit {max_dim} reached before the bound fell below tol={tol:g}"


def _plan(
    spec: InfiniteMatrixSpec,
    boundary_policy: BoundaryPolicy,
    alpha: float,
    full: float,
    tol: float,
    max_dim: int,
    m: int,
    n: int,
) -> Window:
    """The smallest window at which the bound of ``(m, n)`` meets ``tol``,
    from the depth ``tol`` requires and one walk, with no dense algebra.

    Raises
    ------
    NotConvergedError
        That window is wider than ``max_dim``.  It carries the certificate
        at the largest window under ``max_dim`` centred on the indices, or
        none when no such window holds them.
    """
    lo, hi = min(m, n), max(m, n)
    if hi - lo < max_dim:  # else no window holds the indices: skip the bound work
        depth = required_depth(alpha, spec.envelope, full, tol, max_dim)
        window = minimal_window(spec, {m, n}, depth)
        if window.dim <= max_dim:
            return window
    message = _not_converged(max_dim, tol)
    radius, centre = (max_dim - 1) // 2, (lo + hi) // 2
    if not centre - radius <= lo <= hi <= centre + radius:
        raise NotConvergedError(message)
    best = Window(radius - centre, centre + radius)
    cert = _solve(spec, boundary_policy, alpha, best, m, n)
    message += f"; best bound {cert.bound:g} at window {best}"
    raise NotConvergedError(message, best_certificate=cert)


def approximate_element(
    spec: InfiniteMatrixSpec,
    boundary_policy: BoundaryPolicy,
    alpha: float,
    m: int,
    n: int,
    tol: float,
    *,
    max_dim: int = MAX_DIM,
) -> Certificate:
    """Certified element at the smallest window whose bound meets ``tol``.

    That window ``[-P, Q]``, up to the dimension ``max_dim``, is the smallest
    around ``m`` and ``n`` reaching the depth ``tol`` requires.  It is chosen
    from the a-priori bounds alone; the certificate is exactly the one-shot
    evaluation there, and only that window is truncated, eigendecomposed and
    validated.

    Raises
    ------
    NotConvergedError
        The window needed is wider than ``max_dim``; carries the certificate
        at the largest window under ``max_dim`` centred on the element.
    DivergentSeriesError
        ``alpha < 0`` with an envelope touching zero.
    DomainError
        ``alpha`` not finite, or ``tol`` not positive and finite.
    NumericalFailureError
        The bound at ``alpha`` overflows a float, or ``alpha`` is above
        ``MAX_TAIL_TERMS``; raised before any window is planned.
    InvalidBoundaryError
        The chosen truncation failed the spectrum validation.
    """
    _check_tol(tol)
    full = full_series_sum(alpha, spec.envelope.c, spec.envelope.w)
    window = _plan(spec, boundary_policy, alpha, full, tol, max_dim, m, n)
    return _solve(spec, boundary_policy, alpha, window, m, n)


def convergence_table(
    spec: InfiniteMatrixSpec,
    boundary_policy: BoundaryPolicy,
    alpha: float,
    m: int,
    n: int,
    windows: Sequence[Window],
) -> list[Certificate | FinpowError]:
    """Evaluate the pipeline at each requested window, in order.

    Each entry is the window's certificate, or the ``FinpowError`` its
    evaluation raised.  Premise failures, which no window can change, raise
    before any window, as ``full_series_sum`` raises them.
    """
    full_series_sum(alpha, spec.envelope.c, spec.envelope.w)
    rows = []
    for window in windows:
        try:
            rows.append(evaluate_window(spec, boundary_policy, alpha, m, n, window))
        except FinpowError as exc:
            rows.append(exc)
    return rows


def _check_rayleigh(
    envelope: SpectralEnvelope, region: Window, u: np.ndarray, w_u: np.ndarray
) -> None:
    """Reject an envelope ``[c, norm_bound]`` that excludes ``<u, W u> / <u, u>``.

    ``u`` is supported on ``region``, where ``w_u`` is ``W u``; so this is the
    quadratic form of the infinite matrix, which any sound envelope holds.
    """
    largest = np.abs(u).max()
    u, w_u = u / largest, w_u / largest
    quotient = np.vdot(u, w_u).real / np.vdot(u, u).real
    slack = SPECTRUM_TOL * max(envelope.w, 1.0)
    if not envelope.c - slack <= quotient <= envelope.norm_bound + slack:
        raise MalformedSpecError(
            f"a Rayleigh quotient of W on the region {region} is {quotient:.6g}, "
            f"outside the envelope [{envelope.c:.6g}, {envelope.norm_bound:.6g}]"
        )


def local_solve(
    spec: InfiniteMatrixSpec,
    boundary_policy: BoundaryPolicy,
    f: Mapping[int, complex],
    out_indices: Sequence[int],
    tol: float,
    *,
    max_dim: int = MAX_DIM,
) -> dict[int, tuple[complex, float]]:
    """Certified components of the solution of ``W x = f``.

    One Neumann sweep ``x = w**-1 * sum_{j<J} ((w I - W)/w)**j f``, with the
    depth ``J`` that ``tol`` requires, on the region ``R`` that ``J - 1``
    support steps from ``supp f`` reach: there ``W`` acts as ``W_R`` on every
    term, so ``x`` is the infinite matrix's partial sum and its error is one
    tail, ``sum |f_n| * tail_bound(-1, c, w, J) / 2``, the bound of every
    component.  A component outside ``R`` is exactly 0 in the partial sum.
    The work is ``J - 1`` sparse mat-vecs over ``R``, plus one for the
    envelope check: the Rayleigh quotients of ``f`` and ``x`` must lie in
    ``[c, norm_bound]``.  ``boundary_policy`` is not read; no truncation is
    made.

    Raises
    ------
    SingularOperatorError
        The envelope does not bound the spectrum away from zero.
    DomainError
        ``tol`` not positive and finite, or ``f`` has a non-finite value or
        a non-finite ``sum |f_n|``.
    NotConvergedError
        ``J`` or the dimension of ``R`` is above ``max_dim``; carries no
        certificate.
    MalformedSpecError
        A row breaks the spec's contract, the entries on ``R`` fail the
        Hermitian spot-check, or a Rayleigh quotient leaves the envelope.
    NumericalFailureError
        A component of ``x`` overflows.
    """
    envelope = spec.envelope
    if envelope.c <= 0.0:
        raise SingularOperatorError(
            f"local solve requires c > 0, envelope has c = {envelope.c}"
        )
    _check_tol(tol)
    support = {int(k): complex(v) for k, v in f.items() if complex(v) != 0}
    if not support:
        return {int(m): (0.0 + 0.0j, 0.0) for m in out_indices}
    weight = sum(abs(v) for v in support.values())
    if not math.isfinite(weight):
        raise DomainError(f"rhs must be finite with a finite sum of |f_n|, got {weight}")
    c, w = envelope.c, envelope.w
    full = full_series_sum(-1.0, c, w)
    depth = required_depth(-1.0, envelope, full, 2.0 * tol / weight, max_dim) - 1
    bound = math.inf
    while bound > tol and depth < max_dim:  # a second pass only if 2 tol / weight rounded up
        depth += 1
        bound = weight * (tail_bound(-1.0, c, w, depth) / 2.0)
    region = minimal_window(spec, support, depth) if bound <= tol else None
    if region is None or region.dim > max_dim:
        raise NotConvergedError(_not_converged(max_dim, tol))

    matvec = sparse_section(spec, region)
    scale = max(abs(v) for v in support.values())
    rhs = np.zeros(region.dim, dtype=np.complex128)
    for n, fn in support.items():
        rhs[region.offset(n)] = fn / scale
    if not rhs.imag.any():
        rhs = rhs.real
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite value below
        w_rhs = matvec(rhs)
        x = term = rhs
        for j in range(1, depth):
            term = term - (w_rhs if j == 1 else matvec(term)) / w
            x = x + term
        x = x / w
        _check_rayleigh(envelope, region, rhs, w_rhs)
        _check_rayleigh(envelope, region, x, matvec(x))
        x = x * scale
    if not np.isfinite(x).all():
        raise NumericalFailureError("a component of the local solution overflows")
    return {
        int(m): (complex(x[region.offset(m)]) if region.contains(m) else 0.0 + 0.0j, bound)
        for m in out_indices
    }
