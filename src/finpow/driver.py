"""Tolerance-driven window choice and local solves.

An element's a-priori bound depends on its window only through the
truncation depth.  So ``tol`` fixes the smallest depth ``J`` whose bound
meets it (``required_depth``), and one walk of the sparsity structure from
the requested indices fixes the smallest window reaching ``J`` for all of
them (``minimal_window``).  Each call solves that one window: truncate, one
eigendecomposition, the envelope check, and per element the depth, an O(N)
read and ``certify``.  Local solutions of ``W x = f`` for finitely supported
``f`` reduce to certified elements of the inverse, solved together.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Sequence

import numpy as np

from .certificates import Certificate, certify, full_series_sum, required_depth
from .core import (
    BoundarySpec,
    InfiniteMatrixSpec,
    ValidationReport,
    Window,
    truncate,
    validate_truncation,  # noqa: F401 - perfbench/tracer.py wraps it by this name
)
from .errors import (
    DomainError,
    FinpowError,
    InvalidBoundaryError,
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

# Relative slack allowed when checking truncation eigenvalues against the
# envelope, scaled by the envelope's upper bound w (at least 1).
SPECTRUM_TOL = 1e-9

# Default cap on the truncation dimension of the adaptive driver.
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
    elements: Sequence[tuple[int, int]],
) -> list[Certificate]:
    """Certificates of ``elements`` at ``window``, in their order.

    One truncation, one ``eigh`` and one envelope check serve every element.

    Raises
    ------
    InvalidBoundaryError
        The truncation's eigenvalues leave the envelope.
    NumericalFailureError
        The eigendecomposition failed.
    """
    depths = [truncation_depth(spec, window, m, n) for m, n in elements]
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
            f"truncation at window [-{window.P}, {window.Q}] violates the "
            f"envelope: eigenvalues in [{report.min_eigenvalue:.6g}, "
            f"{report.max_eigenvalue:.6g}], required "
            f"[{report.lower_limit:.6g}, {report.upper_limit:.6g}]"
        )
    powered = power_eigenvalues(evals, alpha)
    return [
        certify(spectral_element(vecs, powered, window.offset(d.m), window.offset(d.n)),
                alpha, envelope, d)
        for d in depths
    ]


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
        raise DomainError(f"element ({m}, {n}) lies outside window [-{window.P}, {window.Q}]")
    return _solve(spec, boundary_policy, alpha, window, [(m, n)])[0]


def _plan(
    spec: InfiniteMatrixSpec,
    boundary_policy: BoundaryPolicy,
    alpha: float,
    full: float,
    tol: float,
    max_dim: int,
    elements: Sequence[tuple[int, int]],
) -> Window:
    """The smallest window at which every element's bound meets ``tol``,
    from the depth ``tol`` requires and one walk, with no dense algebra.

    Raises
    ------
    NotConvergedError
        That window is wider than ``max_dim``.  It carries the first
        element's certificate at the largest window under ``max_dim``
        centred on the indices, or none when no such window holds them.
    """
    starts = {i for element in elements for i in element}
    lo, hi = min(starts), max(starts)
    if hi - lo < max_dim:  # else no window holds the indices: skip the bound work
        depth = required_depth(alpha, spec.envelope, full, tol, max_dim)
        window = minimal_window(spec, starts, depth)
        if window.dim <= max_dim:
            return window
    message = f"dimension limit {max_dim} reached before the bound fell below tol={tol:g}"
    radius, centre = (max_dim - 1) // 2, (lo + hi) // 2
    if not centre - radius <= lo <= hi <= centre + radius:
        raise NotConvergedError(message)
    best = Window(radius - centre, centre + radius)
    cert = _solve(spec, boundary_policy, alpha, best, elements[:1])[0]
    message += f"; best bound {cert.bound:g} at window [{-best.P}, {best.Q}]"
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
    window = _plan(spec, boundary_policy, alpha, full, tol, max_dim, [(m, n)])
    return _solve(spec, boundary_policy, alpha, window, [(m, n)])[0]


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

    Each requested component ``x_m = sum_n (W**-1)_{mn} f_n`` is assembled
    from certified inverse elements, with the tolerance split uniformly in
    the ``|f_n|`` weighting so the accumulated bound stays below ``tol``.
    All elements need the same depth, so one window serves them all: planned
    as in ``approximate_element``, truncated and eigendecomposed once.

    Raises
    ------
    SingularOperatorError
        The envelope does not bound the spectrum away from zero.
    DomainError
        ``tol`` not positive and finite, or ``f`` has a non-finite value or
        a non-finite ``sum |f_n|``.
    NotConvergedError
        The window needed is wider than ``max_dim``; carries the certificate
        of the first element, as ``approximate_element`` does.
    """
    if spec.envelope.c <= 0.0:
        raise SingularOperatorError(
            f"local solve requires c > 0, envelope has c = {spec.envelope.c}"
        )
    _check_tol(tol)
    support = {int(k): complex(v) for k, v in f.items() if complex(v) != 0}
    if not support:
        return {int(m): (0.0 + 0.0j, 0.0) for m in out_indices}
    weight = sum(abs(v) for v in support.values())
    if not math.isfinite(weight):
        raise DomainError(f"rhs must be finite with a finite sum of |f_n|, got {weight}")
    elements = list(dict.fromkeys((int(m), n) for m in out_indices for n in support))
    if not elements:
        return {}
    full = full_series_sum(-1.0, spec.envelope.c, spec.envelope.w)
    window = _plan(spec, boundary_policy, -1.0, full, tol / weight, max_dim, elements)
    certs = dict(zip(elements, _solve(spec, boundary_policy, -1.0, window, elements)))
    result: dict[int, tuple[complex, float]] = {}
    for m in out_indices:
        total = 0.0 + 0.0j
        bound = 0.0
        for n, fn in support.items():
            cert = certs[int(m), n]
            total += cert.value * fn
            bound += cert.bound * abs(fn)
        result[int(m)] = (total, bound)
    return result
