"""Tolerance-driven window choice and local solves.

Each answer is planned, then solved.  The a-priori bound at a window depends
only on the truncation depth, which the sparsity structure alone decides, so
the plan walks a deterministic schedule of symmetric windows computing just
the depth and the bound, and picks the depth at the first window whose bound
meets the target (or, failing that, the best one).  The solve takes planned
depths and does the dense work once per distinct window: truncate, one
eigendecomposition, the envelope check on its eigenvalues, and an O(N) read
of each requested element, which ``certify`` pairs with its bound.  Local
solutions of ``W x = f`` for finitely supported ``f`` reduce to certified
elements of the inverse, solved together.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Sequence

import numpy as np

from .certificates import Certificate, certified_bound, certify, full_series_sum
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
from .series import TruncationDepth, truncation_depth

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


def _window_elements(
    spec: InfiniteMatrixSpec,
    boundary_policy: BoundaryPolicy,
    alpha: float,
    window: Window,
    elements: Sequence[tuple[int, int]],
) -> list:
    """Elements of the truncation's ``alpha`` power at ``window``, one ``eigh``.

    Raises
    ------
    DomainError
        An element lies outside the window.
    InvalidBoundaryError
        The truncation's eigenvalues leave the envelope.
    NumericalFailureError
        The eigendecomposition failed.
    """
    for m, n in elements:
        if not (window.contains(m) and window.contains(n)):
            raise DomainError(
                f"element ({m}, {n}) lies outside window [-{window.P}, {window.Q}]"
            )
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
        spectral_element(vecs, powered, window.offset(m), window.offset(n))
        for m, n in elements
    ]


def _solve(
    spec: InfiniteMatrixSpec,
    boundary_policy: BoundaryPolicy,
    alpha: float,
    depths: Sequence[TruncationDepth],
) -> list[Certificate]:
    """Certificates at the planned ``depths``, in their order.

    Depths are grouped by window in first-seen order, and each window is
    truncated, eigendecomposed and checked once for all of its elements;
    the first window that fails raises as ``_window_elements`` does.
    """
    groups: dict[Window, list[TruncationDepth]] = {}
    for depth in depths:
        groups.setdefault(depth.window, []).append(depth)
    certs = {}
    for window, group in groups.items():
        values = _window_elements(
            spec, boundary_policy, alpha, window, [(d.m, d.n) for d in group]
        )
        for depth, value in zip(group, values):
            certs[depth] = certify(value, alpha, spec.envelope, depth)
    return [certs[depth] for depth in depths]


def evaluate_window(
    spec: InfiniteMatrixSpec,
    boundary_policy: BoundaryPolicy,
    alpha: float,
    m: int,
    n: int,
    window: Window,
) -> Certificate:
    """One-shot pipeline evaluation at a fixed window."""
    full_series_sum(alpha, spec.envelope.c, spec.envelope.w)
    depth = truncation_depth(spec, window, m, n)
    return _solve(spec, boundary_policy, alpha, [depth])[0]


def growth_windows(m: int, n: int, max_dim: int):
    """Deterministic schedule of symmetric windows around the element."""
    base = max(abs(m), abs(n))
    margin = 2
    while True:
        window = Window(base + margin, base + margin)
        if window.dim > max_dim:
            return
        yield window
        margin *= 2


def _plan(
    spec: InfiniteMatrixSpec,
    boundary_policy: BoundaryPolicy,
    alpha: float,
    m: int,
    n: int,
    tol: float,
    max_dim: int,
) -> TruncationDepth:
    """Depth at the first scheduled window whose bound meets ``tol``.

    Uses depths and bounds alone, no dense algebra.

    Raises
    ------
    NotConvergedError
        No window under ``max_dim`` meets ``tol``; carries the certificate
        at the window with the smallest bound (the first one on ties), or
        none when no window fits.
    """
    best: tuple[TruncationDepth, float] | None = None
    for window in growth_windows(m, n, max_dim):
        depth = truncation_depth(spec, window, m, n)
        bound = certified_bound(alpha, spec.envelope, depth)
        if bound <= tol:
            return depth
        if best is None or bound < best[1]:
            best = depth, bound
    message = (
        f"dimension limit {max_dim} reached before the bound fell "
        f"below tol={tol:g}"
    )
    if best is None:
        raise NotConvergedError(message)
    cert = _solve(spec, boundary_policy, alpha, [best[0]])[0]
    message += f"; best bound {cert.bound:g} at window [-{cert.window.P}, {cert.window.Q}]"
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
    """Certified element at the first window whose bound meets ``tol``.

    Windows follow ``P = Q = max(|m|, |n|) + g`` with the margin ``g``
    doubling from 2, up to the dimension ``max_dim``.  The window is chosen
    from the a-priori bounds alone; the returned certificate is exactly the
    one-shot evaluation there, and only that window is truncated,
    eigendecomposed and validated.

    Raises
    ------
    NotConvergedError
        Dimension limit reached first; carries the certificate at the
        window with the best bound.
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
    full_series_sum(alpha, spec.envelope.c, spec.envelope.w)
    depth = _plan(spec, boundary_policy, alpha, m, n, tol, max_dim)
    return _solve(spec, boundary_policy, alpha, [depth])[0]


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
    evaluation raised.
    """
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
    Every element is planned as in ``approximate_element``, and each distinct
    chosen window is truncated and eigendecomposed once for all the elements
    that chose it.

    Raises
    ------
    SingularOperatorError
        The envelope does not bound the spectrum away from zero.
    DomainError
        ``tol`` not positive and finite, or ``f`` has a non-finite value or
        a non-finite ``sum |f_n|``.
    NotConvergedError
        Some element cannot meet its share of ``tol``; raised for the first
        such element, as ``approximate_element`` raises it.
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
    per_element_tol = tol / weight
    depths: dict[tuple[int, int], TruncationDepth] = {}
    for m in out_indices:
        for n in support:
            element = (int(m), n)
            if element not in depths:
                depths[element] = _plan(
                    spec, boundary_policy, -1.0, *element, per_element_tol, max_dim
                )
    certs = dict(zip(depths, _solve(spec, boundary_policy, -1.0, list(depths.values()))))
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
