"""Tolerance-driven window choice and local solves.

Each answer is planned, then solved.  The a-priori bound at a window depends
only on the truncation depth, which the sparsity structure alone decides, so
the plan walks a deterministic schedule of symmetric windows computing just
the depth and the bound, and picks the first window whose bound meets the
target (or, failing that, the best one).  The solve then does the dense work
once, at that window: truncate, one eigendecomposition, the envelope check on
its eigenvalues, and an O(N) read of each requested element.  Local solutions
of ``W x = f`` for finitely supported ``f`` reduce to certified elements of
the inverse, grouped so that each distinct window is factored once.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
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
from .series import truncation_depth

BoundaryPolicy = Callable[[Window], BoundarySpec]

# Relative slack allowed when checking truncation eigenvalues against the
# envelope, scaled by the envelope's upper bound w (at least 1).
SPECTRUM_TOL = 1e-9


def zero_boundary(window: Window) -> BoundarySpec:
    """Boundary policy that applies no corner correction."""
    return BoundarySpec.zero()


@dataclass(frozen=True)
class DriverLimits:
    """Resource limits for the adaptive driver.

    ``max_dim`` caps the truncation dimension.
    """

    max_dim: int = 2049


DEFAULT_LIMITS = DriverLimits()


def _check_premises(spec: InfiniteMatrixSpec, alpha: float) -> None:
    # The bounding series' own check: finite alpha, c > 0 for alpha < 0, and
    # a largest bound that is a finite float.
    full_series_sum(alpha, spec.envelope.c, spec.envelope.w)


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


def evaluate_window(
    spec: InfiniteMatrixSpec,
    boundary_policy: BoundaryPolicy,
    alpha: float,
    m: int,
    n: int,
    window: Window,
) -> Certificate:
    """One-shot pipeline evaluation at a fixed window."""
    _check_premises(spec, alpha)
    [value] = _window_elements(spec, boundary_policy, alpha, window, [(m, n)])
    depth = truncation_depth(spec, window, m, n)
    return certify(value, alpha, spec.envelope, depth)


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
    limits: DriverLimits,
) -> tuple[Window, float]:
    """First scheduled window whose bound meets ``tol``, and that bound.

    Uses depths and bounds alone, no dense algebra.

    Raises
    ------
    NotConvergedError
        No window under ``max_dim`` meets ``tol``; carries the certificate
        at the window with the smallest bound (the first one on ties), or
        none when no window fits.
    """
    best: tuple[Window, float] | None = None
    for window in growth_windows(m, n, limits.max_dim):
        depth = truncation_depth(spec, window, m, n)
        bound = certified_bound(alpha, spec.envelope, depth)
        if bound <= tol:
            return window, bound
        if best is None or bound < best[1]:
            best = window, bound
    message = (
        f"dimension limit {limits.max_dim} reached before the bound fell "
        f"below tol={tol:g}"
    )
    if best is None:
        raise NotConvergedError(message)
    cert = evaluate_window(spec, boundary_policy, alpha, m, n, best[0])
    message += f"; best bound {cert.bound:g} at window [-{cert.window.P}, {cert.window.Q}]"
    raise NotConvergedError(message, best_certificate=cert)


def approximate_element(
    spec: InfiniteMatrixSpec,
    boundary_policy: BoundaryPolicy,
    alpha: float,
    m: int,
    n: int,
    tol: float,
    limits: DriverLimits = DEFAULT_LIMITS,
) -> Certificate:
    """Certified element at the first window whose bound meets ``tol``.

    Windows follow ``P = Q = max(|m|, |n|) + g`` with the margin ``g``
    doubling from 2.  The window is chosen from the a-priori bounds alone;
    the returned certificate is exactly the one-shot evaluation there, and
    only that window is truncated, eigendecomposed and validated.

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
    _check_premises(spec, alpha)
    window, _ = _plan(spec, boundary_policy, alpha, m, n, tol, limits)
    return evaluate_window(spec, boundary_policy, alpha, m, n, window)


@dataclass(frozen=True)
class WindowResult:
    """One row of a convergence table; ``error`` records a per-window failure."""

    P: int
    Q: int
    value: complex | None
    j_pq: int | None
    bound: float | None
    error: str | None = None


def convergence_table(
    spec: InfiniteMatrixSpec,
    boundary_policy: BoundaryPolicy,
    alpha: float,
    m: int,
    n: int,
    windows: Sequence[Window],
) -> list[WindowResult]:
    """Evaluate the pipeline at each requested window, row order preserved."""
    rows = []
    for window in windows:
        try:
            cert = evaluate_window(spec, boundary_policy, alpha, m, n, window)
            rows.append(
                WindowResult(window.P, window.Q, cert.value, cert.depth.j_pq, cert.bound)
            )
        except FinpowError as exc:
            rows.append(WindowResult(window.P, window.Q, None, None, None, str(exc)))
    return rows


def local_solve(
    spec: InfiniteMatrixSpec,
    boundary_policy: BoundaryPolicy,
    f: Mapping[int, complex],
    out_indices: Sequence[int],
    tol: float,
    limits: DriverLimits = DEFAULT_LIMITS,
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
    bounds = {}
    by_window: dict[Window, list[tuple[int, int]]] = defaultdict(list)
    for m in out_indices:
        for n in support:
            element = (int(m), n)
            if element in bounds:
                continue
            window, bounds[element] = _plan(
                spec, boundary_policy, -1.0, *element, per_element_tol, limits
            )
            by_window[window].append(element)
    values = {}
    for window, elements in by_window.items():
        found = _window_elements(spec, boundary_policy, -1.0, window, elements)
        values.update(zip(elements, found))
    result: dict[int, tuple[complex, float]] = {}
    for m in out_indices:
        total = 0.0 + 0.0j
        bound = 0.0
        for n, fn in support.items():
            element = (int(m), n)
            total += complex(values[element]) * fn
            bound += bounds[element] * abs(fn)
        result[int(m)] = (total, bound)
    return result
