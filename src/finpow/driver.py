"""Tolerance-driven evaluation: matrix-free series sweeps, and the paper's
dense windows as their reference.

Both entry points that take a tolerance, ``approximate_element`` and
``local_solve``, evaluate the binomial series
``W**alpha = w**alpha * sum_j C(alpha, j) (-1)**j b**j``, ``b = I - W/w``,
with no eigensolve.  ``tol`` fixes the smallest depth ``J`` whose one tail
``w**alpha * sum_{j>=J} |C(alpha, j)| x**j`` meets it, and one walk of the
sparsity structure (``SupportWalk``) fixes the window that ``J - 1`` support
steps from the requested indices reach.  There ``W`` acts as its restriction
on every term, so the terms ``b**j v`` that one generator steps (``_terms``,
one sparse mat-vec each) give the infinite matrix's partial sum, whose error
is that one tail.  Local solutions of ``W x = f`` are the case
``alpha = -1``, with every component read off one sweep of ``J`` terms on
that window.  An element reads the series only at
``(max(m, n), min(m, n))``: the paths of length ``L`` between the two indices
stay within ``floor(L / 2)`` steps of them, so it is swept on the smaller
region those steps reach, inside the recorded window, and the same walk gives
both.

``evaluate_window`` and ``convergence_table`` keep the paper's construction:
truncate at a given window with a boundary correction, eigendecompose, and
bound the error by the two tails ``tail_bound``.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Sequence

import numpy as np

from .certificates import (
    MAX_DEPTH,
    Certificate,
    certify,
    full_series_sum,
    required_depth,
    tail_bound,
)
from .core import (
    BoundarySpec,
    InfiniteMatrixSpec,
    SpectralEnvelope,
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
)
from .powers import (
    finite_power,  # noqa: F401 - perfbench/tracer.py wraps it by this name
    power_eigenvalues,
    spectral_element,
)
from .series import SupportWalk, TruncationDepth, truncation_depth

BoundaryPolicy = Callable[[Window], BoundarySpec]

# Relative slack allowed when checking truncation eigenvalues, or the Rayleigh
# quotients of a sweep, against the envelope, scaled by the envelope's upper
# bound w (at least 1).
SPECTRUM_TOL = 1e-9

# Default cap on the region dimension and depth of a sweep; the command line
# also caps the windows of `table` and `example` with it.
MAX_DIM = 2049

_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)


def zero_boundary(window: Window) -> BoundarySpec:
    """Boundary policy that applies no corner correction."""
    return BoundarySpec()


def _check_tol(tol: float) -> None:
    try:
        valid = math.isfinite(tol) and tol > 0.0
    except (TypeError, OverflowError):  # not a real number, or too large for a float
        valid = False
    if not valid:
        raise DomainError(f"tol must be positive and finite, got {tol!r}")


def _index(i, name: str = "an index") -> int:
    """``i`` as an ``int``: an integral number becomes its ``int``."""
    try:
        if int(i) == i:
            return int(i)
    except (TypeError, ValueError, OverflowError):
        pass
    raise DomainError(f"{name} must be an integer, got {i!r}")


def _rhs_value(v) -> complex:
    """A value of a right-hand side as a ``complex``."""
    try:
        return complex(v)
    except (TypeError, ValueError, OverflowError):
        pass
    raise DomainError(f"a rhs value must be a complex number, got {v!r}")


def evaluate_window(
    spec: InfiniteMatrixSpec,
    boundary_policy: BoundaryPolicy,
    alpha: float,
    m: int,
    n: int,
    window: Window,
) -> Certificate:
    """The paper's certificate of ``(m, n)`` at a fixed window: one truncation
    with the policy's corner correction, one ``eigh``, the envelope check,
    then the truncation depth, an O(N) read and the bound ``tail_bound``.

    Raises
    ------
    DivergentSeriesError, DomainError, NumericalFailureError
        As ``full_series_sum``, which checks the premise.
    DomainError
        An index is not an integer, or the element lies outside ``window``.
    InvalidBoundaryError
        The truncation's eigenvalues leave the envelope.
    NumericalFailureError
        The eigendecomposition failed.
    """
    m, n = _index(m), _index(n)
    envelope = spec.envelope
    full_series_sum(alpha, envelope.c, envelope.w)
    if not (window.contains(m) and window.contains(n)):
        raise DomainError(f"element ({m}, {n}) lies outside window {window}")
    depth = truncation_depth(spec, window, m, n)
    matrix = truncate(spec, window, boundary_policy(window))
    try:
        evals, vecs = np.linalg.eigh(matrix.data)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigendecomposition failed: {exc}") from exc
    slack = SPECTRUM_TOL * max(envelope.w, 1.0)
    lo, hi = float(evals[0]), float(evals[-1])
    if not (envelope.c - slack <= lo and hi <= envelope.w + slack):
        raise InvalidBoundaryError(
            f"truncation at window {window} violates the envelope: eigenvalues in "
            f"[{lo:.6g}, {hi:.6g}], required [{envelope.c:.6g}, {envelope.w:.6g}]"
        )
    powered = power_eigenvalues(evals, alpha)
    value = spectral_element(vecs, powered, window.offset(m), window.offset(n))
    return certify(value, alpha, envelope, depth)


def _not_converged(max_dim: int, tol: float) -> str:
    limit = f"dimension limit {max_dim}"
    if max_dim > MAX_DEPTH:  # the depth search looks no deeper
        limit += f" (depth limit {MAX_DEPTH})"
    return f"{limit} reached before the bound fell below tol={tol:g}"


def _check_rayleigh(
    envelope: SpectralEnvelope, region: Window, u: np.ndarray, b_u: np.ndarray
) -> None:
    """Reject an envelope ``[c, norm_bound]`` that excludes ``<u, W u> / <u, u>``,
    read as ``w (1 - <u, b u> / <u, u>)`` (``_check_quotient``).

    ``u`` is supported on ``region``, where ``b_u`` is ``b u``; so this is the
    quadratic form of the infinite matrix, which any sound envelope holds.  A
    ``u`` whose entries all lie below the normal floats (zero included) has
    too few bits for a quotient and passes unchecked.  ``_terms`` checks a
    unit start vector without this scaling (see there).
    """
    largest = np.abs(u).max()
    if largest < _TINY:
        return
    u, b_u = u / largest, b_u / largest
    _check_quotient(envelope, region, np.vdot(u, b_u).real / np.vdot(u, u).real)


def _check_quotient(envelope: SpectralEnvelope, region: Window, ratio) -> None:
    """Reject an envelope ``[c, norm_bound]`` that excludes the Rayleigh
    quotient ``w (1 - ratio)`` of ``W`` on ``region``, ``ratio`` that of
    ``b``."""
    quotient = envelope.w * (1.0 - ratio)
    slack = SPECTRUM_TOL * max(envelope.w, 1.0)
    if not envelope.c - slack <= quotient <= envelope.norm_bound + slack:
        raise MalformedSpecError(
            f"a Rayleigh quotient of W on the region {region} is {quotient:.6g}, "
            f"outside the envelope [{envelope.c:.6g}, {envelope.norm_bound:.6g}]"
        )


def _terms(
    spec: InfiniteMatrixSpec,
    region: Window,
    step: Callable[[np.ndarray], np.ndarray],
    start: np.ndarray | int,
    count: int,
):
    """The pairs ``(v_j, b v_j)`` for the ``count`` terms ``v_j = b**j start``
    of the series on the region ``R``, with ``b = I - W_R/w`` and ``step``
    its product, ``sparse_section(spec, R)``: one step per term.  ``start``
    is a vector on ``R``, or the array position ``p`` of the unit vector
    ``e_p``.

    The Rayleigh quotients of ``start`` and of the last term must lie in the
    envelope (``_check_rayleigh``).  For ``e_p`` the quotient of ``b`` is
    ``<e_p, b e_p> / <e_p, e_p> = (b e_p)[p]``, which the one dot product
    ``<e_p, b e_p>`` gives bitwise as the scaled check does (``e_p`` has
    norm 1, so it scales nothing), a non-finite entry of ``b e_p`` included.
    The last is checked before it is yielded, so a consumer that takes
    exactly ``count`` pairs has run both checks.  The caller owns the
    floating-point error state: an overflow shows as a non-finite sum.

    Raises
    ------
    MalformedSpecError
        A Rayleigh quotient leaves the envelope.  (``sparse_section`` raises
        it too, when a row breaks the spec's contract or the entries on ``R``
        fail the Hermitian spot-check.)
    """
    unit = isinstance(start, int)
    if unit:
        term = np.zeros(region.dim)
        term[start] = 1.0
    else:
        term = start
    for j in range(count):
        after = step(term)
        if j == 0 and unit:
            _check_quotient(spec.envelope, region, np.vdot(term, after).real)
        elif j == 0 or j == count - 1:
            _check_rayleigh(spec.envelope, region, term, after)
        yield term, after
        term = after


def _coefficients(alpha: float, terms: int) -> tuple[list[float], list[float]]:
    """The series ``C(beta, j) (-1)**j``, ``j < terms``, of an element sweep,
    ``beta = alpha - k`` with ``k = floor(alpha)`` (0 for ``alpha < 0``), and
    its ``k`` carries ``C(beta + r, terms - 1) (-1)**(terms - 1)``, ``r < k``
    (see ``_element_certificate``), as floats.

    The series runs the recurrence ``C(beta, j - 1) (beta - (j - 1)) / j``
    one float at a time, in order; a sweep has only ``terms`` of them.  Carry
    0 is the series' last term.  The others run the same recurrence at
    ``beta + r``, as one vector over ``r`` multiplied once per ``j``, in the
    same order.  The largest, ``r = k - 1``, is run first, one float at a
    time: ``|C(a, j)|`` is at most 1 for ``0 <= a <= j`` and grows with ``a``
    above ``j``, so when it is finite every carry is, at every ``j``.

    Raises
    ------
    NumericalFailureError
        A carry overflows (``C(beta + r, terms - 1)`` grows with ``r``).
    """
    k = max(math.floor(alpha), 0)
    beta = alpha - k
    series, coefficient = [1.0], 1.0
    for j in range(1, terms):
        coefficient *= (beta - (j - 1)) / j
        series.append(-coefficient if j % 2 else coefficient)
    if k < 2:
        return series, series[-1:] if k else []
    largest, top = 1.0, beta + (k - 1)
    for j in range(1, terms):
        largest *= (top - (j - 1)) / j
    if not math.isfinite(largest):
        raise NumericalFailureError(
            f"at alpha={alpha} the sweep's carries C({beta:g} + r, {terms - 1}), "
            f"r < {k}, overflow a float"
        )
    top, carries = beta + np.arange(1.0, k), np.ones(k - 1)
    for j in range(1, terms):
        carries *= (top - (j - 1)) / j
    return series, series[-1:] + ((-1.0) ** (terms - 1) * carries).tolist()


def _element_certificate(
    spec: InfiniteMatrixSpec,
    alpha: float,
    depth: TruncationDepth,
    bound: float,
    walk: SupportWalk,
) -> Certificate:
    """Certificate of the partial sum of ``J = depth.j_pq`` terms of
    ``(W**alpha)[m, n]``, recorded at ``depth.window`` and swept on a region
    inside it, which ``walk`` (from ``{m, n}``) gives.

    With ``b = I - W/w``, the partial sum ``P^alpha`` of ``(I - b)**alpha``
    has terms up to ``full_series_sum``, about ``(1 + x)**alpha`` for
    ``alpha > 0``, that cancel.  So the sweep sums only ``P^beta e_lo``,
    ``beta = alpha - k`` in ``[0, 1)`` with ``k = floor(alpha)`` (terms
    summing to at most 2), and applies the identity
    ``P^(g + 1) = (I - b) P^g + C(g, J - 1) (-1)**(J - 1) b**J`` ``k`` times
    to that vector, for ``g = beta, ..., alpha - 1``.  ``b**J e_lo`` is the
    ``b v_{J-1}`` the sweep already holds, so each application costs one
    step.  Every factor there has norm at most 1.  Its round-off is about
    ``J eps w**alpha (2 + x**J sum|a_r|)``, ``a_r = C(beta + r, J - 1)``;
    ``w**alpha`` bounds every element of ``W**alpha``, so when that round-off
    reaches it (or the estimate is NaN) the call fails rather than certify a
    value with no certain digit (``NumericalFailureError``, as for a carry or
    a value that overflows).

    Each piece of the read is a polynomial of degree at most
    ``L = J - 1 + k`` in ``W`` at ``(max(m, n), min(m, n))``: a sum over
    support paths of length at most ``L`` between the two indices.  Every
    index on such a path lies within ``floor(L / 2)`` steps of ``{m, n}``
    (the support is symmetric), so on the region of ``floor(L / 2)`` steps of
    the walk each piece is the infinite matrix's own.  Where that is more
    than ``J - 1`` steps, the sweep takes ``J - 1``: there ``P^alpha``, of
    degree ``J - 1``, is the infinite matrix's, and the identity holds for
    ``W_R`` too.  ``depth.window`` holds ``J - 1`` steps in its interior, so
    either region lies inside it.  A diagonal element with ``k = 0`` reads
    ``(b**(2i))[m, m] = <v_i, v_i>`` and ``(b**(2i+1))[m, m] = <v_i, v_{i+1}>``
    (``b`` is Hermitian), in ``ceil(J / 2)`` steps; every other element sums
    ``J`` terms, and ``k`` more steps for the identity.

    The sweep starts at ``e_{min(m, n)}`` and reads the larger index, so
    ``(m, n)`` and ``(n, m)`` are exact conjugates; a diagonal element is
    real.
    """
    m, n, terms = depth.m, depth.n, depth.j_pq
    envelope = spec.envelope
    w = envelope.w
    k = max(math.floor(alpha), 0)
    series, carries = _coefficients(alpha, terms)
    x = (w - envelope.c) / w
    # fails closed: 0 * inf, from x**terms underflowing, is NaN
    if not terms * _EPS * (2.0 + x ** terms * sum(map(abs, carries))) < 1.0:
        raise NumericalFailureError(
            f"at alpha={alpha} the round-off of the sweep's {terms} terms "
            f"reaches w**alpha, which bounds every element: it would leave no "
            f"certain digit"
        )
    lo, hi = min(m, n), max(m, n)
    region = walk.window(min(terms - 1, (terms - 1 + k) // 2))
    start = region.offset(lo)  # e_lo
    read = 0.0
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite value below
        step = sparse_section(spec, region)
        if not k and m == n:
            sweep = _terms(spec, region, step, start, (terms + 1) // 2)
            for i, (term, after) in zip(range(0, terms, 2), sweep):
                read += series[i] * np.vdot(term, term).real
                if i + 1 < terms:
                    read += series[i + 1] * np.vdot(term, after).real
        else:
            at = slice(None) if k else region.offset(hi)  # the identity steps all of P^beta e_lo
            sweep = _terms(spec, region, step, start, terms)
            for coefficient, (term, after) in zip(series, sweep):
                read = read + coefficient * term[at]
            for carry in carries:
                read = read - step(read) + carry * after
            if k:
                read = read[region.offset(hi)]
    if m == n:
        read = read.real
    elif m < n:
        read = np.conj(read)
    value = w ** alpha * complex(read)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise NumericalFailureError(f"the element ({m}, {n}) of W**{alpha} overflows")
    return Certificate(value, depth.window, depth, bound, envelope, alpha)


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
    """Certified element ``(W**alpha)[m, n]`` by one matrix-free series sweep.

    ``J`` is the smallest depth whose one tail
    ``w**alpha * sum_{j>=J} |C(alpha, j)| x**j`` (``tail_bound / 2``) meets
    ``tol`` in float, and the window ``R`` is the smallest one whose interior
    holds ``J - 1`` support steps from ``m`` and ``n``.  On ``R``,
    ``w**alpha * sum_{j<J} C(alpha, j) (-1)**j [(I - W_R/w)**j][m, n]`` is
    the infinite matrix's partial sum, so that tail is the certificate's
    bound, and the certificate records ``TruncationDepth(J, R, m, n)``.  The
    sum is a sum over paths of length below ``J`` between ``m`` and ``n``,
    which stay within ``(J - 1) // 2`` steps of them; so the value is swept on
    the region those steps reach (``(J - 1 + k) // 2``, at most ``J - 1``, for
    ``k = floor(alpha) >= 1``), inside ``R`` and found by the same walk (see
    ``_element_certificate``).  That takes ``J + k`` sparse mat-vecs over
    half of ``R``, ``ceil(J / 2)`` for a diagonal element with ``alpha < 1``,
    and the Rayleigh-quotient envelope check of ``_terms``.  The walk stops
    once its window is wider than ``max_dim``.  Integer ``alpha`` and ``x = 0``
    give bound 0 through the tail.  Round-off is outside the bound.
    ``boundary_policy`` is not read; no window is truncated.

    Raises
    ------
    NotConvergedError
        ``J`` or the dimension of ``R`` is above ``max_dim`` (``J`` is
        searched up to ``MAX_DEPTH``).  It carries the sweep's certificate
        at the largest window under ``max_dim`` centred on the indices, at
        that window's ``truncation_depth``, or none when no such window
        holds them.
    DivergentSeriesError
        ``alpha < 0`` with an envelope touching zero.
    DomainError
        ``alpha`` not a finite real number, ``tol`` not positive and finite,
        or ``m``, ``n`` or ``max_dim`` not an integer.
    NumericalFailureError
        The bound at ``alpha`` overflows a float, ``alpha`` is above
        ``MAX_TAIL_TERMS``, or the series terms of a negative ``alpha`` do
        not decay in float (``c`` so small against ``w`` that ``x`` rounds to
        1), all raised before any sweep; or a carry of ``floor(alpha)``
        overflows, or the round-off would leave no certain digit, both
        raised before the sweep; or the value overflows.
    MalformedSpecError
        As ``_terms``.
    """
    _check_tol(tol)
    m, n = _index(m), _index(n)
    max_dim = _index(max_dim, "max_dim")
    envelope = spec.envelope
    c, w = envelope.c, envelope.w
    full_series_sum(alpha, c, w)
    lo, hi = min(m, n), max(m, n)
    walk = SupportWalk(spec, {m, n})
    if hi - lo < max_dim:  # else no window holds the indices: skip the bound work
        depth, bound = required_depth(alpha, envelope, tol, 1.0, max_dim)
        if bound <= tol:
            window = walk.window(depth - 1, max_dim)
            if window.dim <= max_dim:
                return _element_certificate(
                    spec, alpha, TruncationDepth(depth, window, m, n), bound, walk
                )
    message = _not_converged(max_dim, tol)
    radius, centre = (max_dim - 1) // 2, (lo + hi) // 2
    if not centre - radius <= lo <= hi <= centre + radius:
        raise NotConvergedError(message)
    depth = walk.depth(Window(radius - centre, centre + radius), m, n)
    best = _element_certificate(
        spec, alpha, depth, tail_bound(alpha, c, w, depth.j_pq) / 2.0, walk
    )
    message += f"; best bound {best.bound:g} at window {best.window}"
    raise NotConvergedError(message, best_certificate=best)


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
    before any window: a non-integral index (``DomainError``), or what
    ``full_series_sum`` raises.
    """
    m, n = _index(m), _index(n)
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

    One sweep ``x = w**-1 * sum_{j<J} (I - W/w)**j f`` (``alpha = -1``),
    with the depth ``J`` that ``tol`` requires, on the region ``R`` that
    ``J - 1`` support steps from ``supp f`` reach: there ``W`` acts as ``W_R``
    on every term, so ``x`` is the infinite matrix's partial sum and its
    error is one tail, ``sum |f_n| * tail_bound(-1, c, w, J) / 2``, the bound
    of every component.  A component outside ``R`` is exactly 0 in the
    partial sum.  The work is ``J`` sparse mat-vecs over ``R``, the last one
    for the envelope check of ``_terms``.  The walk stops once its window is
    wider than ``max_dim``.  ``boundary_policy`` is not read; no truncation is
    made.

    The premise, ``full_series_sum(-1.0, c, w)``, is checked first, before
    any argument: a failed one raises whatever ``f``, ``tol`` or the indices
    are, a zero ``f`` included.

    Raises
    ------
    DivergentSeriesError
        The envelope touches zero (``c = 0``), where the series at
        ``alpha = -1`` diverges.
    DomainError
        ``tol`` not positive and finite, ``max_dim``, a key of ``f`` or an
        output index not an integer, a value of ``f`` not a complex number,
        or ``f`` has a non-finite value or a non-finite ``sum |f_n|``.
    NotConvergedError
        ``J`` or the dimension of ``R`` is above ``max_dim`` (``J`` is
        searched up to ``MAX_DEPTH``); carries no certificate.
    MalformedSpecError
        As ``_terms``.
    NumericalFailureError
        The series terms do not decay in float (as for
        ``approximate_element``), or a returned component of ``x`` overflows.
    """
    envelope = spec.envelope
    full_series_sum(-1.0, envelope.c, envelope.w)
    _check_tol(tol)
    max_dim = _index(max_dim, "max_dim")
    outs = [_index(m) for m in out_indices]
    support = {_index(k): _rhs_value(v) for k, v in f.items()}
    support = {k: v for k, v in support.items() if v != 0}
    if not support:
        return {m: (0.0 + 0.0j, 0.0) for m in outs}
    weight = sum(abs(v) for v in support.values())
    if not math.isfinite(weight):
        raise DomainError(f"rhs must be finite with a finite sum of |f_n|, got {weight}")
    depth, bound = required_depth(-1.0, envelope, tol, weight, max_dim)
    region = SupportWalk(spec, support).window(depth - 1, max_dim) if bound <= tol else None
    if region is None or region.dim > max_dim:
        raise NotConvergedError(_not_converged(max_dim, tol))

    scale = max(abs(v) for v in support.values())
    rhs = np.zeros(region.dim, dtype=np.complex128)
    for n, fn in support.items():
        rhs[region.offset(n)] = fn / scale
    if not rhs.imag.any():
        rhs = rhs.real
    inside = [m for m in outs if region.contains(m)]
    at = np.array([region.offset(m) for m in inside], dtype=np.intp)
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite value below
        step = sparse_section(spec, region)
        x = sum(term[at] for term, _ in _terms(spec, region, step, rhs, depth))
        x = x / envelope.w * scale
    if not np.isfinite(x).all():
        raise NumericalFailureError("a component of the local solution overflows")
    values = dict(zip(inside, (complex(v) for v in x)))
    return {m: (values.get(m, 0.0 + 0.0j), bound) for m in outs}
