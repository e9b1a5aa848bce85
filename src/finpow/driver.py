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
is that one tail.

Each answer's partial sum is one series plan (``_plan``): ``J``, the bound,
the coefficients and the carries, built once, with the carry-overflow check
and the round-off guard.  One plan is read three ways.  ``_sweep_read``
sweeps it from a start vector and reads it at given positions: an element
from ``e_min(m, n)`` at ``max(m, n)`` (the paths of length ``L`` between
the two indices stay within ``floor(L / 2)`` steps of them, so it is swept
on the smaller region those steps reach, inside the recorded window, and the
same walk gives both), and a local solution of ``W x = f`` from ``f`` at the
outputs, the plan at ``alpha = -1``.  A spec with a stencil (``banded_spec``)
is a Laurent operator: where the power table of its symbol is small
(``_TABLE_CAP``), ``_symbol_read`` reads an element's plan with no sweep, as
one exact periodic trapezoid rule over the symbol, its envelope checked on
the samples.

``evaluate_window`` and ``convergence_table`` keep the paper's construction:
truncate at a given window with a boundary correction, eigendecompose, and
bound the error by the two tails ``tail_bound``.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, NamedTuple, Sequence

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
    _integer,
    _number,
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

# Relative slack allowed when checking truncation eigenvalues, the Rayleigh
# quotients of a sweep, or the samples of a symbol against the envelope,
# scaled by the envelope's upper bound w (at least 1).
SPECTRUM_TOL = 1e-9

# The largest power table J x N, in float64 entries (32 KB), from which an
# element of a spec with a stencil is read (``_symbol_read``); a larger one
# takes the sweep.
_TABLE_CAP = 4096

# Default cap on the region dimension and depth of a sweep; the command line
# also caps the windows of `table` and `example` with it.
MAX_DIM = 2049

_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)


def zero_boundary(window: Window) -> BoundarySpec:
    """Boundary policy that applies no corner correction."""
    return BoundarySpec()


def _check_tol(tol: float) -> None:
    message = "tol must be positive and finite, got {!r}"
    if not _number(tol, message, real=True, finite=True) > 0.0:
        raise DomainError(message.format(tol))


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
    m, n = _integer(m), _integer(n)
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
    lo, hi = float(evals[0]), float(evals[-1])
    if not _holds(envelope, lo, hi, envelope.w):
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


def _holds(envelope: SpectralEnvelope, low, high, top: float) -> bool:
    """Whether ``[c, top]``, widened by the slack ``SPECTRUM_TOL max(w, 1)``,
    holds ``[low, high]`` (never for a NaN): the one envelope comparison.
    A test of ``W`` itself, a Rayleigh quotient or a sample of the symbol,
    passes ``top = norm_bound``; a boundary-corrected truncation's
    eigenvalues (``evaluate_window``) pass ``top = w = norm_bound + d``."""
    slack = SPECTRUM_TOL * max(envelope.w, 1.0)
    return envelope.c - slack <= low and high <= top + slack


def _check_rayleigh(
    envelope: SpectralEnvelope, region: Window, u: np.ndarray, b_u: np.ndarray
) -> None:
    """Reject an envelope ``[c, norm_bound]`` that excludes the Rayleigh
    quotient ``<u, W u> / <u, u>``, read as ``w (1 - <u, b u> / <u, u>)``
    with ``u`` and ``b u`` scaled by the largest ``|u_i|``.

    ``u`` is supported on ``region``, where ``b_u`` is ``b u``; so this is the
    quadratic form of the infinite matrix, which any sound envelope holds.  A
    ``u`` whose entries all lie below the normal floats (zero included) has
    too few bits for a quotient and passes unchecked.  A unit vector ``e_p``
    is scaled by 1.0 and divided by ``<e_p, e_p> = 1.0``, both exact, so its
    quotient is that of the one dot product ``<e_p, b e_p>``.
    """
    largest = np.abs(u).max()
    if largest < _TINY:
        return
    u, b_u = u / largest, b_u / largest
    quotient = envelope.w * (1.0 - np.vdot(u, b_u).real / np.vdot(u, u).real)
    if not _holds(envelope, quotient, quotient, envelope.norm_bound):
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

    The Rayleigh quotients of ``start``, ``e_p`` included, and of the last
    term must lie in the envelope: one check, ``_check_rayleigh``, for every
    start.  The last is checked before it is yielded, so a consumer that
    takes exactly ``count`` pairs has run both checks.  The caller owns the
    floating-point error state: an overflow shows as a non-finite sum.

    Raises
    ------
    MalformedSpecError
        A Rayleigh quotient leaves the envelope.  (``sparse_section`` raises
        it too, when a row breaks the spec's contract or the entries on ``R``
        fail the Hermitian spot-check.)
    """
    term = start
    if isinstance(start, int):
        term = np.zeros(region.dim)
        term[start] = 1.0
    for j in range(count):
        after = step(term)
        if j == 0 or j == count - 1:
            _check_rayleigh(spec.envelope, region, term, after)
        yield term, after
        term = after


class _Plan(NamedTuple):
    """One answer's series plan: the partial sum ``P`` of ``terms`` terms of
    ``(I - b)**alpha`` whose one tail is ``bound``, as the series
    ``C(beta, j) (-1)**j``, ``j < terms``, and the carries
    ``C(beta + r, terms - 1) (-1)**(terms - 1)``, ``r < k``, that raise it
    from ``beta = alpha - k`` to ``alpha`` (see ``_element_certificate``),
    ``k = floor(alpha)`` (0 for ``alpha < 0``).  A reader evaluates it."""

    terms: int
    bound: float
    series: list[float]
    carries: list[float]


def _plan(alpha: float, envelope: SpectralEnvelope, terms: int, bound: float) -> _Plan:
    """The series plan of an answer of ``terms`` terms and bound ``bound``:
    the one builder of every element, best certificate and solve (at
    ``alpha = -1``, where every coefficient is exactly 1.0 and there is no
    carry).

    The series runs the recurrence ``C(beta, j - 1) (beta - (j - 1)) / j``
    one float at a time, in order.  Carry 0 is the series' last term.  The
    others run the same recurrence at ``beta + r``, as one vector over ``r``
    multiplied once per ``j``, in the same order.  The largest,
    ``r = k - 1``, is run first, one float at a time: ``|C(a, j)|`` is at
    most 1 for ``0 <= a <= j`` and grows with ``a`` above ``j``, so when it
    is finite every carry is, at every ``j``.  Then the round-off guard of
    ``_element_certificate``: ``terms eps (2 + x**terms sum|carries|)``,
    ``x = (w - c)/w``, must stay below 1.

    Raises
    ------
    NumericalFailureError
        A carry overflows (``C(beta + r, terms - 1)`` grows with ``r``), or
        the round-off would reach ``w**alpha`` (the guard).
    """
    k = max(math.floor(alpha), 0)
    beta = alpha - k
    series, coefficient = [1.0], 1.0
    for j in range(1, terms):
        coefficient *= (beta - (j - 1)) / j
        series.append(-coefficient if j % 2 else coefficient)
    carries = series[-1:] if k else []
    if k > 1:
        largest, top = 1.0, beta + (k - 1)
        for j in range(1, terms):
            largest *= (top - (j - 1)) / j
        if not math.isfinite(largest):
            raise NumericalFailureError(
                f"at alpha={alpha} the sweep's carries C({beta:g} + r, {terms - 1}), "
                f"r < {k}, overflow a float"
            )
        top, rest = beta + np.arange(1.0, k), np.ones(k - 1)
        for j in range(1, terms):
            rest *= (top - (j - 1)) / j
        carries += ((-1.0) ** (terms - 1) * rest).tolist()
    w = envelope.w
    x = (w - envelope.c) / w
    # fails closed: 0 * inf, from x**terms underflowing, is NaN
    if not terms * _EPS * (2.0 + x ** terms * sum(map(abs, carries))) < 1.0:
        raise NumericalFailureError(
            f"at alpha={alpha} the round-off of the sweep's {terms} terms "
            f"reaches w**alpha, which bounds every element: it would leave no "
            f"certain digit"
        )
    return _Plan(terms, bound, series, carries)


def _sweep_read(
    spec: InfiniteMatrixSpec,
    region: Window,
    plan: _Plan,
    start: np.ndarray | int,
    at: np.ndarray | int,
):
    """``(P start)[at]`` for the plan's partial sum ``P`` on ``region``: the
    sweep of ``_terms`` from ``start`` (a vector, or the position of a unit
    vector), each term read at ``at`` (everywhere, when there are carries)
    and weighted by its coefficient, then the carries applied to the whole
    vector, one step each.  An element
    starts at ``e_lo`` and reads the position of ``hi``; a solve starts at
    its scaled right-hand side and reads the output positions.  A diagonal
    element with no carries reads ``<v_i, v_i>`` and ``<v_i, v_{i+1}>``
    instead, in ``ceil(J / 2)`` steps.  The caller owns the floating-point
    error state."""
    terms, series, carries = plan.terms, plan.series, plan.carries
    step = sparse_section(spec, region)
    read = 0.0
    if not carries and isinstance(start, int) and start == at:
        sweep = _terms(spec, region, step, start, (terms + 1) // 2)
        for i, (term, after) in zip(range(0, terms, 2), sweep):
            read += series[i] * np.vdot(term, term).real
            if i + 1 < terms:
                read += series[i + 1] * np.vdot(term, after).real
        return read
    span = slice(None) if carries else at  # the identity steps all of P^beta start
    sweep = _terms(spec, region, step, start, terms)
    for coefficient, (term, after) in zip(series, sweep):
        # a coefficient 1.0 (every one of a solve's) scales nothing: skip the product
        read = read + (term[span] if coefficient == 1.0 else coefficient * term[span])
    for carry in carries:
        read = read - step(read) + carry * after
    return read[at] if carries else read


def _symbol_read(
    envelope: SpectralEnvelope,
    stencil: tuple[np.ndarray, np.ndarray],
    plan: _Plan,
    nodes: int,
    gap: int,
) -> complex:
    """``P^alpha[hi, lo]``, ``gap = hi - lo``, for the plan's partial sum
    and a spec with a stencil, by the periodic trapezoid rule on its symbol:
    the plan read at the nodes.

    ``W`` is the Laurent operator of the stencil: ``(f(W))[hi, lo]`` is
    ``(1/2pi) int f(sigma(theta)) e^{i gap theta} dtheta`` with
    ``sigma(theta) = sum_o s_o e^{i o theta}``, real for a Hermitian stencil.
    ``P^alpha`` is a polynomial of degree ``J - 1`` in
    ``t = 1 - sigma/w``, so the integrand is a trigonometric polynomial of
    degree ``(J - 1) l + gap``, ``l`` the largest offset, which the rule on
    ``nodes = (J - 1) l + gap + 1`` nodes ``theta_k = 2 pi k / nodes``
    integrates exactly.  The powers of ``t`` at the nodes are one
    ``J x nodes`` table, the series one product with it, and the carries
    act pointwise with the sweep's identity,
    ``p <- (1 - t) p + carry t**J``.  The phases ``o k`` are reduced modulo
    ``nodes`` in integers, so an offset at or past ``nodes`` (at ``J = 1``)
    is summed at its alias.

    The spectrum of a Laurent operator is the range of its symbol, so a
    sample outside the envelope proves it wrong; this check takes the place
    of the sweep's Rayleigh quotients.  The start quotient ``s_0`` is the
    mean of the samples when ``nodes > l``; below that (``J = 1``) it is
    checked with them.  A non-finite sample fails the check.  The caller
    owns the floating-point error state.

    Raises
    ------
    MalformedSpecError
        A sample of the symbol, or ``s_0``, leaves the envelope.
    """
    offsets, values = stencil
    node = np.arange(nodes)
    roots = np.exp((2j * math.pi / nodes) * node)
    samples = (values @ roots[(offsets % nodes)[:, None] * node % nodes]).real
    checked = samples
    if len(offsets) and nodes <= offsets[-1]:  # s_0 sits in the middle, if it is there
        checked = np.append(samples, values[len(values) // 2].real if len(values) % 2 else 0.0)
    low, high = checked.min(), checked.max()
    if not _holds(envelope, low, high, envelope.norm_bound):
        raise MalformedSpecError(
            f"the symbol of W takes values in [{low:.6g}, {high:.6g}] on {nodes} nodes, "
            f"outside the envelope [{envelope.c:.6g}, {envelope.norm_bound:.6g}]"
        )
    ratio = samples / envelope.w  # 1 - t
    t = 1.0 - ratio
    table = np.empty((plan.terms, nodes))
    table[0] = 1.0
    table[1:] = t
    np.multiply.accumulate(table, axis=0, out=table)
    p = np.dot(plan.series, table)
    if plan.carries:
        last = table[-1] * t  # t**J
        for carry in plan.carries:
            p = ratio * p + carry * last
    phases = roots[gap * node % nodes]
    if not values.imag.any():  # a real stencil: p is even in theta, the element real
        phases = phases.real
    return np.dot(p, phases) / nodes


def _element_certificate(
    spec: InfiniteMatrixSpec,
    alpha: float,
    plan: _Plan,
    depth: TruncationDepth,
    walk: SupportWalk,
) -> Certificate:
    """Certificate of the plan's partial sum of ``J = depth.j_pq`` terms of
    ``(W**alpha)[m, n]``, recorded at ``depth.window`` and read on a region
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
    reaches it (or the estimate is NaN) the plan's guard fails the call
    before any read rather than certify a value with no certain digit
    (``NumericalFailureError``, as for a carry or a value that overflows).

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

    A spec with a stencil reads the same ``P^alpha[hi, lo]`` from its symbol
    instead (``_symbol_read``) when the power table ``J x N``,
    ``N = (J - 1) l + |m - n| + 1`` nodes and ``l`` the largest offset,
    holds at most ``_TABLE_CAP`` entries: no section, no term loop and no
    region walk, the samples of the symbol checked against the envelope in
    place of the Rayleigh quotients, and the same conjugate and real reads.
    Both read one plan (``_plan``), which holds the coefficients and the
    carries and has run the round-off guard; the symbol's value agrees with
    the sweep's to round-off.  A longer series, or a spec without a stencil,
    is swept (``_sweep_read``, the reader of ``local_solve`` too).
    """
    m, n, terms = depth.m, depth.n, plan.terms
    envelope = spec.envelope
    lo, hi = min(m, n), max(m, n)
    nodes = 0 if walk.band is None else (terms - 1) * walk.band + hi - lo + 1
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite value below
        if nodes and terms * nodes <= _TABLE_CAP:
            read = _symbol_read(envelope, spec._stencil, plan, nodes, hi - lo)
        else:
            region = walk.window(min(terms - 1, (terms - 1 + len(plan.carries)) // 2))
            read = _sweep_read(spec, region, plan, region.offset(lo), region.offset(hi))
    if m == n:
        read = read.real
    elif m < n:
        read = np.conj(read)
    value = envelope.w ** alpha * complex(read)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise NumericalFailureError(f"the element ({m}, {n}) of W**{alpha} overflows")
    return Certificate(value, depth.window, depth, plan.bound, envelope, alpha)


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
    and the Rayleigh-quotient envelope check of ``_terms``.  A spec with a
    stencil whose power table ``J x N``, ``N = (J - 1) l + |m - n| + 1``, is
    small reads the same partial sum from its symbol instead, with the
    envelope checked on the ``N`` samples (``_symbol_read``).  The walk stops
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
        As ``_terms``, or as ``_symbol_read``: a sample of the symbol leaves
        the envelope.
    """
    _check_tol(tol)
    m, n = _integer(m), _integer(n)
    max_dim = _integer(max_dim, "max_dim must be an integer, got {!r}")
    envelope = spec.envelope
    c, w = envelope.c, envelope.w
    full_series_sum(alpha, c, w)
    lo, hi = min(m, n), max(m, n)
    walk = SupportWalk(spec, {m, n})
    if hi - lo < max_dim:  # else no window holds the indices: skip the bound work
        terms, bound = required_depth(alpha, envelope, tol, 1.0, max_dim)
        if bound <= tol:
            window = walk.window(terms - 1, max_dim)
            if window.dim <= max_dim:
                plan = _plan(alpha, envelope, terms, bound)
                depth = TruncationDepth(terms, window, m, n)
                return _element_certificate(spec, alpha, plan, depth, walk)
    message = _not_converged(max_dim, tol)
    radius, centre = (max_dim - 1) // 2, (lo + hi) // 2
    if not centre - radius <= lo <= hi <= centre + radius:
        raise NotConvergedError(message)
    depth = walk.depth(Window(radius - centre, centre + radius), m, n)
    plan = _plan(alpha, envelope, depth.j_pq, tail_bound(alpha, c, w, depth.j_pq) / 2.0)
    best = _element_certificate(spec, alpha, plan, depth, walk)
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
    m, n = _integer(m), _integer(n)
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
    of every component.  The sum is the element's plan at ``alpha = -1``
    (``_plan``: every coefficient 1.0, no carry), read by the element's
    reader ``_sweep_read`` from ``f`` (scaled by its largest ``|f_n|``) at
    the outputs inside ``R``.  A component outside ``R`` is exactly 0 in the
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
    max_dim = _integer(max_dim, "max_dim must be an integer, got {!r}")
    outs = [_integer(m) for m in out_indices]
    message = "a rhs value must be a complex number, got {!r}"
    support = {_integer(k): _number(v, message) for k, v in f.items()}
    support = {k: v for k, v in support.items() if v != 0}
    if not support:
        return {m: (0.0 + 0.0j, 0.0) for m in outs}
    weight = sum(abs(v) for v in support.values())
    if not math.isfinite(weight):
        raise DomainError(f"rhs must be finite with a finite sum of |f_n|, got {weight}")
    terms, bound = required_depth(-1.0, envelope, tol, weight, max_dim)
    region = SupportWalk(spec, support).window(terms - 1, max_dim) if bound <= tol else None
    if region is None or region.dim > max_dim:
        raise NotConvergedError(_not_converged(max_dim, tol))
    plan = _plan(-1.0, envelope, terms, bound)

    scale = max(abs(v) for v in support.values())
    rhs = np.zeros(region.dim, dtype=np.complex128)
    for n, fn in support.items():
        rhs[region.offset(n)] = fn / scale
    if not rhs.imag.any():
        rhs = rhs.real
    inside = [m for m in outs if region.contains(m)]
    at = np.array([region.offset(m) for m in inside], dtype=np.intp)
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite value below
        x = _sweep_read(spec, region, plan, rhs, at) / envelope.w * scale
    if not np.isfinite(x).all():
        raise NumericalFailureError("a component of the local solution overflows")
    values = dict(zip(inside, (complex(v) for v in x)))
    return {m: (values.get(m, 0.0 + 0.0j), plan.bound) for m in outs}
