"""Truncation depths, and the smallest window that reaches a given depth.

An element ``(m, n)`` of ``(W - w I)**j`` is a sum over paths of length
``j`` through the row supports.  So a window reproduces the leading powers
at ``(m, n)`` term by term for as long as the support frontier walked from
``m`` and ``n`` stays strictly inside it: the truncation depth.  The same
walk, run forward from the requested indices, gives the smallest window
that reaches a required depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .core import InfiniteMatrixSpec, Window


@dataclass(frozen=True)
class TruncationDepth:
    """Number of leading series terms a window reproduces exactly.

    For all ``j < j_pq`` the element ``(m, n)`` of ``(W - w I)**j`` equals the
    corresponding element of the truncated, boundary-corrected power.  When
    ``saturated`` is set, the support set reachable from the element closed
    up strictly inside the window, so equality holds at every order and the
    truncation is exact; ``j_pq`` then records the step at which the frontier
    stopped growing.
    """

    j_pq: int
    window: Window
    m: int
    n: int
    saturated: bool = False


def _frontiers(spec: InfiniteMatrixSpec, starts: Iterable[int]) -> Iterator[set[int]]:
    """Indices each step of the support walk from ``starts`` reaches first,
    ending with the empty set once the reachable support has closed."""
    reach = set(starts)
    frontier = reach
    while frontier:
        fresh: set[int] = set()
        for p in frontier:
            for q in spec.support(p):
                if q not in reach:
                    fresh.add(q)
        reach |= fresh
        frontier = fresh
        yield fresh


def truncation_depth(
    spec: InfiniteMatrixSpec,
    window: Window,
    m: int,
    n: int,
) -> TruncationDepth:
    """Depth up to which the window reproduces shifted powers at ``(m, n)``.

    Propagates the support frontier from both ``m`` and ``n`` and returns the
    first depth at which it touches an index outside the strict interior
    ``[-P+1, Q-1]``; all lower powers are then guaranteed to agree element by
    element for any admissible corner correction, because every contributing
    path stays on entries the truncation copies verbatim.

    Out-of-window elements report depth 0, elements on the window boundary
    depth 1 (only the trivial zeroth power is guaranteed there).  Enlarging
    the window never decreases the result.
    """
    if not (window.contains(m) and window.contains(n)):
        return TruncationDepth(0, window, m, n)
    if window.is_corner(m) or window.is_corner(n):
        return TruncationDepth(1, window, m, n)
    lo, hi = -window.P + 1, window.Q - 1
    for depth, fresh in enumerate(_frontiers(spec, {m, n}), start=1):
        if any(q < lo or q > hi for q in fresh):
            return TruncationDepth(depth, window, m, n)
        if not fresh:
            # The reachable support closed inside the window: every power
            # agrees, the truncation is exact for this element.
            return TruncationDepth(depth, window, m, n, saturated=True)


def minimal_window(spec: InfiniteMatrixSpec, starts: Iterable[int], depth: int) -> Window:
    """Smallest window whose strict interior holds ``depth - 1`` steps of the
    walk from ``starts`` (or all of it, if it closes first).

    Every pair of ``starts`` then has a truncation depth of at least
    ``depth``, or a saturated one; for ``depth >= 2`` no smaller window does.
    """
    reach = set(starts)
    for _, fresh in zip(range(depth - 1), _frontiers(spec, reach)):
        reach |= fresh
    return Window(1 - min(reach), max(reach) + 1)
