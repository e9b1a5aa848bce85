"""Truncation depths, and the smallest window that reaches a given depth.

An element ``(m, n)`` of ``(W - w I)**j`` is a sum over paths of length
``j`` through the row supports.  So a window reproduces the leading powers
at ``(m, n)`` term by term for as long as the support frontier walked from
``m`` and ``n`` stays strictly inside it: the truncation depth.  The same
walk, run forward from the requested indices, gives the smallest window
that reaches a required depth.  ``SupportWalk`` takes the walk once, as far
as asked, and answers both.  On a spec from ``banded_spec`` it answers in
closed form, from the stencil: it takes no walk and reads no row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count
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


def _extents(spec: InfiniteMatrixSpec, starts: Iterable[int]) -> Iterator[tuple[int, int]]:
    """``(min, max)`` of the indices within ``s`` steps of the support walk
    from ``starts``, for ``s = 1, 2, ...``; it ends after the first step that
    reaches nothing new, once the reachable support has closed."""
    reach = set(starts)
    lo, hi = min(reach), max(reach)
    frontier = reach
    while frontier:
        fresh: set[int] = set()
        for p in frontier:
            for q in spec.row(p):
                if q not in reach:
                    fresh.add(q)
                    if q < lo:
                        lo = q
                    elif q > hi:
                        hi = q
        reach |= fresh
        frontier = fresh
        yield lo, hi


class SupportWalk:
    """The support walk from ``starts``, taken once and only as far as asked.

    ``extents[s]`` is ``(min, max)`` of the indices within ``s`` steps of
    ``starts``.  The windows of every depth, and the truncation depth of
    every window, read these extents, so one walk serves all of them.  A
    walk whose row raised is spent: take a new one.

    On a spec with a stencil (``banded_spec``) both answers are closed
    forms, read from the stencil, and no row is read: ``s`` steps reach
    ``(min(starts) - s l, max(starts) + s l)``, ``l`` the largest offset,
    and with ``l = 0`` the reach closes after one step.  ``band`` is that
    ``l``, the last of the sorted offsets (they come in pairs ``+-o``), and
    ``None`` for a spec that walks its rows.
    """

    def __init__(self, spec: InfiniteMatrixSpec, starts: Iterable[int]):
        starts = set(starts)
        self.extents = [(min(starts), max(starts))]
        stencil = spec._stencil
        self.band = None
        if stencil is not None:
            self.band = int(stencil[0][-1]) if len(stencil[0]) else 0
        self._steps = _extents(spec, starts) if stencil is None else None

    def _walk(self, steps: int, widest: float = math.inf) -> list[tuple[int, int]]:
        """``extents``, walked on to ``steps`` steps, unless the walk closes
        first or stops at an extent whose ``hi - lo`` exceeds ``widest``."""
        extents = self.extents
        lo, hi = extents[-1]
        while len(extents) <= steps and hi - lo <= widest:
            extent = next(self._steps, None)
            if extent is None:
                break
            extents.append(extent)
            lo, hi = extent
        return extents

    def window(self, steps: int, max_dim: int | None = None) -> Window:
        """Smallest window whose strict interior holds ``steps`` steps of the
        walk (or all of it, if it closes first).  Every pair of ``starts``
        then has a truncation depth of at least ``steps + 1``, or a saturated
        one; for ``steps >= 1`` no smaller window does.

        With ``max_dim`` the walk stops early, at the first window wider than
        ``max_dim``, and returns that window.
        """
        widest = math.inf if max_dim is None else max_dim - 3  # hi - lo of [lo - 1, hi + 1]
        lo, hi = self.extents[0]
        if steps < 1 or hi - lo > widest:  # no step to take
            return Window(1 - lo, hi + 1)
        band = self.band
        if band is None:
            extents = self._walk(steps, widest)
            lo, hi = extents[min(steps, len(extents) - 1)]
        elif band:
            if max_dim is not None:  # the first step whose hi - lo exceeds widest
                steps = min(steps, int(widest - (hi - lo)) // (2 * band) + 1)
            lo, hi = lo - steps * band, hi + steps * band
        return Window(1 - lo, hi + 1)

    def depth(self, window: Window, m: int, n: int) -> TruncationDepth:
        """``truncation_depth(spec, window, m, n)``, for a walk from ``{m, n}``."""
        if not (window.contains(m) and window.contains(n)):
            return TruncationDepth(0, window, m, n)
        if m in window.corners or n in window.corners:
            return TruncationDepth(1, window, m, n)
        inner_lo, inner_hi = -window.P + 1, window.Q - 1
        band = self.band
        if band == 0:
            return TruncationDepth(1, window, m, n, saturated=True)
        if band is not None:  # the first step that leaves the strict interior
            lo, hi = self.extents[0]
            return TruncationDepth(min(lo - inner_lo, inner_hi - hi) // band + 1, window, m, n)
        for step in count(1):
            extents = self._walk(step)
            if step == len(extents):
                # The reachable support closed inside the window at the step
                # before: every power agrees, the truncation is exact for
                # this element.
                return TruncationDepth(step - 1, window, m, n, saturated=True)
            lo, hi = extents[step]
            if lo < inner_lo or hi > inner_hi:
                return TruncationDepth(step, window, m, n)


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
    return SupportWalk(spec, {m, n}).depth(window, m, n)
