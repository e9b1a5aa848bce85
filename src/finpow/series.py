"""Truncation depths, and the smallest window that reaches a given depth.

An element ``(m, n)`` of ``(W - w I)**j`` is a sum over paths of length
``j`` through the row supports.  So a window reproduces the leading powers
at ``(m, n)`` term by term for as long as the support frontier walked from
``m`` and ``n`` stays strictly inside it: the truncation depth.  The same
walk, run forward from the requested indices, gives the smallest window
that reaches a required depth.  ``SupportWalk`` takes the walk once, as far
as asked, and answers both.

The walk is a pure function of the spec's rows and the start set, so the
spec keeps the extents each walk found, keyed by start set: a repeated start
set reads them, and walks again only when it needs more steps than are held.
The memo is bounded by ``WALK_MEMO_STEPS`` and holds snapshots, never a live
walk (see ``SupportWalk``).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import count, islice
from typing import Iterable, Iterator

from .core import InfiniteMatrixSpec, Window, _keep

# Cap on the steps plus start indices of the walks one spec keeps
# (``SupportWalk``): about sixteen walks to the default ``max_dim`` on a
# tridiagonal spec.  A step's ``(lo, hi)`` is at most 120 bytes with its
# slot, a start index about 60, and each walk adds about 330 bytes over at
# least three of them (measured with tracemalloc), so at most about 200 bytes
# each: about 3 MiB per spec.
WALK_MEMO_STEPS = 1 << 14


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
            for q in spec.support(p):
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
    every window, read these extents, so one walk serves all of them.

    The extents are memoized on ``spec`` by ``frozenset(starts)``: a walk
    starts from the extents an earlier walk from the same set found, and
    whether that walk closed, and each ``window`` or ``depth`` call that
    went further stores one new snapshot ``(tuple(extents), closed)``.  A
    walk that needs more steps than its snapshot holds runs its own
    ``_extents`` from the starts and skips the known prefix, so a miss costs
    what an unmemoized walk costs.  The memo holds at most
    ``WALK_MEMO_STEPS`` steps plus start indices, evicting the oldest walks
    first; a walk larger than that is used but not kept.  Snapshots are
    immutable and a live walk is never shared, so threads may walk one spec
    at once.  A row that raises during the walk stores nothing and does not
    close the walk: the next call walks again, and raises again.
    """

    def __init__(self, spec: InfiniteMatrixSpec, starts: Iterable[int]):
        self._spec, self._starts = spec, frozenset(starts)
        held = spec._walks.get(self._starts)
        if held is None:
            self.extents, self._closed = [(min(self._starts), max(self._starts))], False
        else:
            self.extents, self._closed = list(held[0]), held[1]
        self._stored = (len(self.extents), self._closed)
        self._steps: Iterator[tuple[int, int]] | None = None

    def _walk(self, steps: int, widest: float = math.inf) -> list[tuple[int, int]]:
        """``extents``, walked on to ``steps`` steps, unless the walk closes
        first or stops at an extent whose ``hi - lo`` exceeds ``widest``."""
        extents = self.extents
        lo, hi = extents[-1]
        if len(extents) > steps or hi - lo > widest or self._closed:
            return extents
        if self._steps is None:
            self._steps = islice(_extents(self._spec, self._starts), len(extents) - 1, None)
        try:
            for lo, hi in self._steps:
                extents.append((lo, hi))
                if len(extents) > steps or hi - lo > widest:
                    return extents
        except BaseException:
            self._steps = None  # a walk that raised has not closed: walk again
            raise
        self._closed = True
        return extents

    def _remember(self) -> None:
        """Store a snapshot of the extents on the spec, if this walk found
        more than the memo held when it started or last stored."""
        state = (len(self.extents), self._closed)
        if state != self._stored:
            self._stored = state
            snapshot = (tuple(self.extents), self._closed, state[0] + len(self._starts))
            _keep(self._spec._walks, self._starts, snapshot, WALK_MEMO_STEPS)

    def window(self, steps: int, max_dim: int | None = None) -> Window:
        """Smallest window whose strict interior holds ``steps`` steps of the
        walk (or all of it, if it closes first).  Every pair of ``starts``
        then has a truncation depth of at least ``steps + 1``, or a saturated
        one; for ``steps >= 1`` no smaller window does.

        With ``max_dim`` the walk stops early, at the first window wider than
        ``max_dim``, and returns that window.
        """
        widest = math.inf if max_dim is None else max_dim - 3  # hi - lo of [lo - 1, hi + 1]
        extents = self._walk(steps, widest)
        self._remember()
        lo, hi = extents[min(max(steps, 0), len(extents) - 1)]
        if hi - lo > widest:  # the memo may hold extents past the first one that wide
            lo, hi = extents[bisect_right(extents, widest, key=lambda e: e[1] - e[0])]
        return Window(1 - lo, hi + 1)

    def depth(self, window: Window, m: int, n: int) -> TruncationDepth:
        """``truncation_depth(spec, window, m, n)``, for a walk from ``{m, n}``."""
        if not (window.contains(m) and window.contains(n)):
            return TruncationDepth(0, window, m, n)
        if window.is_corner(m) or window.is_corner(n):
            return TruncationDepth(1, window, m, n)
        inner_lo, inner_hi = -window.P + 1, window.Q - 1
        for step in count(1):
            extents = self._walk(step)
            if step == len(extents):
                # The reachable support closed inside the window at the step
                # before: every power agrees, the truncation is exact for
                # this element.
                depth = TruncationDepth(step - 1, window, m, n, saturated=True)
                break
            lo, hi = extents[step]
            if lo < inner_lo or hi > inner_hi:
                depth = TruncationDepth(step, window, m, n)
                break
        self._remember()
        return depth


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
