"""The series plan's helpers equal their whole-array numpy formulations bitwise.

The library computes the coefficients and terms of a sweep's plan with fewer
numpy calls than the formulations in ``tests/oracles.py`` (the ``numpy_*``
functions), or as Python floats where the arrays are short; every number
must come out with the same bits.  The grid reaches heads of more than 8
terms in ``_closed_sum`` (numpy sums those pairwise), counts across the
recurrences' lengths, and ``_tails`` passes that end in the first chunk and
past it.
"""

import numpy as np
import pytest

from finpow import NumericalFailureError, SpectralEnvelope
from finpow.certificates import _FIRST_CHUNK, MAX_DEPTH, _abs_terms, _closed_sum, _tails
from finpow.driver import _plan
from oracles import (
    numpy_abs_terms,
    numpy_closed_sum,
    numpy_series_and_carries,
    numpy_tails,
)

ALPHAS = (-2.5, -1.0, -0.5, 0.5, 1.5, 7.5, 15.5, 50.5)
XS = (1e-3, 0.3, 0.6, 0.999, 1.0)
COUNTS = range(1, 2050)


def same(got, want):
    """Equal bits: the dtype, shape and bytes of two arrays, or two floats'
    types and bits."""
    if isinstance(want, np.ndarray):
        return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
    return type(got) is type(want) and float(got).hex() == float(want).hex()


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ArithmeticError, NumericalFailureError) as exc:
        return type(exc), str(exc)


# x = 0: the plan's round-off guard holds at every depth
EXACT = SpectralEnvelope(1.0, 1.0)


class TestBinomials:
    @pytest.mark.parametrize("alpha", ALPHAS + (-0.0, 0.0, 1.0, 2.0, 3.0, 400.5))
    def test_series_and_carries(self, alpha):
        # an element sweep's series as floats; its carries from the series
        # and one table of rows C(beta + r, .)
        for terms in (*range(1, 300), 1000, 2049) if alpha < 50 else (1, 2, 3, 17, 102, 299):
            _, _, series, carries = _plan(alpha, EXACT, terms, 0.0)
            want_series, want_carries = numpy_series_and_carries(alpha, terms)
            assert [c.hex() for c in series] == [c.hex() for c in want_series.tolist()], terms
            assert [c.hex() for c in carries] == [float(c).hex() for c in want_carries], terms

    def test_solve_series_is_exactly_one(self):
        # a local solve reads the plan at alpha = -1 with the element's
        # reader: every coefficient is 1.0, so its sum is the plain sum of
        # the terms; there is no carry, and the guard 2 J eps < 1 holds at
        # every depth, even where x rounds to 1
        for terms in range(1, 2050):
            plan = _plan(-1.0, EXACT, terms, 0.0)
            assert plan.series == [1.0] * terms and plan.carries == [], terms
        assert _plan(-1.0, SpectralEnvelope(1e-300, 1.0), MAX_DEPTH, 0.0).carries == []


class TestTerms:
    @pytest.mark.parametrize("alpha", ALPHAS + (2.0, 300.0))
    @pytest.mark.parametrize("x", XS)
    def test_abs_terms(self, alpha, x):
        cases = [(0, 1.0, count) for count in COUNTS]
        cases += [(j, term, count) for j in (1, 7, 256, 4096) for term in (1.0, 0.37, 1e-300)
                  for count in (1, 2, 3, 9, 256, 512)]
        for j, term, count in cases:
            got, got_after = _abs_terms(alpha, x, j, term, count)
            want, want_after = numpy_abs_terms(alpha, x, j, term, count)
            assert same(got, want) and same(got_after, want_after), (j, term, count)

    @pytest.mark.parametrize("alpha", ALPHAS + (1e-3, 13.5, 14.5, 27.99, 101.5))
    @pytest.mark.parametrize("x", XS + (0.0, 0.5))
    def test_closed_sum(self, alpha, x):
        # heads of 1 to 51 terms: up to 7 are summed as floats, longer ones
        # by numpy (pairwise from 8)
        got = outcome(_closed_sum, alpha, x, 1.0 - x)
        want = outcome(numpy_closed_sum, alpha, x, 1.0 - x)
        assert got == want if isinstance(want, tuple) else same(got, want)


class TestTails:
    @pytest.mark.parametrize("alpha", ALPHAS + (0.0, 2.0, 3.0))
    @pytest.mark.parametrize("x", XS)
    def test_tails(self, alpha, x):
        for depth in (0, 1, 5, _FIRST_CHUNK - 1, _FIRST_CHUNK, _FIRST_CHUNK + 1, 600, 2049):
            for floor in (0.0, 1e-300, 1e-40, 1e-12, 1e-6, 0.5):
                got = outcome(_tails, alpha, x, depth, floor)
                want = outcome(numpy_tails, alpha, x, depth, floor)
                if (alpha, x) == (0.0, 1.0):
                    # numpy_tails raises "do not decay" here; C(0, j) = 0
                    # past j = 0, so the tails are exact in the first chunk
                    want = np.zeros(min(depth, _FIRST_CHUNK) + 1)
                    want[0] = 1.0
                if isinstance(want, tuple):
                    assert got == want
                    continue
                assert same(got, want), (depth, floor)

    def test_passes_end_in_the_first_chunk_and_past_it(self):
        # the grid holds both kinds of pass of the decaying-terms loop: one
        # that sums the first chunk alone, and one that sums more
        first = numpy_tails(0.5, 0.3, 2049, 1e-12)
        later = numpy_tails(0.5, 0.999, 2049, 1e-12)
        assert len(first) == _FIRST_CHUNK + 1 < len(later)
        assert same(_tails(0.5, 0.3, 2049, 1e-12), first)
        assert same(_tails(0.5, 0.999, 2049, 1e-12), later)
