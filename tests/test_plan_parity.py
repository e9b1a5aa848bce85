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

from finpow import NumericalFailureError, binomial_coefficients
from finpow.certificates import _FIRST_CHUNK, _abs_terms, _closed_sum, _tails
from finpow.driver import _coefficients
from finpow.powers import _binomial_rows
from oracles import (
    numpy_abs_terms,
    numpy_binomial_coefficients,
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


class TestBinomials:
    @pytest.mark.parametrize("alpha", ALPHAS + (-0.0, 0.0, 2.0, 1e-3))
    def test_coefficients(self, alpha):
        for count in (-1, 0, *COUNTS):
            got, want = binomial_coefficients(alpha, count), numpy_binomial_coefficients(alpha, count)
            assert same(got, want), (alpha, count)

    @pytest.mark.parametrize("alpha", ALPHAS + (-0.0, 0.0, 1.0, 2.0, 3.0, 400.5))
    def test_series_and_carries(self, alpha):
        # an element sweep's series as floats; its carries from the series
        # and one table of rows C(beta + r, .)
        for terms in (*range(1, 300), 1000, 2049) if alpha < 50 else (1, 2, 3, 17, 102, 299):
            series, carries = _coefficients(alpha, terms)
            want_series, want_carries = numpy_series_and_carries(alpha, terms)
            assert [c.hex() for c in series] == [c.hex() for c in want_series.tolist()], terms
            assert [c.hex() for c in carries] == [float(c).hex() for c in want_carries], terms

    def test_rows_match_one_row_each(self):
        # every row is the one-row recurrence at its own alpha, a zero's sign
        # included (-0.0 + 0 is +0.0, so row 0 is built at alpha itself)
        for alpha in (-0.0, 0.25, 3.75):
            rows = _binomial_rows(alpha, 6, 40)
            for r in range(6):
                assert same(rows[r], numpy_binomial_coefficients(alpha + r if r else alpha, 40))


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
