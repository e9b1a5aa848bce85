import json
import math
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finpow import (
    DivergentSeriesError,
    DomainError,
    NumericalFailureError,
    SpectralEnvelope,
    Window,
    approximate_element,
    banded_spec,
    zero_boundary,
)
from finpow import certificates
from finpow.certificates import (
    _FIRST_CHUNK,
    _tails,
    certify,
    full_series_sum,
    required_depth,
    tail_bound,
)
from finpow.series import TruncationDepth

from oracles import mp_abs_binom_full, mp_abs_binom_partial, mp_abs_binom_tail

ALPHA_GRID = (-1.5, -1.0, -0.5, 0.5, 1.5, 2.5)
RATIO_GRID = (0.1, 0.5, 0.9)


class TestFullSeriesSum:
    def test_negative_alpha_closed_form(self):
        assert full_series_sum(-1.0, 1.0, 2.0) == 2.0

    def test_positive_noninteger_at_c_zero(self):
        assert full_series_sum(0.5, 0.0, 1.0) == pytest.approx(2.0, rel=1e-14)

    def test_integer_alpha_finite_sum(self):
        assert full_series_sum(2.0, 1.0, 2.0) == pytest.approx(2.25, rel=1e-15)

    def test_alpha_zero(self):
        assert full_series_sum(0.0, 0.5, 2.0) == 1.0

    def test_bound_overflowing_only_in_log_form(self):
        # the sum (c/w)**alpha = 1e200 is a float, and so is w**alpha = 1e200;
        # 2 w**alpha times the sum is not
        with pytest.raises(NumericalFailureError, match="overflows"):
            full_series_sum(-100.0, 1e-4, 1e-2)

    def test_integer_alpha_overflow_raises(self):
        # (1 + x)**alpha = 2**1024 passes the log-form screen and overflows
        with pytest.raises(NumericalFailureError, match="overflows"):
            full_series_sum(1024.0, 0.0, 1.0)

    def test_underflowing_ratio_with_negative_alpha_raises(self):
        # c/w rounds to 0, so x = 1: the terms of a negative power do not
        # decay, and (c/w)**alpha would divide by zero
        for alpha, c, w in [(-0.5, 1e-300, 1e300), (-1.0, 1e-320, 1e308)]:
            with pytest.raises(NumericalFailureError, match="do not decay"):
                full_series_sum(alpha, c, w)
            with pytest.raises(NumericalFailureError, match="do not decay"):
                tail_bound(alpha, c, w, 5)
        # a positive power sums as at c = 0
        assert full_series_sum(0.5, 1e-300, 1e300) == full_series_sum(0.5, 0.0, 1e300)

    def test_c_equal_w(self):
        for alpha in ALPHA_GRID:
            assert full_series_sum(alpha, 3.0, 3.0) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    @pytest.mark.parametrize("ratio", RATIO_GRID)
    @pytest.mark.parametrize("w", (1.0, 2.0))
    def test_matches_direct_summation(self, alpha, ratio, w):
        c = ratio * w
        mine = full_series_sum(alpha, c, w)
        oracle = float(mp_abs_binom_tail(alpha, (w - c) / w, 0))
        assert mine == pytest.approx(oracle, rel=1e-10)


class TestTailBound:
    def test_geometric_reference(self):
        # alpha=-1, c=1, w=2: 2 * (1/2) * sum (1/2)^j = 2, the closed form
        assert tail_bound(-1.0, 1.0, 2.0, 0) == 2.0

    def test_zero_tail_at_c_equal_w(self):
        for alpha in ALPHA_GRID:
            assert tail_bound(alpha, 2.0, 2.0, 1) == 0.0

    def test_c_zero_positive_alpha(self):
        value = tail_bound(0.5, 0.0, 1.0, 0)
        assert value == pytest.approx(4.0, rel=1e-14)
        # truncated direct summation approaches the same constant from below:
        # the 10**6 terms |C(0.5, j)| by their ratio |0.5 - j| / (j + 1)
        j = np.arange(10**6 - 1)
        partial = 1.0 + np.cumprod(np.abs(0.5 - j) / (j + 1)).sum()
        assert 2.0 * partial == pytest.approx(4.0, rel=1e-3)
        assert 2.0 * partial < value

    def test_geometric_tail_at_depth_five(self):
        # 2 * 2^-1 * sum_{j>=5} (1/2)^j = (1/2)^4 = 1/16
        assert tail_bound(-1.0, 1.0, 2.0, 5) == pytest.approx(0.0625, rel=1e-13)

    def test_integer_alpha_vanishes_past_alpha(self):
        assert tail_bound(1.0, 1.0, 5.0, 2) == 0.0
        assert tail_bound(3.0, 1.0, 5.0, 4) == 0.0
        assert tail_bound(0.0, 1.0, 5.0, 1) == 0.0

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    @pytest.mark.parametrize("j_start", (0, 1, 3, 7, 20, 55))
    def test_matches_mpmath_tail(self, alpha, j_start):
        c, w = 1.0, 2.0
        mine = tail_bound(alpha, c, w, j_start)
        oracle = 2.0 * w**alpha * float(mp_abs_binom_tail(alpha, 0.5, j_start))
        assert mine == pytest.approx(oracle, rel=1e-10)

    def test_monotone_decrease_to_zero(self):
        values = [tail_bound(-0.5, 1.0, 5.0, j) for j in range(0, 120, 3)]
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier * (1.0 + 1e-12)
        assert values[-1] < 1e-10
        assert values[-1] > 0.0

    @given(
        scale=st.floats(0.1, 10.0),
        alpha=st.sampled_from(ALPHA_GRID),
        j_start=st.integers(0, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_scale_covariance(self, scale, alpha, j_start):
        base = tail_bound(alpha, 1.0, 2.0, j_start)
        scaled = tail_bound(alpha, scale * 1.0, scale * 2.0, j_start)
        assert scaled == pytest.approx(scale**alpha * base, rel=1e-12)

    @pytest.mark.parametrize("alpha", (-1.5, 0.5))
    @pytest.mark.parametrize("c", (0.2, 0.01))
    @pytest.mark.parametrize("offset", (-40, -1, 0, 1, 40))
    def test_direct_summation_around_first_chunk(self, alpha, c, offset):
        # the pass stops only at the end of a chunk, and chunks double from
        # _FIRST_CHUNK: depths either side of the first four boundaries
        x = 1.0 - c
        for boundary in (_FIRST_CHUNK << k for k in range(4)):
            j_start = boundary + offset
            mine = tail_bound(alpha, c, 1.0, j_start)
            oracle = 2.0 * float(mp_abs_binom_tail(alpha, x, j_start))
            assert mine == pytest.approx(oracle, rel=1e-12), j_start

    def test_divergent_for_negative_alpha_c_zero(self):
        with pytest.raises(DivergentSeriesError):
            tail_bound(-0.5, 0.0, 1.0, 0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            tail_bound(0.5, 3.0, 2.0, 0)
        with pytest.raises(DomainError):
            tail_bound(0.5, 0.0, -1.0, 0)
        with pytest.raises(DomainError):
            tail_bound(0.5, -0.5, 2.0, 0)
        with pytest.raises(DomainError):
            tail_bound(0.5, 1.0, 2.0, -1)
        for alpha in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(DomainError):
                tail_bound(alpha, 1.0, 2.0, 3)

    @pytest.mark.parametrize(
        "alpha,c,w,j_start",
        [
            (441.5, 1.0, 5.0, 0),  # w**alpha overflows
            (-2000.0, 1.0, 5.0, 10),  # (c/w)**alpha overflows
            (440.5, 1.0, 5.0, 5),  # 2 w**alpha times the full sum overflows
            (440.5, 1.0, 5.0, 5000),  # ... and so every tail is rejected
            (1e300, 0.5, 1.0, 0),  # O(alpha) finite sum, beyond MAX_TAIL_TERMS
            (5000.5, 0.5, 1.0, 0),  # the coefficients themselves overflow
        ],
    )
    def test_overflowing_alpha_raises_promptly(self, alpha, c, w, j_start):
        start = time.perf_counter()
        with pytest.raises(NumericalFailureError):
            tail_bound(alpha, c, w, j_start)
        with pytest.raises(NumericalFailureError):
            full_series_sum(alpha, c, w)
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize(
        "alpha,c,w",
        [
            (9999999.5, 0.0, 1.0),  # the bound 2 w**alpha (1 + x)**floor(alpha)
            (1000000.5, 0.5, 1.0),
            (5000.0, 1.0, 5.0),  # an integer alpha
            (9999999.5, 0.0, 0.5),  # the sum alone, with w**alpha below one
        ],
    )
    def test_overflow_rejected_before_summing(self, monkeypatch, alpha, c, w):
        def no_sum(*args):
            raise AssertionError("summed an overflowing series")

        monkeypatch.setattr(certificates, "_abs_terms", no_sum)
        monkeypatch.setattr(certificates, "_tails", no_sum)
        with pytest.raises(NumericalFailureError, match="overflows"):
            full_series_sum(alpha, c, w)

    @pytest.mark.parametrize("alpha,j_start", [(2.5, 400), (2.5, 3000), (1.5, 20000)])
    def test_c_zero_deep_tail_bounds_the_rest(self, alpha, j_start):
        # the direct sum stops after MAX_TAIL_TERMS terms at x = 1 and
        # bounds what is left instead of raising
        w = 4.0
        exact = 2.0 * w**alpha * mp_abs_binom_tail(alpha, 1.0, j_start)
        bound = tail_bound(alpha, 0.0, w, j_start)
        assert exact <= bound <= exact * (1 + 1e-6)

    @pytest.mark.parametrize(
        "alpha,j_start",
        [(0.5, 1), (0.5, 7), (2.5, 3), (2.5, 400), (2.5, 3000), (1.5, 20000), (7.3, 100), (1e-3, 5)],
    )
    def test_c_zero_tail_closed_form(self, monkeypatch, alpha, j_start):
        # past alpha the tail at x = 1 is |sum_{j < j_start} (-1)**j C(alpha, j)|,
        # a finite sum; the closed form needs no summation of the tail: one
        # recurrence for its binomials and one for the terms up to alpha, and
        # no chunk of the decaying-terms loop
        real = certificates._abs_terms
        recurrences = []

        def counted(*args):
            recurrences.append(args)
            return real(*args)

        monkeypatch.setattr(certificates, "_abs_terms", counted)
        certificates._tails(alpha, 1.0, j_start)
        assert len(recurrences) == 2
        w = 4.0
        a = mp.mpf(alpha)
        term, partial = mp.mpf(1), mp.mpf(0)
        for j in range(j_start):
            partial += term
            term *= -(a - j) / (j + 1)
        exact = 2 * mp.mpf(w) ** a * abs(partial)
        bound = tail_bound(alpha, 0.0, w, j_start)
        assert exact <= bound <= exact * (1 + 8 * j_start * 2.0**-52)

    def test_terms_that_do_not_decay_raise(self):
        # c > 0 so small that x rounds to 1: the terms of a negative power
        # do not decay, and the pass raises before it sums any
        for alpha in (-0.5, -0.25):
            with pytest.raises(NumericalFailureError, match="do not decay"):
                tail_bound(alpha, 1e-320, 2.0, 10)
            with pytest.raises(NumericalFailureError, match="do not decay"):
                required_depth(alpha, SpectralEnvelope(1e-320, 2.0), 1e-6, 1.0, 65)

    def test_terms_that_do_not_decay_within_the_depth_limit_raise(self):
        # x rounds to 1 - 2**-52, so the closed-form full sum (1 - x)**alpha
        # overflows where (c/w)**alpha does not: it closes no pass, and the
        # terms have not decayed by MAX_DEPTH
        with pytest.raises(NumericalFailureError, match="do not decay within"):
            tail_bound(-19.7, 2.5e-16, 1.0, 5)

    def test_slow_decay_keeps_an_upper_bound(self):
        # at c/w = 1e-9 the terms decay too slowly to sum out; the closed-form
        # full sum closes the pass, and keeps the tail, and every deeper one,
        # bounded from above
        x = mp.mpf((1.0 - 1e-9) / 1.0)
        exact = (1 - x) ** mp.mpf(-0.5) - mp_abs_binom_partial(-0.5, x, 10)
        assert 2 * exact <= tail_bound(-0.5, 1e-9, 1.0, 10) < math.inf
        assert tail_bound(-0.5, 1e-9, 1.0, 10**9) <= tail_bound(-0.5, 1e-9, 1.0, 10)

    @pytest.mark.parametrize("alpha", (-0.5, 0.5, 1.5))
    @pytest.mark.parametrize("ratio", (1e-10, 1e-6))
    def test_slow_decay_is_the_exact_tail(self, alpha, ratio):
        # the terms fall like a power of j until j is about w/c, far past
        # any cutoff: the closed-form full sum less the terms summed closes
        # the pass, to CLOSED_FORM_GAP of the tail
        w = 1.0
        x = (w - ratio) / w
        full = mp_abs_binom_full(alpha, x)
        for j_start in (2, 10, 100):
            exact = 2 * (full - mp_abs_binom_partial(alpha, x, j_start))
            bound = tail_bound(alpha, ratio, w, j_start)
            assert exact <= bound <= exact * (1 + certificates.CLOSED_FORM_GAP), j_start
            assert bound < 2 * w**alpha * full_series_sum(alpha, ratio, w)

    def test_slow_decay_certifies_the_first_depth(self):
        # c/w = 1e-10 at alpha = 0.5: the one tail from J = 2 is
        # 0.5 - 6e-6 <= tol = 0.5, from J = 1 it is about 1
        c, w = 1e-10, 1.0 + 1e-10
        spec = banded_spec([-1, 0, 1], [-0.25, 0.5 + c, -0.25], SpectralEnvelope(c, w))
        cert = approximate_element(spec, zero_boundary, 0.5, 0, 0, 0.5)
        x = (w - c) / w
        full = mp_abs_binom_full(0.5, x)
        exact = mp.mpf(w) ** 0.5 * (full - mp_abs_binom_partial(0.5, x, 2))
        assert cert.depth.j_pq == 2
        assert exact <= cert.bound <= 0.5
        assert cert.bound == pytest.approx(float(exact), rel=1e-12)

    @pytest.mark.parametrize("alpha", (-1.5, -0.5, 0.5))
    def test_partial_sum_across_chunk_boundary(self, alpha):
        # each chunk of terms starts from the term the one before carries:
        # tails either side of the ends of the first two chunks (256, 512)
        x = 0.9
        for j_start in (_FIRST_CHUNK - 3, _FIRST_CHUNK + 5, 2 * _FIRST_CHUNK - 3, 2 * _FIRST_CHUNK + 5):
            mine = _tails(alpha, x, j_start)[-1]
            oracle = float(mp_abs_binom_tail(alpha, x, j_start))
            assert mine == pytest.approx(oracle, rel=1e-10), j_start


class TestGeometricTail:
    @pytest.mark.parametrize("ratio", (0.01, 0.1, 0.5, 0.9, 0.99))
    def test_alpha_minus_one_is_the_geometric_tail(self, monkeypatch, ratio):
        # |C(-1, j)| = 1: the tail is x**j / (1 - x), an upper bound in float
        def no_terms(*args):
            raise AssertionError("the alpha = -1 tail was summed term by term")

        monkeypatch.setattr(certificates, "_abs_terms", no_terms)
        c, w = 2.0 * ratio, 2.0
        x = (w - c) / w
        for j_start in (1, 2, 5, 20, 100, 400, 2000):
            mine = _tails(-1.0, x, j_start)[-1]
            exact = mp_abs_binom_tail(-1.0, x, j_start)
            if exact < 1e-300:  # past the normal floats the tail rounds towards 0
                assert mine < 1e-300
            else:
                assert exact <= mine <= exact * (1 + 1e-14), j_start

    def test_depth_search_sums_no_tail_directly(self, monkeypatch):
        # one pass per search; at alpha = -1 it is the closed form, no terms
        calls = {"_tails": 0, "_abs_terms": 0}
        for name in calls:
            real = getattr(certificates, name)

            def counted(*args, _name=name, _real=real):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(certificates, name, counted)
        envelope = SpectralEnvelope(1.0, 5.0)
        for tol in (1e-4, 1e-10, 1e-40):
            required_depth(-1.0, envelope, tol, 1.0, 2049)
        assert calls == {"_tails": 3, "_abs_terms": 0}
        for alpha in (-0.5, 2.5):
            required_depth(alpha, envelope, 1e-12, 1.0, 2049)
        assert calls["_tails"] == 5


class TestRequiredDepth:
    @pytest.mark.parametrize("alpha", ALPHA_GRID + (0.0, 1.0, 3.0))
    @pytest.mark.parametrize("c,w", [(1.0, 5.0), (0.2, 1.0), (0.9, 1.0), (2.0, 2.0)])
    @pytest.mark.parametrize("tol", (1e-2, 1e-6, 1e-12, 1e-40))
    def test_smallest_depth_meeting_tol(self, alpha, c, w, tol):
        # weight 2 makes the one-tail bound the whole tail_bound
        envelope = SpectralEnvelope(c, w)
        depth, bound = required_depth(alpha, envelope, tol, 2.0, 2049)
        assert depth <= 2049
        assert bound == tail_bound(alpha, c, w, depth) <= tol
        assert depth == 1 or tail_bound(alpha, c, w, depth - 1) > tol

    @pytest.mark.parametrize("weight", (1.0, 0.3, 7.25))
    def test_bound_is_the_weighted_one_tail(self, weight):
        envelope = SpectralEnvelope(1.0, 5.0)
        for alpha in (-1.0, -0.5, 0.5, 2.5):
            for tol in (1e-3, 1e-9):
                depth, bound = required_depth(alpha, envelope, tol, weight, 2049)
                assert bound == weight * (tail_bound(alpha, 1.0, 5.0, depth) / 2.0) <= tol
                assert depth == 1 or weight * (tail_bound(alpha, 1.0, 5.0, depth - 1) / 2.0) > tol

    def test_too_deep(self):
        envelope = SpectralEnvelope(1.0, 5.0)
        assert required_depth(-0.5, envelope, 1e-40, 2.0, 65) == (66, math.inf)
        assert tail_bound(-0.5, 1.0, 5.0, 65) > 1e-40
        assert required_depth(-0.5, envelope, 1e-40, 2.0, 0) == (1, math.inf)

    def test_integer_alpha_needs_one_term_past_alpha(self):
        envelope = SpectralEnvelope(1.0, 5.0)
        for alpha in (0.0, 1.0, 4.0):
            assert required_depth(alpha, envelope, 1e-300, 2.0, 2049) == (alpha + 1, 0.0)

    def test_full_sum_taken_from_the_caller(self, monkeypatch):
        # the premise check is the caller's
        def no_sum(*args):
            raise AssertionError("full_series_sum ran in the search")

        monkeypatch.setattr(certificates, "full_series_sum", no_sum)
        assert required_depth(0.5, SpectralEnvelope(1.0, 5.0), 1e-12, 1.0, 2049)[0] > 0


class TestSoundDepth:
    # the bound required_depth meets is the exact tail to round-off, the
    # depth before it misses tol, and the suffix sums behind it fall with j
    @pytest.mark.parametrize("alpha", (-2.5, -0.5, 0.5, 1.5, 2.5, 7.5))
    @pytest.mark.parametrize("ratio", (0.05, 0.2, 0.4, 0.7, 0.95))
    @pytest.mark.parametrize("tol", (1e-4, 1e-6, 1e-9, 1e-12))
    def test_bound_is_the_exact_tail(self, alpha, ratio, tol):
        c, w = 5.0 * ratio, 5.0
        x = (w - c) / w
        depth, bound = required_depth(alpha, SpectralEnvelope(c, w), tol, 1.0, 2049)
        exact = mp.mpf(w) ** alpha * mp_abs_binom_tail(alpha, x, depth)
        assert bound <= tol
        assert abs(bound - exact) <= 1e-13 * exact, (depth, float((bound - exact) / exact))
        assert depth == 1 or tail_bound(alpha, c, w, depth - 1) / 2.0 > tol
        tails = _tails(alpha, x, 2049)
        assert (tails[1:] <= tails[:-1]).all()

    def test_large_power_below_one_is_finite(self):
        # w**alpha underflows where the unscaled sum is large; the bounds,
        # about e**-316 and below, are floats, formed in log form
        total = full_series_sum(1100.5, 0.25, 0.5)
        assert math.isfinite(total) and total > 1.0
        oracle = float(mp_abs_binom_tail(1100.5, 0.5, 0))
        assert total == pytest.approx(oracle, rel=1e-12)
        scale = 2 * mp.mpf(0.5) ** mp.mpf(1100.5)
        for j_start in (0, 1, 400):
            bound = tail_bound(1100.5, 0.25, 0.5, j_start)
            exact = scale * mp_abs_binom_tail(1100.5, 0.5, j_start)
            assert bound > 0.0
            assert bound == pytest.approx(float(exact), rel=1e-12), j_start
        for tol in (1e-140, 1e-200):
            depth, bound = required_depth(1100.5, SpectralEnvelope(0.25, 0.5), tol, 1.0, 2049)
            exact = scale / 2 * mp_abs_binom_tail(1100.5, 0.5, depth)
            assert 0.0 < bound <= tol
            assert bound == pytest.approx(float(exact), rel=1e-12)
            assert bound == tail_bound(1100.5, 0.25, 0.5, depth) / 2.0


class TestCertify:
    def _depth(self, j_pq, window=None, saturated=False):
        window = window or Window(5, 5)
        return TruncationDepth(j_pq, window, 0, 0, saturated)

    def test_alpha_one_zero_bound(self):
        env = SpectralEnvelope(1.0, 5.0, 0.0)
        cert = certify(-1.0, 1.0, env, self._depth(2))
        assert cert.bound == 0.0

    def test_geometric_bound(self):
        env = SpectralEnvelope(1.0, 2.0, 0.0)
        cert = certify(0.7, -1.0, env, self._depth(5))
        assert cert.bound == pytest.approx(0.0625, rel=1e-13)

    def test_half_power_bound_matches_direct_tail(self):
        env = SpectralEnvelope(1.0, 2.0, 0.0)
        cert = certify(0.7, 0.5, env, self._depth(3))
        oracle = 2.0 * 2.0**0.5 * float(mp_abs_binom_tail(0.5, 0.5, 3))
        assert cert.bound == pytest.approx(oracle, rel=1e-12)

    def test_saturated_depth_certifies_exactly(self):
        env = SpectralEnvelope(1.0, 2.0, 0.0)
        cert = certify(1.0, -0.5, env, self._depth(1, saturated=True))
        assert cert.bound == 0.0

    def test_bound_nonincreasing_in_depth(self):
        env = SpectralEnvelope(1.0, 5.0, 0.0)
        bounds = [certify(0.0, -0.5, env, self._depth(j)).bound for j in range(1, 40)]
        for earlier, later in zip(bounds, bounds[1:]):
            assert later <= earlier * (1.0 + 1e-12)

    def test_record_and_json_round_trip(self):
        env = SpectralEnvelope(1.0, 5.0, 0.0)
        depth = TruncationDepth(7, Window(9, 9), 0, 1)
        cert = certify(0.25 - 0.125j, -0.5, env, depth)
        record = cert.to_record()
        assert record["j_pq"] == 7
        assert record["P"] == 9 and record["Q"] == 9
        assert record["value"] == [0.25, -0.125]
        assert record["c"] == 1.0 and record["w"] == 5.0
        parsed = json.loads(cert.to_json())
        assert parsed["bound"] == cert.bound
        assert parsed["value"] == [cert.value.real, cert.value.imag]
        assert parsed["alpha"] == cert.alpha
