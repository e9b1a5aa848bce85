import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from finpow import (
    DivergentSeriesError,
    DomainError,
    NumericalFailureError,
    SpectralEnvelope,
    TruncationDepth,
    Window,
    certify,
    full_series_sum,
    tail_bound,
)
from finpow.certificates import _CHUNK, _first_chunk, _partial_abs_sum

from oracles import mp_abs_binom_partial, mp_abs_binom_tail

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
        # truncated direct summation approaches the same constant from below
        partial = float(mp_abs_binom_partial(0.5, 1.0, 10**6))
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
        # deep tails cancel in full - partial and are summed term by term,
        # in chunks whose first length follows the decay rate x
        x = 1.0 - c
        j_start = _first_chunk(x) + offset
        mine = tail_bound(alpha, c, 1.0, j_start)
        oracle = 2.0 * float(mp_abs_binom_tail(alpha, x, j_start))
        assert mine == pytest.approx(oracle, rel=1e-12)

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

    @pytest.mark.parametrize("alpha", (-1.5, -0.5, 0.5))
    def test_partial_sum_across_chunk_boundary(self, alpha):
        # the second block of terms starts from the term the first one carries
        j_count = _CHUNK + 5
        mine = _partial_abs_sum(alpha, 1.0, j_count)
        oracle = float(mp_abs_binom_partial(alpha, 1.0, j_count))
        assert mine == pytest.approx(oracle, rel=1e-10)


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
