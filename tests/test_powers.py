import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finpow import (
    DomainError,
    FiniteHermitian,
    SingularityError,
    SpectralEnvelope,
    Window,
    binomial_coefficients,
    finite_power,
    periodic_boundary,
    tail_bound,
    truncate,
)

from oracles import binomial_coefficient, finite_power_series


def hermitian_from(array):
    array = np.asarray(array, dtype=float)
    n = array.shape[0]
    return FiniteHermitian(Window(0, n - 1), array)


class TestBinomialCoefficient:
    def test_alpha_minus_one(self):
        for j in range(10):
            assert binomial_coefficient(-1.0, j) == (-1.0) ** j

    def test_half_choose_two(self):
        assert binomial_coefficient(0.5, 2) == -0.125

    def test_integer_alpha_vanishes_past_alpha(self):
        assert binomial_coefficient(3.0, 5) == 0.0
        assert binomial_coefficient(3.0, 3) == 1.0

    def test_rejects_negative_index(self):
        with pytest.raises(DomainError):
            binomial_coefficient(0.5, -1)

    @given(
        alpha=st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False).filter(
            lambda a: a == 0.0 or abs(a) > 1e-6
        ),
        j=st.integers(0, 25),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_mpmath(self, alpha, j):
        mine = binomial_coefficient(alpha, j)
        oracle = float(mp.binomial(mp.mpf(alpha), j))
        assert mine == pytest.approx(oracle, rel=1e-12, abs=1e-30)

    def test_vectorized_matches_scalar(self):
        coeffs = binomial_coefficients(-0.5, 12)
        for j in range(12):
            assert coeffs[j] == binomial_coefficient(-0.5, j)


class TestFinitePower:
    def test_identity_inverse_sqrt(self):
        result = finite_power(FiniteHermitian(Window(1, 1), np.eye(3)), -0.5)
        np.testing.assert_allclose(result.data, np.eye(3), atol=1e-14)

    def test_diagonal_square_root(self):
        result = finite_power(hermitian_from([[4.0, 0.0], [0.0, 9.0]]), 0.5)
        np.testing.assert_allclose(result.data, [[2.0, 0.0], [0.0, 3.0]], atol=1e-14)

    def test_lattice_square_matches_dense(self, unit_lattice):
        params, spec, _ = unit_lattice
        window = Window(1, 1)
        matrix = truncate(spec, window, periodic_boundary(window, params))
        squared = finite_power(matrix, 2.0)
        oracle = matrix.data @ matrix.data
        assert oracle[0, 0] == 11.0
        np.testing.assert_allclose(squared.data, oracle, rtol=1e-13)
        assert squared.element(0, 0) == pytest.approx(11.0, rel=1e-13)

    def test_alpha_one_is_input(self, unit_lattice):
        params, spec, _ = unit_lattice
        window = Window(4, 4)
        matrix = truncate(spec, window, periodic_boundary(window, params))
        result = finite_power(matrix, 1.0)
        np.testing.assert_allclose(result.data, matrix.data, atol=1e-13)

    def test_alpha_zero_is_identity(self, unit_lattice):
        params, spec, _ = unit_lattice
        window = Window(3, 3)
        matrix = truncate(spec, window, periodic_boundary(window, params))
        result = finite_power(matrix, 0.0)
        np.testing.assert_allclose(result.data, np.eye(window.dim), atol=1e-13)

    def test_result_exactly_hermitian(self, unit_lattice):
        params, spec, _ = unit_lattice
        window = Window(5, 2)
        matrix = truncate(spec, window, periodic_boundary(window, params))
        result = finite_power(matrix, -0.5)
        assert np.abs(result.data - result.data.conj().T).max() == 0.0

    def test_negative_eigenvalue_noninteger_alpha(self):
        matrix = hermitian_from([[-1.0, 0.0], [0.0, 2.0]])
        with pytest.raises(DomainError):
            finite_power(matrix, 0.5)

    def test_negative_eigenvalue_integer_alpha_allowed(self):
        matrix = hermitian_from([[-2.0, 0.0], [0.0, 2.0]])
        result = finite_power(matrix, 2.0)
        np.testing.assert_allclose(result.data, [[4.0, 0.0], [0.0, 4.0]], atol=1e-12)

    def test_zero_eigenvalue_negative_alpha(self):
        matrix = hermitian_from([[0.0, 0.0], [0.0, 2.0]])
        with pytest.raises(SingularityError):
            finite_power(matrix, -1.0)

    def test_tiny_negative_eigenvalue_clamped(self):
        matrix = hermitian_from([[-1e-14, 0.0], [0.0, 1.0]])
        result = finite_power(matrix, 0.5)
        assert result.element(0, 0) == 0.0

    def test_composition_roundtrip(self, unit_lattice):
        params, spec, _ = unit_lattice
        window = Window(8, 8)
        matrix = truncate(spec, window, periodic_boundary(window, params))
        back = finite_power(finite_power(matrix, 0.5), 2.0)
        scale = np.abs(matrix.data).max()
        assert np.abs(back.data - matrix.data).max() <= 1e-9 * scale

    def test_inverse_roundtrip(self, unit_lattice):
        params, spec, _ = unit_lattice
        window = Window(8, 8)
        matrix = truncate(spec, window, periodic_boundary(window, params))
        product = finite_power(matrix, -1.0).data @ matrix.data
        assert np.abs(product - np.eye(window.dim)).max() <= 1e-9


class TestFinitePowerSeries:
    def test_identity_partial_sums_converge_to_one(self):
        matrix = FiniteHermitian(Window(1, 1), np.eye(3))
        for alpha in (-0.5, 0.5, 1.5):
            value = finite_power_series(matrix, alpha, 2.0, 60).element(0, 0)
            assert value == pytest.approx(1.0, abs=1e-14)

    def test_scalar_geometric_series(self):
        # 1x1 matrix (1), alpha=-1, w=2: partial sum of the geometric series
        matrix = hermitian_from([[1.0]])
        value = finite_power_series(matrix, -1.0, 2.0, 20).element(0, 0)
        expected = 0.5 * sum(0.5**j for j in range(20))
        assert value == pytest.approx(expected, rel=1e-15)
        assert abs(value - 1.0) <= 2.0 * 0.5**19

    def test_single_term_is_w_alpha_identity(self, unit_lattice):
        params, spec, _ = unit_lattice
        window = Window(2, 2)
        matrix = truncate(spec, window, periodic_boundary(window, params))
        result = finite_power_series(matrix, -0.5, spec.envelope.w, 1)
        np.testing.assert_allclose(
            result.data, spec.envelope.w**-0.5 * np.eye(window.dim), atol=1e-15
        )

    def test_spectrum_outside_w_rejected(self):
        matrix = hermitian_from([[3.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DomainError):
            finite_power_series(matrix, 0.5, 2.0, 10)

    def test_zero_eigenvalue_negative_alpha_rejected(self):
        matrix = hermitian_from([[0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(SingularityError):
            finite_power_series(matrix, -0.5, 2.0, 10)

    def test_complex_matrix_series_agrees_with_spectral(self):
        window = Window(1, 1)
        data = np.array(
            [[2.0, 0.5j, 0.0], [-0.5j, 2.0, 0.5j], [0.0, -0.5j, 2.0]]
        )
        matrix = FiniteHermitian(window, data)
        w = 3.5
        exact = finite_power(matrix, -0.5)
        approx = finite_power_series(matrix, -0.5, w, 80)
        assert np.abs(approx.data - exact.data).max() <= 1e-10

    @pytest.mark.parametrize("alpha", [-1.0, -0.5, 0.5])
    def test_agreement_with_spectral_within_tail(self, unit_lattice, alpha):
        params, spec, _ = unit_lattice
        window = Window(3, 3)
        matrix = truncate(spec, window, periodic_boundary(window, params))
        envelope = spec.envelope
        exact = finite_power(matrix, alpha)
        for terms in (5, 15, 40):
            approx = finite_power_series(matrix, alpha, envelope.w, terms)
            gap = np.abs(approx.data - exact.data).max()
            allowance = tail_bound(alpha, envelope.c, envelope.w, terms) / 2.0
            assert gap <= allowance * (1.0 + 1e-9)
