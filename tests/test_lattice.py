import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finpow import (
    DegenerateWindowError,
    DomainError,
    LatticeModelParams,
    SingularityError,
    Window,
    dispersion_integral_element,
    finite_power,
    fourier_symbol,
    lattice_spec,
    periodic_boundary,
    truncate,
    validate_truncation,
)

from oracles import circulant_power_element, mp_dispersion_integral

# Frozen by the arbitrary-precision quadrature oracle (a=1, b=1, diagonal):
#   integral of (3 - 2 cos 2 pi k)**alpha over one period.
DIAG_INTEGRAL_MINUS_HALF = 0.6426376817731245
DIAG_INTEGRAL_PLUS_HALF = 1.6776099718621977


class TestLatticeSpec:
    def test_unit_stencil_and_envelope(self, unit_lattice):
        _, spec, _ = unit_lattice
        assert spec.entry(0, 0) == 3.0
        assert spec.entry(0, 1) == -1.0
        assert spec.entry(0, -1) == -1.0
        assert spec.entry(0, 2) == 0.0
        assert spec.envelope.c == 1.0
        assert spec.envelope.norm_bound == 5.0
        assert spec.envelope.d == 0.0

    def test_general_parameters(self):
        spec = lattice_spec(LatticeModelParams(0.5, 2.0))
        assert spec.entry(3, 3) == 0.5 + 4.0
        assert spec.entry(3, 4) == -2.0
        assert spec.envelope.c == 0.5
        assert spec.envelope.norm_bound == 8.5

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, -2.0)])
    def test_parameters_must_be_positive(self, a, b):
        with pytest.raises(DomainError):
            LatticeModelParams(a, b)

    def test_symbol_range_is_envelope(self, unit_lattice):
        params, spec, _ = unit_lattice
        kappa = np.linspace(0.0, 1.0, 4097)
        values = fourier_symbol(params, kappa)
        assert values.min() == pytest.approx(spec.envelope.c, abs=1e-6)
        assert values.max() == pytest.approx(spec.envelope.norm_bound, abs=1e-6)


class TestPeriodicBoundary:
    def test_corner_entries(self, unit_lattice):
        params, _, _ = unit_lattice
        boundary = periodic_boundary(Window(3, 3), params)
        assert boundary.entries == {(-3, 3): -1.0, (3, -3): -1.0}

    def test_degenerate_window(self, unit_lattice):
        params, _, _ = unit_lattice
        with pytest.raises(DegenerateWindowError):
            periodic_boundary(Window(0, 0), params)

    @pytest.mark.parametrize("P,Q", [(1, 1), (2, 5), (6, 6), (12, 3)])
    def test_ground_mode_and_norm(self, unit_lattice, P, Q):
        params, spec, _ = unit_lattice
        window = Window(P, Q)
        matrix = truncate(spec, window, periodic_boundary(window, params))
        eigenvalues = np.linalg.eigvalsh(matrix.data)
        # the constant vector is the ground mode at exactly a
        assert eigenvalues[0] == pytest.approx(params.a, abs=1e-10)
        assert eigenvalues[-1] <= params.a + 4.0 * params.b + 1e-10
        assert validate_truncation(matrix, spec.envelope, 1e-9).passed


class TestCirculantPowerElement:
    def test_alpha_one_recovers_entries(self, unit_lattice):
        params, _, _ = unit_lattice
        window = Window(4, 4)
        assert circulant_power_element(window, params, 1.0, 2, 2) == pytest.approx(
            3.0, rel=1e-13
        )
        assert circulant_power_element(window, params, 1.0, 2, 3) == pytest.approx(
            -1.0, rel=1e-13
        )

    def test_square_diagonal_n3(self, unit_lattice):
        params, _, _ = unit_lattice
        value = circulant_power_element(Window(1, 1), params, 2.0, 0, 0)
        assert value == pytest.approx(11.0, rel=1e-13)

    def test_inverse_diagonal_n3(self, unit_lattice):
        params, spec, _ = unit_lattice
        window = Window(1, 1)
        value = circulant_power_element(window, params, -1.0, 0, 0)
        assert value == pytest.approx(0.5, rel=1e-13)
        dense = truncate(spec, window, periodic_boundary(window, params)).data
        assert np.linalg.inv(dense)[0, 0] == pytest.approx(value, rel=1e-13)

    def test_out_of_window_rejected(self, unit_lattice):
        params, _, _ = unit_lattice
        with pytest.raises(DomainError):
            circulant_power_element(Window(1, 1), params, 1.0, 2, 0)

    def test_negative_alpha_guard_near_zero_mode(self):
        # symbol minimum a is positive but tiny; alpha=-1 still fine
        params = LatticeModelParams(1e-12, 1.0)
        value = circulant_power_element(Window(1, 1), params, -1.0, 0, 0)
        assert np.isfinite(value)

    @pytest.mark.parametrize("alpha", [-1.0, -0.5, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("P,Q", [(1, 1), (3, 2), (5, 5), (8, 3)])
    def test_matches_spectral_power(self, unit_lattice, alpha, P, Q):
        params, spec, _ = unit_lattice
        window = Window(P, Q)
        matrix = truncate(spec, window, periodic_boundary(window, params))
        powered = finite_power(matrix, alpha)
        for m, n in [(0, 0), (-P, Q), (1, 0), (Q, Q)]:
            mine = circulant_power_element(window, params, alpha, m, n)
            reference = powered.element(m, n).real
            assert mine == pytest.approx(reference, rel=1e-10, abs=1e-12)

    @given(
        m=st.integers(-5, 5),
        n=st.integers(-5, 5),
        m2=st.integers(-5, 5),
        n2=st.integers(-5, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_element_depends_only_on_difference_mod_n(self, m, n, m2, n2):
        params = LatticeModelParams(1.0, 1.0)
        window = Window(5, 5)
        N = window.dim
        if (m - n) % N != (m2 - n2) % N:
            return
        first = circulant_power_element(window, params, 0.5, m, n)
        second = circulant_power_element(window, params, 0.5, m2, n2)
        assert second == pytest.approx(first, rel=1e-12, abs=1e-14)


class TestDispersionIntegral:
    def test_alpha_one_diagonal(self, unit_lattice):
        params, _, _ = unit_lattice
        assert dispersion_integral_element(params, 1.0, 0, 0) == pytest.approx(
            3.0, abs=1e-12
        )

    def test_alpha_one_offdiagonal(self, unit_lattice):
        params, _, _ = unit_lattice
        assert dispersion_integral_element(params, 1.0, 0, 1) == pytest.approx(
            -1.0, abs=1e-12
        )
        assert dispersion_integral_element(params, 1.0, 0, 2) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_inverse_against_analytic(self, unit_lattice):
        # diagonal of the inverse: 1 / sqrt(a * (a + 4b)) for the unit model
        params, _, _ = unit_lattice
        value = dispersion_integral_element(params, -1.0, 0, 0)
        assert value == pytest.approx(1.0 / np.sqrt(5.0), rel=1e-12)

    def test_frozen_half_powers(self, unit_lattice):
        params, _, _ = unit_lattice
        assert dispersion_integral_element(params, -0.5, 0, 0) == pytest.approx(
            DIAG_INTEGRAL_MINUS_HALF, rel=1e-12
        )
        assert dispersion_integral_element(params, 0.5, 0, 0) == pytest.approx(
            DIAG_INTEGRAL_PLUS_HALF, rel=1e-12
        )

    def test_against_mpmath_quadrature(self, unit_lattice):
        params, _, _ = unit_lattice
        for alpha, delta in [(-0.5, 0), (-0.5, 2), (0.5, 1), (-1.0, 3)]:
            mine = dispersion_integral_element(params, alpha, delta, 0)
            oracle = float(mp_dispersion_integral(1.0, 1.0, alpha, delta))
            assert mine == pytest.approx(oracle, abs=1e-12)

    def test_circulant_converges_to_integral(self):
        # a narrow spectral gap slows convergence enough to see the trend;
        # the unit model already sits at round-off for every listed size
        params = LatticeModelParams(0.01, 1.0)
        reference = dispersion_integral_element(params, -0.5, 0, 0)
        gaps = []
        for size in (33, 65, 129, 257, 513):
            half = (size - 1) // 2
            value = circulant_power_element(Window(half, half), params, -0.5, 0, 0)
            gaps.append(abs(value - reference))
        assert all(late < early for early, late in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-12

    def test_unit_model_saturates_by_n_33(self, unit_lattice):
        params, _, _ = unit_lattice
        reference = dispersion_integral_element(params, -0.5, 0, 0)
        for size in (33, 65, 129, 257, 513):
            half = (size - 1) // 2
            value = circulant_power_element(Window(half, half), params, -0.5, 0, 0)
            assert abs(value - reference) < 1e-12

    def test_cross_check_at_n_4097(self, unit_lattice):
        params, _, _ = unit_lattice
        value = circulant_power_element(Window(2048, 2048), params, -0.5, 0, 0)
        assert value == pytest.approx(DIAG_INTEGRAL_MINUS_HALF, abs=1e-13)
