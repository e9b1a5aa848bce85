import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finpow import (
    BoundarySpec,
    FiniteHermitian,
    InfiniteMatrixSpec,
    InvalidBoundaryError,
    LatticeModelParams,
    MalformedSpecError,
    SpectralEnvelope,
    Window,
    banded_spec,
    lattice_spec,
    periodic_boundary,
    truncate,
    validate_truncation,
)

from oracles import dense_section

IDENTITY_ENV = SpectralEnvelope(1.0, 1.0, 0.0)


def identity_spec():
    return banded_spec([0], [1.0], IDENTITY_ENV)


class TestWindow:
    def test_dimension_and_corners(self):
        w = Window(2, 3)
        assert w.dim == 6
        assert w.corners == (-2, 3)
        assert list(w.indices()) == [-2, -1, 0, 1, 2, 3]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Window(-1, 0)
        with pytest.raises(ValueError):
            Window(0, -2)

    def test_single_index_window(self):
        w = Window(0, 0)
        assert w.dim == 1
        assert w.is_corner(0)


class TestSpectralEnvelope:
    def test_w_is_norm_plus_d(self):
        env = SpectralEnvelope(1.0, 5.0, 0.5)
        assert env.w == 5.5

    @pytest.mark.parametrize(
        "c,norm,d", [(-0.1, 1.0, 0.0), (2.0, 1.0, 0.0), (0.0, 1.0, -0.5)]
    )
    def test_invalid_rejected(self, c, norm, d):
        with pytest.raises(ValueError):
            SpectralEnvelope(c, norm, d)


class TestRowGenerator:
    def test_entry_identity(self):
        spec = identity_spec()
        assert spec.entry(5, 5) == 1.0
        assert spec.entry(5, 6) == 0.0

    def test_entry_lattice(self, unit_lattice):
        _, spec, _ = unit_lattice
        assert spec.entry(0, 1) == -1.0
        assert spec.entry(0, 0) == 3.0
        assert spec.entry(0, 2) == 0.0

    def test_sparsity_violation(self):
        def fat_row(m):
            return [(m - 1, 1.0), (m, 1.0), (m + 1, 1.0)]

        spec = InfiniteMatrixSpec(fat_row, 2, IDENTITY_ENV)
        with pytest.raises(MalformedSpecError):
            spec.row(0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(1.0, float("nan"))])
    def test_non_finite_entry_rejected(self, bad):
        def poisoned_row(m):
            return [(m, 1.0), (m + 1, bad)]

        spec = InfiniteMatrixSpec(poisoned_row, 2, IDENTITY_ENV)
        with pytest.raises(MalformedSpecError, match="non-finite"):
            spec.row(0)

    def test_duplicate_column(self):
        spec = InfiniteMatrixSpec(lambda m: [(m, 1.0), (m, 2.0)], 3, IDENTITY_ENV)
        with pytest.raises(MalformedSpecError):
            spec.entry(0, 0)

    def test_nonpositive_sparsity_bound(self):
        with pytest.raises(ValueError):
            InfiniteMatrixSpec(lambda m: [(m, 1.0)], 0, IDENTITY_ENV)

    def test_stencil_must_be_hermitian(self):
        with pytest.raises(ValueError):
            banded_spec([-1, 0, 1], [1.0, 2.0, -1.0], SpectralEnvelope(0.0, 4.0))

    def test_entry_conjugate_symmetry(self):
        spec = banded_spec(
            [-1, 0, 1], [-0.5j, 2.0, 0.5j], SpectralEnvelope(0.5, 3.5)
        )
        for m, n in [(0, 1), (1, 0), (3, 4), (2, 2), (0, 5)]:
            assert spec.entry(m, n) == np.conj(spec.entry(n, m))


class TestBoundarySpec:
    def test_conjugate_completion(self):
        b = BoundarySpec({(-2, 3): 1.0 + 2.0j})
        assert b.entries[(3, -2)] == 1.0 - 2.0j

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(InvalidBoundaryError):
            BoundarySpec({(-2, 3): 1.0 + 2.0j, (3, -2): 1.0 + 2.0j})

    def test_complex_diagonal_rejected(self):
        with pytest.raises(InvalidBoundaryError):
            BoundarySpec({(3, 3): 1.0j})

    def test_off_corner_rejected_by_truncate(self, unit_lattice):
        _, spec, _ = unit_lattice
        bad = BoundarySpec({(0, 3): -1.0})
        with pytest.raises(InvalidBoundaryError):
            truncate(spec, Window(3, 3), bad)


class TestTruncate:
    def test_identity_any_window(self):
        result = truncate(identity_spec(), Window(2, 4))
        np.testing.assert_array_equal(result.data, np.eye(7))

    def test_lattice_periodic_3x3(self, unit_lattice):
        params, spec, _ = unit_lattice
        window = Window(1, 1)
        result = truncate(spec, window, periodic_boundary(window, params))
        expected = np.array([[3.0, -1.0, -1.0], [-1.0, 3.0, -1.0], [-1.0, -1.0, 3.0]])
        np.testing.assert_array_equal(result.data, expected)

    def test_tridiagonal_one_sided_window(self):
        spec = banded_spec([-1, 0, 1], [-1.0, 2.0, -1.0], SpectralEnvelope(0.0, 4.0))
        result = truncate(spec, Window(0, 2))
        expected = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        np.testing.assert_array_equal(result.data, expected)
        # brute-force dense embedding agrees on the same index range
        ambient = dense_section(spec, 2).real
        np.testing.assert_array_equal(result.data, ambient[2:5, 2:5])

    def test_interior_matches_generator_exactly(self, unit_lattice):
        params, spec, _ = unit_lattice
        window = Window(4, 6)
        result = truncate(spec, window, periodic_boundary(window, params))
        for m in range(-3, 6):
            for n in range(-4, 7):
                if -window.P < m < window.Q or -window.P < n < window.Q:
                    assert result.element(m, n) == spec.entry(m, n)

    def test_corner_entries_get_correction(self, unit_lattice):
        params, spec, _ = unit_lattice
        window = Window(3, 3)
        result = truncate(spec, window, periodic_boundary(window, params))
        assert result.element(-3, 3) == -1.0
        assert result.element(3, -3) == -1.0
        assert result.element(-3, -3) == 3.0

    def test_non_hermitian_generator_rejected(self):
        spec = InfiniteMatrixSpec(lambda m: [(m + 1, 1.0)], 1, IDENTITY_ENV)
        with pytest.raises(MalformedSpecError):
            truncate(spec, Window(2, 2))

    def test_complex_truncation_hermitian(self):
        env = SpectralEnvelope(0.5, 3.5, 0.0)
        spec = banded_spec([-1, 0, 1], [-0.5j, 2.0, 0.5j], env)
        result = truncate(spec, Window(3, 3))
        assert np.abs(result.data - result.data.conj().T).max() == 0.0

    @given(p=st.integers(0, 10), q=st.integers(0, 10))
    @settings(max_examples=30, deadline=None)
    def test_exact_hermitian_and_interior_property(self, p, q):
        spec = lattice_spec(LatticeModelParams(1.0, 2.0))
        window = Window(p, q)
        result = truncate(spec, window)
        assert np.abs(result.data - result.data.conj().T).max() == 0.0
        for m in window.indices():
            for n in window.indices():
                if -window.P < m < window.Q or -window.P < n < window.Q:
                    assert result.element(m, n) == spec.entry(m, n)


class TestValidateTruncation:
    def test_identity_passes(self):
        report = validate_truncation(
            FiniteHermitian(Window(1, 1), np.eye(3)), IDENTITY_ENV, 1e-12
        )
        assert report.passed
        assert report.min_eigenvalue == pytest.approx(1.0)
        assert report.max_eigenvalue == pytest.approx(1.0)

    def test_periodic_3x3_eigenvalues(self, unit_lattice):
        params, spec, _ = unit_lattice
        window = Window(1, 1)
        matrix = truncate(spec, window, periodic_boundary(window, params))
        # brute-force oracle for the 3x3 circulant
        oracle = np.sort(np.linalg.eigvalsh(matrix.data))
        np.testing.assert_allclose(oracle, [1.0, 4.0, 4.0], atol=1e-12)
        report = validate_truncation(matrix, SpectralEnvelope(1.0, 5.0, 0.0), 1e-9)
        assert report.passed
        assert report.min_eigenvalue == pytest.approx(1.0, abs=1e-12)

    def test_tightened_envelope_fails(self, unit_lattice):
        params, spec, _ = unit_lattice
        window = Window(1, 1)
        matrix = truncate(spec, window, periodic_boundary(window, params))
        report = validate_truncation(matrix, SpectralEnvelope(2.0, 5.0, 0.0), 1e-9)
        assert not report.passed
        assert not report.lower_ok
        assert report.upper_ok

    @pytest.mark.parametrize("P,Q", [(1, 1), (3, 5), (8, 8), (16, 2)])
    def test_lattice_validates_at_every_window(self, unit_lattice, P, Q):
        params, spec, _ = unit_lattice
        window = Window(P, Q)
        for boundary in (None, periodic_boundary(window, params)):
            matrix = truncate(spec, window, boundary)
            assert validate_truncation(matrix, spec.envelope, 1e-9).passed

    def test_entry_bounded_by_spectral_radius(self, unit_lattice):
        params, spec, _ = unit_lattice
        for P, Q in [(2, 2), (5, 3), (7, 7)]:
            window = Window(P, Q)
            matrix = truncate(spec, window, periodic_boundary(window, params))
            report = validate_truncation(matrix, spec.envelope, 1e-9)
            radius = max(abs(report.min_eigenvalue), abs(report.max_eigenvalue))
            assert np.abs(matrix.data).max() <= radius + 1e-12
