import dataclasses
import sys
import threading
import time
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finpow import core, series
from finpow import (
    BoundarySpec,
    Certificate,
    DomainError,
    FinpowError,
    InfiniteMatrixSpec,
    InvalidBoundaryError,
    LatticeModelParams,
    MalformedSpecError,
    NotConvergedError,
    NumericalFailureError,
    SpectralEnvelope,
    Window,
    approximate_element,
    banded_spec,
    convergence_table,
    evaluate_window,
    lattice_spec,
    local_solve,
    zero_boundary,
)
from finpow.core import FiniteHermitian, sparse_section, truncate, validate_truncation
from finpow.lattice import periodic_boundary
from finpow.series import SupportWalk, truncation_depth

from oracles import dense_section

IDENTITY_ENV = SpectralEnvelope(1.0, 1.0, 0.0)
EPS = float(np.finfo(np.float64).eps)


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
        assert 0 in w.corners

    def test_window_off_the_origin(self):
        w = Window(-4882, 5118)
        assert w.dim == 237
        assert w.corners == (4882, 5118)
        assert w.contains(5000) and not w.contains(0)
        assert w.offset(4882) == 0
        assert list(Window(3, -2).indices()) == [-3, -2]

    def test_str_is_the_index_range(self):
        assert str(Window(2, 3)) == "[-2, 3]"
        assert str(Window(-4882, 5118)) == "[4882, 5118]"
        assert str(Window(3, -2)) == "[-3, -2]"

    def test_truncation_off_the_origin_is_translation_invariant(self, unit_lattice):
        _, spec, policy = unit_lattice
        far = Window(-4990, 5010)
        near = Window(10, 10)
        assert np.array_equal(
            truncate(spec, far, policy(far)).data, truncate(spec, near, policy(near)).data
        )


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

    def test_duplicate_after_integer_conversion(self):
        # 0.5 and -0.5 would both be stored under column 0, over the diagonal
        spec = InfiniteMatrixSpec(
            lambda m: [(m, 2.0), (m + 0.5, 0.1), (m - 0.5, 0.1)], 3, IDENTITY_ENV
        )
        with pytest.raises(MalformedSpecError, match="non-integral column 0.5"):
            spec.row(0)

    @pytest.mark.parametrize("col", [float("nan"), float("inf"), None, "1", 1 + 0j, True, np.True_])
    def test_non_numeric_column_rejected(self, col):
        # a boolean converts to 1, but is no column (it was stored as column 1)
        spec = InfiniteMatrixSpec(lambda m: [(m, 1.0), (col, 1.0)], 2, IDENTITY_ENV)
        with pytest.raises(MalformedSpecError, match="row 0 has .*(non-integral|malformed)"):
            spec.row(0)

    @pytest.mark.parametrize("entry", [(1, 1.0, 0.0), (1, "x"), (1, True), (1, np.True_)])
    def test_malformed_entry_rejected(self, entry):
        # a boolean value converts to 1.0, but is no number (it was read as 1)
        spec = InfiniteMatrixSpec(lambda m: [(m, 1.0), entry], 2, IDENTITY_ENV)
        with pytest.raises(MalformedSpecError, match="malformed entry"):
            spec.row(0)

    def test_a_non_integral_column_names_the_row(self):
        spec = InfiniteMatrixSpec(lambda m: [(m, 1.0), (m + 0.5, 0.0)], 2, IDENTITY_ENV)
        with pytest.raises(MalformedSpecError) as err:
            spec.row(2)
        assert str(err.value) == "row 2 has a malformed entry: the non-integral column 2.5"

    def test_row_stores_int_columns_and_complex_values(self):
        spec = InfiniteMatrixSpec(lambda m: [(np.int64(m), 2), (m + 1.0, np.float32(0.5))], 2,
                                  IDENTITY_ENV)
        assert spec.row(3) == {3: 2.0, 4: 0.5}
        assert all(type(col) is int for col in spec.row(3))
        assert all(type(v) is complex for v in spec.row(3).values())

    def test_integral_float_column_accepted(self):
        spec = InfiniteMatrixSpec(lambda m: [(float(m), 1.0)], 1, IDENTITY_ENV)
        assert spec.row(3) == {3: 1.0}
        assert all(type(col) is int for col in spec.row(3))

    def test_nonpositive_sparsity_bound(self):
        with pytest.raises(ValueError):
            InfiniteMatrixSpec(lambda m: [(m, 1.0)], 0, IDENTITY_ENV)

    def test_stencil_must_be_hermitian(self):
        with pytest.raises(ValueError):
            banded_spec([-1, 0, 1], [1.0, 2.0, -1.0], SpectralEnvelope(0.0, 4.0))

    def test_stencil_length_must_match_offsets(self):
        with pytest.raises(ValueError, match="offsets and stencil must have equal length"):
            banded_spec([-1, 0, 1], [-1.0, 3.0], SpectralEnvelope(1.0, 5.0))

    def test_duplicate_offset_rejected(self):
        with pytest.raises(ValueError, match="duplicate offsets in stencil"):
            banded_spec([0, 0], [1.0, 2.0], SpectralEnvelope(1.0, 5.0))

    @pytest.mark.parametrize(
        "stencil",
        [
            [-1.0, float("inf"), -1.0],
            [-1.0, float("-inf"), -1.0],
            [complex(0, float("inf")), 3.0, complex(0, -float("inf"))],
            [-1.0, float("nan"), -1.0],
            [float("nan"), 3.0, float("nan")],
        ],
        ids=["inf", "-inf", "complex_inf_mirrored", "nan_diagonal", "nan_off_diagonal"],
    )
    def test_non_finite_stencil_value_rejected(self, stencil):
        # the finiteness check runs before the mirror check, so a nan is named
        # as a non-finite value, not as a broken mirror
        with pytest.raises(ValueError, match="stencil offset -?[01] has the non-finite value") as err:
            banded_spec([-1, 0, 1], stencil, SpectralEnvelope(1.0, 5.0))
        assert "not Hermitian" not in str(err.value)

    @pytest.mark.parametrize(
        "offset", [1.5, -0.5, 1e-9, float("nan"), float("inf"), None, "1", 1j, True, np.bool_(True)]
    )
    def test_non_integral_offset_rejected(self, offset):
        # an offset is rejected, never truncated to a neighbouring column
        with pytest.raises(ValueError, match="offset .* is not an integer"):
            banded_spec([-1, 0, 1, offset], [-1.0, 3.0, -1.0, 0.0], SpectralEnvelope(1.0, 5.0))

    def test_half_integer_offsets_not_truncated(self):
        # int(-1.5) would make this the tridiagonal (-1, 3, -1)
        with pytest.raises(ValueError, match="offset -1.5 is not an integer"):
            banded_spec([-1.5, 0, 1.5], [-1.0, 3.0, -1.0], SpectralEnvelope(1.0, 5.0))

    @pytest.mark.parametrize(
        "value", ["3", b"3", True, np.bool_(True), None], ids=["str", "bytes", "bool", "np_bool", "none"]
    )
    def test_non_numeric_stencil_value_rejected(self, value):
        # complex('3') would parse, and a boolean converts to a number: the
        # config reader and the entry points reject both, and so does the
        # spec, with the ValueError of its other checks (None as well)
        with pytest.raises(ValueError, match="stencil offset 0 has the value .*, not a number"):
            banded_spec([-1, 0, 1], [-1.0, value, -1.0], SpectralEnvelope(1.0, 5.0))
        with pytest.raises(ValueError, match="stencil offset -1 has the value .*, not a number"):
            banded_spec([-1, 0, 1], [value, 3.0, value], SpectralEnvelope(1.0, 5.0))

    def test_integral_offsets_of_any_type_accepted(self):
        # numpy numbers are numbers, as offsets and as values
        values = [np.float64(-1.0), np.complex128(3.0), -1.0]
        spec = banded_spec([np.int64(-1), 0.0, np.int32(1)], values, SpectralEnvelope(1.0, 5.0))
        assert spec.row(4) == {3: -1.0, 4: 3.0, 5: -1.0}
        assert all(type(col) is int for col in spec.row(4))

    def test_replace_reads_its_own_rows(self):
        # a copy with a new generator serves its rows, not the original's
        # cached ones, and certifies as a fresh spec does
        spec = banded_spec([-1, 0, 1], [-1.0, 3.0, -1.0], SpectralEnvelope(1.0, 5.0))
        calls = memo_grid()[::4]
        before = outcomes(spec, calls)
        diagonal = lambda m: [(m, 2.0)]  # noqa: E731
        copy = dataclasses.replace(spec, row_generator=diagonal)
        assert copy.entry(0, 0) == 2.0 and copy.entry(0, 1) == 0.0
        fresh = InfiniteMatrixSpec(diagonal, spec.sparsity_bound_k, spec.envelope)
        assert outcomes(copy, calls) == outcomes(fresh, calls)
        assert spec.entry(0, 0) == 3.0
        assert outcomes(spec, calls) == before

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


_NOT_NUMBERS = (True, np.True_, "1", b"1", None, float("nan"), float("inf"))
_HUGE = 10**400  # too large for a float, though an integer


def _gen(m):
    return [(m, 2.0)]


# each argument of a constructor that reads a user's number, as a call with
# the bad value in its place; an integer slot is also fed 0.5, a number slot
# 10**400
_INTEGER_SLOTS = {
    "Window P": lambda v: Window(v, 2),
    "Window Q": lambda v: Window(2, v),
    "InfiniteMatrixSpec sparsity_bound_k": lambda v: InfiniteMatrixSpec(_gen, v, IDENTITY_ENV),
    "BoundarySpec row": lambda v: BoundarySpec({(v, 1): 1.0}),
    "BoundarySpec column": lambda v: BoundarySpec({(0, v): 1.0}),
    "banded_spec offset": lambda v: banded_spec(
        [-1, 0, 1, v], [-1.0, 3.0, -1.0, 0.0], SpectralEnvelope(1.0, 5.0)),
}
_NUMBER_SLOTS = {
    "SpectralEnvelope c": lambda v: SpectralEnvelope(v, 5.0),
    "SpectralEnvelope norm_bound": lambda v: SpectralEnvelope(1.0, v),
    "SpectralEnvelope d": lambda v: SpectralEnvelope(1.0, 5.0, v),
    "BoundarySpec value": lambda v: BoundarySpec({(0, 1): v}),
    "LatticeModelParams a": lambda v: LatticeModelParams(v, 1.0),
    "LatticeModelParams b": lambda v: LatticeModelParams(1.0, v),
    "banded_spec value": lambda v: banded_spec(
        [-1, 0, 1], [-1.0, v, -1.0], SpectralEnvelope(1.0, 5.0)),
}


@pytest.mark.parametrize(
    "slot, value",
    [(slot, v) for slot in _INTEGER_SLOTS for v in (*_NOT_NUMBERS, 0.5)]
    + [(slot, v) for slot in _NUMBER_SLOTS for v in (*_NOT_NUMBERS, _HUGE)],
    ids=lambda v: "10**400" if v is _HUGE else None,
)
def test_a_bad_number_in_a_constructor_is_a_domain_error(slot, value):
    # never a TypeError or an OverflowError, never an index truncated to a
    # neighbour: pytest.raises lets any other exception through
    call = {**_INTEGER_SLOTS, **_NUMBER_SLOTS}[slot]
    with pytest.raises(DomainError):
        call(value)


_ENVELOPE_SLOTS = {
    "InfiniteMatrixSpec": lambda v: InfiniteMatrixSpec(_gen, 1, v),
    "banded_spec": lambda v: banded_spec([0], [2.0], v),
}


@pytest.mark.parametrize("value", [(1.0, 5.0), None])
@pytest.mark.parametrize("slot", _ENVELOPE_SLOTS)
def test_an_envelope_that_is_no_spectral_envelope_is_a_domain_error(slot, value):
    # a tuple built, then ended in AttributeError: 'tuple' object has no attribute 'c'
    with pytest.raises(DomainError, match="envelope must be a SpectralEnvelope"):
        _ENVELOPE_SLOTS[slot](value)


@pytest.mark.parametrize(
    "entries, message",
    [
        ({0: 1.0}, "a boundary key must be a (row, col) pair, got 0"),
        ({(0, 1, 2): 1.0}, "a boundary key must be a (row, col) pair, got (0, 1, 2)"),
        ({"01": 1.0}, "a boundary key must be a (row, col) pair, got '01'"),
        ([((0, 1), 1.0)], "boundary entries must be a mapping, got [((0, 1), 1.0)]"),
    ],
    ids=["int key", "triple key", "string key", "list of pairs"],
)
def test_a_boundary_key_that_is_no_pair_is_a_domain_error(entries, message):
    # a TypeError, a ValueError and an AttributeError, unchecked
    with pytest.raises(DomainError) as err:
        BoundarySpec(entries)
    assert str(err.value) == message


class TestNumberRule:
    """The constructors store what they read: integers as ``int``s, real
    numbers as ``float``s, boundary values as ``complex`` numbers."""

    def test_numbers_of_any_type_are_stored_as_python_numbers(self):
        window = Window(2.0, np.int64(3))
        assert (window.P, window.Q) == (2, 3) and type(window.P) is type(window.Q) is int
        envelope = SpectralEnvelope(1, np.float64(5.0), np.int32(0))
        assert envelope == SpectralEnvelope(1.0, 5.0, 0.0)
        assert all(type(x) is float for x in (envelope.c, envelope.norm_bound, envelope.d))
        params = LatticeModelParams(np.float32(0.5), 2)
        assert (params.a, params.b) == (0.5, 2.0) and type(params.a) is type(params.b) is float
        spec = InfiniteMatrixSpec(_gen, np.int64(1), IDENTITY_ENV)
        assert type(spec.sparsity_bound_k) is int
        boundary = BoundarySpec({(np.int64(-2), 3.0): 1})
        assert boundary.entries == {(-2, 3): 1 + 0j, (3, -2): 1 + 0j}
        assert all(type(i) is int for key in boundary.entries for i in key)
        assert all(type(v) is complex for v in boundary.entries.values())

    def test_a_fractional_boundary_index_is_not_truncated(self):
        # int(0.5) would make this the entry (0, 1)
        with pytest.raises(DomainError, match="an index must be an integer, got 0.5"):
            BoundarySpec({(0.5, 1): 1})

    def test_a_fractional_window_is_rejected_before_any_table(self, unit_lattice):
        # it reached evaluate_window, whose TypeError the table's per-row
        # FinpowError catch did not catch
        _, spec, policy = unit_lattice
        with pytest.raises(DomainError, match="window P must be an integer, got 0.5"):
            convergence_table(spec, policy, 0.5, 0, 0, [Window(0.5, 2)])
        with pytest.raises(DomainError, match="window P must be an integer, got 0.5"):
            evaluate_window(spec, zero_boundary, 0.5, 0, 0, Window(0.5, 2))


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

    def test_dtype_follows_the_entries_inside_the_window(self):
        # the complex band lies outside Window(0, 0): the array is real
        env = SpectralEnvelope(0.5, 3.5, 0.0)
        spec = banded_spec([-1, 0, 1], [-0.5j, 2.0, 0.5j], env)
        result = truncate(spec, Window(0, 0))
        assert result.data.dtype == np.float64
        assert result.element(0, 0) == 2.0
        corrected = truncate(spec, Window(0, 0), BoundarySpec({(0, 0): 1.0}))
        assert corrected.data.dtype == np.float64
        assert corrected.element(0, 0) == 3.0
        # a complex entry inside, or a complex boundary entry, makes it complex
        assert truncate(spec, Window(1, 0)).data.dtype == np.complex128
        real = banded_spec([-1, 0, 1], [-0.5, 2.0, -0.5], env)
        assert truncate(real, Window(1, 1)).data.dtype == np.float64
        corner = BoundarySpec({(-1, 1): 0.25j})
        assert truncate(real, Window(1, 1), corner).element(-1, 1) == 0.25j

    def test_entries_near_the_float_limit_do_not_overflow(self):
        # the lattice a = 1e308, b = 1 passes every premise
        spec = lattice_spec(LatticeModelParams(1e308, 1.0))
        result = truncate(spec, Window(1, 1))
        assert np.isfinite(result.data).all()
        assert result.element(0, 0) == spec.entry(0, 0)

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


class TestFiniteHermitian:
    def test_shape_must_match_the_window(self):
        with pytest.raises(ValueError, match="does not match"):
            FiniteHermitian(Window(1, 1), np.eye(2))

    def test_element_outside_the_window(self):
        matrix = FiniteHermitian(Window(1, 1), np.eye(3))
        assert matrix.element(-1, -1) == 1.0
        with pytest.raises(IndexError, match="outside window"):
            matrix.element(2, 0)

    @pytest.mark.parametrize(
        "dtype", [np.float64, np.float32, np.int64, np.bool_, np.complex64, np.complex128]
    )
    def test_one_symmetrization_for_every_dtype(self, dtype):
        # half + half.conj().T, bitwise as the real formula half + half.T on
        # real input and as the complex one on complex input
        rng = np.random.default_rng(7)
        raw = rng.standard_normal((5, 5)) * 1e3
        if np.issubdtype(dtype, np.complexfloating):
            raw = raw + 1j * rng.standard_normal((5, 5))
        arr = (raw > 0 if dtype is np.bool_ else raw).astype(dtype)
        data = FiniteHermitian(Window(2, 2), arr).data
        if np.iscomplexobj(arr):
            half = np.asarray(arr, dtype=np.complex128) / 2.0
            expected = half + half.conj().T
        else:
            half = np.asarray(arr, dtype=np.float64) / 2.0
            expected = half + half.T
        assert data.dtype == expected.dtype
        assert data.dtype in (np.float64, np.complex128)
        assert data.tobytes() == expected.tobytes()


class TestValidateTruncation:
    def test_identity_passes(self):
        matrix = FiniteHermitian(Window(1, 1), np.eye(3))
        assert validate_truncation(matrix, IDENTITY_ENV, 1e-12) is True
        eigenvalues = np.linalg.eigvalsh(matrix.data)
        assert eigenvalues[0] == pytest.approx(1.0)
        assert eigenvalues[-1] == pytest.approx(1.0)

    def test_periodic_3x3_eigenvalues(self, unit_lattice):
        params, spec, _ = unit_lattice
        window = Window(1, 1)
        matrix = truncate(spec, window, periodic_boundary(window, params))
        # brute-force oracle for the 3x3 circulant
        oracle = np.sort(np.linalg.eigvalsh(matrix.data))
        np.testing.assert_allclose(oracle, [1.0, 4.0, 4.0], atol=1e-12)
        assert validate_truncation(matrix, SpectralEnvelope(1.0, 5.0, 0.0), 1e-9) is True
        assert oracle[0] == pytest.approx(1.0, abs=1e-12)

    def test_tightened_envelope_fails(self, unit_lattice):
        params, spec, _ = unit_lattice
        window = Window(1, 1)
        matrix = truncate(spec, window, periodic_boundary(window, params))
        envelope = SpectralEnvelope(2.0, 5.0, 0.0)
        assert validate_truncation(matrix, envelope, 1e-9) is False
        eigenvalues = np.linalg.eigvalsh(matrix.data)
        lower_ok = eigenvalues[0] >= envelope.c - 1e-9
        upper_ok = eigenvalues[-1] <= envelope.w + 1e-9
        assert not lower_ok
        assert upper_ok

    @pytest.mark.parametrize("P,Q", [(1, 1), (3, 5), (8, 8), (16, 2)])
    def test_lattice_validates_at_every_window(self, unit_lattice, P, Q):
        params, spec, _ = unit_lattice
        window = Window(P, Q)
        for boundary in (None, periodic_boundary(window, params)):
            matrix = truncate(spec, window, boundary)
            assert validate_truncation(matrix, spec.envelope, 1e-9) is True

    def test_failed_eigendecomposition_is_numerical_failure(self, monkeypatch):
        def fail(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        matrix = FiniteHermitian(Window(1, 1), np.eye(3))
        with pytest.raises(NumericalFailureError, match="eigendecomposition failed"):
            validate_truncation(matrix, IDENTITY_ENV, 1e-12)

    def test_entry_bounded_by_spectral_radius(self, unit_lattice):
        params, spec, _ = unit_lattice
        for P, Q in [(2, 2), (5, 3), (7, 7)]:
            window = Window(P, Q)
            matrix = truncate(spec, window, periodic_boundary(window, params))
            assert validate_truncation(matrix, spec.envelope, 1e-9) is True
            eigenvalues = np.linalg.eigvalsh(matrix.data)
            radius = max(abs(eigenvalues[0]), abs(eigenvalues[-1]))
            assert np.abs(matrix.data).max() <= radius + 1e-12


def complex_banded_spec():
    return banded_spec(
        [-2, -1, 0, 1, 2],
        [0.1 + 0.2j, 0.5 - 0.25j, 3.0, 0.5 + 0.25j, 0.1 - 0.2j],
        SpectralEnvelope(1.0, 5.0),
    )


def memo_grid():
    """Elements, best certificates of unconverged elements, and local solves,
    as calls of one spec."""
    calls = []
    for alpha in (-1.0, -0.5, 0.5, 1.5, 2.5):
        for m, n in [(0, 0), (0, 1), (3, -2), (2, 2)]:
            for tol, max_dim in [(1e-6, 2049), (1e-12, 2049), (1e-40, 41)]:
                calls.append(lambda spec, a=alpha, m=m, n=n, t=tol, d=max_dim:
                             approximate_element(spec, zero_boundary, a, m, n, t, max_dim=d))
    for f in [{0: 1.0}, {0: 0.5, 2: -0.25j}, {-3: 1.0, 4: 2.0}]:
        for tol in (1e-6, 1e-12):
            calls.append(lambda spec, f=f, t=tol: local_solve(spec, zero_boundary, f, [-3, 0, 1, 5], t))
    return calls


class Bits(NamedTuple):
    """The float bits of a complex value, and the scale of its round-off:
    ``w**alpha`` for an element of ``W**alpha``, which bounds every one, or 0
    for a value with no such bound."""

    real: str
    imag: str
    scale: float = 0.0

    def value(self) -> complex:
        return complex(float.fromhex(self.real), float.fromhex(self.imag))


def bits(value, scale=0.0):
    return Bits(complex(value).real.hex(), complex(value).imag.hex(), scale)


def certificate_bits(cert):
    if cert is None:
        return None
    scale = cert.envelope_used.w ** cert.alpha
    return bits(cert.value, scale), cert.bound.hex(), cert.depth, cert.window


def outcomes(spec, calls):
    """Each call's result as bits: a certificate, a local solution, or an
    unconverged call's message and best certificate."""
    out = []
    for call in calls:
        try:
            result = call(spec)
        except NotConvergedError as err:
            out.append((str(err), certificate_bits(err.best_certificate)))
            continue
        if isinstance(result, dict):
            out.append([(m, bits(v), b.hex()) for m, (v, b) in result.items()])
        elif isinstance(result, Certificate):
            out.append(certificate_bits(result))
        else:
            out.append(result)
    return out


def run_concurrently(spec, calls, workers=4, rounds=3):
    """Each worker's ``(index, outcome)`` pairs from running every call on
    ``spec`` ``rounds`` times, odd workers in order and even ones reversed,
    with the interpreter switching threads as often as it can."""
    results, errors = [[] for _ in range(workers)], []

    def read(worker):
        order = range(len(calls))
        try:
            for _ in range(rounds):
                for i in order if worker % 2 else reversed(order):
                    results[worker].append((i, outcomes(spec, [calls[i]])[0]))
        except Exception as exc:  # noqa: BLE001 - reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(k,)) for k in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert [len(done) for done in results] == [rounds * len(calls)] * workers
    return results


def plain_twin(spec):
    """The same rows as ``spec``, presented by its generator alone."""
    return InfiniteMatrixSpec(spec.row_generator, spec.sparsity_bound_k, spec.envelope)


def plain_lattice():
    return plain_twin(lattice_spec(LatticeModelParams(1.0, 1.0)))


class TestPlainSpecStep:
    """The COO step of a spec without a stencil, built on each call from its
    cached rows."""

    @pytest.mark.parametrize(
        "make_spec",
        [plain_lattice, lambda: plain_twin(complex_banded_spec())],
        ids=["unit_lattice", "complex_banded"],
    )
    def test_warm_equals_cold(self, make_spec):
        # a step built on a spec whose rows are cached gives the certificates
        # a fresh spec gives, unconverged best certificates included
        calls = memo_grid()
        cold = [outcomes(make_spec(), [call])[0] for call in calls]
        spec = make_spec()
        assert outcomes(spec, calls) == cold
        assert spec._rows
        assert outcomes(spec, calls) == cold
        assert any(isinstance(o[0], str) and o[1] is not None for o in cold)

    def test_errors_are_never_stored(self):
        def skewed(m):
            return [(m - 1, 1.0), (m, 3.0), (m + 1, -1.0)]

        spec = InfiniteMatrixSpec(skewed, 3, SpectralEnvelope(1.0, 5.0))
        for _ in range(2):
            with pytest.raises(MalformedSpecError, match="not Hermitian"):
                approximate_element(spec, zero_boundary, -0.5, 0, 0, 1e-6)
            with pytest.raises(MalformedSpecError, match="not Hermitian"):
                sparse_section(spec, Window(2, 2))

    def test_new_envelope_gives_a_new_step(self):
        # a new envelope is a new shift w, and the next step divides by it
        spec = plain_lattice()
        window = Window(4, 4)
        v = np.zeros(9)
        v[4] = 1.0
        before = sparse_section(spec, window)(v)
        spec.envelope = SpectralEnvelope(1.0, 10.0)
        after = sparse_section(spec, window)(v)
        assert (before[4], after[4]) == (1.0 - 3.0 / 5.0, 1.0 - 3.0 / 10.0)

    def test_concurrent_readers_match_serial(self):
        # four threads share one plain spec, whose row cache they fill at once
        # as they build steps, and one banded spec, which steps from its
        # stencil; every result equals the serial one bitwise
        calls = memo_grid()[::3]
        for make_spec in (plain_lattice, complex_banded_spec):
            serial = outcomes(make_spec(), calls)
            results = run_concurrently(make_spec(), calls)
            assert all(outcome == serial[i] for done in results for i, outcome in done)


def walk_grid():
    """Walks from one start set, {0, 1}, shallow and deep: elements, best
    certificates, local solves, truncation depths and windows."""
    calls = []
    for alpha in (-1.0, 0.5, 1.5):
        for tol, max_dim in [(1e-3, 2049), (1e-12, 2049), (1e-40, 41), (1e-40, 2049)]:
            calls.append(lambda spec, a=alpha, t=tol, d=max_dim:
                         approximate_element(spec, zero_boundary, a, 1, 0, t, max_dim=d))
    for tol in (1e-4, 1e-12):
        calls.append(lambda spec, t=tol:
                     local_solve(spec, zero_boundary, {0: 1.0, 1: 0.5j}, [0, 1, 9], t))
    for r in (1, 3, 40, 300):
        calls.append(lambda spec, r=r: truncation_depth(spec, Window(r, r), 0, 1))
    for steps, max_dim in [(-1, None), (5, None), (300, None), (300, 101), (5, 101)]:
        calls.append(lambda spec, s=steps, d=max_dim: SupportWalk(spec, {0, 1}).window(s, d))
    return calls


def count_walks(monkeypatch):
    """The start sets of the walks ``series._extents`` takes from now on."""
    walks, real = [], series._extents

    def counted(spec, starts):
        walks.append(set(starts))
        return real(spec, starts)

    monkeypatch.setattr(series, "_extents", counted)
    return walks


class TestSupportWalk:
    """A plain spec walks its rows once per call; a banded spec answers in
    closed form and takes no walk."""

    def test_stencil_spec_takes_no_walk_and_repeats_read_no_row(self, monkeypatch):
        # no row is read, cold or warm
        spec = lattice_spec(LatticeModelParams(1.0, 1.0))
        generated, generator = [], spec.row_generator
        spec.row_generator = lambda m: generated.append(m) or generator(m)
        walks = count_walks(monkeypatch)
        calls = walk_grid() + memo_grid()[::5]
        first = outcomes(spec, calls)
        assert generated == [] and walks == []
        assert outcomes(spec, calls) == first
        assert generated == [] and walks == []
        assert_agree_to_round_off(first, outcomes(plain_lattice(), calls))
        assert walks

    def test_closed_walk_stays_closed(self, monkeypatch):
        # the identity's reach closes after one step, however far it is asked
        walks = count_walks(monkeypatch)
        for spec in (plain_twin(identity_spec()), identity_spec()):
            walk = SupportWalk(spec, {7})
            assert walk.window(999) == walk.window(10**6) == Window(-6, 8)
            assert walk.depth(Window(-6, 8), 7, 7) == series.TruncationDepth(
                1, Window(-6, 8), 7, 7, saturated=True
            )
        assert walks == [{7}]  # the plain spec's

    def test_walk_stopped_by_max_dim_matches_the_row_walk(self, monkeypatch):
        # offsets -30..30: each step widens the reach by 60 indices; a window
        # asked with max_dim is the first one wider than max_dim, or the
        # window of the steps asked, on either path
        offsets = list(range(-30, 31))
        spec = banded_spec(
            offsets, [1.0 if o == 0 else -0.01 for o in offsets], SpectralEnvelope(0.4, 1.6)
        )
        walks = count_walks(monkeypatch)
        asked = [(20, 101), (20, 1001), (10, 501), (3, 4), (1, 3), (0, 101), (20, 2)]
        starts = ({0}, {-4, 9})
        windows = [[SupportWalk(spec, f).window(s, d) for s, d in asked] for f in starts]
        assert walks == []
        assert windows == [[SupportWalk(plain_twin(spec), f).window(s, d) for s, d in asked]
                           for f in starts]
        assert (windows[0][0], windows[1][0]) == (Window(61, 61), Window(65, 70))

    def test_concurrent_walks_match_serial(self):
        # four threads take shallow and deep walks from one start set on one
        # plain spec, sharing its row cache, and on one banded spec; every
        # result equals the serial one bitwise
        calls = walk_grid()
        for make_spec in (plain_lattice, complex_banded_spec):
            serial = outcomes(make_spec(), calls)
            results = run_concurrently(make_spec(), calls)
            assert all(outcome == serial[i] for done in results for i, outcome in done)


ENV_REAL = SpectralEnvelope(1.0, 5.0)
STENCILS = {
    "real": ([-1, 0, 1], [-1.0, 3.0, -1.0], ENV_REAL),
    "complex": ([-2, -1, 0, 1, 2], [0.25j, -1.0, 3.0, -1.0, -0.25j], SpectralEnvelope(0.75, 5.25)),
    "gapped": ([-2, 0, 2], [-1.0, 3.0, -1.0], ENV_REAL),
    "gapped_wide": ([-30, 0, 30], [-0.02, 1.0, -0.02], SpectralEnvelope(0.96, 1.04)),
    "diagonal_only": ([0], [2.0], SpectralEnvelope(1.0, 3.0)),
    # no diagonal: the spectrum is [-2, 2], so the envelope is wrong and some
    # calls fail; the two paths must fail alike
    "no_diagonal": ([-1, 1], [-1.0, -1.0], SpectralEnvelope(0.0, 2.0)),
}


def parity_grid():
    """Elements near and far, a complex local solve, and truncation depths
    and dense certificates on windows off the origin, as calls of one spec."""
    calls = []
    for alpha in (-1.0, -0.5, 0.5, 1.5, 2.0):
        for tol in (1e-4, 1e-10):
            for m, n in [(0, 0), (1, -2), (100, 100)]:
                calls.append(lambda spec, a=alpha, t=tol, m=m, n=n:
                             approximate_element(spec, zero_boundary, a, m, n, t))
    calls.append(lambda spec: local_solve(spec, zero_boundary, {0: 1.0, 3: 0.5 - 0.25j},
                                          [-2, 0, 3, 7], 1e-8))
    for window, m, n in [(Window(-3, 20), 5, 9), (Window(-3, 20), 3, 3), (Window(30, -10), -20, -15)]:
        calls.append(lambda spec, w=window, m=m, n=n: truncation_depth(spec, w, m, n))
        calls.append(lambda spec, w=window, m=m, n=n:
                     evaluate_window(spec, zero_boundary, 0.5, m, n, w))
    return calls


def parity_outcomes(spec, calls):
    """``outcomes``, with any other error as its type and message."""
    out = []
    for call in calls:
        try:
            out.append(outcomes(spec, [call])[0])
        except FinpowError as err:
            out.append((type(err).__name__, str(err)))
    return out


# A banded spec answers a short element from its symbol (driver._symbol_read)
# and steps a solve by a convolution, a plain one sweeps by COO steps: the
# sums run in other orders.  Two values agree to VALUE_ULPS units of eps times
# their scale, w**alpha for an element (which bounds every element of
# W**alpha), or times the larger of the two where there is no such scale.
VALUE_ULPS = 16

# The start of the message with which a banded spec's symbol path rejects an
# envelope; the plain twin's sweep rejects it by a Rayleigh quotient.
SYMBOL_MESSAGE = "the symbol of W takes values in ["


def assert_agree_to_round_off(got, want):
    """``got == want``, except that two values (``Bits``) need only agree to
    ``VALUE_ULPS`` units of ``eps`` times their scale, and that a
    ``MalformedSpecError`` (as ``parity_outcomes`` records it) may carry the
    symbol path's message."""
    if isinstance(want, Bits):
        a, b = got.value(), want.value()
        assert got.scale == want.scale, (got, want)
        scale = want.scale or max(abs(a), abs(b))
        assert abs(a - b) <= VALUE_ULPS * EPS * scale, (got, want)
    elif isinstance(want, tuple) and want[:1] == ("MalformedSpecError",) and got != want:
        assert got[0] == want[0] and got[1].startswith(SYMBOL_MESSAGE), (got, want)
    elif isinstance(want, (tuple, list)):
        assert type(got) is type(want) and len(got) == len(want), (got, want)
        for g, w in zip(got, want):
            assert_agree_to_round_off(g, w)
    else:
        assert got == want


class TestStencilPath:
    @pytest.mark.parametrize("name", list(STENCILS))
    def test_paths_agree(self, name):
        # a banded spec walks from its stencil, and answers a short element
        # from its symbol or steps by a convolution; a plain spec over the
        # same rows walks them and steps by COO arrays: windows, depths,
        # bounds and errors agree bitwise, messages too but where the symbol
        # rejects an envelope, and values to round-off, cold and warm
        calls = parity_grid()
        make = lambda: banded_spec(*STENCILS[name])  # noqa: E731
        rows = [parity_outcomes(plain_twin(make()), [call])[0] for call in calls]
        assert_agree_to_round_off([parity_outcomes(make(), [call])[0] for call in calls], rows)
        banded, plain = make(), plain_twin(make())
        assert banded._stencil is not None and plain._stencil is None
        for _ in range(2):
            assert_agree_to_round_off(parity_outcomes(banded, calls), rows)
            assert parity_outcomes(plain, calls) == rows

    @given(
        half_band=st.integers(0, 4),
        gapped=st.booleans(),
        complex_stencil=st.booleans(),
        complex_vector=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_step_matches_the_coo_step(
        self, half_band, gapped, complex_stencil, complex_vector, data
    ):
        # the convolution against the COO step of the same rows, on regions
        # of dim 1 to 3 l + 2, below 2 l + 1 included
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        offsets = [o for o in range(1, half_band + 1)
                   if o == half_band or not gapped or rng.random() < 0.5]
        band = {0: float(rng.normal())}
        for o in offsets:
            value = complex(*rng.normal(size=2)) if complex_stencil else float(rng.normal())
            band[o], band[-o] = value, value.conjugate()
        total = sum(abs(v) for v in band.values())
        spec = banded_spec(list(band), list(band.values()), SpectralEnvelope(0.0, total + 0.5))
        dim = data.draw(st.integers(1, 3 * half_band + 2))
        first = data.draw(st.integers(-5, 5))
        window = Window(-first, first + dim - 1)
        v = rng.normal(size=dim) + (1j * rng.normal(size=dim) if complex_vector else 0.0)
        got = sparse_section(spec, window)(v)
        want = core._step(plain_twin(spec), window)(v)
        assert got.dtype == want.dtype and got.shape == (dim,)
        w = spec.envelope.w
        tol = 4 * (2 * half_band + 1) * EPS * (1 + total / w) * np.abs(v).max()
        assert np.abs(got - want).max() <= tol

    def test_far_offsets_keep_the_kernel_small(self):
        # offsets +-10**6 join no two indices of any region under max_dim: the
        # kernel is the diagonal's alone, and elements and solves give what
        # the plain twin gives, quickly
        make = lambda: banded_spec(  # noqa: E731
            [-(10**6), 0, 10**6], [-0.5, 3.0, -0.5], SpectralEnvelope(2.0, 4.0)
        )
        calls = [lambda s, a=alpha, t=tol, m=m, n=n: approximate_element(s, zero_boundary, a, m, n, t)
                 for alpha in (-0.5, 0.5, 1.5) for tol in (0.3, 1e-8) for m, n in [(0, 0), (3, -2)]]
        calls += [lambda s, t=tol: local_solve(s, zero_boundary, {0: 1.0, 5: 2.0j}, [0, 5, 9], t)
                  for tol in (0.9, 1e-8)]
        rows = parity_outcomes(plain_twin(make()), calls)
        started = time.perf_counter()
        banded = parity_outcomes(make(), calls)
        assert time.perf_counter() - started < 1.0
        assert_agree_to_round_off(banded, rows)
        kinds = {type(o[0]).__name__ if isinstance(o, tuple) else "solve" for o in rows}
        assert kinds == {"Bits", "str", "solve"}  # certified, unconverged and solved

    def test_stencil_is_read_only_and_not_replaced(self):
        spec = banded_spec([1, 0, -1, 2], [-1.0, 3.0, -1.0, 0.0], ENV_REAL)
        offsets, values = spec._stencil
        assert offsets.tolist() == [-1, 0, 1] and values.tolist() == [-1.0, 3.0, -1.0]
        assert not offsets.flags.writeable and not values.flags.writeable
        assert dataclasses.replace(spec)._stencil is None
        assert dataclasses.replace(spec, row_generator=lambda m: [(m, 2.0)])._stencil is None

    @pytest.mark.parametrize("name", ["real", "complex", "gapped_wide"])
    def test_fresh_spec_reads_fixed_rows(self, name):
        # however deep the series, a fresh banded spec reads no row: it walks
        # and steps from the stencil that banded_spec checked
        def rows_read(call):
            spec = banded_spec(*STENCILS[name])
            generated, generator = [], spec.row_generator
            spec.row_generator = lambda m: generated.append(m) or generator(m)
            call(spec)
            return len(generated)

        tols = (1e-3, 1e-8, 1e-14)
        elements = [rows_read(lambda s, t=t: approximate_element(s, zero_boundary, -0.5, 0, 0, t))
                    for t in tols]
        solves = [rows_read(lambda s, t=t: local_solve(s, zero_boundary, {0: 1.0, 4: 0.5j}, [0, 2], t))
                  for t in tols]
        assert elements == [0] * 3 and solves == [0] * 3

    def test_non_finite_stencil_raises_from_every_path(self):
        # a generator with an inf raises from every path, on every call; the
        # same stencil is rejected by banded_spec at construction
        def poisoned(m):
            return [(m - 1, -1.0), (m, float("inf")), (m + 1, -1.0)]

        calls = [lambda s: approximate_element(s, zero_boundary, -0.5, 0, 0, 1e-6),
                 lambda s: approximate_element(s, zero_boundary, 0.5, 3, -2, 1e-10),
                 lambda s: local_solve(s, zero_boundary, {2: 1.0j}, [0, 2], 1e-8),
                 lambda s: truncate(s, Window(4, 2)),
                 lambda s: truncation_depth(s, Window(5, 5), 1, 2)]
        spec = InfiniteMatrixSpec(poisoned, 3, ENV_REAL)
        for call in calls:
            messages = []
            for target in (InfiniteMatrixSpec(poisoned, 3, ENV_REAL), spec, spec):
                with pytest.raises(MalformedSpecError, match="non-finite entry inf") as err:
                    call(target)
                messages.append(str(err.value))
            assert messages == messages[:1] * 3
        assert spec._rows == {}
        with pytest.raises(ValueError, match="stencil offset 0 has the non-finite value inf"):
            banded_spec([-1, 0, 1], [-1.0, float("inf"), -1.0], ENV_REAL)

    def test_value_beyond_complex_rejected(self):
        # 10**400 overflows a complex, so it is not finite as one
        with pytest.raises(ValueError, match="stencil offset 0 has the non-finite value 1000"):
            banded_spec([0], [10**400], ENV_REAL)
