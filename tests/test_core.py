import dataclasses
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finpow import core
from finpow import (
    BoundarySpec,
    FiniteHermitian,
    InfiniteMatrixSpec,
    InvalidBoundaryError,
    LatticeModelParams,
    MalformedSpecError,
    NotConvergedError,
    SpectralEnvelope,
    Window,
    approximate_element,
    banded_spec,
    lattice_spec,
    local_solve,
    periodic_boundary,
    truncate,
    validate_truncation,
    zero_boundary,
)
from finpow.core import sparse_section

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

    @pytest.mark.parametrize("col", [float("nan"), float("inf"), None, "1", 1 + 0j])
    def test_non_numeric_column_rejected(self, col):
        spec = InfiniteMatrixSpec(lambda m: [(m, 1.0), (col, 1.0)], 2, IDENTITY_ENV)
        with pytest.raises(MalformedSpecError, match="row 0 has .*(non-integral|malformed)"):
            spec.row(0)

    @pytest.mark.parametrize("entry", [(1, 1.0, 0.0), (1, "x")])
    def test_malformed_entry_rejected(self, entry):
        spec = InfiniteMatrixSpec(lambda m: [(m, 1.0), entry], 2, IDENTITY_ENV)
        with pytest.raises(MalformedSpecError, match="malformed entry"):
            spec.row(0)

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


def bits(value):
    """The float bits of a complex value."""
    return complex(value).real.hex(), complex(value).imag.hex()


def certificate_bits(cert):
    if cert is None:
        return None
    return bits(cert.value), cert.bound.hex(), cert.depth, cert.window


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
        else:
            out.append(certificate_bits(result))
    return out


def held_entries(spec):
    return sum(entries for _, entries in spec._steps.values())


class TestSectionMemo:
    @pytest.mark.parametrize(
        "make_spec",
        [lambda: lattice_spec(LatticeModelParams(1.0, 1.0)), complex_banded_spec],
        ids=["unit_lattice", "complex_banded"],
    )
    def test_warm_equals_cold(self, make_spec):
        # a step taken from the memo gives the certificates a fresh build gives,
        # unconverged best certificates included
        calls = memo_grid()
        cold = [outcomes(make_spec(), [call])[0] for call in calls]
        spec = make_spec()
        assert outcomes(spec, calls) == cold
        assert spec._steps
        assert outcomes(spec, calls) == cold
        assert any(isinstance(o[0], str) and o[1] is not None for o in cold)

    def test_repeated_call_reads_no_row_and_builds_no_section(self, unit_lattice, monkeypatch):
        _, spec, policy = unit_lattice
        generated, built = [], []
        generator, build = spec.row_generator, core._section

        def counted_rows(m):
            generated.append(m)
            return generator(m)

        def counted_build(*args):
            built.append(args[1])
            return build(*args)

        spec.row_generator = counted_rows
        monkeypatch.setattr(core, "_section", counted_build)
        calls = [lambda s: approximate_element(s, policy, -0.5, 3, -2, 1e-12),
                 lambda s: approximate_element(s, policy, 0.5, 1, 1, 1e-40, max_dim=101),
                 lambda s: local_solve(s, policy, {0: 1.0, 2: 0.5j}, [0, 1], 1e-10)]
        first = outcomes(spec, calls)
        assert generated and len(built) == 3
        del generated[:], built[:]
        assert outcomes(spec, calls) == first
        assert generated == [] and built == []

    def test_errors_are_never_stored(self):
        def skewed(m):
            return [(m - 1, 1.0), (m, 3.0), (m + 1, -1.0)]

        spec = InfiniteMatrixSpec(skewed, 3, SpectralEnvelope(1.0, 5.0))
        for _ in range(2):
            with pytest.raises(MalformedSpecError, match="not Hermitian"):
                approximate_element(spec, zero_boundary, -0.5, 0, 0, 1e-6)
            with pytest.raises(MalformedSpecError, match="not Hermitian"):
                sparse_section(spec, Window(2, 2))
        assert spec._steps == {}

    def test_entry_bound_evicts_the_oldest(self, unit_lattice, monkeypatch):
        # a step of the unit lattice on a window of dim d has 3 d - 2 entries
        _, spec, _ = unit_lattice
        monkeypatch.setattr(core, "SECTION_MEMO_ENTRIES", 100)
        windows = [Window(r, r) for r in (5, 6, 7, 8)]  # 31, 37, 43, 49 entries
        steps = [sparse_section(spec, window) for window in windows]
        assert [key for key, _ in spec._steps] == windows[2:]
        assert held_entries(spec) == 92 <= core.SECTION_MEMO_ENTRIES
        assert sparse_section(spec, windows[3]) is steps[3]
        assert sparse_section(spec, windows[0]) is not steps[0]
        assert [key for key, _ in spec._steps] == [windows[3], windows[0]]
        # a step above the bound is returned but not kept, and evicts all
        wide = sparse_section(spec, Window(20, 20))
        v = np.zeros(41)
        v[20] = 1.0
        assert wide(v)[19:22].tolist() == [0.2, 0.4, 0.2]
        assert spec._steps == {}

    def test_specs_never_share_a_step(self, unit_lattice):
        _, spec, _ = unit_lattice
        twin = InfiniteMatrixSpec(spec.row_generator, spec.sparsity_bound_k, spec.envelope)
        assert twin == spec
        window = Window(4, 4)
        assert sparse_section(twin, window) is not sparse_section(spec, window)
        copy = dataclasses.replace(spec)
        assert copy._steps == {} and sparse_section(copy, window) is not sparse_section(spec, window)
        # a new envelope is a new shift w: the step is built again for it
        v = np.zeros(9)
        v[4] = 1.0
        before = sparse_section(spec, window)(v)
        spec.envelope = SpectralEnvelope(1.0, 10.0)
        after = sparse_section(spec, window)(v)
        assert (before[4], after[4]) == (1.0 - 3.0 / 5.0, 1.0 - 3.0 / 10.0)
        assert len(spec._steps) == 2

    def test_concurrent_readers_match_serial(self, monkeypatch):
        # four threads share one spec whose memo evicts all the time; every
        # result equals the serial one bitwise
        calls = memo_grid()[::3]
        serial = outcomes(lattice_spec(LatticeModelParams(1.0, 1.0)), calls)
        spec = lattice_spec(LatticeModelParams(1.0, 1.0))
        monkeypatch.setattr(core, "SECTION_MEMO_ENTRIES", 600)
        results, errors = [[] for _ in range(4)], []

        def read(worker):
            order = range(len(calls))
            try:
                for _ in range(3):
                    for i in order if worker % 2 else reversed(order):
                        results[worker].append((i, outcomes(spec, [calls[i]])[0]))
            except Exception as exc:  # noqa: BLE001 - reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert [len(done) for done in results] == [3 * len(calls)] * 4
        assert all(outcome == serial[i] for done in results for i, outcome in done)
        assert held_entries(spec) <= core.SECTION_MEMO_ENTRIES
