import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finpow import certificates, driver
from finpow import (
    Certificate,
    DomainError,
    LatticeModelParams,
    BoundarySpec,
    DivergentSeriesError,
    InfiniteMatrixSpec,
    InvalidBoundaryError,
    MalformedSpecError,
    NotConvergedError,
    NumericalFailureError,
    SpectralEnvelope,
    Window,
    approximate_element,
    banded_spec,
    convergence_table,
    dispersion_integral_element,
    evaluate_window,
    lattice_spec,
    local_solve,
    periodic_policy,
    zero_boundary,
)
from finpow.certificates import full_series_sum, required_depth, tail_bound
from finpow.core import sparse_section, truncate
from finpow.driver import MAX_DIM
from finpow.powers import finite_power
from finpow.series import SupportWalk, truncation_depth

from oracles import (
    dense_section,
    mp_abs_binom_tail,
    mp_dispersion_integral,
    numpy_binomial_coefficients,
    random_banded_spec,
    toeplitz_power_element,
)

EPS = float(np.finfo(float).eps)

# A banded spec reads a short element from its symbol, its plain twin sweeps:
# the two values agree to VALUE_ULPS units of eps times w**alpha, which bounds
# every element of W**alpha.
VALUE_ULPS = 16

# Limits with no integer value; inf certified before the limit was checked.
NON_INTEGRAL_MAX_DIMS = [100.5, 65.5, float("nan"), float("inf"), "7", None]


def _plain(spec):
    """The plain twin of a banded spec: its rows, presented by the generator
    alone, which the sweep walks and steps."""
    return InfiniteMatrixSpec(spec.row_generator, spec.sparsity_bound_k, spec.envelope)


def _assert_same_certificate(got, want):
    """Depth, window and bound bitwise equal, values to round-off."""
    assert (got.depth, got.window, got.bound) == (want.depth, want.window, want.bound)
    scale = want.envelope_used.w ** want.alpha
    assert abs(got.value - want.value) <= VALUE_ULPS * EPS * scale, (got, want)


def count_linalg(monkeypatch):
    """Count calls of numpy's dense Hermitian eigensolvers from here on."""
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        real = getattr(np.linalg, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def record_windows(monkeypatch):
    """Record the window of every truncation the driver makes from here on."""
    truncated = []
    real_truncate = driver.truncate

    def recording(spec, window, boundary=None):
        truncated.append(window)
        return real_truncate(spec, window, boundary)

    monkeypatch.setattr(driver, "truncate", recording)
    return truncated


def tight_spec():
    """Symbol 0.9995 - 2e-4 cos(theta), in [0.9993, 0.9997]: a sound, tight
    envelope, so a large alpha needs few terms and many carries."""
    return banded_spec([-1, 0, 1], [-1e-4, 0.9995, -1e-4], SpectralEnvelope(0.999, 1.0))


def free_laplacian_spec():
    """Tridiagonal (-1, 2, -1): spectrum [0, 4], so c = 0 genuinely."""
    return banded_spec([-1, 0, 1], [-1.0, 2.0, -1.0], SpectralEnvelope(0.0, 4.0, 0.0))


def double_identity_spec():
    return banded_spec([0], [2.0], SpectralEnvelope(2.0, 2.0, 0.0))


class TestApproximateElement:
    def test_alpha_one_first_window(self, unit_lattice):
        _, spec, policy = unit_lattice
        for m, n in [(0, 0), (0, 1), (3, 2), (-2, -2)]:
            cert = approximate_element(spec, policy, 1.0, m, n, 1e-12)
            assert cert.bound == 0.0
            # depth 2 clears the bound: one walk step plus one index each side
            assert cert.window == Window(2 - min(m, n), max(m, n) + 2)
            assert abs(cert.value - spec.entry(m, n)) <= 1e-12

    def test_alpha_zero_is_delta(self, unit_lattice):
        _, spec, policy = unit_lattice
        for m, n in [(0, 0), (0, 1), (-1, 2)]:
            cert = approximate_element(spec, policy, 0.0, m, n, 1e-12)
            assert cert.bound == 0.0
            assert abs(cert.value - (1.0 if m == n else 0.0)) <= 1e-12

    def test_lattice_inverse_sqrt_converges(self, unit_lattice):
        params, spec, policy = unit_lattice
        tol = 1e-6
        cert = approximate_element(spec, policy, -0.5, 0, 0, tol)
        assert cert.bound <= tol
        # predict the window independently: the smallest depth J whose one
        # tail meets tol, which Window(J, J) reaches at (0, 0)
        depth = 1
        while 5.0**-0.5 * float(mp_abs_binom_tail(-0.5, 0.8, depth)) > tol:
            depth += 1
        assert cert.window == Window(depth, depth)
        assert cert.depth.j_pq == depth
        reference = dispersion_integral_element(params, -0.5, 0, 0)
        assert abs(cert.value.real - reference) <= cert.bound

    def test_negative_alpha_with_zero_c_rejected(self):
        spec = free_laplacian_spec()
        with pytest.raises(DivergentSeriesError):
            approximate_element(spec, zero_boundary, -0.5, 0, 0, 1e-6)

    def test_nonnegative_alpha_with_zero_c_allowed(self):
        spec = free_laplacian_spec()
        cert = approximate_element(spec, zero_boundary, 1.0, 0, 1, 1e-9)
        assert abs(cert.value - -1.0) <= 1e-12

    def test_not_converged_carries_best(self, unit_lattice):
        _, spec, policy = unit_lattice
        with pytest.raises(NotConvergedError) as err:
            approximate_element(spec, policy, -0.5, 0, 0, 1e-30, max_dim=65)
        best = err.value.best_certificate
        assert best is not None
        assert best.window == Window(32, 32)
        assert best.bound > 1e-30

    def test_deterministic_reruns(self, unit_lattice):
        _, spec, policy = unit_lattice
        first = approximate_element(spec, policy, -0.5, 0, 1, 1e-5)
        second = approximate_element(spec, policy, -0.5, 0, 1, 1e-5)
        assert first == second

    def test_value_matches_one_shot_evaluation(self, unit_lattice):
        # the sweep and the paper's dense evaluation at the same region reach
        # the same depth; the dense bound has two tails, the sweep's one
        _, spec, policy = unit_lattice
        cert = approximate_element(spec, policy, 0.5, 1, 0, 1e-4)
        one_shot = evaluate_window(spec, policy, 0.5, 1, 0, cert.window)
        assert cert.depth == one_shot.depth
        assert one_shot.bound == 2.0 * cert.bound
        assert abs(cert.value - one_shot.value) <= cert.bound + one_shot.bound

    def test_bounds_nonincreasing_and_cauchy(self, unit_lattice):
        _, spec, policy = unit_lattice
        windows = [Window(g, g) for g in (2, 4, 8, 16, 32)]
        rows = convergence_table(spec, policy, -0.5, 0, 0, windows)
        bounds = [row.bound for row in rows]
        assert all(late <= early for early, late in zip(bounds, bounds[1:]))
        values = [row.value for row in rows]
        for i in range(len(values) - 1):
            assert abs(values[i + 1] - values[i]) <= bounds[i]

    @given(
        a=st.floats(0.1, 3.0),
        b=st.floats(0.1, 3.0),
        alpha=st.sampled_from([-1.0, -0.5, 0.5, 1.5]),
        margin=st.integers(3, 10),
        m=st.integers(-2, 2),
        n=st.integers(-2, 2),
    )
    @settings(max_examples=40, deadline=None)
    def test_certificate_sound_on_lattice_family(self, a, b, alpha, margin, m, n):
        params = LatticeModelParams(a, b)
        spec = lattice_spec(params)
        policy = periodic_policy(params)
        window = Window(margin, margin)
        cert = evaluate_window(spec, policy, alpha, m, n, window)
        ambient = evaluate_window(
            spec, policy, alpha, m, n, Window(8 * margin, 8 * margin)
        )
        assert abs(cert.value - ambient.value) <= cert.bound

    def test_one_eigensolve_per_answer(self, unit_lattice, monkeypatch):
        # an answer is a sparse sweep: no eigensolve, no truncation, and the
        # boundary policy is never asked for a correction
        _, spec, _ = unit_lattice
        calls = count_linalg(monkeypatch)
        truncated = record_windows(monkeypatch)

        def no_policy(window):
            raise AssertionError("the boundary policy was read")

        for alpha, tol in [(-0.5, 1e-12), (1.5, 1e-40), (0.5, 1e-3)]:
            cert = approximate_element(spec, no_policy, alpha, 0, 1, tol)
            assert cert.bound <= tol
        assert calls == {"eigh": 0, "eigvalsh": 0}
        assert truncated == []

    @pytest.mark.parametrize("alpha, m, n", [(20.5, 0, 1), (50.5, 0, 0), (100.5, 0, 0), (100.5, 3, 0)])
    def test_large_alpha_keeps_its_digits(self, unit_lattice, alpha, m, n):
        # summed as they stand, the terms of a large positive power reach
        # (1 + x)**alpha times w**alpha and cancel; the sweep sums the
        # fractional power and applies the integer one by mat-vecs, so the
        # value keeps the digits of the dense evaluation at its window
        params, spec, policy = unit_lattice
        cert = approximate_element(spec, policy, alpha, m, n, 1e-6)
        assert cert.bound <= 1e-6
        dense = evaluate_window(spec, policy, alpha, m, n, cert.window)
        assert dense.depth.j_pq == cert.depth.j_pq
        assert abs(cert.value - dense.value) <= 1e-10 * abs(dense.value)
        reference = complex(mp_dispersion_integral(1.0, 1.0, alpha, m - n))
        assert abs(cert.value - reference) <= 1e-13 * abs(reference)

    def test_no_certain_digit_fails(self, unit_lattice):
        # a shallow partial sum of a large power carries terms whose
        # round-off reaches w**alpha, which bounds every element: the call
        # fails rather than certify a value with no certain digit
        _, spec, policy = unit_lattice
        with pytest.raises(NumericalFailureError, match="no certain digit"):
            approximate_element(spec, policy, 100.5, 0, 0, 1e-30, max_dim=65)

    def test_many_carries_on_a_tight_envelope(self):
        # k = 20000 carries of J = 65 terms, all finite
        cert = approximate_element(tight_spec(), zero_boundary, 20000.5, 0, 0, 1e-6)
        assert cert.depth.j_pq == 65
        assert cert.bound <= 1e-6
        reference = toeplitz_power_element(tight_spec(), 20000.5, 0, 0)
        assert abs(cert.value - reference) <= cert.bound + 65 * EPS

    @pytest.mark.parametrize("alpha", [50000.5, 100000.5, 700000.5])
    def test_overflowing_carries_fail_in_bounded_memory(self, alpha):
        # C(0.5 + r, J - 1) overflows for large r: the largest carry is run
        # first, and overflows with no warning, before any sweep
        tracemalloc.start()
        try:
            with pytest.raises(NumericalFailureError, match="carries .* overflow"):
                approximate_element(tight_spec(), zero_boundary, alpha, 0, 0, 1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_non_finite_alpha_rejected(self, unit_lattice, alpha):
        _, spec, policy = unit_lattice
        with pytest.raises(DomainError):
            approximate_element(spec, policy, alpha, 0, 0, 1e-6)

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_tol_rejected(self, unit_lattice, tol):
        _, spec, policy = unit_lattice
        with pytest.raises(DomainError):
            approximate_element(spec, policy, 0.5, 0, 0, tol)

    @pytest.mark.parametrize(
        "m, n",
        [(0.5, 0), (0, 0.5), (0, float("nan")), (float("inf"), 0), (0, "1"), (True, 0),
         (0, np.True_)],
    )
    def test_non_integral_index_rejected(self, unit_lattice, m, n):
        # every entry point that takes an element, before it plans a window;
        # a boolean is not an index, though int(True) is 1
        _, spec, policy = unit_lattice
        with pytest.raises(DomainError, match="integer"):
            approximate_element(spec, policy, 0.5, m, n, 1e-6)
        with pytest.raises(DomainError, match="integer"):
            evaluate_window(spec, policy, 0.5, m, n, Window(5, 5))
        with pytest.raises(DomainError, match="integer"):
            convergence_table(spec, policy, 0.5, m, n, [Window(5, 5)])

    def test_integral_index_is_its_int(self, unit_lattice):
        _, spec, policy = unit_lattice
        cert = approximate_element(spec, policy, 0.5, 0, 2.0, 1e-6)
        assert cert == approximate_element(spec, policy, 0.5, 0, 2, 1e-6)
        assert type(cert.depth.n) is int
        cert = approximate_element(spec, policy, 1.5, np.int64(-1), np.float64(1.0), 1e-6)
        assert cert == approximate_element(spec, policy, 1.5, -1, 1, 1e-6)

    @pytest.mark.parametrize("alpha", [400.5, 440.5, 441.5, -2000.0])
    def test_overflowing_bound_rejected_before_any_window(
        self, unit_lattice, monkeypatch, alpha
    ):
        # the premise check runs before the support walk and the section
        _, spec, policy = unit_lattice

        def no_window(*args):
            raise AssertionError("a window was planned")

        monkeypatch.setattr(driver, "SupportWalk", no_window)
        monkeypatch.setattr(driver, "sparse_section", no_window)
        with pytest.raises(NumericalFailureError):
            approximate_element(spec, policy, alpha, 0, 0, 1e-6)

    def test_rayleigh_check_rejects_a_wrong_envelope(self):
        # the symbol 3 - 2 cos(theta) reaches down to 1, below the declared
        # c = 2.  The plain twin sweeps: e_0 passes (W_00 = 3), the last
        # sweep term does not.  The banded spec reads these short elements
        # from its symbol, whose samples leave the envelope
        twins = _twins([-1, 0, 1], [-1.0, 3.0, -1.0], SpectralEnvelope(2.0, 5.0))
        for spec, message in zip(twins, [r"^the symbol of W takes values in \[1, ", "Rayleigh"]):
            for tol in (1e-2, 1e-8):
                with pytest.raises(MalformedSpecError, match=message):
                    approximate_element(spec, zero_boundary, 0.5, 0, 1, tol)
        # a diagonal entry outside the envelope fails at the first vector of
        # the sweep, and the symbol exceeds the envelope at 9 nodes (J = 9)
        twins = _twins([-1, 0, 1], [-1.0, 3.0, -1.0], SpectralEnvelope(0.5, 2.5))
        symbol = r"^the symbol of W takes values in \[1, 4\.87939\] on 9 nodes, outside the envelope \[0\.5, 2\.5\]$"
        for spec, message in zip(twins, [symbol, "is 3,"]):
            with pytest.raises(MalformedSpecError, match=message):
                approximate_element(spec, zero_boundary, 0.5, 0, 0, 1e-2)

    def test_hermitian_spot_check(self):
        def skewed(m):
            return [(m - 1, 1.0), (m, 3.0), (m + 1, -1.0)]

        spec = InfiniteMatrixSpec(skewed, 3, SpectralEnvelope(1.0, 5.0))
        with pytest.raises(MalformedSpecError, match="not Hermitian"):
            approximate_element(spec, zero_boundary, -0.5, 0, 0, 1e-6)

    def test_terms_that_vanish_pass_the_rayleigh_check(self):
        # W = 2 I with c = 1 < w = 2: every term after e_n is exactly 0, a
        # vector with no Rayleigh quotient
        spec = banded_spec([0], [2.0], SpectralEnvelope(1.0, 2.0))
        for alpha in (-1.0, -0.5, 0.5, 1.5):
            cert = approximate_element(spec, zero_boundary, alpha, 3, 3, 1e-12)
            assert cert.value == pytest.approx(2.0**alpha, rel=1e-15)
            assert approximate_element(spec, zero_boundary, alpha, 3, 4, 1e-12).value == 0.0
        assert local_solve(spec, zero_boundary, {0: 1.0}, [0], 1e-12)[0][0] == 0.5

    def test_complex_elements_bitwise_hermitian(self):
        spec = banded_spec(
            [-2, -1, 0, 1, 2],
            [0.1 + 0.2j, 0.5 - 0.25j, 3.0, 0.5 + 0.25j, 0.1 - 0.2j],
            SpectralEnvelope(1.0, 5.0),
        )
        for alpha in (-1.0, -0.5, 0.5, 1.5):
            for m, n in [(0, 1), (-2, 3), (5, -6), (4, 4)]:
                upper = approximate_element(spec, zero_boundary, alpha, m, n, 1e-10)
                lower = approximate_element(spec, zero_boundary, alpha, n, m, 1e-10)
                assert upper.value == lower.value.conjugate()
                assert upper.bound == lower.bound and upper.window == lower.window
                if m == n:
                    assert upper.value.imag == 0.0
                else:
                    assert upper.value.imag != 0.0
                dense = evaluate_window(spec, zero_boundary, alpha, m, n, upper.window)
                assert abs(upper.value - dense.value) <= upper.bound + dense.bound

    @pytest.mark.parametrize(
        "max_dim",
        [-1, 0, 1, 2, 3, 4, 5, 8, 8.0, np.int64(5), 65.0, *NON_INTEGRAL_MAX_DIMS],
    )
    @pytest.mark.parametrize("m, n", [(0, 0), (0, 1), (1, 0), (0, 2), (3, -2), (-7, -7)])
    def test_degenerate_max_dim(self, unit_lattice, max_dim, m, n):
        # every small limit ends in a certificate or NotConvergedError; a best
        # certificate is the sweep at its window's truncation depth.  An
        # integral limit of any type is its int; any other raises DomainError
        params, spec, policy = unit_lattice
        if max_dim in NON_INTEGRAL_MAX_DIMS:
            with pytest.raises(DomainError, match="max_dim must be an integer"):
                approximate_element(spec, policy, -0.5, m, n, 1e-3, max_dim=max_dim)
            with pytest.raises(DomainError, match="max_dim must be an integer"):
                local_solve(spec, policy, {m: 1.0}, [n], 1e-3, max_dim=max_dim)
            return
        solutions = []  # a solution, or None for NotConvergedError with no certificate
        for limit in (max_dim, int(max_dim)):
            try:
                solutions.append(local_solve(spec, policy, {m: 1.0}, [n], 1e-3, max_dim=limit))
            except NotConvergedError as err:
                assert err.best_certificate is None
                solutions.append(None)
        assert solutions[0] == solutions[1]
        try:
            cert = approximate_element(spec, policy, -0.5, m, n, 1e-3, max_dim=max_dim)
        except NotConvergedError as err:
            cert = err.best_certificate
            if cert is None:
                return
            assert cert.depth == truncation_depth(spec, cert.window, m, n)
            assert cert.bound == tail_bound(-0.5, 1.0, 5.0, cert.depth.j_pq) / 2.0
        assert cert.window.dim <= max_dim
        reference = dispersion_integral_element(params, -0.5, m, n)
        assert abs(cert.value - reference) <= cert.bound + 1e-15


class TestOneWindowPerCall:
    def test_far_element_certifies(self, unit_lattice):
        params, spec, policy = unit_lattice
        cert = approximate_element(spec, policy, -0.5, 5000, 5000, 1e-12)
        assert cert.window.dim <= 240
        assert not cert.window.contains(0)
        reference = dispersion_integral_element(params, -0.5, 0, 0)
        assert abs(cert.value.real - reference) <= cert.bound + 1e-15

    def test_deep_c_zero_certificate(self):
        # at c = 0 past alpha the one tail is 4**2.5 |C(1.5, J - 1)| (w = 4, x = 1)
        tol = 1e-5
        cert = approximate_element(free_laplacian_spec(), zero_boundary, 2.5, 0, 0, tol)
        depth = 3
        while 4.0**2.5 * float(mp_abs_binom_tail(2.5, 1.0, depth)) > tol:
            depth += 1
        assert cert.depth.j_pq == depth
        assert cert.bound <= tol
        # ((-1, 2, -1)**alpha)[0, 0] = Gamma(2 alpha + 1) / Gamma(alpha + 1)**2
        reference = math.gamma(6.0) / math.gamma(3.5) ** 2
        assert abs(cert.value - reference) <= cert.bound + 1e-12

    def test_one_truncation_and_eigensolve(self, unit_lattice, monkeypatch):
        # elements, local solves and best certificates are all sparse sweeps,
        # each on one region: no truncation and no eigensolve
        _, spec, policy = unit_lattice
        assert not hasattr(driver, "growth_windows")
        truncated = record_windows(monkeypatch)
        calls = count_linalg(monkeypatch)
        regions = []
        real_section = driver.sparse_section

        def recording(spec, window):
            regions.append(window)
            return real_section(spec, window)

        monkeypatch.setattr(driver, "sparse_section", recording)
        cert = approximate_element(spec, policy, 0.5, 3, -2, 1e-12)
        # J = 98: the window holds J - 1 = 97 steps from {-2, 3}, the swept
        # region (J - 1) // 2 = 48 of them
        assert (cert.window, cert.depth.j_pq) == (Window(100, 101), 98)
        assert regions == [Window(51, 52)]
        local_solve(spec, policy, {0: 0.5, 4: 0.5j}, [0, 1, -5], 1e-10)
        assert len(regions) == 2
        with pytest.raises(NotConvergedError) as err:
            approximate_element(spec, policy, 0.5, 3, -2, 1e-40, max_dim=101)
        best = err.value.best_certificate
        # j_pq = 47 at [-50, 50]: J N = 47 * 52 is under the table's cap, so
        # the lattice reads it from its symbol, on no region; its plain twin
        # sweeps the region of 23 steps to the same certificate
        assert (best.window, best.depth.j_pq) == (Window(50, 50), 47)
        assert regions[2:] == []
        with pytest.raises(NotConvergedError) as swept:
            approximate_element(_plain(spec), policy, 0.5, 3, -2, 1e-40, max_dim=101)
        assert str(swept.value) == str(err.value)
        _assert_same_certificate(best, swept.value.best_certificate)
        assert regions[2:] == [Window(26, 27)]
        assert truncated == []
        assert calls == {"eigh": 0, "eigvalsh": 0}

    def test_not_converged_far_from_the_origin(self, unit_lattice):
        _, spec, policy = unit_lattice
        with pytest.raises(NotConvergedError) as err:
            approximate_element(spec, policy, -0.5, 5000, 5001, 1e-12, max_dim=65)
        best = err.value.best_certificate
        assert best.window == Window(32 - 5000, 5000 + 32)
        # the sweep at that window's truncation depth, with one tail; the
        # dense evaluation there agrees within both bounds
        dense = evaluate_window(spec, policy, -0.5, 5000, 5001, best.window)
        assert best.depth == dense.depth
        assert best.bound == dense.bound / 2.0
        assert abs(best.value - dense.value) <= best.bound + dense.bound

    @pytest.mark.parametrize("m, n, max_dim", [(0, 0, -1), (0, 0, 0), (-40, 40, 65), (0, 63, 64)])
    def test_no_window_holds_the_element(self, unit_lattice, monkeypatch, m, n, max_dim):
        # the last case fits dimension 64, but no window centred on it does
        _, spec, policy = unit_lattice
        if n - m >= max_dim:
            def no_bound(*args):
                raise AssertionError("bound work for a window that cannot fit")

            monkeypatch.setattr(driver, "required_depth", no_bound)
        with pytest.raises(NotConvergedError) as err:
            approximate_element(spec, policy, -0.5, m, n, 1e-40, max_dim=max_dim)
        assert err.value.best_certificate is None

    def test_local_solve_indices_too_far_apart(self, unit_lattice):
        # the output lies outside the region the sweep reaches from supp f,
        # where the partial sum is exactly 0: it certifies as (0, bound)
        _, spec, policy = unit_lattice
        (value, bound), = local_solve(spec, policy, {0: 1.0}, [3000], 1e-6).values()
        assert value == 0.0
        assert 0.0 < bound <= 1e-6


def _check_plan(spec, alpha, m, n, tol):
    """The region of the depth J whose one tail meets tol reaches J, and no
    smaller window does."""
    c, w = spec.envelope.c, spec.envelope.w
    required, bound = required_depth(alpha, spec.envelope, tol, 1.0, 10**6)
    window = SupportWalk(spec, {m, n}).window(required - 1)
    depth = truncation_depth(spec, window, m, n)
    assert bound == tail_bound(alpha, c, w, required) / 2.0 <= tol
    assert required == 1 or tail_bound(alpha, c, w, required - 1) / 2.0 > tol
    assert depth.saturated or depth.j_pq >= required
    if not depth.saturated:
        for inward in (Window(window.P - 1, window.Q), Window(window.P, window.Q - 1)):
            if inward.contains(m) and inward.contains(n):
                assert truncation_depth(spec, inward, m, n).j_pq < required
    return window, bound


class TestMinimalAndSound:
    ALPHAS = (-1.0, -0.5, 0.5, 1.5)
    TOLS = (1e-6, 1e-12, 1e-40)

    def test_unit_lattice(self, unit_lattice):
        _, spec, policy = unit_lattice
        for alpha in self.ALPHAS:
            for tol in self.TOLS:
                for m in range(-3, 4):
                    for n in range(-3, 4):
                        window, bound = _check_plan(spec, alpha, m, n, tol)
                        if tol == 1e-6 and m + n in (0, 3):
                            cert = approximate_element(spec, policy, alpha, m, n, tol)
                            assert (cert.window, cert.bound) == (window, bound)
                            assert cert.depth.j_pq == truncation_depth(
                                spec, window, m, n).j_pq

    def test_random_banded(self):
        rng = np.random.default_rng(20261018)
        for _ in range(20):
            spec = random_banded_spec(rng, int(rng.integers(1, 4)))
            elements = [tuple(int(i) for i in rng.integers(-3, 4, size=2)) for _ in range(3)]
            for alpha in self.ALPHAS:
                for tol in self.TOLS:
                    for m, n in elements:
                        _check_plan(spec, alpha, m, n, tol)


class TestElementSoundness:
    ALPHAS = (-1.0, -0.5, 0.5, 1.5)
    TOLS = (1e-4, 1e-8, 1e-12)
    # The dense comparison runs on regions up to this dimension (most of
    # them), which keeps the eigensolves to a few seconds.
    DENSE_DIM = 160

    def test_random_banded_sweep(self):
        # 200 random banded specs, complex stencils included: every bound
        # meets tol in float, every value lies within its bound (plus a
        # round-off allowance) of the dispersion integral, and within both
        # bounds of the paper's dense evaluation at the same region
        rng = np.random.default_rng(20261019)
        for case in range(200):
            spec = random_banded_spec(rng, int(rng.integers(1, 4)))
            c, w = spec.envelope.c, spec.envelope.w
            m, n = (int(i) for i in rng.integers(-3, 4, size=2))
            for alpha in self.ALPHAS:
                reference = toeplitz_power_element(spec, alpha, m, n)
                for tol in self.TOLS:
                    cert = approximate_element(spec, zero_boundary, alpha, m, n, tol)
                    where = (case, alpha, tol, m, n)
                    assert cert.bound <= tol, where
                    dim = cert.window.dim
                    roundoff = 16.0 * dim * EPS * max(c**alpha, w**alpha, 1.0)
                    assert abs(cert.value - reference) <= cert.bound + roundoff, where
                    if dim <= self.DENSE_DIM:
                        dense = evaluate_window(spec, zero_boundary, alpha, m, n, cert.window)
                        assert abs(cert.value - dense.value) <= cert.bound + dense.bound, where


def _one_sided(spec, alpha, cert):
    """The element as the one-sided sweep of ``driver._terms`` on the recorded
    window: ``J`` terms of ``C(alpha, j) (-1)**j (b**j)[hi, lo]``, with no
    split of ``alpha``."""
    window, m, n, terms = cert.window, cert.depth.m, cert.depth.n, cert.depth.j_pq
    lo, hi = min(m, n), max(m, n)
    start = np.zeros(window.dim)
    start[window.offset(lo)] = 1.0
    series = numpy_binomial_coefficients(alpha, terms)
    series[1::2] *= -1.0
    sweep = driver._terms(spec, window, sparse_section(spec, window), start, terms)
    at = window.offset(hi)
    read = sum(coefficient * term[at] for coefficient, (term, _) in zip(series, sweep))
    read = read.real if m == n else np.conj(read) if m < n else read
    return spec.envelope.w**alpha * complex(read)


def _certificate(spec, alpha, m, n, tol, max_dim=MAX_DIM):
    """The certificate of the call, or the best one its NotConvergedError carries."""
    try:
        return approximate_element(spec, zero_boundary, alpha, m, n, tol, max_dim=max_dim)
    except NotConvergedError as err:
        assert err.best_certificate is not None
        return err.best_certificate


class TestSweptRegion:
    """The sweep runs on the region of min(J - 1, (J - 1 + k) // 2) steps of
    the walk, k = floor(alpha) (0 below 1), inside the recorded window."""

    ALPHAS = (-1.0, -0.5, 0.5, 1.5, 2.5)
    TOLS = (1e-6, 1e-12, 1e-40)

    @staticmethod
    def _check(spec, alpha, certs, converged=True):
        # the recorded window, depth and bound are the full reach's; the value
        # agrees with the one-sided sweep there to round-off; (m, n) and
        # (n, m) are bitwise conjugates and a diagonal element is real
        c, w = spec.envelope.c, spec.envelope.w
        full = full_series_sum(alpha, c, w)
        for (m, n), cert in certs.items():
            terms = cert.depth.j_pq
            assert cert.bound == tail_bound(alpha, c, w, terms) / 2.0
            if converged:
                assert cert.window == SupportWalk(spec, {m, n}).window(terms - 1)
                assert terms == 1 or tail_bound(alpha, c, w, terms - 1) / 2.0 > cert.bound
            else:
                assert cert.depth == truncation_depth(spec, cert.window, m, n)
            roundoff = 8.0 * terms * EPS * w**alpha * full
            assert abs(cert.value - _one_sided(spec, alpha, cert)) <= roundoff, (alpha, m, n)
            assert cert.value == certs[n, m].value.conjugate()
            if m == n:
                assert cert.value.imag == 0.0

    def test_unit_lattice(self, unit_lattice):
        _, spec, _ = unit_lattice
        elements = [(m, n) for m in range(-3, 4) for n in range(-3, 4)]
        for alpha in self.ALPHAS:
            for tol in self.TOLS:
                certs = {mn: _certificate(spec, alpha, *mn, tol) for mn in elements}
                self._check(spec, alpha, certs)

    def test_best_certificates(self, unit_lattice):
        _, spec, _ = unit_lattice
        elements = [(m, n) for m in range(-3, 4) for n in range(-3, 4)]
        for alpha in self.ALPHAS:
            certs = {mn: _certificate(spec, alpha, *mn, 1e-40, max_dim=101) for mn in elements}
            assert all(cert.window.dim <= 101 for cert in certs.values())
            self._check(spec, alpha, certs, converged=False)

    def test_random_banded(self):
        rng = np.random.default_rng(20261020)
        kinds = set()
        for _ in range(24):
            spec = random_banded_spec(rng, int(rng.integers(1, 4)))
            kinds.add(any(isinstance(v, complex) and v.imag for v in spec.row(0).values()))
            m, n = (int(i) for i in rng.integers(-3, 4, size=2))
            elements = {(m, n), (n, m), (m, m)}
            for alpha in self.ALPHAS:
                for tol in self.TOLS:
                    try:
                        certs = {mn: approximate_element(spec, zero_boundary, alpha, *mn, tol)
                                 for mn in elements}
                    except NotConvergedError:
                        certs = {mn: _certificate(spec, alpha, *mn, tol, max_dim=101)
                                 for mn in elements}
                        self._check(spec, alpha, certs, converged=False)
                    else:
                        self._check(spec, alpha, certs)
        assert kinds == {False, True}

    def test_matvecs_walks_and_region(self, unit_lattice, monkeypatch):
        # no walk of the rows (a lattice spec answers from its stencil), cold
        # or warm, a region inside the window, and J // 2 + 1 mat-vecs at most
        # for a diagonal element below alpha = 1 (J off the diagonal; J + k at
        # alpha >= 1).  An element whose power table J N is under the cap
        # (here the tol 1e-6 ones) is read from the symbol, with no region and
        # no mat-vec; there the plain twin's sweep is held to all of the above
        # and gives the same certificate
        from finpow import series

        params, _, _ = unit_lattice
        walks, regions, matvecs = [], [], []
        real_extents, real_section = series._extents, driver.sparse_section

        def counted_extents(spec, starts):
            walks.append(set(starts))
            return real_extents(spec, starts)

        def counted_section(spec, window):
            regions.append(window)
            matvec = real_section(spec, window)

            def counted(v):
                matvecs.append(window)
                return matvec(v)

            return counted

        monkeypatch.setattr(series, "_extents", counted_extents)
        monkeypatch.setattr(driver, "sparse_section", counted_section)
        for alpha in self.ALPHAS:
            k = max(math.floor(alpha), 0)
            for tol, max_dim in [(1e-6, MAX_DIM), (1e-12, MAX_DIM), (1e-40, 101)]:
                for m, n in [(0, 0), (2, 2), (3, -2), (-1, 0)]:
                    spec = lattice_spec(params)
                    for cold in (True, False):
                        walks.clear(), regions.clear(), matvecs.clear()
                        cert = _certificate(spec, alpha, m, n, tol, max_dim)
                        assert walks == []
                        if cold:
                            first = cert
                        assert cert == first
                        terms = cert.depth.j_pq
                        if terms * (terms + abs(m - n)) <= driver._TABLE_CAP:  # l = 1
                            assert regions == [] and matvecs == []
                            _assert_same_certificate(
                                cert, _certificate(_plain(spec), alpha, m, n, tol, max_dim))
                        steps = min(terms - 1, (terms - 1 + k) // 2)
                        region = SupportWalk(lattice_spec(params), {m, n}).window(steps)
                        assert regions == [region]
                        assert -cert.window.P <= -region.P and region.Q <= cert.window.Q
                        if m == n and not k:
                            assert len(matvecs) <= terms // 2 + 1
                        else:
                            assert len(matvecs) == terms + k

    def test_walk_stops_past_max_dim(self):
        # offsets -30..30: each step widens the reach by 60 indices; the walks
        # of approximate_element and local_solve stop once the region is
        # wider than max_dim, not after J - 1 steps (J = 324 here)
        offsets = list(range(-30, 31))
        spec = banded_spec(
            offsets, [1.0 if o == 0 else -0.01 for o in offsets], SpectralEnvelope(0.4, 1.6)
        )
        rows = []
        generate = spec.row_generator
        spec.row_generator = lambda m: rows.append(m) or generate(m)
        with pytest.raises(NotConvergedError) as err:
            approximate_element(spec, zero_boundary, -0.5, 0, 0, 1e-40)
        assert str(err.value).startswith(driver._not_converged(MAX_DIM, 1e-40))
        best = err.value.best_certificate
        assert best.window == Window(1024, 1024) and best.depth.j_pq == 35
        assert len(rows) <= MAX_DIM + len(offsets)
        with pytest.raises(NotConvergedError) as err:
            local_solve(spec, zero_boundary, {0: 1.0}, [0], 1e-40)
        assert err.value.best_certificate is None
        assert len(rows) <= MAX_DIM + len(offsets)  # rows are cached on the spec


def record_sections(monkeypatch):
    """The specs of every ``sparse_section`` the driver builds from here on."""
    built = []
    real = driver.sparse_section

    def recording(spec, window):
        built.append(spec)
        return real(spec, window)

    monkeypatch.setattr(driver, "sparse_section", recording)
    return built


class TestSymbolPath:
    """An element of a banded spec whose power table J x N, N = (J - 1) l +
    |m - n| + 1, holds at most driver._TABLE_CAP entries is read from the
    symbol (driver._symbol_read): no section, no sweep, the same J, bound and
    window, and the envelope checked on the samples of the symbol."""

    def test_cap_boundary(self, unit_lattice, monkeypatch):
        # J = 64 on the lattice (l = 1): (0, 0) has N = 64, J N = 4096, the
        # cap; (0, 1) has N = 65 and takes the sweep, with one section
        _, spec, _ = unit_lattice
        tol = tail_bound(-0.5, 1.0, 5.0, 64) / 2.0
        built = record_sections(monkeypatch)
        at_cap = approximate_element(spec, zero_boundary, -0.5, 0, 0, tol)
        assert at_cap.depth.j_pq == 64 and 64 * 64 == driver._TABLE_CAP
        assert built == []
        above = approximate_element(spec, zero_boundary, -0.5, 0, 1, tol)
        assert above.depth.j_pq == 64
        assert len(built) == 1 and built[0] is spec
        for cert, (m, n) in [(at_cap, (0, 0)), (above, (0, 1))]:
            _assert_same_certificate(cert, approximate_element(_plain(spec), zero_boundary, -0.5, m, n, tol))

    def test_wrong_envelopes_rejected_as_the_sweep_does(self, monkeypatch):
        # 399 random stencils (l = 1 to 3, real and complex, c/w of 0.4 to
        # 0.7) with an envelope made wrong: c raised, or norm_bound lowered,
        # by 1e-6 to 0.3 of the symbol's range.  Every one is read from the
        # symbol; every envelope the plain twin's sweep rejects, the samples
        # reject too, and where neither rejects the certificates agree
        rng = np.random.default_rng(20261021)
        theta = 2.0 * np.pi * np.arange(8192) / 8192
        built = record_sections(monkeypatch)
        outcomes = []
        for _ in range(399):
            l = int(rng.integers(1, 4))
            upper = rng.normal(size=l) + (1j * rng.normal(size=l) if rng.random() < 0.5 else 0.0)
            offsets = list(range(-l, l + 1))
            stencil = [complex(v).conjugate() for v in upper[::-1]] + [0.0] + [complex(v) for v in upper]
            symbol = sum(v * np.exp(1j * o * theta) for o, v in zip(offsets, stencil)).real
            ratio = rng.uniform(0.4, 0.7)
            stencil[l] = (ratio * symbol.max() - symbol.min()) / (1.0 - ratio)
            lo, hi = symbol.min() + stencil[l].real, symbol.max() + stencil[l].real
            shift = 10.0 ** rng.uniform(-6.0, math.log10(0.3)) * (hi - lo)
            c, norm_bound = (lo + shift, hi) if rng.random() < 0.5 else (lo, hi - shift)
            banded, plain = _twins(offsets, stencil, SpectralEnvelope(c, norm_bound))
            alpha = float(rng.choice([-1.0, -0.5, 0.5, 1.5]))
            tol = float(10.0 ** rng.uniform(-8.0, -4.0))
            m, n = (int(i) for i in rng.integers(-3, 4, size=2))
            answers = []
            for spec in (banded, plain):
                try:
                    answers.append(approximate_element(spec, zero_boundary, alpha, m, n, tol))
                except MalformedSpecError as exc:
                    answers.append(str(exc))
            assert not any(spec is banded for spec in built)
            if isinstance(answers[1], str):
                assert answers[0].startswith("the symbol of W takes values in ["), answers
            elif not isinstance(answers[0], str):
                _assert_same_certificate(*answers)
            outcomes.append(tuple(isinstance(a, str) for a in answers))
        # both reject, only the samples do, neither does; never the sweep alone
        assert {(True, True), (True, False), (False, False)} == set(outcomes)

    def test_unit_lattice_against_the_dispersion_integral(self, unit_lattice, monkeypatch):
        params, spec, _ = unit_lattice
        built = record_sections(monkeypatch)
        read = 0
        for alpha in (-1.0, -0.5, 0.5, 1.5, 2.5):
            for tol in (1e-4, 1e-6):
                for m in range(-3, 4):
                    for n in range(-3, 4):
                        before = len(built)
                        cert = approximate_element(spec, zero_boundary, alpha, m, n, tol)
                        terms = cert.depth.j_pq
                        if terms * (terms + abs(m - n)) > driver._TABLE_CAP:
                            continue
                        assert len(built) == before
                        read += 1
                        reference = dispersion_integral_element(params, alpha, m, n)
                        roundoff = VALUE_ULPS * EPS * 5.0**alpha
                        assert abs(cert.value - reference) <= cert.bound + roundoff, (alpha, tol, m, n)
        assert read > 5 * 49

    def test_conjugates_and_real_diagonal(self, monkeypatch):
        # (m, n) and (n, m) are bitwise conjugates, a diagonal element and
        # every element of a real stencil real, as on the sweep
        built = record_sections(monkeypatch)
        complex_spec = banded_spec(
            [-2, -1, 0, 1, 2],
            [0.1 + 0.2j, 0.5 - 0.25j, 3.0, 0.5 + 0.25j, 0.1 - 0.2j],
            SpectralEnvelope(1.0, 5.0),
        )
        real_spec = banded_spec([-2, 0, 2], [-1.0, 3.0, -1.0], SpectralEnvelope(1.0, 5.0))
        for spec in (complex_spec, real_spec):
            for alpha in (-1.0, -0.5, 0.5, 1.5):
                for m, n in [(0, 1), (-2, 3), (5, -6), (4, 4)]:
                    upper = approximate_element(spec, zero_boundary, alpha, m, n, 1e-4)
                    lower = approximate_element(spec, zero_boundary, alpha, n, m, 1e-4)
                    assert upper.value == lower.value.conjugate()
                    if m == n or spec is real_spec:
                        assert upper.value.imag == 0.0
                    _assert_same_certificate(
                        upper, approximate_element(_plain(spec), zero_boundary, alpha, m, n, 1e-4))
        assert not any(spec is complex_spec or spec is real_spec for spec in built)

    def test_one_term_on_a_gapped_stencil(self, monkeypatch):
        # symbol 1 - 0.2 cos(5 theta), in [0.8, 1.2]; at J = 1 the grid has
        # |m - n| + 1 nodes, fewer than l = 5, so the taps alias onto them.
        # At alpha = 1.5 (one carry) the partial sum is the identity
        envelope = SpectralEnvelope(0.8, 1.2)
        spec = banded_spec([-5, 0, 5], [-0.1, 1.0, -0.1], envelope)
        tol = tail_bound(1.5, 0.8, 1.2, 1) / 2.0
        built = record_sections(monkeypatch)
        for m, n in [(0, 0), (0, 2), (3, -1)]:
            cert = approximate_element(spec, zero_boundary, 1.5, m, n, tol)
            assert cert.depth.j_pq == 1
            exact = 1.2**1.5 if m == n else 0.0
            assert abs(cert.value - exact) <= VALUE_ULPS * EPS * 1.2**1.5
            _assert_same_certificate(cert, approximate_element(_plain(spec), zero_boundary, 1.5, m, n, tol))
        assert not any(s is spec for s in built)
        # the one node's sample, s_0 + 2 s_5 = 0.8, lies in [0.7, 0.9], but
        # s_0 = 1, the start quotient, does not: it is checked with the sample
        wrong = SpectralEnvelope(0.7, 0.9)
        for one in _twins([-5, 0, 5], [-0.1, 1.0, -0.1], wrong):
            with pytest.raises(MalformedSpecError, match=r"(\[0\.8, 1\] on 1 nodes,|is 1,) outside"):
                approximate_element(one, zero_boundary, 1.5, 0, 0, tail_bound(1.5, 0.7, 0.9, 1) / 2.0)

    def test_huge_tap_fails_closed(self):
        # taps of 1e308 sum to inf at the nodes: a MalformedSpecError, and
        # no overflow warning escapes
        spec = banded_spec([-1, 0, 1], [1e308, 0.5, 1e308], SpectralEnvelope(0.4, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MalformedSpecError, match=r"takes values in \[-?inf, inf\]"):
                approximate_element(spec, zero_boundary, 0.5, 0, 1, 1e-4)


class TestEvaluateWindow:
    @pytest.mark.parametrize("allow_complex", [False, True])
    @pytest.mark.parametrize("alpha", [-1.0, -0.5, 0.5, 1.5])
    def test_matches_reassembled_power(self, rng, allow_complex, alpha):
        spec = random_banded_spec(rng, 2, allow_complex=allow_complex)
        window = Window(7, 9)
        dense = finite_power(truncate(spec, window), alpha)
        for m, n in [(0, 0), (-3, 2), (4, -7), (9, 9)]:
            cert = evaluate_window(spec, zero_boundary, alpha, m, n, window)
            assert abs(cert.value - dense.element(m, n)) <= 1e-13

    def test_complex_elements_bitwise_hermitian(self):
        spec = banded_spec(
            [-1, 0, 1], [0.5 - 0.25j, 3.0, 0.5 + 0.25j], SpectralEnvelope(1.5, 4.5)
        )
        window = Window(6, 6)
        for m, n in [(0, 1), (-2, 3), (5, -6)]:
            upper = evaluate_window(spec, zero_boundary, -0.5, m, n, window).value
            lower = evaluate_window(spec, zero_boundary, -0.5, n, m, window).value
            assert upper.imag != 0.0
            assert upper == lower.conjugate()

    def test_element_outside_window_is_domain_error(self, unit_lattice):
        _, spec, policy = unit_lattice
        with pytest.raises(DomainError):
            evaluate_window(spec, policy, 0.5, 5, 0, Window(4, 4))

    def test_validation_failure_raises_invalid_boundary(self, unit_lattice):
        _, spec, _ = unit_lattice

        def inflating(window):
            # large positive corner shift pushes the top eigenvalue past w
            return BoundarySpec({(-window.P, -window.P): 50.0})

        with pytest.raises(InvalidBoundaryError):
            evaluate_window(spec, inflating, 0.5, 0, 0, Window(8, 8))

    def test_failed_eigendecomposition_is_numerical_failure(self, unit_lattice, monkeypatch):
        _, spec, policy = unit_lattice

        def fail(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NumericalFailureError, match="eigendecomposition failed"):
            evaluate_window(spec, policy, 0.5, 0, 0, Window(4, 4))


class TestConvergenceTable:
    def test_alpha_one_value_constant(self, unit_lattice):
        _, spec, policy = unit_lattice
        windows = [Window(g, g) for g in (2, 4, 8)]
        rows = convergence_table(spec, policy, 1.0, 0, 1, windows)
        for row in rows:
            assert row.value == pytest.approx(-1.0, abs=1e-12)

    def test_bound_strictly_decreasing_for_half_power(self, unit_lattice):
        _, spec, policy = unit_lattice
        windows = [Window(g, g) for g in (4, 8, 16, 32)]
        rows = convergence_table(spec, policy, 0.5, 0, 0, windows)
        bounds = [row.bound for row in rows]
        assert all(late < early for early, late in zip(bounds, bounds[1:]))

    def test_empty_window_list(self, unit_lattice):
        _, spec, policy = unit_lattice
        assert convergence_table(spec, policy, 0.5, 0, 0, []) == []

    def test_errors_recorded_per_row(self, unit_lattice):
        # the element (6, 0) lies outside the first window only
        _, spec, policy = unit_lattice
        windows = [Window(4, 4), Window(8, 8)]
        rows = convergence_table(spec, policy, -1.0, 6, 0, windows)
        assert len(rows) == 2
        assert isinstance(rows[0], DomainError)
        assert "outside window" in str(rows[0])
        assert isinstance(rows[1], Certificate)
        assert rows[1].window == Window(8, 8)
        assert rows[1].bound > 0.0

    @pytest.mark.parametrize(
        "make_spec, alpha, error",
        [
            (free_laplacian_spec, -1.0, DivergentSeriesError),
            (lambda: lattice_spec(LatticeModelParams(1.0, 1.0)), float("nan"), DomainError),
        ],
        ids=["c0-negative-alpha", "nan-alpha"],
    )
    def test_premise_failure_raises_before_any_window(
        self, monkeypatch, make_spec, alpha, error
    ):
        def no_window(*args):
            raise AssertionError("a window was planned")

        monkeypatch.setattr(driver, "truncation_depth", no_window)
        with pytest.raises(error):
            convergence_table(make_spec(), zero_boundary, alpha, 0, 0, [Window(4, 4), Window(8, 8)])

    def test_programming_errors_propagate(self, unit_lattice):
        _, spec, _ = unit_lattice

        def broken(window):
            raise RuntimeError("boundary policy bug")

        with pytest.raises(RuntimeError):
            convergence_table(spec, broken, 0.5, 0, 0, [Window(4, 4)])


class TestUnderflowingRatio:
    @pytest.mark.parametrize(
        "spec",
        [
            banded_spec([0], [1.0], SpectralEnvelope(1e-300, 1e300)),
            lattice_spec(LatticeModelParams(1e-300, 1e300)),
        ],
        ids=["banded", "lattice"],
    )
    def test_every_entry_point_raises(self, spec):
        # c/w rounds to 0, so x = 1, where the terms of a negative power do
        # not decay: each entry point raises before (c/w)**alpha divides by 0
        window = Window(2, 2)
        calls = [
            lambda: approximate_element(spec, zero_boundary, -0.5, 0, 0, 1e-6),
            lambda: local_solve(spec, zero_boundary, {0: 1.0}, [0], 1e-6),
            lambda: local_solve(spec, zero_boundary, {0: 0.0}, [0], 1e-6),  # premise first
            lambda: convergence_table(spec, zero_boundary, -0.5, 0, 0, [window]),
            lambda: evaluate_window(spec, zero_boundary, -0.5, 0, 0, window),
        ]
        for call in calls:
            with pytest.raises(NumericalFailureError, match="do not decay"):
                call()


class TestOneBoundPerDepth:
    def test_tail_bound_runs_only_for_a_best_certificate(self, unit_lattice, monkeypatch):
        # the depth search returns the bound it met, so an element and a local
        # solve run no tail_bound and one premise check each, and record their
        # depth without a truncation-depth walk; a best certificate, at a
        # window's truncation depth, runs tail_bound (and its premise check) once
        _, spec, policy = unit_lattice
        calls = {"tail_bound": 0, "truncation_depth": 0, "full_series_sum": 0}
        for owner, name in [
            (certificates, "tail_bound"), (driver, "tail_bound"), (driver, "truncation_depth"),
            (certificates, "full_series_sum"), (driver, "full_series_sum"),
        ]:
            real = getattr(owner, name)

            def counted(*args, _name=name, _real=real):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(owner, name, counted)
        approximate_element(spec, policy, -0.5, 0, 1, 1e-12)
        assert calls == {"tail_bound": 0, "truncation_depth": 0, "full_series_sum": 1}
        local_solve(spec, policy, {0: 1.0, 1: -0.5}, [0, 1, 2], 1e-8)
        assert calls == {"tail_bound": 0, "truncation_depth": 0, "full_series_sum": 2}
        with pytest.raises(NotConvergedError) as err:
            approximate_element(spec, policy, -0.5, 0, 1, 1e-40, max_dim=65)
        assert err.value.best_certificate is not None
        assert calls == {"tail_bound": 1, "truncation_depth": 0, "full_series_sum": 4}


class TestLocalSolve:
    def test_scaled_identity(self):
        spec = double_identity_spec()
        result = local_solve(spec, zero_boundary, {0: 1.0}, [0], 1e-10)
        value, bound = result[0]
        assert value == pytest.approx(0.5, abs=1e-12)
        assert bound <= 1e-10

    def test_lattice_against_dense_solve(self, unit_lattice):
        _, spec, policy = unit_lattice
        tol = 1e-8
        result = local_solve(spec, policy, {0: 1.0}, [0, 1, 2], tol)
        # dense oracle: direct solve on a very large plain section
        big = Window(500, 500)
        dense = truncate(spec, big).data
        rhs = np.zeros(big.dim)
        rhs[big.offset(0)] = 1.0
        oracle = np.linalg.solve(dense, rhs)
        for idx in (0, 1, 2):
            value, bound = result[idx]
            assert bound <= tol
            assert abs(value - oracle[big.offset(idx)]) <= bound + 1e-12

    def test_linearity(self, unit_lattice):
        _, spec, policy = unit_lattice
        tol = 1e-7
        f1 = {-1: 0.75}
        f2 = {1: -0.25}
        combined = {-1: 0.75, 1: -0.25}
        s1 = local_solve(spec, policy, f1, [0, 2], tol)
        s2 = local_solve(spec, policy, f2, [0, 2], tol)
        s12 = local_solve(spec, policy, combined, [0, 2], tol)
        for idx in (0, 2):
            lhs = s12[idx][0]
            rhs = s1[idx][0] + s2[idx][0]
            assert abs(lhs - rhs) <= s12[idx][1] + s1[idx][1] + s2[idx][1]

    def test_total_bound_respects_tolerance(self, unit_lattice):
        _, spec, policy = unit_lattice
        tol = 1e-6
        result = local_solve(spec, policy, {-1: 2.0, 1: 1.0 + 1.0j}, [0], tol)
        _, bound = result[0]
        assert bound <= tol

    def test_zero_c_rejected(self):
        spec = free_laplacian_spec()
        with pytest.raises(DivergentSeriesError):
            local_solve(spec, zero_boundary, {0: 1.0}, [0], 1e-6)

    @pytest.mark.parametrize(
        "f, outs, tol",
        [({0: 0.0}, [0], 1e-6), ({0: 1.0}, [0], -1.0), ({0.5: 1.0}, [0], 1e-6),
         ({0: 1.0}, [0.5], 1e-6)],
        ids=["zero-rhs", "bad-tol", "bad-key", "bad-out"],
    )
    def test_zero_c_rejected_before_any_argument(self, f, outs, tol):
        # the premise, full_series_sum(-1, c, w), is the solve's first check
        with pytest.raises(DivergentSeriesError, match="c = 0"):
            local_solve(free_laplacian_spec(), zero_boundary, f, outs, tol)

    def test_one_region_no_eigensolve(self, unit_lattice, monkeypatch):
        # one sweep of J - 1 mat-vecs on one region serves every output, plus
        # one mat-vec for the envelope check; no window is truncated or factored
        _, spec, policy = unit_lattice
        f = {0: 0.5, 2: -0.25, -4: 0.25j}
        outs = [0, 1, -3, 5, 6]
        tol = 1e-10  # |f|_1 = 1
        regions, matvecs = [], []
        real_section = driver.sparse_section

        def recording(spec, window):
            regions.append(window)
            matvec = real_section(spec, window)

            def counted(v):
                matvecs.append(len(v))
                return matvec(v)

            return counted

        monkeypatch.setattr(driver, "sparse_section", recording)
        truncated = record_windows(monkeypatch)
        calls = count_linalg(monkeypatch)
        result = local_solve(spec, policy, f, outs, tol)
        assert truncated == []
        assert calls == {"eigh": 0, "eigvalsh": 0}
        envelope = spec.envelope
        depth, bound = required_depth(-1.0, envelope, tol, 1.0, MAX_DIM)
        assert regions == [SupportWalk(spec, f).window(depth - 1)]
        assert matvecs == [regions[0].dim] * depth
        assert bound == tail_bound(-1.0, envelope.c, envelope.w, depth) / 2
        assert all(b == bound <= tol for _, b in result.values())

    def test_matches_per_element_certificates(self, unit_lattice):
        # the dense path's per-element certificates, summed with the weights
        # f_n, agree with the sweep within the sum of both bounds
        _, spec, policy = unit_lattice
        f = {-1: 0.75, 2: -0.25j}
        tol = 1e-8
        result = local_solve(spec, policy, f, [0, 3], tol)
        for m in (0, 3):
            total = 0.0 + 0.0j
            bound = 0.0
            for n, fn in f.items():
                cert = approximate_element(spec, policy, -1.0, m, n, tol)
                total += cert.value * fn
                bound += cert.bound * abs(fn)
            value, sweep_bound = result[m]
            assert sweep_bound <= tol
            assert abs(value - total) <= bound + sweep_bound

    def test_random_banded_soundness(self):
        # 200 random banded specs, complex stencils included, against a dense
        # solve on a section wide enough that its edges do not show
        rng = np.random.default_rng(20261018)
        radius = 120
        for case in range(200):
            spec = random_banded_spec(rng, int(rng.integers(1, 4)))
            support = rng.choice(np.arange(-4, 5), size=int(rng.integers(1, 4)), replace=False)
            f = {int(n): complex(*rng.standard_normal(2)) for n in support}
            outs = [int(m) for m in rng.integers(-6, 7, size=4)]
            tol = float(rng.choice([1e-4, 1e-8, 1e-12]))
            result = local_solve(spec, zero_boundary, f, outs, tol)
            rhs = np.zeros(2 * radius + 1, dtype=complex)
            for n, fn in f.items():
                rhs[n + radius] = fn
            reference = np.linalg.solve(dense_section(spec, radius), rhs)
            for m in outs:
                value, bound = result[m]
                error = abs(value - reference[m + radius])
                assert bound <= tol
                assert error <= bound + 1e-12, (case, m, error, bound)

    def test_not_converged_carries_no_certificate(self, unit_lattice):
        # no dense window exists to certify at, either past the depth limit
        # (J = 310) or past the region limit (J = 35, dimension 171)
        _, spec, policy = unit_lattice
        for f, tol in [({0: 1.0}, 1e-30), ({0: 1.0, 100: 1.0}, 1e-3)]:
            with pytest.raises(NotConvergedError) as err:
                local_solve(spec, policy, f, [0, 1], tol, max_dim=65)
            assert err.value.best_certificate is None

    def test_not_converged_names_the_depth_limit(self):
        # c/w = 2.5e-10: J would be about 1e11, past the deepest depth the
        # search reads, which a max_dim above it does not move
        c = 1e-9
        envelope = SpectralEnvelope(c, 4.0 + c)
        spec = banded_spec([-1, 0, 1], [-1.0, 2.0 + c, -1.0], envelope)
        with pytest.raises(NotConvergedError, match=f"depth limit {certificates.MAX_DEPTH}"):
            local_solve(spec, zero_boundary, {0: 1.0}, [0], 1e-12, max_dim=certificates.MAX_DEPTH + 1)
        with pytest.raises(NotConvergedError) as err:
            local_solve(spec, zero_boundary, {0: 1.0}, [0], 1e-12, max_dim=65)
        assert "depth limit" not in str(err.value)

    # The last tol is the float just below 0.3 * tail_bound(-1, 1, 5, 15) / 2:
    # for |f|_1 = 0.1 + 0.2, 2 tol / |f|_1 rounds up to the tail at J = 15,
    # whose bound then misses tol by one float.  (The one before it did the
    # same at J = 20 before the alpha = -1 tail became the geometric closed
    # form.)
    @pytest.mark.parametrize("f", [{0: 0.1, 1: 0.2}, {0: 0.1, 1: 0.2, -7: 0.3j}, {3: 1 / 3}])
    @pytest.mark.parametrize(
        "tol", [1e-3, 1e-7, 3e-11, 1e-13, 0.003458764513820363, 0.010555311626649622]
    )
    def test_bound_meets_tol_in_float(self, unit_lattice, f, tol):
        _, spec, policy = unit_lattice
        result = local_solve(spec, policy, f, [0, 1], tol)
        assert all(bound <= tol for _, bound in result.values())

    def test_depth_is_minimal_in_float(self, monkeypatch):
        # tol within a few ulps of a depth's one-tail bound: the depth swept
        # meets tol in float, and one term fewer does not
        depths = []
        real_terms = driver._terms

        def recording(spec, region, step, start, count):
            depths.append(count)
            return real_terms(spec, region, step, start, count)

        monkeypatch.setattr(driver, "_terms", recording)
        rng = np.random.default_rng(20261018)
        for c, norm_bound in [(1.0, 5.0), (0.5, 3.0), (0.9, 3.1)]:
            spec = banded_spec([-1, 0, 1], [-0.5, 2.0, -0.5], SpectralEnvelope(c, norm_bound))

            def bound(j, weight):
                return weight * (tail_bound(-1.0, c, norm_bound, j) / 2.0)

            for _ in range(200):
                weight = float(np.exp(rng.uniform(-4.0, 4.0)))
                tol = bound(int(rng.integers(1, 40)), weight)
                for _ in range(int(rng.integers(0, 4))):
                    tol = float(np.nextafter(tol, math.inf if rng.random() < 0.5 else 0.0))
                (_, solved), = local_solve(spec, zero_boundary, {0: weight}, [0], tol).values()
                depth = depths[-1]
                assert solved == bound(depth, weight) <= tol
                assert depth == 1 or bound(depth - 1, weight) > tol, (c, weight, tol)

    def test_rayleigh_check_rejects_a_wrong_envelope(self):
        # the symbol 3 - 2 cos(theta) reaches down to 1, below the declared c = 2
        spec = banded_spec([-1, 0, 1], [-1.0, 3.0, -1.0], SpectralEnvelope(2.0, 5.0))
        with pytest.raises(MalformedSpecError, match="Rayleigh"):
            local_solve(spec, zero_boundary, {0: 1.0}, [0], 1e-8)

    def test_hermitian_spot_check(self):
        def skewed(m):
            return [(m - 1, 1.0), (m, 3.0), (m + 1, -1.0)]

        spec = InfiniteMatrixSpec(skewed, 3, SpectralEnvelope(1.0, 5.0))
        with pytest.raises(MalformedSpecError, match="not Hermitian"):
            local_solve(spec, zero_boundary, {0: 1.0}, [0], 1e-6)

    def test_tiny_and_huge_rhs_scale(self, unit_lattice):
        # the sweep runs on f / max |f_n|: subnormal and near-overflow right
        # hand sides give the scaled solution
        _, spec, policy = unit_lattice
        base = local_solve(spec, policy, {0: 1.0, 2: -0.5}, [0, 1], 1e-8)
        for scale in (1e-310, 1e300):
            scaled = local_solve(spec, policy, {0: scale, 2: -0.5 * scale}, [0, 1], 1e-8 * scale)
            for m in (0, 1):
                assert scaled[m][0] == pytest.approx(base[m][0] * scale, rel=1e-12)
        # (W**-1)_00 is about 1.56 on the lattice a = 0.1, b = 1: x_0 overflows
        light = lattice_spec(LatticeModelParams(0.1, 1.0))
        with pytest.raises(NumericalFailureError, match="overflows"):
            local_solve(light, zero_boundary, {0: 1e308, 1: 7e307}, [0], 1e300)

    @pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
    def test_bad_tol_rejected(self, unit_lattice, tol):
        _, spec, policy = unit_lattice
        with pytest.raises(DomainError):
            local_solve(spec, policy, {0: 1.0}, [0], tol)

    @pytest.mark.parametrize(
        "f",
        [{0: float("nan")}, {0: 1.0, 3: complex(0.0, float("inf"))}, {0: 1e308, 1: 1e308}],
    )
    def test_non_finite_rhs_rejected(self, unit_lattice, f):
        _, spec, policy = unit_lattice
        with pytest.raises(DomainError):
            local_solve(spec, policy, f, [0], 1e-6)

    @pytest.mark.parametrize(
        "f, outs",
        [({0.5: 1.0}, [0]), ({0: 1.0}, [0.5]), ({0.5: 0.0}, [0]), ({0: 0.0}, [1.5]),
         ({0: 1.0}, [float("nan")]), ({"0": 1.0}, [0]), ({True: 1.0}, [0]), ({0: 1.0}, [True]),
         ({np.True_: 1.0}, [0])],
    )
    def test_non_integral_index_rejected(self, unit_lattice, f, outs):
        _, spec, policy = unit_lattice
        with pytest.raises(DomainError, match="integer"):
            local_solve(spec, policy, f, outs, 1e-6)

    def test_integral_index_is_its_int(self, unit_lattice):
        _, spec, policy = unit_lattice
        result = local_solve(spec, policy, {0.0: 1.0, np.int64(2): 0.5}, [1.0, np.int64(-1)], 1e-6)
        assert result == local_solve(spec, policy, {0: 1.0, 2: 0.5}, [1, -1], 1e-6)
        assert [type(m) for m in result] == [int, int]

    def test_zero_rhs(self, unit_lattice):
        _, spec, policy = unit_lattice
        result = local_solve(spec, policy, {0: 0.0}, [0, 1], 1e-6)
        assert result == {0: (0.0 + 0.0j, 0.0), 1: (0.0 + 0.0j, 0.0)}


_HUGE = 10**400  # too large for a float


@pytest.mark.parametrize(
    "argument, value",
    [(a, v) for a in ("element alpha", "window alpha", "table alpha")
     for v in ("0.5", None, 0.5j, _HUGE, True, np.True_)]
    + [(a, v) for a in ("element tol", "solve tol") for v in ("1e-6", None, _HUGE, True, np.True_)]
    + [("solve rhs", v) for v in ("x", None, _HUGE, "1", b"1")],
    ids=lambda v: "10**400" if v is _HUGE else None,
)
def test_a_value_that_is_not_a_number_is_a_domain_error(unit_lattice, argument, value):
    # alpha at the premise's finiteness check, tol at _check_tol, a rhs value
    # where local_solve converts it with complex(); a boolean, which converts
    # to a number, is none, nor is a string that complex() would parse
    _, spec, policy = unit_lattice
    call = {
        "element alpha": lambda: approximate_element(spec, policy, value, 0, 0, 1e-6),
        "window alpha": lambda: evaluate_window(spec, policy, value, 0, 0, Window(4, 4)),
        "table alpha": lambda: convergence_table(spec, policy, value, 0, 0, [Window(4, 4)]),
        "element tol": lambda: approximate_element(spec, policy, 0.5, 0, 0, value),
        "solve tol": lambda: local_solve(spec, policy, {0: 1.0}, [0], value),
        "solve rhs": lambda: local_solve(spec, policy, {0: value}, [0], 1e-6),
    }[argument]
    with pytest.raises(DomainError, match=argument.split()[1]):
        call()


def _twins(offsets, stencil, envelope):
    """A banded spec and its plain twin, the same rows presented by the
    generator alone."""
    spec = banded_spec(offsets, stencil, envelope)
    return spec, _plain(spec)


class TestStartQuotient:
    """An element sweep checks the quotient of its unit start vector from one
    dot product; the errors are those of the scaled check on that vector."""

    LOW = SpectralEnvelope(3.5, 6.0)  # the diagonal 3 lies below c
    HIGH = SpectralEnvelope(0.5, 2.5)  # and above norm_bound

    @pytest.mark.parametrize(
        "envelope,alpha,m,n,region",
        [
            (LOW, 0.5, 4, 4, "[-5, 13]"),
            (LOW, 0.5, 4, 6, "[-5, 15]"),
            (LOW, 1.5, 6, 4, "[-5, 15]"),
            (HIGH, 0.5, 4, 4, "[-26, 34]"),
            (HIGH, 0.5, 4, 6, "[-26, 36]"),
            (HIGH, 1.5, 6, 4, "[-21, 31]"),
        ],
    )
    def test_diagonal_outside_the_envelope(self, envelope, alpha, m, n, region):
        # diagonal, off-diagonal and alpha = 1.5 elements.  The plain twin
        # sweeps, and fails at the quotient of e_lo; the banded spec reads
        # them from its symbol (J N under the cap: J = 17, 17, 16, 59, 59,
        # 49), whose samples on (J - 1) + |m - n| + 1 nodes reach down to 1,
        # below c or above 3
        terms = required_depth(alpha, envelope, 1e-8, 1.0, MAX_DIM)[0]
        assert terms in (16, 17, 49, 59)
        nodes = terms + abs(m - n)
        assert terms * nodes <= driver._TABLE_CAP
        bounds = f"[{envelope.c:.6g}, {envelope.norm_bound:.6g}]"
        message = f"a Rayleigh quotient of W on the region {region} is 3, outside the envelope {bounds}"
        symbol = (rf"^the symbol of W takes values in \[1, [0-9.]+\] on {nodes} nodes, "
                  rf"outside the envelope {re.escape(bounds)}$")
        banded, plain = _twins([-1, 0, 1], [-1.0, 3.0, -1.0], envelope)
        with pytest.raises(MalformedSpecError) as err:
            approximate_element(plain, zero_boundary, alpha, m, n, 1e-8)
        assert str(err.value) == message
        with pytest.raises(MalformedSpecError, match=symbol):
            approximate_element(banded, zero_boundary, alpha, m, n, 1e-8)

    @pytest.mark.parametrize(
        "envelope,region", [(LOW, "[-18, 24]"), (HIGH, "[-86, 92]")]
    )
    def test_local_solve_checks_the_rhs(self, envelope, region):
        # a solve's start vector is f, checked by the scaled quotient
        bounds = f"[{envelope.c:.6g}, {envelope.norm_bound:.6g}]"
        message = f"a Rayleigh quotient of W on the region {region} is 3, outside the envelope {bounds}"
        for spec in _twins([-1, 0, 1], [-1.0, 3.0, -1.0], envelope):
            with pytest.raises(MalformedSpecError) as err:
                local_solve(spec, zero_boundary, {3: 2.0}, [3], 1e-8)
            assert str(err.value) == message

    def test_unit_start_matches_the_scaled_check(self):
        # on random regions and stencils, real and complex, the quotient of
        # e_p passes or fails exactly as the scaled check on e_p does
        rng = np.random.default_rng(20261020)
        for _ in range(200):
            l = int(rng.integers(1, 4))
            upper = rng.normal(size=l) + 1j * rng.normal(size=l) * rng.integers(0, 2)
            stencil = [*np.conj(upper[::-1]), float(rng.uniform(-1.0, 4.0)), *upper]
            c = float(rng.uniform(0.0, 2.0))
            envelope = SpectralEnvelope(c, c + float(rng.uniform(0.0, 3.0)))
            spec = banded_spec(range(-l, l + 1), stencil, envelope)
            region = Window(int(rng.integers(0, 9)), int(rng.integers(0, 9)))
            p = int(rng.integers(0, region.dim))
            step = sparse_section(spec, region)
            unit = np.zeros(region.dim)
            unit[p] = 1.0

            def failure(check):
                try:
                    check()
                except MalformedSpecError as exc:
                    return str(exc)
                return None

            want = failure(lambda: driver._check_rayleigh(envelope, region, unit, step(unit)))
            got = failure(lambda: next(driver._terms(spec, region, step, p, 2)))
            assert got == want

    @pytest.mark.parametrize(
        "offsets,diagonal,m,n,tol",
        [
            ([-1, 0, 1], 0.05, 0, 1, 1e-8),
            ([-1, 0, 1], 0.5, 0, 1, 1e-8),
            # one term, on the region [-1, 1]: from 0 the taps +-2 reach past
            # it, so the entry (b e_0)[0] alone is finite, and in the envelope.
            # The banded spec reads it from its symbol at one node, where the
            # taps sum to inf, and checks s_0 = 0.05 with it
            ([-2, 0, 2], 0.05, 0, 0, 0.99),
        ],
    )
    def test_non_finite_step_reads_nan(self, offsets, diagonal, m, n, tol):
        # taps of 1e308 / w overflow to inf: the dot product <e_lo, b e_lo>
        # meets 0 * inf, so the quotient reads nan whether or not the
        # diagonal lies in the envelope, as the scaled check's does; the
        # step is built under the sweep's error state, so no overflow
        # warning escapes (the suite turns one into an error).  The symbol
        # path runs under the same error state
        envelope = SpectralEnvelope(0.01, 0.1)
        banded, plain = _twins(offsets, [1e308, diagonal, 1e308], envelope)
        symbol = r"takes values in \[0\.05, inf\] on 1 nodes, outside" if tol == 0.99 else None
        for spec, message in [(banded, symbol or r"is nan, outside"), (plain, r"is nan, outside")]:
            with pytest.raises(MalformedSpecError, match=message):
                approximate_element(spec, zero_boundary, 0.5, m, n, tol)

    @pytest.mark.parametrize("f", [{0: 1.0}, {0: 1j, 2: 1.0}])
    def test_non_finite_step_solve_reads_nan(self, f):
        # a solve's step overflows as an element's does: the quotient of f
        # reads nan, with no overflow warning
        envelope = SpectralEnvelope(0.01, 0.1)
        for spec in _twins([-1, 0, 1], [1e308, 0.05, 1e308], envelope):
            with pytest.raises(MalformedSpecError, match=r"is nan, outside"):
                local_solve(spec, zero_boundary, f, [0, 1], 1e-8)
