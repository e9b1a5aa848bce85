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
    InvalidBoundaryError,
    NotConvergedError,
    NumericalFailureError,
    SingularOperatorError,
    SpectralEnvelope,
    Window,
    approximate_element,
    banded_spec,
    convergence_table,
    dispersion_integral_element,
    evaluate_window,
    finite_power,
    lattice_spec,
    local_solve,
    periodic_policy,
    truncate,
    zero_boundary,
)

from oracles import mp_abs_binom_tail, random_banded_spec


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
            assert cert.window.P == max(abs(m), abs(n)) + 2
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
        # predict the stopping window independently: first doubling margin g
        # whose certified tail (depth g for this stencil) meets tol
        margin = 2
        while 2.0 * 5.0**-0.5 * float(mp_abs_binom_tail(-0.5, 0.8, margin)) > tol:
            margin *= 2
        assert cert.window == Window(margin, margin)
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
        _, spec, policy = unit_lattice
        cert = approximate_element(spec, policy, 0.5, 1, 0, 1e-4)
        one_shot = evaluate_window(spec, policy, 0.5, 1, 0, cert.window)
        assert cert == one_shot

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
        _, spec, policy = unit_lattice
        calls = count_linalg(monkeypatch)
        cert = approximate_element(spec, policy, -0.5, 0, 1, 1e-12)
        assert cert.bound <= 1e-12
        assert calls == {"eigh": 1, "eigvalsh": 0}

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

    @pytest.mark.parametrize("alpha", [400.5, 440.5, 441.5, -2000.0])
    def test_overflowing_bound_rejected_before_any_window(
        self, unit_lattice, monkeypatch, alpha
    ):
        _, spec, policy = unit_lattice

        def no_window(*args):
            raise AssertionError("a window was planned")

        monkeypatch.setattr(driver, "truncation_depth", no_window)
        with pytest.raises(NumericalFailureError):
            approximate_element(spec, policy, alpha, 0, 0, 1e-6)

    def test_validation_failure_raises_invalid_boundary(self, unit_lattice):
        _, spec, _ = unit_lattice

        def inflating(window):
            # large positive corner shift pushes the top eigenvalue past w
            return BoundarySpec({(-window.P, -window.P): 50.0})

        with pytest.raises(InvalidBoundaryError):
            approximate_element(spec, inflating, 0.5, 0, 0, 1e-3)


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


class TestOneBoundPerDepth:
    def test_tail_bound_runs_once_per_planned_depth(self, unit_lattice, monkeypatch):
        # the plan computes each bound; the solve reuses it rather than
        # computing it again for the certificate
        _, spec, policy = unit_lattice
        calls = {"tail_bound": 0, "truncation_depth": 0}
        for owner, name in [(certificates, "tail_bound"), (driver, "truncation_depth")]:
            real = getattr(owner, name)

            def counted(*args, _name=name, _real=real):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(owner, name, counted)
        approximate_element(spec, policy, -0.5, 0, 1, 1e-12)
        local_solve(spec, policy, {0: 1.0, 1: -0.5}, [0, 1, 2], 1e-8)
        assert calls["truncation_depth"] > 0
        assert calls["tail_bound"] == calls["truncation_depth"]


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
        with pytest.raises(SingularOperatorError):
            local_solve(spec, zero_boundary, {0: 1.0}, [0], 1e-6)

    def test_each_distinct_window_factored_once(self, unit_lattice, monkeypatch):
        _, spec, policy = unit_lattice
        f = {0: 0.5, 2: -0.25, -4: 0.25j}
        outs = [0, 1, -3, 5, 6]
        tol = 1e-10  # |f|_1 = 1, so each element gets the whole of tol
        expected = {
            approximate_element(spec, policy, -1.0, m, n, tol).window
            for m in outs
            for n in f
        }
        assert 1 < len(expected) < len(outs) * len(f)
        truncated = []
        real_truncate = driver.truncate

        def recording(spec, window, boundary=None):
            truncated.append(window)
            return real_truncate(spec, window, boundary)

        monkeypatch.setattr(driver, "truncate", recording)
        calls = count_linalg(monkeypatch)
        result = local_solve(spec, policy, f, outs, tol)
        assert sorted(truncated, key=lambda w: w.P) == sorted(expected, key=lambda w: w.P)
        assert calls == {"eigh": len(expected), "eigvalsh": 0}
        assert all(bound <= tol for _, bound in result.values())

    def test_matches_per_element_certificates(self, unit_lattice):
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
            assert result[m] == (total, bound)

    def test_not_converged_carries_best(self, unit_lattice):
        _, spec, policy = unit_lattice
        with pytest.raises(NotConvergedError) as err:
            local_solve(spec, policy, {0: 1.0}, [0, 1], 1e-30, max_dim=65)
        expected = evaluate_window(spec, policy, -1.0, 0, 0, Window(32, 32))
        assert err.value.best_certificate == expected

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

    def test_zero_rhs(self, unit_lattice):
        _, spec, policy = unit_lattice
        result = local_solve(spec, policy, {0: 0.0}, [0, 1], 1e-6)
        assert result == {0: (0.0 + 0.0j, 0.0), 1: (0.0 + 0.0j, 0.0)}
