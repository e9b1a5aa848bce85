import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finpow import (
    BoundarySpec,
    BudgetExceededError,
    DomainError,
    LatticeModelParams,
    SpectralEnvelope,
    Window,
    banded_spec,
    banded_depth_closed_form,
    integer_power_element,
    lattice_spec,
    truncate,
    truncation_depth,
)

from oracles import dense_section, random_banded_spec

IDENTITY_ENV = SpectralEnvelope(1.0, 1.0, 0.0)


def identity_spec():
    return banded_spec([0], [1.0], IDENTITY_ENV)


class TestIntegerPowerElement:
    def test_zeroth_power_is_delta(self, unit_lattice):
        _, spec, _ = unit_lattice
        assert integer_power_element(spec, 0.0, 0, 4, 4) == 1.0
        assert integer_power_element(spec, 0.0, 0, 4, 5) == 0.0

    def test_scalar_case(self):
        # identity shifted by 2, cubed: (1 - 2)**3
        assert integer_power_element(identity_spec(), 2.0, 3, 7, 7) == -1.0

    def test_lattice_square_diagonal(self, unit_lattice):
        _, spec, _ = unit_lattice
        value = integer_power_element(spec, 0.0, 2, 0, 0)
        assert value == 11.0
        # dense oracle on a width-5 embedding
        ambient = dense_section(spec, 2)
        assert np.linalg.matrix_power(ambient, 2)[2, 2] == value

    def test_first_power_is_shifted_entry(self, unit_lattice):
        _, spec, _ = unit_lattice
        assert integer_power_element(spec, 5.0, 1, 0, 0) == spec.entry(0, 0) - 5.0
        assert integer_power_element(spec, 5.0, 1, 0, 1) == spec.entry(0, 1)

    def test_matches_dense_ambient(self, unit_lattice, rng):
        _, spec, _ = unit_lattice
        w = spec.envelope.w
        for j in range(7):
            m = int(rng.integers(-2, 3))
            n = int(rng.integers(-2, 3))
            radius = max(abs(m), abs(n)) + j + 1
            ambient = dense_section(spec, radius) - w * np.eye(2 * radius + 1)
            oracle = np.linalg.matrix_power(ambient, j)[m + radius, n + radius]
            value = integer_power_element(spec, w, j, m, n)
            assert abs(value - oracle) <= 1e-12 * max(1.0, abs(oracle))

    def test_negative_power_rejected(self, unit_lattice):
        _, spec, _ = unit_lattice
        with pytest.raises(DomainError):
            integer_power_element(spec, 0.0, -1, 0, 0)

    def test_node_budget(self, unit_lattice):
        _, spec, _ = unit_lattice
        with pytest.raises(BudgetExceededError):
            integer_power_element(spec, 0.0, 6, 0, 0, node_budget=4)

    @given(j=st.integers(0, 5), m=st.integers(-3, 3), n=st.integers(-3, 3))
    @settings(max_examples=40, deadline=None)
    def test_hermitian_symmetry(self, j, m, n):
        env = SpectralEnvelope(0.5, 3.5, 0.0)
        spec = banded_spec([-1, 0, 1], [-0.5j, 2.0, 0.5j], env)
        forward = integer_power_element(spec, env.w, j, m, n)
        backward = integer_power_element(spec, env.w, j, n, m)
        assert abs(forward - np.conj(backward)) <= 1e-12 * max(1.0, abs(forward))

    def test_element_bound(self, unit_lattice):
        _, spec, _ = unit_lattice
        envelope = spec.envelope
        slack = envelope.w - envelope.c
        for j in range(9):
            value = integer_power_element(spec, envelope.w, j, 0, 1)
            assert abs(value) <= slack**j * (1.0 + 1e-12)


class TestTruncationDepth:
    def test_banded_reference_case(self, unit_lattice):
        _, spec, _ = unit_lattice
        depth = truncation_depth(spec, Window(5, 5), 0, 0)
        assert depth.j_pq == 5
        assert not depth.saturated

    def test_outside_window(self, unit_lattice):
        _, spec, _ = unit_lattice
        assert truncation_depth(spec, Window(2, 2), 5, 0).j_pq == 0

    def test_on_boundary(self, unit_lattice):
        _, spec, _ = unit_lattice
        assert truncation_depth(spec, Window(2, 2), 2, 0).j_pq == 1
        assert truncation_depth(spec, Window(2, 2), 0, -2).j_pq == 1

    def test_halfband_two(self):
        spec = banded_spec(
            [-2, -1, 0, 1, 2],
            [0.5, -1.0, 3.0, -1.0, 0.5],
            SpectralEnvelope(0.0, 6.0, 0.0),
        )
        depth = truncation_depth(spec, Window(9, 9), 1, -1)
        assert depth.j_pq == 4
        assert banded_depth_closed_form(2, Window(9, 9), 1, -1) == 4

    def test_identity_saturates(self):
        depth = truncation_depth(identity_spec(), Window(5, 5), 0, 0)
        assert depth.saturated

    @given(
        p=st.integers(1, 12),
        q=st.integers(1, 12),
        dp=st.integers(0, 6),
        dq=st.integers(0, 6),
        m=st.integers(-4, 4),
        n=st.integers(-4, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_window(self, p, q, dp, dq, m, n):
        spec = lattice_spec(LatticeModelParams(1.0, 1.0))
        small = truncation_depth(spec, Window(p, q), m, n)
        large = truncation_depth(spec, Window(p + dp, q + dq), m, n)
        if not small.saturated:
            assert large.j_pq >= small.j_pq or large.saturated


class TestBandedClosedForm:
    def test_paper_reference_values(self):
        assert banded_depth_closed_form(1, Window(5, 5), 0, 0) == 5
        assert banded_depth_closed_form(1, Window(1, 1), 0, 0) == 1
        assert banded_depth_closed_form(3, Window(7, 8), 0, 2) == 2

    def test_precondition_violations(self):
        with pytest.raises(DomainError):
            banded_depth_closed_form(0, Window(5, 5), 0, 0)
        with pytest.raises(DomainError):
            banded_depth_closed_form(1, Window(5, 5), 5, 0)
        with pytest.raises(DomainError):
            banded_depth_closed_form(1, Window(5, 5), 0, -5)

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_frontier_propagation(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        l = int(rng.integers(1, 4))
        spec = random_banded_spec(rng, l)
        p = int(rng.integers(1, 14))
        q = int(rng.integers(1, 14))
        if -p + 1 > q - 1:
            return
        m = int(rng.integers(-p + 1, q))
        n = int(rng.integers(-p + 1, q))
        window = Window(p, q)
        assert (
            banded_depth_closed_form(l, window, m, n)
            == truncation_depth(spec, window, m, n).j_pq
        )


class TestExactnessBelowDepth:
    def test_truncated_powers_match_ambient(self, rng):
        env = SpectralEnvelope(0.3, 4.0, 0.5)
        spec = banded_spec(
            [-2, -1, 0, 1, 2], [0.25j, -1.0, 2.0, -1.0, -0.25j], env
        )
        w = env.w
        for _ in range(10):
            p = int(rng.integers(3, 9))
            q = int(rng.integers(3, 9))
            window = Window(p, q)
            m = int(rng.integers(-p + 1, q))
            n = int(rng.integers(-p + 1, q))
            corner = BoundarySpec(
                {
                    (-p, q): complex(rng.normal(), rng.normal()),
                    (-p, -p): float(rng.normal()),
                    (q, q): float(rng.normal()),
                }
            )
            depth = truncation_depth(spec, window, m, n)
            shifted = truncate(spec, window, corner).data - w * np.eye(window.dim)
            radius = max(p, q) + 2 * (depth.j_pq + 2)
            ambient = dense_section(spec, radius) - w * np.eye(2 * radius + 1)
            for j in range(depth.j_pq):
                truncated_value = np.linalg.matrix_power(shifted, j)[
                    window.offset(m), window.offset(n)
                ]
                ambient_value = np.linalg.matrix_power(ambient, j)[
                    m + radius, n + radius
                ]
                path_value = integer_power_element(spec, w, j, m, n)
                scale = max(abs(ambient_value), (w - env.c) ** j)
                assert abs(truncated_value - ambient_value) <= 1e-12 * scale
                assert abs(path_value - ambient_value) <= 1e-12 * scale
