"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import time

import numpy as np
import pytest

from finpow import (
    BoundarySpec,
    DivergentSeriesError,
    InfiniteMatrixSpec,
    LatticeModelParams,
    SpectralEnvelope,
    Window,
    approximate_element,
    banded_spec,
    dispersion_integral_element,
    evaluate_window,
    lattice_spec,
    periodic_policy,
    zero_boundary,
)
from finpow.certificates import certify, full_series_sum, tail_bound
from finpow.core import truncate, validate_truncation
from finpow.lattice import periodic_boundary
from finpow.powers import finite_power
from finpow.series import truncation_depth

from oracles import (
    banded_depth_closed_form,
    dense_section,
    integer_power_element,
    mp_abs_binom_tail,
    random_banded_spec,
)

UNIT = LatticeModelParams(1.0, 1.0)


def test_criterion_1_lattice_convergence():
    """Driver value at P=Q=256 matches the dispersion integral to 1e-8."""
    spec = lattice_spec(UNIT)
    policy = periodic_policy(UNIT)
    window = Window(256, 256)
    start = time.perf_counter()
    worst = 0.0
    for alpha in (-1.0, -0.5, 0.5):
        cert = evaluate_window(spec, policy, alpha, 0, 0, window)
        reference = dispersion_integral_element(UNIT, alpha, 0, 0)
        gap = abs(cert.value.real - reference)
        assert gap <= 1e-8, f"alpha={alpha}: |value - integral| = {gap:.3e} > 1e-8"
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.2f}s >= 10s"
    print(
        f"\nPASS criterion 1: lattice convergence at P=Q=256, worst gap "
        f"{worst:.3e} <= 1e-8 in {elapsed:.2f}s"
    )


def test_criterion_2_certificate_soundness():
    """Certified bound exceeds the measured error in 100% of 200 cases."""
    rng = np.random.default_rng(20240811)
    cases = 0
    worst_ratio = 0.0
    for trial in range(50):
        l = int(rng.integers(1, 4))
        spec = random_banded_spec(rng, l)
        margin = int(rng.integers(4, 13))
        m = int(rng.integers(-2, 3))
        n = int(rng.integers(-2, 3))
        window = Window(margin, margin)
        ambient = Window(8 * margin, 8 * margin)
        matrix = truncate(spec, window)
        assert validate_truncation(matrix, spec.envelope, 1e-12)
        reference_matrix = truncate(spec, ambient)
        for alpha in (-1.0, -0.5, 0.5, 1.5):
            cases += 1
            value = finite_power(matrix, alpha).element(m, n)
            depth = truncation_depth(spec, window, m, n)
            cert = certify(value, alpha, spec.envelope, depth)
            reference = finite_power(reference_matrix, alpha).element(m, n)
            error = abs(cert.value - reference)
            assert error <= cert.bound, (
                f"trial {trial}, alpha={alpha}: error {error:.3e} exceeds "
                f"bound {cert.bound:.3e}"
            )
            if cert.bound > 0:
                worst_ratio = max(worst_ratio, error / cert.bound)
    assert cases >= 200
    print(
        f"\nPASS criterion 2: bound >= error in {cases}/{cases} randomized "
        f"cases, worst error/bound = {worst_ratio:.3e}"
    )


def test_criterion_3_exactness_depth():
    """Powers below j_PQ agree to 1e-12; closed form matches frontier 500/500,
    on the stencil walk and on the row walk."""
    rng = np.random.default_rng(7)
    env = SpectralEnvelope(0.3, 4.0, 0.5)
    spec = banded_spec([-2, -1, 0, 1, 2], [0.25j, -1.0, 2.0, -1.0, -0.25j], env)
    w = env.w
    checked_powers = 0
    for _ in range(25):
        p = int(rng.integers(5, 12))
        q = int(rng.integers(5, 12))
        window = Window(p, q)
        m = int(rng.integers(-2, 3))
        n = int(rng.integers(-2, 3))
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
            truncated = np.linalg.matrix_power(shifted, j)[
                window.offset(m), window.offset(n)
            ]
            exact = np.linalg.matrix_power(ambient, j)[m + radius, n + radius]
            scale = max(abs(exact), (w - env.c) ** j)
            assert abs(truncated - exact) <= 1e-12 * scale
            path = integer_power_element(spec, w, j, m, n)
            assert abs(path - exact) <= 1e-12 * scale
            checked_powers += 1

    rng = np.random.default_rng(11)
    agreements = {"stencil": 0, "rows": 0}
    tuples = 0
    while tuples < 500:
        l = int(rng.integers(1, 4))
        banded = random_banded_spec(rng, l)
        p = int(rng.integers(1, 15))
        q = int(rng.integers(1, 15))
        if -p + 1 > q - 1:
            continue
        m = int(rng.integers(-p + 1, q))
        n = int(rng.integers(-p + 1, q))
        tuples += 1
        window = Window(p, q)
        closed = banded_depth_closed_form(l, window, m, n)
        # a banded spec walks its stencil; the same rows from a plain
        # generator are walked row by row
        plain = InfiniteMatrixSpec(banded.row_generator, banded.sparsity_bound_k, banded.envelope)
        for path, walked in [("stencil", banded), ("rows", plain)]:
            frontier = truncation_depth(walked, window, m, n)
            assert not frontier.saturated
            if closed == frontier.j_pq:
                agreements[path] += 1
    assert agreements == {"stencil": 500, "rows": 500}
    print(
        f"\nPASS criterion 3: {checked_powers} truncated powers exact to "
        f"1e-12, closed-form depth agreement {agreements['stencil']}/500 on the "
        f"stencil walk and {agreements['rows']}/500 on the row walk"
    )


def test_criterion_4_closed_form_sums():
    """Closed forms match direct summation to 1e-10 across the test grid."""
    worst = 0.0
    for alpha in (-1.5, -1.0, -0.5, 0.5, 1.5, 2.5):
        for ratio in (0.1, 0.5, 0.9):
            for w in (1.0, 2.0):
                c = ratio * w
                mine = full_series_sum(alpha, c, w)
                oracle = float(mp_abs_binom_tail(alpha, (w - c) / w, 0))
                rel = abs(mine - oracle) / abs(oracle)
                assert rel <= 1e-10, (
                    f"alpha={alpha}, c/w={ratio}, w={w}: rel error {rel:.3e}"
                )
                worst = max(worst, rel)
    assert full_series_sum(-1.0, 1.0, 2.0) == 2.0
    assert tail_bound(-1.0, 1.0, 2.0, 0) == 2.0
    print(
        f"\nPASS criterion 4: closed-form sums match direct summation, "
        f"worst relative gap {worst:.3e} <= 1e-10; exact case (-1, 1, 2) = 2"
    )


def test_criterion_5_power_identities():
    """(M**1/2)**2 = M and M**-1 M = I to 1e-9 up to dimension 513."""
    spec = lattice_spec(UNIT)
    worst = 0.0
    for size in (33, 129, 513):
        half = (size - 1) // 2
        window = Window(half, half)
        matrix = truncate(spec, window, periodic_boundary(window, UNIT))
        assert validate_truncation(matrix, spec.envelope, 1e-9)
        root = finite_power(matrix, 0.5)
        squared = root.data @ root.data
        gap_sq = np.abs(squared - matrix.data).max() / np.abs(matrix.data).max()
        assert gap_sq <= 1e-9, f"dim {size}: sqrt roundtrip gap {gap_sq:.3e}"
        inverse = finite_power(matrix, -1.0)
        gap_inv = np.abs(inverse.data @ matrix.data - np.eye(size)).max()
        assert gap_inv <= 1e-9, f"dim {size}: inverse gap {gap_inv:.3e}"
        worst = max(worst, gap_sq, gap_inv)
    print(
        f"\nPASS criterion 5: power identities hold to {worst:.3e} <= 1e-9 "
        f"up to dimension 513"
    )


def test_criterion_6_exact_alpha_one_and_zero():
    """approximate_element is exact with bound 0 for alpha in {0, 1}, on the
    unit lattice and on a spec with c = 0 (x = 1)."""
    c0 = banded_spec([-1, 0, 1], [-1.0, 2.0, -1.0], SpectralEnvelope(0.0, 4.0))
    for spec, policy in [(lattice_spec(UNIT), periodic_policy(UNIT)), (c0, zero_boundary)]:
        for m, n in [(0, 0), (0, 1), (2, -1), (-3, -3)]:
            cert = approximate_element(spec, policy, 1.0, m, n, 1e-12)
            assert cert.bound == 0.0
            assert abs(cert.value - spec.entry(m, n)) <= 1e-12
            cert0 = approximate_element(spec, policy, 0.0, m, n, 1e-12)
            assert cert0.bound == 0.0
            assert abs(cert0.value - (1.0 if m == n else 0.0)) <= 1e-12
    print(
        "\nPASS criterion 6: alpha=1 returns the entry and alpha=0 the "
        "Kronecker delta, both with bound 0, c = 0 included"
    )


def test_criterion_7_premise_enforcement():
    """alpha < 0 with c = 0 is rejected before any computation."""
    spec = banded_spec(
        [-1, 0, 1], [-1.0, 2.0, -1.0], SpectralEnvelope(0.0, 4.0, 0.0)
    )
    with pytest.raises(DivergentSeriesError):
        approximate_element(spec, zero_boundary, -1.0, 0, 0, 1e-6)
    with pytest.raises(DivergentSeriesError):
        tail_bound(-0.5, 0.0, 1.0, 0)
    print("\nPASS criterion 7: alpha < 0 with c = 0 raises the divergence error")
