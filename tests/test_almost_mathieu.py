"""Values of a non-Toeplitz ``W`` against an independent dense reference.

The almost Mathieu (Aubry-Andre) operator
``W = (a + 2b) I - b (S + S*) + diag(lam cos(2 pi beta n + phi))`` is the
lattice plus a quasi-periodic potential.  It has no stencil, so it runs the
general row-generator path: the support walk over rows, the section built on
each call and the Rayleigh checks.  Weyl's inequality bounds its spectrum by
``[a - |lam|, a + 4b + |lam|]`` for every ``beta`` and ``phi``.

There is no closed form.  For ``c > 0`` the entries of ``W**alpha`` decay
exponentially away from the diagonal, so one ``eigh`` of the section on
``[-REF_HALF, REF_HALF]`` gives a reference whose own error at the indices
checked is far below round-off.  The test measures that error against the
section on ``[-REF_HALF // 2, REF_HALF // 2]``.
"""

import math

import numpy as np
import pytest

from finpow import (
    InfiniteMatrixSpec,
    SpectralEnvelope,
    approximate_element,
    local_solve,
    zero_boundary,
)

ALPHAS = (-1.0, -0.5, 0.5, 1.5)
TOLS = (1e-4, 1e-8, 1e-12)
ELEMENTS = ((0, 0), (0, 1), (3, -2), (7, 7), (-5, 4))
RHS = {0: 1.0, 3: -0.5}
OUTS = (0, 1, 5, -4)
REF_HALF = 600
ROUNDOFF = 1e-12
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def almost_mathieu(a, b, lam, beta, phi):
    """The operator as a plain row generator, with its Weyl envelope."""

    def row(n):
        diagonal = a + 2.0 * b + lam * math.cos(2.0 * math.pi * beta * n + phi)
        return [(n - 1, -b), (n, diagonal), (n + 1, -b)]

    envelope = SpectralEnvelope(a - abs(lam), a + 4.0 * b + abs(lam))
    return InfiniteMatrixSpec(row, 3, envelope)


def dense(params, half):
    a, b, lam, beta, phi = params
    n = np.arange(-half, half + 1)
    diagonal = a + 2.0 * b + lam * np.cos(2.0 * np.pi * beta * n + phi)
    return np.diag(diagonal) - b * np.eye(n.size, k=1) - b * np.eye(n.size, k=-1)


def operators():
    rng = np.random.default_rng(20261019)
    drawn = []
    for _ in range(6):
        a = rng.uniform(0.3, 2.0)
        b = rng.uniform(0.2, 1.5)
        lam = rng.uniform(-0.9, 0.9) * a
        beta = GOLDEN + rng.uniform(-0.01, 0.01)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        drawn.append((a, b, lam, beta, phi))
    return drawn


class PowerReference:
    """Elements of ``W**alpha`` from one ``eigh`` on ``[-half, half]``."""

    def __init__(self, params, half):
        self.half = half
        self.evals, self.vecs = np.linalg.eigh(dense(params, half))

    def element(self, alpha, m, n):
        powered = self.evals**alpha
        return float(self.vecs[m + self.half] @ (powered * self.vecs[n + self.half]))


@pytest.mark.parametrize("params", operators(), ids=[f"op{i}" for i in range(6)])
def test_values_within_bound_of_the_dense_reference(params):
    spec = almost_mathieu(*params)
    reference = PowerReference(params, REF_HALF)
    half_width = PowerReference(params, REF_HALF // 2)
    checks = 0
    for alpha in ALPHAS:
        for m, n in ELEMENTS:
            ref = reference.element(alpha, m, n)
            # the reference's own truncation error: the decay away from the
            # diagonal puts it below round-off already on half the window
            assert abs(half_width.element(alpha, m, n) - ref) <= 1e-13 * max(1.0, abs(ref))
            for tol in TOLS:
                cert = approximate_element(spec, zero_boundary, alpha, m, n, tol)
                assert cert.bound <= tol
                assert abs(cert.value - ref) <= cert.bound + ROUNDOFF * max(1.0, abs(ref))
                checks += 1

    solution = local_solve(spec, zero_boundary, RHS, OUTS, 1e-10)
    rhs = np.zeros(2 * REF_HALF + 1)
    for i, v in RHS.items():
        rhs[i + REF_HALF] = v
    x = np.linalg.solve(dense(params, REF_HALF), rhs)
    for out in OUTS:
        value, bound = solution[out]
        ref = float(x[out + REF_HALF])
        assert bound <= 1e-10
        assert abs(value - ref) <= bound + ROUNDOFF * max(1.0, abs(ref))
        checks += 1
    assert checks == len(ALPHAS) * len(ELEMENTS) * len(TOLS) + len(OUTS)


def test_envelope_is_tight_enough_to_matter():
    # the drawn potentials move the spectrum: the section's extremes reach
    # past the bare lattice's [a, a + 4b] on every operator
    for params in operators():
        a, b, lam, _, _ = params
        evals = np.linalg.eigvalsh(dense(params, REF_HALF // 2))
        assert evals[0] < a or evals[-1] > a + 4.0 * b
        assert a - abs(lam) <= evals[0] and evals[-1] <= a + 4.0 * b + abs(lam)
