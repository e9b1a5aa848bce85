"""References computed apart from finpow, with numpy alone.

* Elements of powers of a banded Toeplitz matrix come from its dispersion
  integral ``(W**alpha)[m, n] = (1/2pi) int f(theta)**alpha e^{i(m-n)theta}``,
  with ``f(theta) = sum_o W[m, m+o] e^{i o theta}``, by the periodic
  trapezoid rule, doubling the points until two estimates agree.
* The (-1, 2, -1) stencil at (0, 0) has the closed form
  ``Gamma(2 alpha + 1) / Gamma(alpha + 1)**2``.
* Local solutions come from a dense solve on a window far wider than any
  element asked for; the lattice inverse decays like ``r**|m - n|`` with
  ``r <= 0.5`` for the models used, so the window edge is invisible.
"""

from __future__ import annotations

import math

import numpy as np

from cases import symbol

AMBIENT_HALF_WIDTH = 600


def toeplitz_power_element(offsets, stencil, alpha: float, m: int, n: int) -> complex:
    """Infinite-matrix element of ``W**alpha`` by the dispersion integral."""
    points = 256
    previous = None
    while points <= 2**20:
        theta = 2.0 * np.pi * np.arange(points) / points
        f = symbol(offsets, stencil, theta)
        if f.min() <= 0.0 and alpha != int(alpha):
            raise ValueError("symbol not positive; use a closed form")
        estimate = complex(np.mean(f**alpha * np.exp(1j * (m - n) * theta)))
        if previous is not None and abs(estimate - previous) <= 1e-15 * max(1.0, abs(estimate)):
            return estimate
        previous = estimate
        points *= 2
    raise RuntimeError("dispersion integral did not converge")


def lattice_element(a: float, b: float, alpha: float, m: int, n: int) -> float:
    return toeplitz_power_element([-1, 0, 1], [-b, a + 2.0 * b, -b], alpha, m, n).real


def second_difference_origin(alpha: float) -> float:
    """``((-1, 2, -1)**alpha)[0, 0]``: the mean of ``(2 sin(theta/2))**(2 alpha)``."""
    return math.gamma(2.0 * alpha + 1.0) / math.gamma(alpha + 1.0) ** 2


def lattice_solve(a: float, b: float, f: dict, outs) -> dict:
    """Components ``outs`` of ``W x = f`` from a dense solve on a wide window."""
    half = AMBIENT_HALF_WIDTH
    dim = 2 * half + 1
    A = np.diag(np.full(dim, a + 2.0 * b)) - b * np.eye(dim, k=1) - b * np.eye(dim, k=-1)
    rhs = np.zeros(dim, dtype=np.complex128)
    for i, v in f.items():
        rhs[i + half] += v
    x = np.linalg.solve(A, rhs)
    return {o: complex(x[o + half]) for o in outs}
