"""One-dimensional lattice scalar-field model as a built-in test oracle.

The model matrix generates the quadratic form
``a * sum |x_n|^2 + b * sum |x_n - x_{n-1}|^2``, i.e. a tridiagonal stencil
``{-1: -b, 0: a+2b, +1: -b}``.  With the periodic wrap term the truncation is
a circulant, diagonalized by the discrete Fourier basis; the infinite-matrix
element of every power is the corresponding dispersion integral, which is
independently checkable against the generic truncation pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BoundarySpec,
    InfiniteMatrixSpec,
    SpectralEnvelope,
    Window,
    banded_spec,
)
from .errors import DegenerateWindowError, DomainError, NumericalFailureError

# Constants of dispersion_integral_element's Romberg quadrature.
QUADRATURE_POINTS = 16
QUADRATURE_TOL = 1e-12
QUADRATURE_MAX_REFINEMENTS = 18


@dataclass(frozen=True)
class LatticeModelParams:
    """Mass-like coefficient ``a`` and nearest-neighbour coupling ``b``."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0.0 and self.b > 0.0):
            raise DomainError(
                f"lattice model requires a > 0 and b > 0, got a={self.a}, b={self.b}"
            )


def lattice_spec(params: LatticeModelParams) -> InfiniteMatrixSpec:
    """Infinite lattice matrix with its exact spectral envelope.

    The Fourier symbol of the stencil is ``a + 2b - 2b cos(2 pi kappa)``,
    ranging over ``[a, a + 4b]``, so the envelope is tight and needs no
    boundary inflation.
    """
    a, b = params.a, params.b
    envelope = SpectralEnvelope(c=a, norm_bound=a + 4.0 * b, d=0.0)
    return banded_spec([-1, 0, 1], [-b, a + 2.0 * b, -b], envelope)


def periodic_boundary(window: Window, params: LatticeModelParams) -> BoundarySpec:
    """Corner correction adding the periodic wrap term ``b |x_Q - x_{-P}|^2``.

    The resulting truncation is circulant.  The wrap contributes ``-b`` at
    the off-diagonal corners; together with the open-chain end terms it
    restores the full diagonal, so the diagonal corners need no correction.
    """
    if window.dim < 2:
        raise DegenerateWindowError(
            f"periodic boundary needs dimension >= 2, got {window.dim}"
        )
    lo, hi = window.corners
    return BoundarySpec({(lo, hi): -params.b, (hi, lo): -params.b})


def periodic_policy(params: LatticeModelParams):
    """Boundary policy (window -> BoundarySpec) for the periodic model."""

    def policy(window: Window) -> BoundarySpec:
        return periodic_boundary(window, params)

    return policy


def fourier_symbol(params: LatticeModelParams, kappa):
    """Dispersion relation of the infinite stencil at frequency ``kappa``."""
    spec = lattice_spec(params)
    row = spec.row(0)
    kappa = np.asarray(kappa, dtype=np.float64)
    total = np.zeros_like(kappa)
    for offset, value in row.items():
        total = total + float(np.real(value)) * np.cos(2.0 * np.pi * offset * kappa)
    return total


def dispersion_integral_element(
    params: LatticeModelParams,
    alpha: float,
    m: int,
    n: int,
) -> float:
    """Infinite-matrix element by quadrature of the dispersion integral.

    Integrates ``symbol(kappa)**alpha * cos(2 pi kappa (m - n))`` over one
    period with the periodic trapezoid rule on ``QUADRATURE_POINTS`` points,
    doubling the points and Richardson-extrapolating (a Romberg table) until
    two successive estimates agree to ``QUADRATURE_TOL`` relative, or
    absolute when the estimate is below one.

    Raises
    ------
    NumericalFailureError
        If ``QUADRATURE_MAX_REFINEMENTS`` refinements pass before
        convergence.
    """
    delta = m - n

    def mean_of_samples(points: int) -> float:
        kappa = np.arange(points) / points
        values = fourier_symbol(params, kappa) ** alpha
        return float(np.mean(values * np.cos(2.0 * np.pi * kappa * delta)))

    # Romberg table over successive doublings of the periodic trapezoid rule.
    rows: list[list[float]] = []
    points = QUADRATURE_POINTS
    previous = math.inf
    for level in range(QUADRATURE_MAX_REFINEMENTS):
        row = [mean_of_samples(points)]
        for k in range(1, level + 1):
            factor = 4.0 ** k
            row.append(row[k - 1] + (row[k - 1] - rows[level - 1][k - 1]) / (factor - 1.0))
        rows.append(row)
        estimate = row[-1]
        if level > 0 and abs(estimate - previous) <= QUADRATURE_TOL * max(1.0, abs(estimate)):
            return estimate
        previous = estimate
        points *= 2
    raise NumericalFailureError(
        f"dispersion quadrature did not reach tol={QUADRATURE_TOL} within "
        f"{QUADRATURE_MAX_REFINEMENTS} refinements"
    )
