"""One-dimensional lattice scalar-field model as a built-in test oracle.

The model matrix generates the quadratic form
``a * sum |x_n|^2 + b * sum |x_n - x_{n-1}|^2``, i.e. a tridiagonal stencil
``{-1: -b, 0: a+2b, +1: -b}``.  With the periodic wrap term the truncation is
a circulant, diagonalized by the discrete Fourier basis; the infinite-matrix
element of every power is the corresponding dispersion integral, which is
independently checkable against the generic truncation pipeline.  The
integral states the model on its own, by the symbol ``a + 4b sin(pi kappa)**2``
(``fourier_symbol``): it does not read ``lattice_spec``, the code it checks.
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
    _integer,
    _number,
    banded_spec,
)
from .errors import DegenerateWindowError, DomainError, NumericalFailureError

# Constants of dispersion_integral_element's periodic trapezoid rule: the
# first number of points, the agreement that stops the doubling, and the most
# doublings.
QUADRATURE_POINTS = 16
QUADRATURE_TOL = 1e-12
QUADRATURE_MAX_REFINEMENTS = 18


@dataclass(frozen=True)
class LatticeModelParams:
    """Mass-like coefficient ``a`` and nearest-neighbour coupling ``b``: real
    numbers, stored as ``float``s, with ``a, b > 0`` and a finite
    ``a + 4b``; anything else (a boolean, a string, ``nan``, ``10**400``)
    raises ``DomainError``."""

    a: float
    b: float

    def __post_init__(self):
        message = "lattice model coefficients must be real numbers, got {!r}"
        a, b = _number(self.a, message, real=True), _number(self.b, message, real=True)
        if not (a > 0.0 and b > 0.0):
            raise DomainError(
                f"lattice model requires a > 0 and b > 0, got a={self.a}, b={self.b}"
            )
        if not math.isfinite(a + 4.0 * b):
            raise DomainError(
                f"lattice model requires a finite norm bound a + 4b, got "
                f"a={self.a}, b={self.b}"
            )
        vars(self).update(a=a, b=b)  # frozen: past its __setattr__


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
    """Dispersion relation ``a + 4b sin(pi kappa)**2`` of the infinite stencil
    at frequency ``kappa``: ``a + 2b - 2b cos(2 pi kappa)`` without its
    cancellation near ``kappa = 0``."""
    kappa = np.asarray(kappa, dtype=np.float64)
    return params.a + 4.0 * params.b * np.sin(np.pi * kappa) ** 2


def dispersion_integral_element(
    params: LatticeModelParams,
    alpha: float,
    m: int,
    n: int,
) -> float:
    """Infinite-matrix element by quadrature of the dispersion integral.

    Integrates ``symbol(kappa)**alpha * cos(2 pi kappa (m - n))`` over one
    period as the mean of its samples on ``QUADRATURE_POINTS`` equispaced
    points (the periodic trapezoid rule), doubling the points until two
    successive estimates agree to ``QUADRATURE_TOL`` relative, or absolute
    when the estimate is below one.  The integrand is periodic and analytic
    (the symbol lies in ``[a, a + 4b]``, away from 0), so the rule converges
    geometrically in the number of points, with no ``h**2`` error term to
    extrapolate away (Trefethen & Weideman, SIAM Rev. 56 (2014)).

    Raises
    ------
    DomainError
        ``alpha`` not a finite real number, or ``m`` or ``n`` not an
        integer, checked as the entry points check them, before any
        quadrature.
    NumericalFailureError
        If ``QUADRATURE_MAX_REFINEMENTS`` estimates pass with no two
        successive ones agreeing.
    """
    _number(alpha, "alpha must be finite, got {!r}", real=True, finite=True)
    m, n = _integer(m), _integer(n)
    points, previous = QUADRATURE_POINTS, math.inf  # the first estimate cannot agree
    for _ in range(QUADRATURE_MAX_REFINEMENTS):
        kappa = np.arange(points) / points
        values = fourier_symbol(params, kappa) ** alpha
        estimate = float(np.mean(values * np.cos(2.0 * np.pi * kappa * (m - n))))
        if abs(estimate - previous) <= QUADRATURE_TOL * max(1.0, abs(estimate)):
            return estimate
        previous, points = estimate, 2 * points
    raise NumericalFailureError(
        f"dispersion quadrature did not reach tol={QUADRATURE_TOL} within "
        f"{QUADRATURE_MAX_REFINEMENTS} refinements"
    )
