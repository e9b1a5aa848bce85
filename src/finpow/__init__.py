"""Certified finite-section approximation of real powers of infinite,
sparse, bounded, Hermitian matrices.

A matrix is presented by a row generator with a declared sparsity bound and
a spectral envelope.  A single element of any real power, or a component of
a local solve, is the binomial series summed by sparse mat-vecs on the
finite window its depth reaches; each answer ships with an a-priori error
certificate, the series' tail.  The paper's dense window truncations with
Hermitian corner corrections remain as the reference (``evaluate_window``,
``convergence_table``).  The package exports that pipeline only; the layers
under it stay in their modules (``finpow.certificates.tail_bound``, ...).
"""

from .certificates import Certificate
from .core import BoundarySpec, InfiniteMatrixSpec, SpectralEnvelope, Window, banded_spec
from .driver import (
    approximate_element,
    convergence_table,
    evaluate_window,
    local_solve,
    zero_boundary,
)
from .errors import (
    ConfigError,
    DegenerateWindowError,
    DivergentSeriesError,
    DomainError,
    FinpowError,
    InvalidBoundaryError,
    MalformedSpecError,
    NotConvergedError,
    NumericalFailureError,
    SingularityError,
)
from .lattice import (
    LatticeModelParams,
    dispersion_integral_element,
    lattice_spec,
    periodic_policy,
)

__version__ = "0.1.0"

__all__ = [
    "BoundarySpec",
    "Certificate",
    "ConfigError",
    "DegenerateWindowError",
    "DivergentSeriesError",
    "DomainError",
    "FinpowError",
    "InfiniteMatrixSpec",
    "InvalidBoundaryError",
    "LatticeModelParams",
    "MalformedSpecError",
    "NotConvergedError",
    "NumericalFailureError",
    "SingularityError",
    "SpectralEnvelope",
    "Window",
    "approximate_element",
    "banded_spec",
    "convergence_table",
    "dispersion_integral_element",
    "evaluate_window",
    "lattice_spec",
    "local_solve",
    "periodic_policy",
    "zero_boundary",
]
