"""Certified finite-section approximation of real powers of infinite,
sparse, bounded, Hermitian matrices.

A matrix is presented by a row generator with a declared sparsity bound and
a spectral envelope.  A single element of any real power, or a component of
a local solve, is the binomial series summed by sparse mat-vecs on the
finite window its depth reaches; each answer ships with an a-priori error
certificate, the series' tail.  The paper's dense window truncations with
Hermitian corner corrections remain as the reference (``evaluate_window``,
``convergence_table``).
"""

from .certificates import Certificate, certify, full_series_sum, tail_bound
from .core import (
    BoundarySpec,
    FiniteHermitian,
    InfiniteMatrixSpec,
    SpectralEnvelope,
    ValidationReport,
    Window,
    banded_spec,
    truncate,
    validate_truncation,
)
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
    SingularOperatorError,
    SingularityError,
)
from .lattice import (
    LatticeModelParams,
    dispersion_integral_element,
    fourier_symbol,
    lattice_spec,
    periodic_boundary,
    periodic_policy,
)
from .powers import binomial_coefficients, finite_power
from .series import TruncationDepth, truncation_depth

__version__ = "0.1.0"

__all__ = [
    "BoundarySpec",
    "Certificate",
    "ConfigError",
    "DegenerateWindowError",
    "DivergentSeriesError",
    "DomainError",
    "FiniteHermitian",
    "FinpowError",
    "InfiniteMatrixSpec",
    "InvalidBoundaryError",
    "LatticeModelParams",
    "MalformedSpecError",
    "NotConvergedError",
    "NumericalFailureError",
    "SingularOperatorError",
    "SingularityError",
    "SpectralEnvelope",
    "TruncationDepth",
    "ValidationReport",
    "Window",
    "approximate_element",
    "banded_spec",
    "binomial_coefficients",
    "certify",
    "convergence_table",
    "dispersion_integral_element",
    "evaluate_window",
    "finite_power",
    "fourier_symbol",
    "full_series_sum",
    "lattice_spec",
    "local_solve",
    "periodic_boundary",
    "periodic_policy",
    "tail_bound",
    "truncate",
    "truncation_depth",
    "validate_truncation",
    "zero_boundary",
]
