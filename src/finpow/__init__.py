"""Certified finite-section approximation of real powers of infinite,
sparse, bounded, Hermitian matrices.

A matrix is presented by a row generator with a declared sparsity bound and
a spectral envelope.  Finite window truncations with Hermitian corner
corrections approximate single elements of any real power; each approximation
ships with an a-priori error certificate derived from the binomial-series
tail of the power expansion.
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
    DriverLimits,
    WindowResult,
    approximate_element,
    convergence_table,
    evaluate_window,
    local_solve,
    zero_boundary,
)
from .errors import (
    BudgetExceededError,
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
from .series import (
    TruncationDepth,
    banded_depth_closed_form,
    integer_power_element,
    truncation_depth,
)

__version__ = "0.1.0"

__all__ = [
    "BoundarySpec",
    "BudgetExceededError",
    "Certificate",
    "ConfigError",
    "DegenerateWindowError",
    "DivergentSeriesError",
    "DomainError",
    "DriverLimits",
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
    "WindowResult",
    "approximate_element",
    "banded_depth_closed_form",
    "banded_spec",
    "binomial_coefficients",
    "certify",
    "convergence_table",
    "dispersion_integral_element",
    "evaluate_window",
    "finite_power",
    "fourier_symbol",
    "full_series_sum",
    "integer_power_element",
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
