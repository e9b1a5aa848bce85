"""Exception hierarchy shared by all finpow modules."""


class FinpowError(Exception):
    """Base class for all errors raised by finpow."""


class MalformedSpecError(FinpowError):
    """A row generator violated its declared contract (sparsity bound,
    duplicate columns, or Hermitian symmetry on the touched index set), or a
    Rayleigh quotient of the matrix left its declared spectral envelope."""


class InvalidBoundaryError(FinpowError):
    """Boundary correction entries outside the window corners, inconsistent
    with Hermitian symmetry, or producing a truncation that fails the
    spectrum validation."""


class DegenerateWindowError(FinpowError):
    """A window too small for the requested boundary construction."""


class NumericalFailureError(FinpowError):
    """A numerical routine failed: an eigendecomposition or the dispersion
    quadrature did not converge, the series terms do not decay in float, a
    bound, a carry or a value overflows a float, or the round-off of a sweep
    would leave no certain digit."""


class DomainError(FinpowError, ValueError):
    """Arguments outside the mathematical domain of an operation."""


class SingularityError(DomainError):
    """Negative power requested for a matrix with (near-)zero eigenvalues."""


class DivergentSeriesError(DomainError):
    """Tail series requested for alpha < 0 with lower spectral bound c = 0,
    where the bounding series does not converge: a negative power, or a
    local solve (alpha = -1), of a matrix whose envelope touches zero."""


class ConfigError(FinpowError):
    """A model configuration file failed to parse or validate.  The message
    names the offending field."""


class NotConvergedError(FinpowError):
    """The adaptive driver hit its dimension limit before reaching the
    requested tolerance.  Carries the best certificate found so far, or
    ``None`` when there is none (always for a local solve)."""

    def __init__(self, message, best_certificate=None):
        super().__init__(message)
        self.best_certificate = best_certificate
