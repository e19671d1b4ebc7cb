"""Exception hierarchy.

Every error raised on purpose by this package derives from VecSobolError,
so callers (and the CLI exit-code mapping) can distinguish our failures
from genuine bugs.
"""


class VecSobolError(Exception):
    """Base class for all errors raised by vecsobol."""


class ConfigurationError(VecSobolError, ValueError):
    """Invalid run configuration or distribution/model descriptor."""


class ContractError(VecSobolError, ValueError):
    """Caller violated an operation precondition (dimension mismatch, bad subset, ...)."""


class DegenerateModelError(VecSobolError):
    """Output covariance is singular; the model is rejected for index analysis."""


class DegenerateSampleError(VecSobolError):
    """Sample has (numerically) constant output; the estimator denominator vanishes."""


class IllPosedIndexError(VecSobolError):
    """The weighted total variance Tr(M Sigma) is too close to zero."""


class ResourceError(VecSobolError):
    """The exact method would exceed the configured grid/dimension budget."""


class ReportError(VecSobolError):
    """Report serialization failed (non-finite value or I/O problem)."""
