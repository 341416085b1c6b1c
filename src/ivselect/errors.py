"""Exception types shared across the package."""


class IVSelectError(Exception):
    """Base class for all package errors."""


class DimensionError(IVSelectError, ValueError):
    """Input arrays have inconsistent or invalid shapes."""


class RankDeficiencyError(IVSelectError, ValueError):
    """Design matrix is rank deficient; carries the offending column labels."""

    def __init__(self, columns, message=None):
        self.columns = list(columns)
        if message is None:
            message = "linearly dependent columns: " + ", ".join(self.columns)
        super().__init__(message)


class DegenerateFirstStageError(IVSelectError, ValueError):
    """The first-stage projection D'P_Z D is numerically zero."""


class CovarianceError(IVSelectError, ValueError):
    """A covariance estimate is not symmetric positive definite."""


class BranchError(IVSelectError, ValueError):
    """An operation was requested on the wrong side of the pre-test."""


class SamplerError(IVSelectError, RuntimeError):
    """An engine cannot run on its law (no Gaussian randomization, a
    non-finite density) or failed a sanity check."""


class TruncationError(IVSelectError, ValueError):
    """The conditioning event has (numerically) zero probability."""


class QuadratureError(IVSelectError, RuntimeError):
    """Numerical integration failed its self-consistency check."""


class ConvergenceError(IVSelectError, RuntimeError):
    """An iterative solver exhausted its iteration budget."""


class DataError(IVSelectError, ValueError):
    """Input data failed parsing or validation; message carries the location."""


class ExperimentError(IVSelectError, RuntimeError):
    """A simulation experiment could not produce enough usable replications."""
