"""Exception types shared across the library."""


class PruneError(Exception):
    """Base class for all library errors."""


class ConfigError(PruneError, ValueError):
    """A pruning configuration value is out of range or inconsistent."""


class DimensionError(PruneError):
    """Shapes of the supplied operands do not agree."""


class IndefiniteHessianError(PruneError):
    """The (dampened) Hessian is not positive definite.

    ``pivot`` is the zero-based index of the first failing Cholesky pivot,
    or None when the failure was detected some other way.
    """

    def __init__(self, message, pivot=None):
        super().__init__(message)
        self.pivot = pivot


class NumericOverflowError(PruneError):
    """A non-finite value was found in the input or appeared during pruning.

    ``block`` is the zero-based index of the column block being processed,
    or None when the value came with the input.
    """

    def __init__(self, message, block=None):
        super().__init__(message)
        self.block = block


class SingularOracleError(PruneError):
    """The kept-column submatrix handed to the exact oracle is singular."""


class OracleScaleError(PruneError):
    """A brute-force oracle was asked to run beyond its size cap."""
