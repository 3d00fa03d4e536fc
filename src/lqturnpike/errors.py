"""Exception types shared across the package."""


class LqTurnpikeError(Exception):
    """Base class for every error raised by this package."""


class InputError(LqTurnpikeError):
    """Base class of the errors in a caller's input; the CLI exits 2 on them."""


class DimensionError(InputError, ValueError):
    """Matrix or vector dimensions are inconsistent."""


class NonFiniteError(InputError, ValueError):
    """An input contains NaN or infinite entries."""


class ResolventError(InputError, ValueError):
    """The resolvent scaling parameter k is invalid (kI - A is singular
    or k does not exceed the spectral abscissa of A)."""


class UniquenessError(InputError):
    """The stationary KKT system is rank deficient, so the optimal triple
    is not unique."""

    def __init__(self, message, rank=None, full_rank=None):
        super().__init__(message)
        self.rank = rank
        self.full_rank = full_rank


class NotStabilizableError(LqTurnpikeError):
    """No stable invariant subspace of the expected dimension exists, so
    the algebraic Riccati equation has no stabilizing solution."""


class ConvergenceError(LqTurnpikeError):
    """An iterative refinement failed to reach the requested tolerance."""


class IntegrationError(LqTurnpikeError):
    """A time integration diverged (norm blow-up)."""


class GridMismatchError(InputError, ValueError):
    """Sampled data is off the expected time grid, or the grid is too coarse."""


class UndefinedRateError(LqTurnpikeError, ValueError):
    """A decay rate cannot be fitted (e.g. the series is identically zero)."""


class ProblemSizeError(InputError):
    """A Riccati pass would hold more samples than its memory cap allows.

    The solvers check ``operators.check_sample_memory`` before they form
    their flow, so a refused problem costs nothing; the CLI exits 2.
    """


class ConfigError(InputError, ValueError):
    """An experiment configuration is malformed or violates an invariant."""
