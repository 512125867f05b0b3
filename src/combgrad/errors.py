"""Exception types shared across the package."""


class CombgradError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(CombgradError, ValueError):
    """An argument is outside the values the function accepts."""


class DimensionMismatch(CombgradError):
    """Array dimensions are inconsistent with the declared problem."""


class NonSquare(CombgradError):
    """Assignment cost matrices must be square."""


class NonFinite(CombgradError):
    """Input contains NaN or infinite entries."""


class Infeasible(CombgradError):
    """The feasible region is empty."""


class Unbounded(CombgradError):
    """The objective is unbounded below on the feasible region."""


class IterationLimit(CombgradError):
    """A solver ran out of its iteration budget before reaching an optimum."""


class DegenerateInstance(CombgradError):
    """The optimum is not unique (or the basis is degenerate), so a
    finite-difference check against a single witness is not meaningful."""


class TrainAborted(CombgradError):
    """Training stopped early because of a solver failure.

    Carries the metrics rows collected so far, so callers can persist the
    partial run before exiting.
    """

    def __init__(self, message, rows):
        super().__init__(message)
        self.rows = rows
