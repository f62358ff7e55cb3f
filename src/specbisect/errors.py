"""Exception types shared across the package."""


class SpecBisectError(Exception):
    """Base class for all package errors."""


class DimensionError(SpecBisectError):
    """Matrix dimensions incompatible with the requested operation."""


class SingularMatrixError(SpecBisectError):
    """Matrix is singular to working precision.

    Carries the condition estimate ||A||_F ||A^-1||_F that failed the test,
    NaN for an exactly zero pivot, so callers can distinguish exact
    singularity from near-breakdown.
    """

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class ZeroColumnError(SpecBisectError):
    """A column that must be normalized has zero norm."""

    def __init__(self, message, column=None):
        super().__init__(message)
        self.column = column


class PreconditionError(SpecBisectError):
    """A documented caller contract was violated."""


class AmbiguousCountError(SpecBisectError):
    """Trace of the approximate sign function is too far from an integer."""

    def __init__(self, message, trace_value=None):
        super().__init__(message)
        self.trace_value = trace_value


class SplitFailureError(SpecBisectError):
    """No balanced bisecting grid line found in either orientation."""


class DeflationError(SpecBisectError):
    """Deflation output failed its orthonormality sanity check."""


class CertificationError(SpecBisectError):
    """Shattering certification failed after exhausting retries."""


class EigFailureError(SpecBisectError):
    """The recursive eigensolver aborted (probabilistic failure)."""
