"""Exception types shared across the package."""

__all__ = ["ConvergenceError", "DataError", "IllConditionedError"]


class DataError(ValueError):
    """Raised when input data fail validation (malformed panel, bad config)."""


class IllConditionedError(RuntimeError):
    """Raised when a covariance matrix fails the positive-definiteness or
    conditioning checks required by the weighted projections."""


class ConvergenceError(RuntimeError):
    """Raised when an active-set iteration exceeds its iteration cap."""
