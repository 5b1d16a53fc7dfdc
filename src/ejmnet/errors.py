"""Exception types shared across the package, and the finiteness gate."""

import numpy as np


class DomainError(ValueError):
    """An input lies outside an operation's mathematical domain."""


class CapacityError(RuntimeError):
    """A requested computation exceeds the documented size bounds."""


class ValidationError(ValueError):
    """A constructed object violates one of its invariants."""

    def __init__(self, message, *, residual=None, detail=None):
        super().__init__(message)
        self.residual = residual
        self.detail = detail


def finite_array(values, what: str) -> np.ndarray:
    """``values`` as a new float array; ValidationError on any NaN or infinity.

    Every range check compares against NaN as false, so validators call this
    before checking signs or sums.
    """
    try:
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} must be a numeric array: {exc}") from exc
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what} must be finite")
    return arr


class NonDyadicError(ValidationError):
    """A probability has no dyadic form at the requested precision."""


class UnknownEventError(ValueError):
    """Event identifier not recognised by the event-probability engine."""
