"""Exception types shared across the package, and the input gates every validator uses."""

import numbers

import numpy as np

# Entries this far below zero are rounding noise and get clamped; anything
# lower signals a contraction bug and is a hard error.
NEGATIVE_CLAMP = -1e-12


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


def integer_in_range(value, what: str, low: int, high: int | None = None) -> int:
    """``value`` as an int; DomainError unless it is an integer in ``low..high``.

    ``high=None`` leaves the range open above.  numpy integers pass; floats,
    strings, ``bool`` and other non-``numbers.Integral`` values do not, even
    2.0 or True.
    """
    bound = f">= {low}" if high is None else f"in {low}..{high}"
    if (
        not isinstance(value, numbers.Integral)
        or isinstance(value, bool)
        or value < low
        or (high is not None and value > high)
    ):
        raise DomainError(f"{what} must be an integer {bound}, got {value!r}")
    return int(value)


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


def probability_array(values, what: str, *, axis=None, atol: float) -> np.ndarray:
    """``values`` as a read-only array of probabilities summing to 1 over ``axis``.

    Non-finite or empty input raises ValidationError.  An entry below
    ``NEGATIVE_CLAMP`` raises ValidationError with that entry as
    ``residual``; the rest are clamped to 0, and a sum over ``axis`` (all
    axes when None) more than ``atol`` away from 1 raises with the worst
    deviation as ``residual``.  Callers that check a shape first pass the
    :func:`finite_array` result.
    """
    arr = finite_array(values, what)
    if arr.size == 0:
        raise ValidationError(f"{what} must not be empty")
    low = float(arr.min())
    if low < NEGATIVE_CLAMP:
        raise ValidationError(
            f"{what}: entry {low} below the clamping threshold {NEGATIVE_CLAMP}", residual=low
        )
    arr = np.maximum(arr, 0.0)
    # Finite entries near the float maximum sum to inf, which fails the check below.
    with np.errstate(over="ignore"):
        worst = float(np.max(np.abs(arr.sum(axis=axis) - 1.0)))
    if worst > atol:
        raise ValidationError(f"{what} must sum to 1 (worst deviation {worst})", residual=worst)
    arr.setflags(write=False)
    return arr


class NonDyadicError(ValidationError):
    """A probability has no dyadic form at the requested precision."""


class UnknownEventError(ValueError):
    """Event identifier not recognised by the event-probability engine."""
