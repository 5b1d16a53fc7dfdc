"""Exception types, the input gates every validator uses, and the one symmetry detector."""

import itertools
import numbers

import numpy as np

# Entries this far below zero are rounding noise and get clamped; anything
# lower signals a contraction bug and is a hard error.
NEGATIVE_CLAMP = -1e-12

# How far a target may move under a candidate relabelling that still counts
# as one of its symmetries (the Bell LP's and the exhaustive search's groups).
SYMMETRY_ATOL = 1e-13

# The relabellings of {0, 1, 2, 3}, in ascending base-4 order.  Candidate
# symmetry g applies RELABELLINGS[g // 2] to every label at once and, for
# odd g, also swaps the parties (Bell LP) or reflects the triangle (search).
RELABELLINGS = np.array(list(itertools.permutations(range(4))))
RELABELLINGS.setflags(write=False)


def symmetry_group(values: np.ndarray, cell_perms: np.ndarray) -> np.ndarray:
    """The candidates that move the flat ``values`` by at most ``SYMMETRY_ATOL``.

    ``cell_perms`` is the caller's (48, n) table: candidate g moves cell a
    to cell ``cell_perms[g, a]``.  A set of candidates that is not closed
    under composition is no group, and only the identity, candidate 0, is
    returned.
    """
    group = np.flatnonzero(np.max(np.abs(values[cell_perms] - values), axis=1) <= SYMMETRY_ATOL)
    # Candidate g after candidate h relabels by s_g . s_h and swaps (or
    # reflects) if exactly one of them does.
    relabel, swap = np.divmod(group, 2)
    places = 4 ** np.arange(3, -1, -1)
    composed = RELABELLINGS[relabel][:, RELABELLINGS[relabel]] @ places
    products = 2 * np.searchsorted(RELABELLINGS @ places, composed) + (swap[:, None] ^ swap)
    return group if np.isin(products, group).all() else np.zeros(1, dtype=int)


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
