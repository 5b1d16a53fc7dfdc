"""Exception types, the input gates every validator uses, and the one symmetry detector."""

import functools
import itertools
import numbers

import numpy as np

# Entries this far below zero are rounding noise and get clamped; anything
# lower signals a contraction bug and is a hard error.
NEGATIVE_CLAMP = -1e-12

# How far a target may move under a candidate relabelling that still counts
# as one of its symmetries (the Bell LP's and the exhaustive search's groups).
SYMMETRY_ATOL = 1e-13

# The 48 candidate symmetries: candidate g applies the permutation
# CANDIDATE_RELABEL[g] of {0, 1, 2, 3} to every label at once and, where
# CANDIDATE_SWAP[g], swaps the parties (Bell LP) or reflects the triangle
# (search); each relabelling, in ascending base-4 order, comes first without
# the swap.  CANDIDATE_PRODUCT[g, h] is g after h: the composed relabelling,
# with the swap if exactly one of the two swaps.
_RELABELLINGS = np.array(list(itertools.permutations(range(4))))
CANDIDATE_RELABEL = np.repeat(_RELABELLINGS, 2, axis=0)
CANDIDATE_SWAP = np.tile([False, True], len(_RELABELLINGS))
_PLACES = 4 ** np.arange(3, -1, -1)
CANDIDATE_PRODUCT = np.searchsorted(
    2 * (CANDIDATE_RELABEL @ _PLACES) + CANDIDATE_SWAP,
    2 * (CANDIDATE_RELABEL[:, CANDIDATE_RELABEL] @ _PLACES) + (CANDIDATE_SWAP[:, None] ^ CANDIDATE_SWAP),
)
for _table in (CANDIDATE_RELABEL, CANDIDATE_SWAP, CANDIDATE_PRODUCT):
    _table.setflags(write=False)


@functools.lru_cache(maxsize=2)
def cell_perms(swap: tuple[int, ...]) -> np.ndarray:
    """Read-only (48, 4**k): candidate g moves flat cell a to cell ``[g, a]``.

    A cell is the base-4 index of k labels, the first most significant.  A
    swapping candidate puts label ``swap[i]`` in place i: (1, 0, 3, 2) for
    the Bell LP's rows [x, y, a, b], (0, 2, 1) for the triangle's outcomes.
    """
    labels = np.array(np.unravel_index(np.arange(4 ** len(swap)), (4,) * len(swap)))
    placed = np.where(CANDIDATE_SWAP[:, None, None], labels[list(swap)], labels)
    moved = CANDIDATE_RELABEL[np.arange(48)[:, None, None], placed]
    perms = 4 ** np.arange(len(swap) - 1, -1, -1) @ moved
    perms.setflags(write=False)
    return perms


def symmetry_group(values: np.ndarray, swap: tuple[int, ...]) -> np.ndarray:
    """The candidates of :func:`cell_perms` that move the flat ``values`` by at most ``SYMMETRY_ATOL``.

    A set of candidates that is not closed under ``CANDIDATE_PRODUCT`` is no
    group, and only the identity, candidate 0, is returned.
    """
    group = np.flatnonzero(np.max(np.abs(values[cell_perms(swap)] - values), axis=1) <= SYMMETRY_ATOL)
    closed = np.isin(CANDIDATE_PRODUCT[np.ix_(group, group)], group).all()
    return group if closed else np.zeros(1, dtype=int)


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


class UnknownEventError(ValueError):
    """Event identifier not recognised by the event-probability engine."""
