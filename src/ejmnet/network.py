"""Outcome statistics of singlet chains and rings under two-qubit measurements.

Two independent computation routes are provided.  The direct route builds
the full many-qubit state and applies every party's basis projectors; it is
exact but limited to 8 parties.  The transfer-matrix route contracts one
2x2 matrix per party and scales to 64 parties, answering event queries
(all outcomes equal, a prefix equal, or one specific outcome tuple).  The
two routes must agree wherever both apply.

Conventions.  Sources are singlets.  On a ring with N parties, source i
links party i to party i+1 (mod N), and party i measures (left, right) =
(second qubit of source i-1, first qubit of source i).  On an open line
with N parties there are N+1 sources; party i measures (second qubit of
source i, first qubit of source i+1), leaving the first qubit of source 0
and the second qubit of source N dangling.  Dangling qubits are traced out.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bases import TwoQubitBasis
from .errors import (
    NEGATIVE_CLAMP,
    CapacityError,
    DomainError,
    UnknownEventError,
    ValidationError,
    finite_array,
    integer_in_range,
    probability_array,
)
from .linalg import SQRT3, singlet, tensor

OPEN_LINE = "line"
POLYGON = "polygon"

# Full 4**N tables are only built up to this many parties.
MAX_NAIVE_PARTIES = 8
# Rows per BLAS call of the direct contraction.  OpenBLAS runs a complex
# (M, 4) @ (4, 4) product on the calling thread alone while M < 4096; at
# M >= 4096 it wakes a second thread, and waking it stalled some calls by
# tens of milliseconds on a 2-core VM.
NAIVE_BLOCK_ROWS = 2048
# Transfer-matrix event queries are supported up to this many parties.
MAX_EVENT_PARTIES = 64

NORMALIZATION_ATOL = 1e-9

# A dyadic field needs p within min(DYADIC_ATOL, DYADIC_RTOL * max(p, 2**-k))
# of its 2**-k grid point, 8 ulps of 1 or 2**10 ulps of a small p: genuine
# fields sit within 144 ulps of p, irrational mp entries near the grid 6e5.
# Still evidence, not proof: an irrational p falls within DYADIC_ATOL with
# probability ~DYADIC_ATOL * 2**(k+1), ~4e-3 at k = 40 and certainty at
# k = 48, so no field is emitted on a grid finer than 2**-MAX_DYADIC_EXPONENT.
DYADIC_ATOL = 8 * np.finfo(float).eps
DYADIC_RTOL = 2.0**-42
MAX_DYADIC_EXPONENT = 40

ALL_EQUAL = "all-equal"
PREFIX_EQUAL = "prefix-equal"


@dataclass(frozen=True)
class NetworkTopology:
    """An open chain or a closed ring of parties joined by singlets."""

    kind: str
    n_parties: int

    def __post_init__(self):
        if self.kind not in (OPEN_LINE, POLYGON):
            raise DomainError(f"kind must be {OPEN_LINE!r} or {POLYGON!r}, got {self.kind!r}")
        minimum = 1 if self.kind == OPEN_LINE else 2
        n = integer_in_range(self.n_parties, f"{self.kind} party count", minimum)
        object.__setattr__(self, "n_parties", n)

    @property
    def n_sources(self) -> int:
        return self.n_parties + 1 if self.kind == OPEN_LINE else self.n_parties

    def party_sources(self, i: int) -> tuple[int, int]:
        """Indices of the (left, right) sources read by party ``i``."""
        if self.kind == POLYGON:
            return (i - 1) % self.n_parties, i
        return i, i + 1


def open_line(n_parties: int) -> NetworkTopology:
    return NetworkTopology(OPEN_LINE, n_parties)


def polygon(n_parties: int) -> NetworkTopology:
    return NetworkTopology(POLYGON, n_parties)


@dataclass(frozen=True)
class JointDistribution:
    """Probability table over outcome tuples in {1,2,3,4}^N.

    ``probs`` is an N-dimensional array indexed by zero-based outcomes.
    """

    topology: NetworkTopology
    basis_label: str
    probs: np.ndarray

    def __post_init__(self):
        arr = finite_array(self.probs, "probabilities")
        if arr.shape != (4,) * self.topology.n_parties:
            raise DomainError(
                f"probability table shape {arr.shape} does not match "
                f"{self.topology.n_parties} parties"
            )
        arr = probability_array(arr, "probabilities", atol=NORMALIZATION_ATOL)
        object.__setattr__(self, "probs", arr)

    @property
    def n_parties(self) -> int:
        return self.topology.n_parties


@dataclass(frozen=True)
class DyadicProbability:
    """Exact probability numerator / 2**log2_denominator, in lowest terms."""

    numerator: int
    log2_denominator: int

    @property
    def value(self) -> float:
        return math.ldexp(float(self.numerator), -self.log2_denominator)

    def __str__(self) -> str:
        return f"{self.numerator}*2^-{self.log2_denominator}"


def _reduced_dyadic(numerator: int, log2_denominator: int) -> DyadicProbability:
    num, k = int(numerator), int(log2_denominator)
    if num == 0:
        return DyadicProbability(0, 0)
    twos = min((num & -num).bit_length() - 1, k)
    return DyadicProbability(num >> twos, k - twos)


def dyadic_columns(p, log2_denominator: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The dyadic gate, over a whole array of probabilities at once.

    Rounds each ``p * 2**log2_denominator`` half-to-even to the nearest
    integer and returns ``(ok, num, log2den)``: the grid point
    ``num / 2**log2den`` in lowest terms for every entry (0 maps to
    ``(0, 0)``), and ``ok`` where ``p`` lies within the dyadic tolerance of it.
    """
    k = integer_in_range(log2_denominator, "log2_denominator", 0, 1022)
    p = np.asarray(p, dtype=float)
    inside = (p >= NEGATIVE_CLAMP) & (p <= 1.0 - NEGATIVE_CLAMP)
    if not inside.all():
        raise DomainError(f"probability out of [0, 1]: {p[~inside].flat[0]}")
    p = np.clip(p, 0.0, 1.0)
    scaled = np.rint(np.ldexp(p, k))
    tolerance = np.minimum(DYADIC_ATOL, DYADIC_RTOL * np.maximum(p, math.ldexp(1.0, -k)))
    ok = np.abs(p - np.ldexp(scaled, -k)) <= tolerance
    # scaled = mantissa * 2**(exponent - 53) with an integer mantissa below
    # 2**53, which fits int64 for any k; ``m & -m`` is its lowest set bit.
    fraction, exponent = np.frexp(scaled)
    mantissa = np.ldexp(fraction, 53).astype(np.int64)
    low = np.where(mantissa == 0, 1, mantissa & -mantissa)
    num = mantissa // low
    twos = exponent - 53 + np.frexp(low)[1] - 1
    log2den = np.where(num == 0, 0, k - twos)
    return ok, num, log2den


def dyadic_fields(probs, n_parties: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(ok, num, log2den)`` of the dyadic fields emitted for n-party probabilities.

    They are sought on the 2**-(4N+4) grid (ring tables live on 2**-(4N-2),
    line tables need a little more headroom); past ``MAX_DYADIC_EXPONENT``
    no entry gets one.
    """
    k = 4 * n_parties + 4
    ok, num, log2den = dyadic_columns(probs, k)
    return ok & (k <= MAX_DYADIC_EXPONENT), num, log2den


# ---------------------------------------------------------------------------
# Direct contraction


def joint_distribution_naive(top: NetworkTopology, basis: TwoQubitBasis) -> JointDistribution:
    """Full outcome table by contracting the tensor product of all singlets.

    Builds the 2**(2 n_sources) state, applies each party's conjugated basis
    states on its qubit pair, and squares amplitudes; dangling line qubits
    are summed out at the end.
    """
    n = top.n_parties
    if n > MAX_NAIVE_PARTIES:
        raise CapacityError(
            f"full tables are limited to {MAX_NAIVE_PARTIES} parties, got {n}"
        )
    state = singlet()
    for _ in range(top.n_sources - 1):
        state = tensor(state, singlet())
    out = state.reshape((2,) * (2 * top.n_sources))

    labels = []
    for j in range(top.n_sources):
        labels += [("f", j), ("s", j)]
    # One column per outcome: its conjugated basis state over (left, right) qubits.
    projectors = basis.states.conj().T.copy()

    for i in range(n):
        left, right = top.party_sources(i)
        pl, pr = labels.index(("s", left)), labels.index(("f", right))
        # Qubit axes always precede accumulated outcome axes, so positions in
        # `labels` are positions in the array.
        rest = [k for k in range(out.ndim) if k not in (pl, pr)]
        rows = out.transpose(rest + [pl, pr]).reshape(-1, 4)
        # One stacked product over blocks of at most NAIVE_BLOCK_ROWS rows keeps
        # each BLAS call on the calling thread.  This sizes the calls; it pins
        # no thread count.
        blocks = rows.reshape(-1, min(len(rows), NAIVE_BLOCK_ROWS), 4)
        out = (blocks @ projectors).reshape([out.shape[k] for k in rest] + [4])
        labels = [lab for k, lab in enumerate(labels) if k not in (pl, pr)]

    probs = np.abs(out) ** 2
    if top.kind == OPEN_LINE:
        probs = probs.sum(axis=(0, 1))
    return JointDistribution(top, basis.label, probs)


# ---------------------------------------------------------------------------
# Transfer-matrix route


def transfer_matrices(basis: TwoQubitBasis) -> np.ndarray:
    """Per-outcome 2x2 matrices K_a = conj(state_a) * singlet, as (4, 2, 2).

    Chained in party order, their trace (ring) or Frobenius norm against the
    dangling boundary (line) yields outcome-tuple amplitudes.
    """
    e = singlet().reshape(2, 2)
    return np.array([s.conj().reshape(2, 2) @ e for s in basis.states])


def _parse_event(event, n_parties: int) -> int | tuple[int, ...]:
    """The length of the prefix an equality event spans, or a tuple event's zero-based outcomes."""
    if isinstance(event, str) and event == ALL_EQUAL:
        return n_parties
    if isinstance(event, (tuple, list)):
        if len(event) == 2 and event[0] == PREFIX_EQUAL:
            return integer_in_range(event[1], "prefix length", 1, n_parties)
        if all(isinstance(a, numbers.Integral) for a in event):
            if len(event) != n_parties:
                raise DomainError(f"outcome tuple {tuple(event)} does not have {n_parties} entries")
            return tuple(integer_in_range(a, "outcome", 1, 4) - 1 for a in event)
    raise UnknownEventError(f"unknown event {event!r}")


def _clamped(p: float) -> float:
    """``p`` clipped to [0, 1]; ValidationError if it lies outside by more than the clamp."""
    if not NEGATIVE_CLAMP <= p <= 1.0 - NEGATIVE_CLAMP:
        raise ValidationError(f"event probability {p} outside [0, 1] by more than the clamp", residual=p)
    return min(max(p, 0.0), 1.0)


def event_probability(top: NetworkTopology, basis: TwoQubitBasis, event) -> float:
    """Probability of an outcome event via 2x2 transfer-matrix contraction.

    ``event`` is "all-equal", ("prefix-equal", k) for the first k outcomes
    equal, or an outcome tuple such as (1, 3, 2); anything else raises
    UnknownEventError.  Works for up to 64 parties and agrees with the sum
    over :func:`joint_distribution_naive` wherever both apply.
    """
    n = top.n_parties
    if n > MAX_EVENT_PARTIES:
        raise CapacityError(f"event queries are limited to {MAX_EVENT_PARTIES} parties")
    parsed = _parse_event(event, n)
    kmats = transfer_matrices(basis)

    if isinstance(parsed, tuple):
        prod = np.eye(2, dtype=complex)
        for a in parsed:
            prod = prod @ kmats[a]
        if top.kind == POLYGON:
            return _clamped(abs(np.trace(prod)) ** 2)
        return _clamped(0.5 * float(np.linalg.norm(prod) ** 2))

    n_prefix = parsed
    # D_a = K_a kron conj(K_a) for all four outcomes in one broadcast product.
    doubled = (kmats[:, :, None, :, None] * kmats.conj()[:, None, :, None, :]).reshape(4, 4, 4)
    rest = np.linalg.matrix_power(doubled.sum(axis=0), n - n_prefix)
    boundary = np.array([1.0, 0.0, 0.0, 1.0])
    total = 0.0
    for d in doubled:
        chain = np.linalg.matrix_power(d, n_prefix) @ rest
        if top.kind == POLYGON:
            total += float(np.real(np.trace(chain)))
        else:
            total += 0.5 * float(np.real(boundary @ chain @ boundary))
    return _clamped(total)


# ---------------------------------------------------------------------------
# Closed forms for the all-equal event (EJM measurements)


def closed_form_line(n: int) -> float:
    """All-equal probability for n parties measuring EJM on an open chain."""
    n = integer_in_range(n, "n", 1, MAX_EVENT_PARTIES)
    value = (SQRT3 + 1.0) ** (2 * n) + (SQRT3 - 1.0) ** (2 * n)
    return value / 2.0 ** (4 * n - 1)


def closed_form_polygon(n: int) -> float:
    """All-equal probability for n parties measuring EJM on a ring."""
    n = integer_in_range(n, "n", 2, MAX_EVENT_PARTIES)
    trace = (-SQRT3 - 1.0) ** n + (SQRT3 - 1.0) ** n
    return trace * trace / 4.0 ** (2 * n - 1)


def conditional_all_equal(n: int) -> float:
    """P(the n-th ring outcome equals the rest | the other n-1 all equal).

    Converges rapidly to (2 + sqrt(3))/4 ~ 0.93301 as n grows.
    """
    n = integer_in_range(n, "n", 3, MAX_EVENT_PARTIES)
    return closed_form_polygon(n) / closed_form_line(n - 1)


def _lucas(p: int, q: int, n: int) -> int:
    """x_n of the integer recurrence x_k = p x_{k-1} - q x_{k-2}, x_0 = 2, x_1 = p.

    It is the sum of the n-th powers of the roots of t^2 - p t + q:
    (4 +/- 2 sqrt3)^n for (p, q) = (8, 4) and (-1 +/- sqrt3)^n for (-2, -2).
    """
    a, b = 2, p
    for _ in range(n):
        a, b = b, p * b - q * a
    return a


def line_all_equal_dyadic(n: int) -> DyadicProbability:
    """Exact dyadic form of :func:`closed_form_line` via integer recurrence."""
    n = integer_in_range(n, "n", 1, MAX_EVENT_PARTIES)
    return _reduced_dyadic(_lucas(8, 4, n), 4 * n - 1)


def polygon_all_equal_dyadic(n: int) -> DyadicProbability:
    """Exact dyadic form of :func:`closed_form_polygon` via integer recurrence."""
    n = integer_in_range(n, "n", 2, MAX_EVENT_PARTIES)
    return _reduced_dyadic(_lucas(-2, -2, n) ** 2, 4 * n - 2)


def conditional_all_equal_fraction(n: int) -> Fraction:
    """Exact rational form of the ring conditional; defined for n >= 2."""
    n = integer_in_range(n, "n", 2, MAX_EVENT_PARTIES)
    return Fraction(_lucas(-2, -2, n) ** 2, 8 * _lucas(8, 4, n - 1))


# ---------------------------------------------------------------------------
# Coincidence statistics


@dataclass(frozen=True)
class CoincidenceStats:
    """Pair/triple coincidence rates and the coincidence-pattern breakdown.

    ``p_cond_pair`` averages P(a1 = k | a2 = k) over outcomes k that occur;
    ``p_cond_triple`` does the same for P(a1 = k | a2 = a3 = k).  Pattern
    keys canonically relabel outcome tuples by order of first appearance,
    e.g. "0-0-1" collects every tuple whose first two entries coincide.
    """

    p_pair_equal: float
    p_all_equal: float
    p_cond_pair: float
    p_cond_triple: float | None
    pattern_classes: dict


def coincidence_stats(dist: JointDistribution) -> CoincidenceStats:
    """Summary statistics of a joint outcome distribution (2 or more parties)."""
    n = dist.n_parties
    if n < 2:
        raise DomainError("coincidence statistics need at least two parties")
    probs = dist.probs

    pair = probs.sum(axis=tuple(range(2, n)))
    p_pair_equal = float(np.trace(pair))
    marginal_second = pair.sum(axis=0)
    conds = [
        pair[k, k] / marginal_second[k] for k in range(4) if marginal_second[k] > 0
    ]
    p_cond_pair = float(np.mean(conds))

    p_all_equal = float(sum(probs[(k,) * n] for k in range(4)))

    p_cond_triple = None
    if n >= 3:
        triple = probs.sum(axis=tuple(range(3, n)))
        pair23 = triple.sum(axis=0)
        conds3 = [
            triple[k, k, k] / pair23[k, k] for k in range(4) if pair23[k, k] > 0
        ]
        if conds3:
            p_cond_triple = float(np.mean(conds3))

    return CoincidenceStats(
        p_pair_equal=p_pair_equal,
        p_all_equal=p_all_equal,
        p_cond_pair=p_cond_pair,
        p_cond_triple=p_cond_triple,
        pattern_classes=_pattern_classes(probs),
    )


def _pattern_classes(probs: np.ndarray) -> dict:
    """Count, total, min and max of p over each coincidence pattern.

    Keys appear in order of their first member in C order, as a loop over
    the table would insert them; ``ufunc.at`` applies in index order, so
    each total is the loop's left-to-right sum.
    """
    n = probs.ndim
    outcomes = np.indices(probs.shape, dtype=np.int8).reshape(n, -1)
    # Relabel every tuple by order of first appearance: a party copies the
    # label of an earlier party with its outcome, or takes the next new one.
    canon = np.empty_like(outcomes)
    new_label = np.zeros(outcomes.shape[1], dtype=np.int8)
    for j in range(n):
        label = np.full(outcomes.shape[1], -1, dtype=np.int8)
        for i in range(j):
            np.copyto(label, canon[i], where=outcomes[i] == outcomes[j])
        new = label < 0
        label[new] = new_label[new]
        new_label += new
        canon[j] = label
    # A pattern's first member is the tuple of its own labels, so ascending
    # flat indices of the patterns are first-appearance order.
    _, first, classes = np.unique(
        np.ravel_multi_index(canon, probs.shape), return_index=True, return_inverse=True
    )
    p = probs.ravel()
    totals = np.zeros(len(first))
    lows = np.full(len(first), math.inf)
    highs = np.full(len(first), -math.inf)
    np.add.at(totals, classes, p)
    np.minimum.at(lows, classes, p)
    np.maximum.at(highs, classes, p)
    return {
        "-".join(map(str, key)): {"count": c, "total": t, "min": lo, "max": hi}
        for key, c, t, lo, hi in zip(
            canon[:, first].T.tolist(),
            np.bincount(classes).tolist(),
            totals.tolist(),
            lows.tolist(),
            highs.tolist(),
        )
    }


# ---------------------------------------------------------------------------
# Table 2


def table2_rows(max_n: int = 10) -> list[dict]:
    """All-equal probabilities for chains and rings up to ``max_n`` parties.

    Columns: N, line, polygon, conditional; floats are accompanied by exact
    dyadic/rational strings.  Ring columns start at N = 2.
    """
    max_n = integer_in_range(max_n, "max_n", 1, MAX_EVENT_PARTIES)
    rows = []
    for n in range(1, max_n + 1):
        line = line_all_equal_dyadic(n)
        row = {
            "N": n,
            "line": line.value,
            "line_exact": str(line),
            "polygon": None,
            "polygon_exact": "",
            "conditional": None,
            "conditional_exact": "",
        }
        if n >= 2:
            poly = polygon_all_equal_dyadic(n)
            cond = conditional_all_equal_fraction(n)
            row.update(
                polygon=poly.value,
                polygon_exact=str(poly),
                conditional=float(cond),
                conditional_exact=f"{cond.numerator}/{cond.denominator}",
            )
        rows.append(row)
    return rows
