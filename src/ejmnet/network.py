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
    NonDyadicError,
    UnknownEventError,
    ValidationError,
    finite_array,
    probability_array,
)
from .linalg import SQRT3, singlet, tensor

OPEN_LINE = "line"
POLYGON = "polygon"

# Full 4**N tables are only built up to this many parties.
MAX_NAIVE_PARTIES = 8
# Transfer-matrix event queries are supported up to this many parties.
MAX_EVENT_PARTIES = 64

NORMALIZATION_ATOL = 1e-9

ALL_EQUAL = "all-equal"
PREFIX_EQUAL = "prefix-equal"
SPECIFIC = "specific"


@dataclass(frozen=True)
class NetworkTopology:
    """An open chain or a closed ring of parties joined by singlets."""

    kind: str
    n_parties: int

    def __post_init__(self):
        if self.kind not in (OPEN_LINE, POLYGON):
            raise DomainError(f"kind must be {OPEN_LINE!r} or {POLYGON!r}, got {self.kind!r}")
        if not isinstance(self.n_parties, numbers.Integral):
            raise DomainError(f"n_parties must be an integer, got {self.n_parties!r}")
        minimum = 1 if self.kind == OPEN_LINE else 2
        if self.n_parties < minimum:
            raise DomainError(
                f"{self.kind} topology needs at least {minimum} parties, got {self.n_parties}"
            )

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

    ``probs`` is an N-dimensional array indexed by zero-based outcomes;
    :meth:`prob` accepts the one-based tuples used everywhere in reports.
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

    def prob(self, outcome) -> float:
        return float(self.probs[_outcome_index(outcome, self.n_parties)])


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


def _outcome_index(outcome, n_parties: int) -> tuple[int, ...]:
    values = tuple(int(a) for a in outcome)
    if len(values) != n_parties:
        raise DomainError(f"outcome tuple {values} does not have {n_parties} entries")
    if any(a < 1 or a > 4 for a in values):
        raise DomainError(f"outcomes must lie in 1..4, got {values}")
    return tuple(a - 1 for a in values)


def _reduced_dyadic(numerator: int, log2_denominator: int) -> DyadicProbability:
    num, k = int(numerator), int(log2_denominator)
    if num == 0:
        return DyadicProbability(0, 0)
    while num % 2 == 0 and k > 0:
        num //= 2
        k -= 1
    return DyadicProbability(num, k)


def dyadic_reconstruct(p: float, log2_denominator: int) -> DyadicProbability:
    """Recover the exact dyadic rational behind a float probability.

    Rounds ``p * 2**log2_denominator`` to the nearest integer and fails
    with NonDyadicError when the residual is 1e-6 or larger; the result is
    reduced to lowest terms.
    """
    if log2_denominator < 0 or log2_denominator > 1022:
        raise DomainError(f"log2_denominator out of range: {log2_denominator}")
    if not NEGATIVE_CLAMP <= p <= 1.0 - NEGATIVE_CLAMP:
        raise DomainError(f"probability out of [0, 1]: {p}")
    p = min(max(float(p), 0.0), 1.0)
    numerator = round(math.ldexp(p, log2_denominator))
    residual = abs(p - math.ldexp(numerator, -log2_denominator))
    if residual >= 1e-6:
        raise NonDyadicError(
            f"{p} is not n/2^{log2_denominator} (residual {residual:.3g})",
            residual=residual,
        )
    return _reduced_dyadic(numerator, log2_denominator)


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
    projectors = basis.states.conj().reshape(4, 2, 2)

    for i in range(n):
        left, right = top.party_sources(i)
        pl, pr = labels.index(("s", left)), labels.index(("f", right))
        # Qubit axes always precede accumulated outcome axes, so positions in
        # `labels` are positions in the array.
        out = np.tensordot(out, projectors, axes=([pl, pr], [1, 2]))
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


def _parse_event(event, n_parties: int):
    if isinstance(event, str):
        if event in (ALL_EQUAL, "all_equal"):
            return ALL_EQUAL, None
        raise UnknownEventError(f"unknown event {event!r}")
    if isinstance(event, (tuple, list)) and len(event) == 2 and event[0] in (
        PREFIX_EQUAL,
        "prefix_equal",
    ):
        n_prefix = int(event[1])
        if not 1 <= n_prefix <= n_parties:
            raise DomainError(f"prefix length {n_prefix} out of 1..{n_parties}")
        return PREFIX_EQUAL, n_prefix
    if isinstance(event, (tuple, list)) and len(event) == 2 and event[0] == SPECIFIC:
        return SPECIFIC, _outcome_index(event[1], n_parties)
    if isinstance(event, (tuple, list)) and all(isinstance(a, (int, np.integer)) for a in event):
        return SPECIFIC, _outcome_index(event, n_parties)
    raise UnknownEventError(f"unknown event {event!r}")


def _clamped(p: float) -> float:
    if p < NEGATIVE_CLAMP:
        raise ValidationError(f"event probability {p} below clamp threshold", residual=p)
    return min(max(p, 0.0), 1.0)


def event_probability(top: NetworkTopology, basis: TwoQubitBasis, event) -> float:
    """Probability of an outcome event via 2x2 transfer-matrix contraction.

    ``event`` is "all-equal", ("prefix-equal", n), ("specific", tuple), or a
    bare outcome tuple.  Works for up to 64 parties and agrees with the sum
    over :func:`joint_distribution_naive` wherever both apply.
    """
    n = top.n_parties
    if n > MAX_EVENT_PARTIES:
        raise CapacityError(f"event queries are limited to {MAX_EVENT_PARTIES} parties")
    kind, arg = _parse_event(event, n)
    kmats = transfer_matrices(basis)

    if kind == SPECIFIC:
        prod = np.eye(2, dtype=complex)
        for a in arg:
            prod = prod @ kmats[a]
        if top.kind == POLYGON:
            return _clamped(abs(np.trace(prod)) ** 2)
        return _clamped(0.5 * float(np.linalg.norm(prod) ** 2))

    n_prefix = n if kind == ALL_EQUAL else arg
    doubled = np.array([np.kron(k, k.conj()) for k in kmats])
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


def _check_range(value: int, low: int, high: int, name: str):
    if not low <= value <= high:
        raise DomainError(f"{name} must lie in {low}..{high}, got {value}")


def closed_form_line(n: int) -> float:
    """All-equal probability for n parties measuring EJM on an open chain."""
    _check_range(n, 1, 64, "n")
    value = (SQRT3 + 1.0) ** (2 * n) + (SQRT3 - 1.0) ** (2 * n)
    return value / 2.0 ** (4 * n - 1)


def closed_form_polygon(n: int) -> float:
    """All-equal probability for n parties measuring EJM on a ring."""
    _check_range(n, 2, 64, "n")
    trace = (-SQRT3 - 1.0) ** n + (SQRT3 - 1.0) ** n
    return trace * trace / 4.0 ** (2 * n - 1)


def conditional_all_equal(n: int) -> float:
    """P(the n-th ring outcome equals the rest | the other n-1 all equal).

    Converges rapidly to (2 + sqrt(3))/4 ~ 0.93301 as n grows.
    """
    _check_range(n, 3, 64, "n")
    return closed_form_polygon(n) / closed_form_line(n - 1)


def _line_numerator(n: int) -> int:
    # (4 + 2 sqrt3)^n + (4 - 2 sqrt3)^n, integer by the recurrence
    # x_k = 8 x_{k-1} - 4 x_{k-2}.
    a, b = 2, 8
    if n == 0:
        return a
    for _ in range(n - 1):
        a, b = b, 8 * b - 4 * a
    return b


def _ring_trace_numerator(n: int) -> int:
    # (-sqrt3 - 1)^n + (sqrt3 - 1)^n, integer by t_k = -2 t_{k-1} + 2 t_{k-2}.
    a, b = 2, -2
    if n == 0:
        return a
    for _ in range(n - 1):
        a, b = b, -2 * b + 2 * a
    return b


def line_all_equal_dyadic(n: int) -> DyadicProbability:
    """Exact dyadic form of :func:`closed_form_line` via integer recurrence."""
    _check_range(n, 1, 64, "n")
    return _reduced_dyadic(_line_numerator(n), 4 * n - 1)


def polygon_all_equal_dyadic(n: int) -> DyadicProbability:
    """Exact dyadic form of :func:`closed_form_polygon` via integer recurrence."""
    _check_range(n, 2, 64, "n")
    return _reduced_dyadic(_ring_trace_numerator(n) ** 2, 4 * n - 2)


def conditional_all_equal_fraction(n: int) -> Fraction:
    """Exact rational form of the ring conditional; defined for n >= 2."""
    _check_range(n, 2, 64, "n")
    return Fraction(_ring_trace_numerator(n) ** 2, 8 * _line_numerator(n - 1))


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


def coincidence_pattern(outcome) -> str:
    seen: dict[int, int] = {}
    canon = []
    for a in outcome:
        seen.setdefault(a, len(seen))
        canon.append(seen[a])
    return "-".join(str(c) for c in canon)


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

    classes: dict[str, dict] = {}
    for idx in np.ndindex(*probs.shape):
        key = coincidence_pattern(idx)
        p = float(probs[idx])
        entry = classes.setdefault(
            key, {"count": 0, "total": 0.0, "min": math.inf, "max": -math.inf}
        )
        entry["count"] += 1
        entry["total"] += p
        entry["min"] = min(entry["min"], p)
        entry["max"] = max(entry["max"], p)

    return CoincidenceStats(
        p_pair_equal=p_pair_equal,
        p_all_equal=p_all_equal,
        p_cond_pair=p_cond_pair,
        p_cond_triple=p_cond_triple,
        pattern_classes=classes,
    )


# ---------------------------------------------------------------------------
# Emission


def _default_dyadic_exponent(n_parties: int) -> int:
    # Ring tables live on denominators 2**(4N-2), line tables need a little
    # more headroom; cap so float rounding cannot corrupt the numerator.
    return min(4 * n_parties + 4, 40)


def distribution_to_json_dict(dist: JointDistribution) -> dict:
    """JSON form of a distribution, with exact dyadic fields where they exist."""
    k = _default_dyadic_exponent(dist.n_parties)
    entries = []
    for idx in np.ndindex(*dist.probs.shape):
        p = float(dist.probs[idx])
        try:
            dy = dyadic_reconstruct(p, k)
            dyadic = {"num": dy.numerator, "log2den": dy.log2_denominator}
        except NonDyadicError:
            dyadic = None
        entries.append(
            {"outcome": [a + 1 for a in idx], "p": p, "dyadic": dyadic}
        )
    return {
        "topology": dist.topology.kind,
        "n": dist.n_parties,
        "basis": dist.basis_label,
        "probabilities": entries,
    }


def table2_rows(max_n: int = 10) -> list[dict]:
    """All-equal probabilities for chains and rings up to ``max_n`` parties.

    Columns: N, line, polygon, conditional; floats are accompanied by exact
    dyadic/rational strings.  Ring columns start at N = 2.
    """
    _check_range(max_n, 1, 64, "max_n")
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
