"""Classical network-local hidden-variable models on chains and rings.

A model assigns one independent hidden variable to every source and a
response table to every party mapping its two hidden values to an outcome
distribution.  The module evaluates such models exactly, constructs the
two reference triangle models (the symmetric flagged-dit model and the
deterministic complementary-bit model), samples models, and searches model
space exhaustively or by simulated annealing.

Adjacency is :meth:`NetworkTopology.party_sources`, the quantum convention:
on a ring, party i reads (left, right) = (source i-1 mod N, source i); on a
line with N+1 sources, party i reads (source i, source i+1).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CANDIDATE_RELABEL,
    CANDIDATE_SWAP,
    CapacityError,
    DomainError,
    ValidationError,
    cell_perms,
    finite_array,
    integer_in_range,
    probability_array,
    symmetry_group,
)
from .network import (
    POLYGON,
    JointDistribution,
    NetworkTopology,
    coincidence_stats,
)

MAX_HIDDEN_CONFIGURATIONS = 10**8
# Longest annealing schedule: about a minute at ~50 us a step.
MAX_ANNEAL_STEPS = 10**6

MAX_ALL_EQUAL = "max-all-equal"
MIN_L1 = "min-l1"
MIN_LINF = "min-linf"
OBJECTIVES = (MAX_ALL_EQUAL, MIN_L1, MIN_LINF)

_TRIANGLE = NetworkTopology(POLYGON, 3)
# The reflection of the triangle maps party i to party -i mod 3, so it swaps
# the outcomes of parties 1 and 2 in a flat outcome cell [a0, a1, a2].
_REFLECTION = (0, 2, 1)

# Normalisation tolerance of source weights and response rows.
_WEIGHT_ATOL = 1e-12

# Fixed move parameters of the annealing search.
INITIAL_TEMPERATURE = 0.05
WEIGHT_MOVE_PROBABILITY = 0.2
WEIGHT_STEP = 1.0 / 16.0


@dataclass(frozen=True)
class HiddenSource:
    """A hidden variable: the weights of its values 0..cardinality-1."""

    weights: np.ndarray

    def __post_init__(self):
        w = probability_array(self.weights, "source weights", atol=_WEIGHT_ATOL)
        if w.ndim != 1:
            raise DomainError(f"source weights must be a vector, got shape {w.shape}")
        object.__setattr__(self, "weights", w)

    @property
    def cardinality(self) -> int:
        return self.weights.size

    @classmethod
    def uniform(cls, cardinality: int) -> "HiddenSource":
        c = integer_in_range(cardinality, "cardinality", 1)
        return cls(np.full(c, 1.0 / c))


@dataclass(frozen=True)
class ResponseTable:
    """Stochastic map (left value, right value) -> outcome in {1,2,3,4}.

    ``table`` has shape (card_left, card_right, 4); each row is a
    probability vector.  The table is deterministic when every row is a
    one-hot vector.  Which party answers with it is its position in
    :attr:`RingLocalModel.responses`.
    """

    table: np.ndarray

    def __post_init__(self):
        t = finite_array(self.table, "response table")
        if t.ndim != 3 or t.shape[2] != 4:
            raise DomainError(f"response table must have shape (cl, cr, 4), got {t.shape}")
        t = probability_array(t, "response rows", axis=2, atol=_WEIGHT_ATOL)
        object.__setattr__(self, "table", t)

    @classmethod
    def from_outcomes(cls, outcomes: np.ndarray) -> "ResponseTable":
        """Deterministic table from a (cl, cr) array of zero-based outcomes."""
        out = np.asarray(outcomes, dtype=int)
        return cls(np.eye(4)[out])


@dataclass(frozen=True)
class RingLocalModel:
    """Hidden-variable model on a chain or ring of independent sources.

    ``sources[s]`` is source s and ``responses[i]`` party i's table, read
    over the sources ``topology.party_sources(i)``.
    """

    topology: NetworkTopology
    sources: tuple[HiddenSource, ...]
    responses: tuple[ResponseTable, ...]

    def __post_init__(self):
        top = self.topology
        if not isinstance(top, NetworkTopology):
            raise DomainError(f"model topology must be a NetworkTopology, got {top!r}")
        object.__setattr__(self, "sources", tuple(self.sources))
        object.__setattr__(self, "responses", tuple(self.responses))
        for what, parts, kind in (
            ("source", self.sources, HiddenSource),
            ("response", self.responses, ResponseTable),
        ):
            for i, part in enumerate(parts):
                if not isinstance(part, kind):
                    raise DomainError(f"{what} {i} must be a {kind.__name__}, got {part!r}")
        if len(self.sources) != top.n_sources:
            raise DomainError(
                f"{top.kind} model with {top.n_parties} parties needs "
                f"{top.n_sources} sources, got {len(self.sources)}"
            )
        if len(self.responses) != top.n_parties:
            raise DomainError(
                f"expected {top.n_parties} response tables, got {len(self.responses)}"
            )
        for i, resp in enumerate(self.responses):
            left, right = top.party_sources(i)
            expected = (self.sources[left].cardinality, self.sources[right].cardinality, 4)
            if resp.table.shape != expected:
                raise DomainError(
                    f"party {i} response shape {resp.table.shape} does not match "
                    f"source cardinalities {expected[:2]}"
                )


def evaluate_model(model: RingLocalModel) -> JointDistribution:
    """Exact outcome distribution of a model, summed over all hidden values.

    Contracts the chain of response tables with the source weights folded in,
    so the cost is polynomial in the source cardinalities rather than the
    full hidden-configuration count (which is still bounded for the sake of
    a predictable contract).
    """
    total = math.prod(s.cardinality for s in model.sources)
    if total > MAX_HIDDEN_CONFIGURATIONS:
        raise CapacityError(
            f"hidden-configuration count {total} exceeds {MAX_HIDDEN_CONFIGURATIONS}"
        )
    top = model.topology
    probs = _contract(top, [r.table for r in model.responses], [s.weights for s in model.sources])
    return JointDistribution(top, "local-model", probs.reshape((4,) * top.n_parties))


def _contract(top: NetworkTopology, tables, weights) -> np.ndarray:
    """Outcome table of a chain or ring model, flattened to shape (..., 4**n).

    ``tables[i]`` is party i's response table, shape (..., cl, cr, 4), and
    ``weights[s]`` source s's weights, shape (..., c_s); leading axes
    broadcast.  Each party's right source is folded into its table
    (:func:`_fold`), parties are chained by matrix products over their
    shared source (:func:`_chain_step`), and the ends are closed
    (:func:`_close`).
    """
    chain = None
    for i, table in enumerate(tables):
        block = _fold(table, weights[top.party_sources(i)[1]])
        chain = block if chain is None else _chain_step(chain, block)
    return _close(top, chain, weights)


def _fold(table: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Party block (..., cl, 4, cr): a (..., cl, cr, 4) table times its right source's weights."""
    return np.swapaxes(table, -1, -2) * right[..., None, None, :]


def _chain_step(chain: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Append a party block to a chain, axes (..., first source, outcomes so far, open source)."""
    first, cl, cr = chain.shape[-3], block.shape[-3], block.shape[-1]
    rows = chain.reshape(chain.shape[:-3] + (-1, cl))
    step = rows @ block.reshape(block.shape[:-3] + (cl, -1))
    return step.reshape(step.shape[:-2] + (first, -1, cr))


def _close(top: NetworkTopology, chain: np.ndarray, weights) -> np.ndarray:
    """Close a full chain: a trace on a ring; on a line, sum both boundary sources."""
    if top.kind == POLYGON:
        # A plain left-to-right sum keeps one rounding order at every
        # cardinality; numpy's reductions turn pairwise from 8 terms on.
        return sum(chain[..., k, :, k] for k in range(chain.shape[-1]))
    return (chain * weights[0][..., :, None, None]).sum(axis=(-3, -1))


def sample_model(model: RingLocalModel, shots: int, seed: int = 42) -> JointDistribution:
    """Empirical distribution from ``shots`` Monte-Carlo draws of the model."""
    shots = integer_in_range(shots, "shots", 1)
    top = model.topology
    rng = np.random.default_rng(integer_in_range(seed, "seed", 0))
    values = [
        rng.choice(s.cardinality, size=shots, p=s.weights) for s in model.sources
    ]
    outcomes = []
    for i, response in enumerate(model.responses):
        left, right = top.party_sources(i)
        rows = response.table[values[left], values[right]]
        cdf = np.cumsum(rows, axis=1)
        draws = rng.random(shots)
        outcomes.append(np.minimum((draws[:, None] >= cdf).sum(axis=1), 3))
    flat = np.ravel_multi_index(outcomes, (4,) * top.n_parties)
    counts = np.bincount(flat, minlength=4**top.n_parties).astype(float)
    probs = (counts / shots).reshape((4,) * top.n_parties)
    return JointDistribution(top, "sampled-model", probs)


# ---------------------------------------------------------------------------
# Reference triangle models


def _unit_q(q) -> np.ndarray:
    """``q``, a value or a grid, as a float array; DomainError unless all lie in [0, 1]."""
    arr = np.asarray(q, dtype=float)
    outside = ~((0.0 <= arr) & (arr <= 1.0))  # NaN included
    if outside.any():
        raise DomainError(f"q must lie in [0, 1], got {float(arr[outside][0])}")
    return arr


def _q_weights(q) -> np.ndarray:
    """Source weights (..., 8) of the q-model: 2*dit + flag weighs (q if flag else 1 - q)/4."""
    q = _unit_q(q)
    return np.tile(0.25 * np.stack([1.0 - q, q], axis=-1), 4)


def _q_table() -> np.ndarray:
    """The (8, 8, 4) response table of :func:`q_model`, shared by every q and every party."""
    dit, flag = np.divmod(np.arange(8), 2)
    copy_left = (1 + flag[:, None, None] - flag[:, None]) / 2  # 1 or 0 if one source is flagged
    return copy_left * np.eye(4)[dit][:, None] + (1 - copy_left) * np.eye(4)[dit]


_Q_TABLE = ResponseTable(_q_table()).table
# Grid points per contraction in q_model_scan: ~2 MB of intermediates. Its
# values are bit-equal to those of one contraction per point.
Q_SCAN_CHUNK = 64


def q_model(q: float) -> RingLocalModel:
    """Symmetric triangle model with flagged uniform 4-dits on every source.

    Each source carries a uniform dit in {1..4} plus a Bernoulli(q) flag.
    A party copies the dit of its uniquely flagged source; when both or
    neither of its sources are flagged it outputs one of its two dits by a
    fair coin.  P(all three outcomes equal) = (13 + 9q - 9q^2)/64, maximal
    at q = 1/2.
    """
    source = HiddenSource(_q_weights(q))
    return RingLocalModel(_TRIANGLE, (source,) * 3, (ResponseTable(_Q_TABLE),) * 3)


def q_model_all_equal(q):
    """Closed form for P(all equal) of :func:`q_model`, elementwise over an array of q."""
    q = _unit_q(q)
    return (13.0 + 9.0 * q - 9.0 * q * q) / 64.0


def q_model_scan(qs) -> list[dict]:
    """P(all equal) of :func:`q_model` at each q, beside its closed form."""
    weights, p_all_equal = _q_weights(qs), []
    for start in range(0, len(weights), Q_SCAN_CHUNK):
        probs = _contract(_TRIANGLE, (_Q_TABLE,) * 3, (weights[start : start + Q_SCAN_CHUNK],) * 3)
        p_all_equal += _objective_value(MAX_ALL_EQUAL, probs, None).tolist()
    rows = zip(qs, p_all_equal, q_model_all_equal(qs).tolist())
    return [{"q": q, "p_all_equal": p, "closed_form": c} for q, p, c in rows]


def q_model_flag_audit() -> list[dict]:
    """Conditional pair/triple rates of the q-model per flag combination.

    Rows are ordered by the flag triple (alpha, beta, gamma) in binary
    ascending order, where alpha flags the source between parties 1 and 2,
    beta the source between parties 2 and 0, and gamma the source between
    parties 0 and 1.  The rates are independent of q.
    """
    flags = np.array(list(itertools.product((0, 1), repeat=3)))
    # Source s, flagged by gamma, alpha, beta, carries the weights at q = its flag.
    probs = _contract(_TRIANGLE, (_Q_TABLE,) * 3, _q_weights(flags[:, [2, 0, 1]]).swapaxes(0, 1))
    dists = (JointDistribution(_TRIANGLE, "local-model", p) for p in probs.reshape(8, 4, 4, 4))
    return [
        {"alpha_flag": alpha, "beta_flag": beta, "gamma_flag": gamma,
         "p_pair_equal": s.p_pair_equal, "p_all_equal": s.p_all_equal}
        for (alpha, beta, gamma), s in zip(flags.tolist(), map(coincidence_stats, dists))
    ]


def asymmetric_model() -> RingLocalModel:
    """Deterministic triangle model built on complementary-bit sources.

    Every source takes the values (0,1) and (1,0) with equal probability and
    hands its first bit to the next party around the ring and its second bit
    to the previous one.  Each party maps its received bit pair through a
    fixed outcome table chosen to maximise P(all equal) = 1/2.  The model is
    strongly asymmetric: 20 of the 24 all-distinct outcome patterns never
    occur.
    """
    # Encoding: source value v in {0, 1} stands for the bit pair (v, 1-v),
    # so a party's left source delivers 1 - v and its right source delivers v.
    bit_maps = (
        {(0, 0): 2, (0, 1): 1, (1, 0): 3, (1, 1): 4},
        {(0, 0): 4, (0, 1): 1, (1, 0): 2, (1, 1): 3},
        {(0, 0): 3, (0, 1): 1, (1, 0): 4, (1, 1): 2},
    )
    responses = []
    for bit_map in bit_maps:
        outcomes = np.zeros((2, 2), dtype=int)
        for left in (0, 1):
            for right in (0, 1):
                outcomes[left, right] = bit_map[(1 - left, right)] - 1
        responses.append(ResponseTable.from_outcomes(outcomes))
    source = HiddenSource(np.array([0.5, 0.5]))
    return RingLocalModel(_TRIANGLE, (source,) * 3, responses)


def zero_all_distinct_count(dist: JointDistribution) -> int:
    """How many of a triangle's 24 all-distinct outcome triples have p = 0."""
    a, b, c = np.indices((4, 4, 4))
    return int(np.count_nonzero((a != b) & (b != c) & (c != a) & (dist.probs == 0.0)))


# ---------------------------------------------------------------------------
# Searches


@dataclass(frozen=True)
class SearchResult:
    objective: str
    value: float
    witness: RingLocalModel
    candidates: int
    weights_refined: bool = False


@dataclass(frozen=True)
class AnnealSchedule:
    steps: int = 100_000
    cooling: float = 0.999

    def __post_init__(self):
        object.__setattr__(self, "steps", integer_in_range(self.steps, "steps", 0))
        if self.steps > MAX_ANNEAL_STEPS:
            raise CapacityError(f"steps {self.steps} exceeds {MAX_ANNEAL_STEPS}")
        # Written so that NaN fails the check.
        if not 0.0 < self.cooling <= 1.0:
            raise DomainError(f"cooling must lie in (0, 1], got {self.cooling}")


@dataclass(frozen=True)
class AnnealResult:
    objective: str
    value: float
    witness: RingLocalModel
    seed: int
    schedule: AnnealSchedule
    trace: tuple[tuple[int, float], ...] = field(default_factory=tuple)


def _check_cardinality(cardinality, limit: int, capacity_message: str) -> int:
    c = integer_in_range(cardinality, "cardinality", 1)
    if c > limit:
        raise CapacityError(capacity_message)
    return c


def _check_objective(objective: str, target: JointDistribution | None, n_parties: int):
    if objective not in OBJECTIVES:
        raise DomainError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    if objective != MAX_ALL_EQUAL:
        if target is None:
            raise ValidationError(f"objective {objective} needs a target distribution")
        if target.n_parties != n_parties:
            raise DomainError(
                f"target has {target.n_parties} parties, search runs on {n_parties}"
            )


def _objective_value(objective: str, table: np.ndarray, target: np.ndarray | None) -> np.ndarray:
    """Objective of outcome tables flattened to (..., 4**n); ``target`` is flat too."""
    if objective == MAX_ALL_EQUAL:
        # The all-equal entries k*(4**n - 1)/3, k = 0..3, are evenly spaced.
        return table[..., :: (table.shape[-1] - 1) // 3].sum(axis=-1)
    diff = np.abs(table - target)
    return diff.sum(axis=-1) if objective == MIN_L1 else diff.max(axis=-1)


def exhaustive_search(
    cardinality: int,
    objective: str,
    target: JointDistribution | None = None,
    optimize_weights: bool = False,
) -> SearchResult:
    """Enumerate every deterministic triangle model over uniform sources.

    All 4**(c*c) deterministic response tables per party are scanned (c is
    the common source cardinality, at most 2); ties break towards the
    lexicographically smallest table triple.  With ``optimize_weights``
    (c = 2 only) the best triple is refined over a 1/64-step grid of binary
    source weights.  The reported value is the witness re-scored through
    :func:`evaluate_model`.

    The scan runs over a group G of relabellings (:func:`_first_tables`):
    those of each source's values, which keep a candidate's outcome table,
    and the target's symmetries among the 48 candidates of :mod:`ejmnet.errors`
    (one permutation of every party's outcome, with or without the reflection
    of the triangle); all-equal keeps them all.  Only the
    first-party tables that are the smallest of their G-orbit are scanned,
    each against every table pair of the other two parties: 7 of 256 at
    c = 2 for all-equal and ``ejm-triangle``, 22 for ``ejm-triangle-coarse``
    and 76 for a target with no symmetry.

    A target is invariant only to ``SYMMETRY_ATOL``, so the scan scores
    against a snapped copy: each entry is replaced by that of the smallest
    cell of its G-orbit and rounded to a multiple of 2^-50.  That copy is
    exactly invariant, and every score on it is an exact float, so G maps
    optima to optima and the smallest optimum starts with a scanned table.
    The witness is the lexicographically smallest triple among the exact
    ties on the snapped target, the one the full scan would find there.
    """
    c = _check_cardinality(
        cardinality, 2, "full enumeration handles cardinality <= 2 (4**(c*c) tables per party)"
    )
    _check_objective(objective, target, 3)
    if optimize_weights and c != 2:
        raise DomainError(f"weight refinement needs cardinality 2, got {c}")
    target_flat = None if target is None else target.probs.reshape(-1)
    all_tables = _tables(c)
    tables = [all_tables[t] for t in _best_triple(objective, c, target_flat)]
    weights = [np.full(c, 1.0 / c)] * 3
    if optimize_weights:
        weights = _refine_binary_weights(objective, tables, target_flat)
    witness = RingLocalModel(
        _TRIANGLE,
        [HiddenSource(w) for w in weights],
        [ResponseTable.from_outcomes(t) for t in tables],
    )
    value = _objective_value(objective, evaluate_model(witness).probs.reshape(-1), target_flat)
    return SearchResult(objective, float(value), witness, len(all_tables) ** 3, bool(optimize_weights))


def _tables(c: int) -> np.ndarray:
    """(4**(c*c), c, c): the outcomes of every deterministic table.

    Table t's cells, flattened, are the base-4 digits of t with the first
    cell most significant (lexicographic witness order).
    """
    n_cells = c * c
    return ((np.arange(4**n_cells)[:, None] // 4 ** np.arange(n_cells - 1, -1, -1)) % 4).reshape(
        -1, c, c
    )


def _best_triple(objective: str, c: int, target: np.ndarray | None) -> tuple[int, int, int]:
    """The lexicographically smallest optimal table triple, by the scan of :func:`exhaustive_search`."""
    cells = _tables(c).reshape(-1, c * c)
    n_tables = len(cells)
    # outcomes[i][k, t]: party i's outcome with table t in hidden configuration k.
    configs = np.array(list(itertools.product(range(c), repeat=3)))
    o0, o1, o2 = (
        cells[:, configs[:, left] * c + configs[:, right]].T.astype(np.uint8)
        for left, right in map(_TRIANGLE.party_sources, range(3))
    )
    # Cell codes 4*a1 + a2 of every (r1, r2) pair, column r1 * n_tables + r2.
    rest = (4 * o1[:, :, None] + o2[:, None, :]).reshape(len(configs), -1)
    # Scores are negated for the maximised objective, so the best is the least.
    sign = -1.0 if objective == MAX_ALL_EQUAL else 1.0
    # The all-equal objective is invariant under every candidate.
    symmetries = np.arange(48) if target is None else symmetry_group(target, _REFLECTION)
    if target is not None:
        target = _snapped(target, symmetries)
    best = (np.inf, 0, 0)
    for r0 in _first_tables(c, symmetries):
        score = sign * _hit_scores(objective, 16 * o0[:, r0, None] + rest, target)
        column = int(np.argmin(score))
        best = min(best, (score[column], int(r0), column))
    return (best[1], *divmod(best[2], n_tables))


def _snapped(target: np.ndarray, symmetries: np.ndarray) -> np.ndarray:
    """The flat ``target`` made exactly invariant under ``symmetries``, on the 2^-50 grid.

    Every entry becomes that of the smallest cell of its orbit, and then a
    multiple of 2^-50.  On that grid every hit term and every partial sum of
    a score (all below 4 in magnitude) is an exact float, so all group
    images of a candidate score bit-equal.
    """
    moved = target[cell_perms(_REFLECTION)[symmetries].min(axis=0)]
    return np.ldexp(np.rint(np.ldexp(moved, 50)), -50)


def _first_tables(c: int, symmetries: np.ndarray) -> np.ndarray:
    """The first-party tables that are the smallest of their orbit under the scan's group G.

    G holds, for every candidate of ``symmetries``, every value relabelling
    of the three sources.  Party 0 keeps its place under the reflection, so
    an element of G moves its table alone: it relabels the table's outcomes,
    transposes it under the reflection, and relabels its rows and columns
    by its two sources' values.
    """
    tables = _tables(c)
    places = 4 ** np.arange(c * c - 1, -1, -1)
    values = np.array(list(itertools.permutations(range(c))))
    # relabelled[e, t, a, b]: table t, transposed if e = 1, with its rows
    # relabelled by values[a] and its columns by values[b].
    oriented = np.stack([tables, tables.swapaxes(1, 2)])
    relabelled = oriented[:, :, values[:, None, :, None], values[None, :, None, :]]
    relabelled = relabelled.reshape(relabelled.shape[:4] + (-1,)) @ places
    # outcome_maps[g, t]: table t with its outcomes relabelled as candidate g does.
    outcome_maps = CANDIDATE_RELABEL[:, tables.reshape(len(tables), -1)] @ places
    images = outcome_maps[symmetries[:, None, None, None], relabelled[CANDIDATE_SWAP[symmetries].astype(int)]]
    return np.flatnonzero(images.min(axis=(0, 2, 3)) == np.arange(len(tables)))


def _hit_scores(objective: str, codes: np.ndarray, target: np.ndarray | None) -> np.ndarray:
    """Objective values of uniform-source triangle candidates from the cells they hit.

    ``codes[k, ...]`` is the outcome cell 16*a0 + 4*a1 + a2 that the k-th of
    K equally likely hidden configurations yields; ``target`` is flat, (64,).
    A candidate hits at most K cells, so with n the multiplicity of a hit
    cell and t its target entry, L1 = sum(t) + sum_hit(|n/K - t| - t) and
    Linf = max(max_hit |n/K - t|, largest t among un-hit cells).  Hit cells
    are combined in ascending cell order, so candidates with equal outcome
    tables score bit-equal.
    """
    n_conf = codes.shape[0]
    if objective == MAX_ALL_EQUAL:
        # The all-equal cell with a0 = code >> 4 is 21 * a0.
        return (codes == 21 * (codes >> 4)).sum(axis=0, dtype=np.uint8) / n_conf
    # Sort each candidate's cells by an odd-even transposition network, far
    # cheaper than np.sort on K-entry columns.
    cells = codes.copy()
    for sweep in range(n_conf):
        for k in range(sweep % 2, n_conf - 1, 2):
            low = np.minimum(cells[k], cells[k + 1])
            cells[k + 1] = np.maximum(cells[k], cells[k + 1])
            cells[k] = low
    repeat = cells[1:] == cells[:-1]
    # Run length from each position; at the first entry of a run it is the
    # cell's multiplicity.
    count = np.ones(cells.shape)
    for k in range(n_conf - 2, -1, -1):
        count[k] += repeat[k] * count[k + 1]
    t = target[cells]
    gap = np.abs(count / n_conf - t)
    if objective == MIN_L1:
        terms = gap - t
        terms[1:][repeat] = 0.0
        # On the search's grid-rounded target every partial sum is exact, so
        # the order numpy adds in cannot change a score.
        return target.sum() + terms.sum(axis=0)
    gap[1:][repeat] = 0.0
    # At most K cells are hit, so the largest un-hit entry is among the K + 1
    # largest; visiting those in ascending order leaves the largest free one.
    unhit = np.zeros(gap.shape[1:])
    for cell in np.argsort(target, kind="stable")[-(n_conf + 1) :]:
        unhit = np.where((cells != cell).all(axis=0), target[cell], unhit)
    return np.maximum(gap.max(axis=0), unhit)


def _refine_binary_weights(objective, tables, target_flat):
    """The best binary source weights on a grid of P(value=1) in 1/64 steps.

    The 65**3 grid is scanned in slabs of one first-source weight, in grid
    order, so ties keep the first grid point.  A grid point's outcome table
    mixes the eight tables of deterministic source values elementwise, one
    source at a time (source 2, then 1, then 0 per slab), over only the
    cells the objective reads.  The grid is exact: every weight is k/64 and
    every deterministic table is 0/1, so each mixed entry and each partial
    sum of one is a multiple of 2**-18 in [0, 1], and the tables are
    bit-equal to those of any other order of evaluation.
    """
    combos = np.array(list(itertools.product((0, 1), repeat=3)))
    onehots = np.eye(2)[combos]  # (8, source, value)
    combo_tables = _contract(
        _TRIANGLE, [np.eye(4)[t] for t in tables], [onehots[:, s] for s in range(3)]
    ).reshape(2, 2, 2, 64)  # (source 0, 1 and 2 values, cell)
    maximize = objective == MAX_ALL_EQUAL
    if maximize:
        # The four all-equal cells, which _objective_value then sums whole.
        combo_tables = combo_tables[..., ::21]

    grid = np.arange(65) / 64.0
    on = grid[:, None]
    mixed = (1.0 - on) * combo_tables[:, :, 0, None] + on * combo_tables[:, :, 1, None]
    mixed = (1.0 - on[:, None]) * mixed[:, 0, None] + on[:, None] * mixed[:, 1, None]
    mixed = mixed.reshape(2, 65 * 65, -1)  # (source 0 value, (w1, w2) in grid order, cell)
    best_score, best_w = None, None
    for w0 in grid:
        score = _objective_value(objective, (1.0 - w0) * mixed[0] + w0 * mixed[1], target_flat)
        idx = int(np.argmax(score) if maximize else np.argmin(score))
        if best_w is None or (score[idx] > best_score if maximize else score[idx] < best_score):
            best_score, best_w = score[idx], (w0, grid[idx // 65], grid[idx % 65])
    return [np.array([1.0 - wi, wi]) for wi in best_w]


def anneal_search(
    cardinality: int,
    objective: str,
    target: JointDistribution | None = None,
    topology: NetworkTopology | None = None,
    seed: int = 42,
    schedule: AnnealSchedule = AnnealSchedule(),
) -> AnnealResult:
    """Simulated annealing over deterministic tables and source weights.

    Runs on rings of up to 5 parties with source cardinality up to 4.
    Proposals either rewrite one response-table cell or shift weight inside
    one source; acceptance follows a geometric cooling schedule.  The run is
    fully determined by ``seed`` and emits a best-so-far trace.

    Source s is party s's right source, so either move changes party s's
    folded block alone.  Each party's block and the chain prefix ending at
    it are kept, and a move recomputes that block and the prefixes from it
    on, through the helpers of :func:`_contract` with the same operands, so
    every energy is bit-equal to a full contraction.
    """
    c = _check_cardinality(cardinality, 4, "annealing handles cardinality <= 4")
    top = topology if topology is not None else _TRIANGLE
    if top.kind != POLYGON or top.n_parties > 5:
        raise DomainError("annealing runs on rings with at most 5 parties")
    _check_objective(objective, target, top.n_parties)
    target_probs = None if target is None else target.probs.reshape(-1)
    maximize = objective == MAX_ALL_EQUAL

    n = top.n_parties
    rng = np.random.default_rng(integer_in_range(seed, "seed", 0))
    tables = [rng.integers(0, 4, size=(c, c)) for _ in range(n)]
    weights = [np.full(c, 1.0 / c) for _ in range(n)]
    eye4 = np.eye(4)
    blocks = [_fold(eye4[t], w) for t, w in zip(tables, weights)]
    chains = list(itertools.accumulate(blocks, _chain_step))  # chains[i]: blocks 0..i

    def refold(i):
        blocks[i] = _fold(eye4[tables[i]], weights[i])
        for j in range(i, n):
            chains[j] = _chain_step(chains[j - 1], blocks[j]) if j else blocks[0]

    def energy():
        value = float(_objective_value(objective, _close(top, chains[-1], weights), target_probs))
        return (-value if maximize else value), value

    current_e, best_v = energy()
    best_e = current_e
    best_state = ([t.copy() for t in tables], [w.copy() for w in weights])
    trace = [(0, best_v)]
    temperature = INITIAL_TEMPERATURE

    for step in range(1, schedule.steps + 1):
        mutate_weight = c > 1 and rng.random() < WEIGHT_MOVE_PROBABILITY
        i = int(rng.integers(n))
        saved = (tables[i].copy(), weights[i], blocks[i], chains[i:])
        if mutate_weight:
            k = int(rng.integers(c))
            w = weights[i] + 0.0
            w[k] += rng.random() * WEIGHT_STEP
            weights[i] = w / w.sum()
        else:
            li, ri = int(rng.integers(c)), int(rng.integers(c))
            new_cell = int(rng.integers(3))
            tables[i][li, ri] = new_cell if new_cell < tables[i][li, ri] else new_cell + 1
        refold(i)
        new_e, new_v = energy()
        delta = new_e - current_e
        if delta <= 0 or rng.random() < math.exp(-delta / max(temperature, 1e-300)):
            current_e = new_e
            if new_e < best_e:
                best_e, best_v = new_e, new_v
                best_state = ([t.copy() for t in tables], [w.copy() for w in weights])
                trace.append((step, best_v))
        else:
            tables[i], weights[i], blocks[i], chains[i:] = saved
        temperature *= schedule.cooling

    tabs, wts = best_state
    witness = RingLocalModel(
        top, [HiddenSource(w) for w in wts], [ResponseTable.from_outcomes(t) for t in tabs]
    )
    # Re-evaluate through the public path so the reported value is self-certifying.
    final_value = _objective_value(
        objective, evaluate_model(witness).probs.reshape(-1), target_probs
    )
    return AnnealResult(objective, float(final_value), witness, seed, schedule, tuple(trace))


# ---------------------------------------------------------------------------
# Serialization


def model_to_json_dict(model: RingLocalModel) -> dict:
    return {
        "kind": model.topology.kind,
        "n_parties": model.topology.n_parties,
        "sources": [
            {"card": s.cardinality, "weights": [float(w) for w in s.weights]}
            for s in model.sources
        ],
        "responses": [
            {
                "party": i,
                "rows": {
                    f"({l},{rr})": [float(p) for p in r.table[l, rr]]
                    for l in range(r.table.shape[0])
                    for rr in range(r.table.shape[1])
                },
            }
            for i, r in enumerate(model.responses)
        ],
    }


def model_from_json_dict(payload: dict) -> RingLocalModel:
    """The model :func:`model_to_json_dict` wrote.

    Each table's shape comes from the topology and the cardinalities of the
    sources its party reads.  ValidationError on a malformed document: one
    whose ``"card"`` is not its number of weights, whose ``"party"`` is not
    its position, or whose ``"rows"`` are not exactly the table's cells.
    """
    try:
        top = NetworkTopology(payload["kind"], payload["n_parties"])
        sources = [HiddenSource(s["weights"]) for s in payload["sources"]]
        cards = [s["card"] for s in payload["sources"]]
        if cards != [s.cardinality for s in sources]:
            raise ValidationError(f"source cards {cards} do not count their weights")
        if (len(sources), len(payload["responses"])) != (top.n_sources, top.n_parties):
            raise ValidationError(f"{top} needs {top.n_sources} sources, {top.n_parties} responses")
        responses = []
        for i, r in enumerate(payload["responses"]):
            if r["party"] != i:
                raise ValidationError(f"response {i} is labelled party {r['party']!r}")
            cl, cr = (sources[s].cardinality for s in top.party_sources(i))
            cells = [[f"({l},{rr})" for rr in range(cr)] for l in range(cl)]
            if set(r["rows"]) != {key for row in cells for key in row}:
                raise ValidationError(f"party {i} rows must be exactly the cells {cells}")
            responses.append(ResponseTable([[r["rows"][key] for key in row] for row in cells]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed model payload: {exc}") from exc
    return RingLocalModel(top, sources, responses)
