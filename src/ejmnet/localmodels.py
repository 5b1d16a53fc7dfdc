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
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CapacityError, DomainError, ValidationError, finite_array, probability_array
from .network import (
    POLYGON,
    JointDistribution,
    NetworkTopology,
    coincidence_stats,
)

MAX_HIDDEN_CONFIGURATIONS = 10**8

MAX_ALL_EQUAL = "max-all-equal"
MIN_L1 = "min-l1"
MIN_LINF = "min-linf"
OBJECTIVES = (MAX_ALL_EQUAL, MIN_L1, MIN_LINF)

_TRIANGLE = NetworkTopology(POLYGON, 3)

# Normalisation tolerance of source weights and response rows.
_WEIGHT_ATOL = 1e-12

# Fixed move parameters of the annealing search.
INITIAL_TEMPERATURE = 0.05
WEIGHT_MOVE_PROBABILITY = 0.2
WEIGHT_STEP = 1.0 / 16.0


@dataclass(frozen=True)
class HiddenSource:
    """A hidden variable with finite cardinality and a weight vector."""

    cardinality: int
    weights: np.ndarray

    def __post_init__(self):
        if self.cardinality < 1:
            raise DomainError("source cardinality must be at least 1")
        w = finite_array(self.weights, "source weights")
        if w.shape != (self.cardinality,):
            raise DomainError(
                f"weights shape {w.shape} does not match cardinality {self.cardinality}"
            )
        w = probability_array(w, "source weights", atol=_WEIGHT_ATOL)
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, cardinality: int) -> "HiddenSource":
        return cls(cardinality, np.full(cardinality, 1.0 / cardinality))


@dataclass(frozen=True)
class ResponseTable:
    """Stochastic map (left value, right value) -> outcome in {1,2,3,4}.

    ``table`` has shape (card_left, card_right, 4); each row is a
    probability vector.  The table is deterministic when every row is a
    one-hot vector.
    """

    party: int
    table: np.ndarray

    def __post_init__(self):
        t = finite_array(self.table, "response table")
        if t.ndim != 3 or t.shape[2] != 4:
            raise DomainError(f"response table must have shape (cl, cr, 4), got {t.shape}")
        t = probability_array(t, "response rows", axis=2, atol=_WEIGHT_ATOL)
        object.__setattr__(self, "table", t)

    @property
    def deterministic(self) -> bool:
        return bool(np.all(np.isin(self.table, (0.0, 1.0))))

    @classmethod
    def from_outcomes(cls, party: int, outcomes: np.ndarray) -> "ResponseTable":
        """Deterministic table from a (cl, cr) array of zero-based outcomes."""
        out = np.asarray(outcomes, dtype=int)
        return cls(party, np.eye(4)[out])


@dataclass(frozen=True)
class RingLocalModel:
    """Hidden-variable model on a chain or ring of independent sources."""

    kind: str
    n_parties: int
    sources: tuple[HiddenSource, ...]
    responses: tuple[ResponseTable, ...]

    def __post_init__(self):
        object.__setattr__(self, "sources", tuple(self.sources))
        object.__setattr__(self, "responses", tuple(self.responses))
        topology = NetworkTopology(self.kind, self.n_parties)  # validates kind/count
        if len(self.sources) != topology.n_sources:
            raise DomainError(
                f"{self.kind} model with {self.n_parties} parties needs "
                f"{topology.n_sources} sources, got {len(self.sources)}"
            )
        if len(self.responses) != self.n_parties:
            raise DomainError(
                f"expected {self.n_parties} response tables, got {len(self.responses)}"
            )
        for i, resp in enumerate(self.responses):
            left, right = topology.party_sources(i)
            expected = (self.sources[left].cardinality, self.sources[right].cardinality, 4)
            if resp.table.shape != expected:
                raise DomainError(
                    f"party {i} response shape {resp.table.shape} does not match "
                    f"source cardinalities {expected[:2]}"
                )

    def party_sources(self, i: int) -> tuple[int, int]:
        """Indices of the (left, right) sources read by party ``i``."""
        return self.topology.party_sources(i)

    @property
    def topology(self) -> NetworkTopology:
        return NetworkTopology(self.kind, self.n_parties)


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
    probs = _contract(
        model.topology, [r.table for r in model.responses], [s.weights for s in model.sources]
    )
    return JointDistribution(model.topology, "local-model", probs.reshape((4,) * model.n_parties))


def _contract(top: NetworkTopology, tables, weights) -> np.ndarray:
    """Outcome table of a chain or ring model, flattened to shape (..., 4**n).

    ``tables[i]`` is party i's response table, shape (..., cl, cr, 4), and
    ``weights[s]`` source s's weights, shape (..., c_s); leading axes
    broadcast.  Each party's right source is folded into its table, parties
    are chained by matrix products over their shared source, and the ends
    are closed by a trace on a ring or by summing both boundary sources on a
    line.
    """
    chain = None  # axes (..., first source, outcomes so far, open source)
    for i, table in enumerate(tables):
        right = weights[top.party_sources(i)[1]]
        block = np.swapaxes(table, -1, -2) * right[..., None, None, :]  # (..., cl, 4, cr)
        if chain is None:
            chain = block
            continue
        first, cl, cr = chain.shape[-3], block.shape[-3], block.shape[-1]
        rows = chain.reshape(chain.shape[:-3] + (-1, cl))
        step = rows @ block.reshape(block.shape[:-3] + (cl, -1))
        chain = step.reshape(step.shape[:-2] + (first, -1, cr))
    if top.kind == POLYGON:
        # A plain left-to-right sum keeps one rounding order at every
        # cardinality; numpy's reductions turn pairwise from 8 terms on.
        return sum(chain[..., k, :, k] for k in range(chain.shape[-1]))
    return (chain * weights[0][..., :, None, None]).sum(axis=(-3, -1))


def sample_model(model: RingLocalModel, shots: int, seed: int = 42) -> JointDistribution:
    """Empirical distribution from ``shots`` Monte-Carlo draws of the model."""
    if shots < 1:
        raise DomainError(f"shots must be positive, got {shots}")
    rng = np.random.default_rng(seed)
    values = [
        rng.choice(s.cardinality, size=shots, p=s.weights) for s in model.sources
    ]
    outcomes = []
    for i in range(model.n_parties):
        left, right = model.party_sources(i)
        rows = model.responses[i].table[values[left], values[right]]
        cdf = np.cumsum(rows, axis=1)
        draws = rng.random(shots)
        outcomes.append(np.minimum((draws[:, None] >= cdf).sum(axis=1), 3))
    flat = np.ravel_multi_index(outcomes, (4,) * model.n_parties)
    counts = np.bincount(flat, minlength=4**model.n_parties).astype(float)
    probs = (counts / shots).reshape((4,) * model.n_parties)
    return JointDistribution(model.topology, "sampled-model", probs)


# ---------------------------------------------------------------------------
# Reference triangle models


def q_model(q: float) -> RingLocalModel:
    """Symmetric triangle model with flagged uniform 4-dits on every source.

    Each source carries a uniform dit in {1..4} plus a Bernoulli(q) flag.
    A party copies the dit of its uniquely flagged source; when both or
    neither of its sources are flagged it outputs one of its two dits by a
    fair coin.  P(all three outcomes equal) = (13 + 9q - 9q^2)/64, maximal
    at q = 1/2.
    """
    if not 0.0 <= q <= 1.0:
        raise DomainError(f"q must lie in [0, 1], got {q}")
    weights = np.zeros(8)
    for dit in range(4):
        for flag in (0, 1):
            weights[dit * 2 + flag] = 0.25 * (q if flag else 1.0 - q)
    source = HiddenSource(8, weights)

    table = np.zeros((8, 8, 4))
    for left in range(8):
        ldit, lflag = divmod(left, 2)
        for right in range(8):
            rdit, rflag = divmod(right, 2)
            if lflag != rflag:
                table[left, right, ldit if lflag else rdit] = 1.0
            else:
                table[left, right, ldit] += 0.5
                table[left, right, rdit] += 0.5
    responses = tuple(ResponseTable(i, table) for i in range(3))
    return RingLocalModel(POLYGON, 3, (source,) * 3, responses)


def q_model_all_equal(q: float) -> float:
    """Closed form for P(all equal) of :func:`q_model`."""
    if not 0.0 <= q <= 1.0:
        raise DomainError(f"q must lie in [0, 1], got {q}")
    return (13.0 + 9.0 * q - 9.0 * q * q) / 64.0


def q_model_flag_audit() -> list[dict]:
    """Conditional pair/triple rates of the q-model per flag combination.

    Rows are ordered by the flag triple (alpha, beta, gamma) in binary
    ascending order, where alpha flags the source between parties 1 and 2,
    beta the source between parties 2 and 0, and gamma the source between
    parties 0 and 1.  The rates are independent of q.
    """
    base = q_model(0.5)
    rows = []
    for alpha, beta, gamma in itertools.product((0, 1), repeat=3):
        flags = {0: gamma, 1: alpha, 2: beta}
        sources = []
        for s_idx in range(3):
            w = np.zeros(8)
            for dit in range(4):
                w[dit * 2 + flags[s_idx]] = 0.25
            sources.append(HiddenSource(8, w))
        conditioned = replace(base, sources=tuple(sources))
        stats = coincidence_stats(evaluate_model(conditioned))
        rows.append(
            {
                "alpha_flag": alpha,
                "beta_flag": beta,
                "gamma_flag": gamma,
                "p_pair_equal": stats.p_pair_equal,
                "p_all_equal": stats.p_all_equal,
            }
        )
    return rows


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
    for party, bit_map in enumerate(bit_maps):
        outcomes = np.zeros((2, 2), dtype=int)
        for left in (0, 1):
            for right in (0, 1):
                outcomes[left, right] = bit_map[(1 - left, right)] - 1
        responses.append(ResponseTable.from_outcomes(party, outcomes))
    source = HiddenSource(2, np.array([0.5, 0.5]))
    return RingLocalModel(POLYGON, 3, (source,) * 3, tuple(responses))


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
        if not (isinstance(self.steps, numbers.Integral) and self.steps >= 0):
            raise DomainError(f"steps must be an integer >= 0, got {self.steps!r}")
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
    lexicographically smallest table triple.  With ``optimize_weights`` the
    best triple is refined over a 1/64-step grid of binary source weights.
    Without refinement the reported value is the witness re-scored through
    :func:`evaluate_model`.

    Relabelling the values of a uniform source maps a candidate to one with
    the same outcome table, which :func:`_hit_scores` scores bit-equal, so
    the lexicographically smallest optimum has a first-party table that is
    the smallest of its relabelling orbit; only those tables are scanned
    (76 of 256 at c = 2), each against every table pair of the other two
    parties.
    """
    if cardinality < 1:
        raise DomainError("cardinality must be at least 1")
    if cardinality > 2:
        raise CapacityError(
            "full enumeration handles cardinality <= 2 (4**(c*c) tables per party)"
        )
    _check_objective(objective, target, 3)
    c = cardinality
    n_cells = c * c
    n_tables = 4**n_cells
    # cells[t, j]: outcome of table t in flattened pair cell j, base-4 digits
    # with the first cell most significant (lexicographic witness order).
    powers = 4 ** np.arange(n_cells - 1, -1, -1)
    cells = (np.arange(n_tables)[:, None] // powers[None, :]) % 4

    # outcomes[i][k, t]: party i's outcome with table t in hidden configuration k.
    configs = np.array(list(itertools.product(range(c), repeat=3)))
    o0, o1, o2 = (
        cells[:, configs[:, left] * c + configs[:, right]].T.astype(np.uint8)
        for left, right in map(_TRIANGLE.party_sources, range(3))
    )
    # Cell codes 4*a1 + a2 of every (r1, r2) pair, column r1 * n_tables + r2.
    rest = (4 * o1[:, :, None] + o2[:, None, :]).reshape(len(configs), -1)

    target_flat = None if target is None else target.probs.reshape(-1)
    maximize = objective == MAX_ALL_EQUAL
    relabellings = list(itertools.permutations(range(c)))
    pair_cells = np.arange(n_cells).reshape(c, c)
    images = [
        cells[:, pair_cells[np.ix_(left, right)].ravel()] @ powers
        for left in relabellings
        for right in relabellings
    ]
    best_score, best = None, None
    for r0 in np.flatnonzero(np.min(images, axis=0) == np.arange(n_tables)):
        score = _hit_scores(objective, 16 * o0[:, r0, None] + rest, target_flat)
        idx = int(np.argmax(score) if maximize else np.argmin(score))
        if best is None or (score[idx] > best_score if maximize else score[idx] < best_score):
            best_score, best = score[idx], (int(r0), *divmod(idx, n_tables))

    tables = [cells[t].reshape(c, c) for t in best]
    weights = [np.full(c, 1.0 / c)] * 3
    refined = False
    if optimize_weights and c == 2:
        value, weights = _refine_binary_weights(objective, tables, target)
        refined = True
    witness = RingLocalModel(
        POLYGON,
        3,
        tuple(HiddenSource(c, w) for w in weights),
        tuple(ResponseTable.from_outcomes(i, t) for i, t in enumerate(tables)),
    )
    if not refined:
        value = _objective_value(objective, evaluate_model(witness).probs.reshape(-1), target_flat)
    return SearchResult(objective, float(value), witness, n_tables**3, refined)


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
        return target.sum() + terms.sum(axis=0)
    gap[1:][repeat] = 0.0
    # At most K cells are hit, so the largest un-hit entry is among the K + 1
    # largest; visiting those in ascending order leaves the largest free one.
    unhit = np.zeros(gap.shape[1:])
    for cell in np.argsort(target, kind="stable")[-(n_conf + 1) :]:
        unhit = np.where((cells != cell).all(axis=0), target[cell], unhit)
    return np.maximum(gap.max(axis=0), unhit)


def _refine_binary_weights(objective, tables, target):
    """Grid-scan P(value=1) of each binary source in 1/64 steps.

    The 65**3 grid is scanned in slabs of one first-source weight, in grid
    order, so ties keep the first grid point.
    """
    combos = np.array(list(itertools.product((0, 1), repeat=3)))
    onehots = np.eye(2)[combos]  # (8, source, value)
    combo_tables = _contract(
        _TRIANGLE, [np.eye(4)[t] for t in tables], [onehots[:, s] for s in range(3)]
    )  # (8, 64)

    grid = np.arange(65) / 64.0
    g1, g2 = np.meshgrid(grid, grid, indexing="ij")
    target_flat = None if target is None else target.probs.reshape(-1)
    maximize = objective == MAX_ALL_EQUAL
    best_score, best_w = None, None
    for w0 in grid:
        w = np.stack([np.full(g1.size, w0), g1.ravel(), g2.ravel()], axis=1)  # (65**2, 3)
        combo_probs = np.ones((w.shape[0], 8))
        for s in range(3):
            on = combos[:, s][None, :]
            combo_probs *= np.where(on == 1, w[:, s : s + 1], 1.0 - w[:, s : s + 1])
        score = _objective_value(objective, combo_probs @ combo_tables, target_flat)
        idx = int(np.argmax(score) if maximize else np.argmin(score))
        if best_w is None or (score[idx] > best_score if maximize else score[idx] < best_score):
            best_score, best_w = score[idx], w[idx]
    return float(best_score), [np.array([1.0 - wi, wi]) for wi in best_w]


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
    """
    if cardinality < 1:
        raise DomainError("cardinality must be at least 1")
    if cardinality > 4:
        raise CapacityError("annealing handles cardinality <= 4")
    top = topology if topology is not None else _TRIANGLE
    if top.kind != POLYGON or top.n_parties > 5:
        raise DomainError("annealing runs on rings with at most 5 parties")
    _check_objective(objective, target, top.n_parties)
    target_probs = None if target is None else target.probs.reshape(-1)
    maximize = objective == MAX_ALL_EQUAL

    n = top.n_parties
    c = cardinality
    rng = np.random.default_rng(seed)
    tables = [rng.integers(0, 4, size=(c, c)) for _ in range(n)]
    weights = [np.full(c, 1.0 / c) for _ in range(n)]
    eye4 = np.eye(4)

    def energy(tabs, wts):
        table = _contract(top, [eye4[t] for t in tabs], wts)
        value = float(_objective_value(objective, table, target_probs))
        return (-value if maximize else value), value

    current_e, current_v = energy(tables, weights)
    best_e, best_v = current_e, current_v
    best_state = ([t.copy() for t in tables], [w.copy() for w in weights])
    trace = [(0, best_v)]
    temperature = INITIAL_TEMPERATURE

    for step in range(1, schedule.steps + 1):
        mutate_weight = c > 1 and rng.random() < WEIGHT_MOVE_PROBABILITY
        if mutate_weight:
            s = int(rng.integers(n))
            old_w = weights[s].copy()
            k = int(rng.integers(c))
            w = weights[s] + 0.0
            w[k] += rng.random() * WEIGHT_STEP
            weights[s] = w / w.sum()
        else:
            pi = int(rng.integers(n))
            li, ri = int(rng.integers(c)), int(rng.integers(c))
            old_cell = tables[pi][li, ri]
            new_cell = int(rng.integers(3))
            tables[pi][li, ri] = new_cell if new_cell < old_cell else new_cell + 1

        new_e, new_v = energy(tables, weights)
        delta = new_e - current_e
        if delta <= 0 or rng.random() < math.exp(-delta / max(temperature, 1e-300)):
            current_e, current_v = new_e, new_v
            if new_e < best_e:
                best_e, best_v = new_e, new_v
                best_state = ([t.copy() for t in tables], [w.copy() for w in weights])
                trace.append((step, best_v))
        else:
            if mutate_weight:
                weights[s] = old_w
            else:
                tables[pi][li, ri] = old_cell
        temperature *= schedule.cooling

    tabs, wts = best_state
    witness = RingLocalModel(
        POLYGON,
        n,
        tuple(HiddenSource(c, w) for w in wts),
        tuple(ResponseTable.from_outcomes(i, t) for i, t in enumerate(tabs)),
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
        "kind": model.kind,
        "n_parties": model.n_parties,
        "sources": [
            {"card": s.cardinality, "weights": [float(w) for w in s.weights]}
            for s in model.sources
        ],
        "responses": [
            {
                "party": r.party,
                "rows": {
                    f"({l},{rr})": [float(p) for p in r.table[l, rr]]
                    for l in range(r.table.shape[0])
                    for rr in range(r.table.shape[1])
                },
            }
            for r in model.responses
        ],
    }


def model_from_json_dict(payload: dict) -> RingLocalModel:
    try:
        kind = str(payload["kind"])
        n = int(payload["n_parties"])
        sources = tuple(
            HiddenSource(int(s["card"]), np.asarray(s["weights"], dtype=float))
            for s in payload["sources"]
        )
        responses = []
        for r in payload["responses"]:
            rows = r["rows"]
            cl = 1 + max(int(key.strip("()").split(",")[0]) for key in rows)
            cr = 1 + max(int(key.strip("()").split(",")[1]) for key in rows)
            table = np.zeros((cl, cr, 4))
            for key, probs in rows.items():
                l, rr = (int(x) for x in key.strip("()").split(","))
                table[l, rr] = np.asarray(probs, dtype=float)
            responses.append(ResponseTable(int(r["party"]), table))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed model payload: {exc}") from exc
    return RingLocalModel(kind, n, sources, tuple(responses))
