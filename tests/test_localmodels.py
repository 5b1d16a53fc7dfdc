import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ejmnet import (
    MAX_ALL_EQUAL,
    MIN_L1,
    MIN_LINF,
    AnnealSchedule,
    CapacityError,
    DomainError,
    HiddenSource,
    NetworkTopology,
    ResponseTable,
    RingLocalModel,
    ValidationError,
    anneal_search,
    asymmetric_model,
    coincidence_stats,
    evaluate_model,
    exhaustive_search,
    model_from_json_dict,
    model_to_json_dict,
    q_model,
    q_model_all_equal,
    q_model_flag_audit,
    sample_model,
)
from ejmnet.localmodels import OBJECTIVES, _TRIANGLE, _contract, _hit_scores, _objective_value

# Conditional pair/triple rates per source-flag combination, flags in binary
# ascending (alpha, beta, gamma) order.
FLAG_AUDIT_EXPECTED = [
    (7 / 16, 13 / 64),
    (1.0, 1 / 4),
    (1 / 4, 1 / 4),
    (5 / 8, 1 / 4),
    (1 / 4, 1 / 4),
    (5 / 8, 1 / 4),
    (1 / 4, 1 / 4),
    (7 / 16, 13 / 64),
]


def all_equal_probability(dist):
    return float(sum(dist.probs[(k,) * dist.n_parties] for k in range(4)))


@st.composite
def random_models(draw):
    """Line or ring with 2..5 parties, source cardinalities 1..3 and
    stochastic responses."""
    kind = draw(st.sampled_from(["line", "polygon"]))
    n = draw(st.integers(2, 5))
    n_sources = n + 1 if kind == "line" else n
    cards = draw(st.lists(st.integers(1, 3), min_size=n_sources, max_size=n_sources))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sources = tuple(HiddenSource(c, rng.dirichlet(np.ones(c))) for c in cards)
    reads = [((i - 1) % n, i) if kind == "polygon" else (i, i + 1) for i in range(n)]
    responses = tuple(
        ResponseTable(i, rng.dirichlet(np.ones(4), size=(cards[l], cards[r])))
        for i, (l, r) in enumerate(reads)
    )
    return RingLocalModel(kind, n, sources, responses), reads


@st.composite
def mixed_models(draw):
    """Line or ring with 2..4 parties whose response tables are each either
    deterministic (leaving zero-mass cells) or stochastic."""
    kind = draw(st.sampled_from(["line", "polygon"]))
    n = draw(st.integers(2, 4))
    n_sources = n + 1 if kind == "line" else n
    cards = draw(st.lists(st.integers(1, 3), min_size=n_sources, max_size=n_sources))
    deterministic = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sources = tuple(HiddenSource(c, rng.dirichlet(np.ones(c))) for c in cards)
    top = NetworkTopology(kind, n)
    responses = []
    for i in range(n):
        l, r = top.party_sources(i)
        shape = (cards[l], cards[r])
        if deterministic[i]:
            responses.append(ResponseTable.from_outcomes(i, rng.integers(0, 4, size=shape)))
        else:
            responses.append(ResponseTable(i, rng.dirichlet(np.ones(4), size=shape)))
    return RingLocalModel(kind, n, sources, tuple(responses))


def brute_force_table(model, reads):
    """Explicit sum over every hidden configuration."""
    probs = np.zeros((4,) * model.n_parties)
    for hidden in itertools.product(*(range(s.cardinality) for s in model.sources)):
        joint = math.prod(s.weights[v] for s, v in zip(model.sources, hidden))
        for resp, (l, r) in zip(model.responses, reads):
            joint = np.multiply.outer(joint, resp.table[hidden[l], hidden[r]])
        probs += joint
    return probs


def candidate_codes(tables):
    """Outcome cell 16*a0 + 4*a1 + a2 of every hidden configuration of a
    uniform-source triangle candidate, by explicit enumeration."""
    c = len(tables[0])
    codes = []
    for hidden in itertools.product(range(c), repeat=3):
        outcomes = [
            t[hidden[left], hidden[right]]
            for t, (left, right) in zip(tables, map(_TRIANGLE.party_sources, range(3)))
        ]
        codes.append(16 * outcomes[0] + 4 * outcomes[1] + outcomes[2])
    return np.array(codes, dtype=np.uint8)


def witness_codes(result):
    """Base-4 table index of each party, first pair cell most significant."""
    return tuple(
        int("".join(str(v) for v in np.argmax(r.table, axis=2).ravel()), 4)
        for r in result.witness.responses
    )


class TestQModel:
    def test_no_flags_rate(self):
        assert abs(all_equal_probability(evaluate_model(q_model(0.0))) - 13 / 64) < 1e-12

    def test_peak_rate(self):
        assert abs(all_equal_probability(evaluate_model(q_model(0.5))) - 61 / 256) < 1e-12

    def test_closed_form_on_grid(self):
        for i in range(101):
            q = i / 100.0
            evaluated = all_equal_probability(evaluate_model(q_model(q)))
            assert abs(evaluated - q_model_all_equal(q)) < 1e-12

    def test_maximum_at_one_half(self):
        values = [(i / 100.0, all_equal_probability(evaluate_model(q_model(i / 100.0))))
                  for i in range(101)]
        best_q, best_p = max(values, key=lambda t: t[1])
        assert best_q == 0.5
        assert abs(best_p - 61 / 256) < 1e-12

    def test_output_is_valid_distribution(self):
        dist = evaluate_model(q_model(0.3))
        assert float(dist.probs.min()) >= 0.0
        assert abs(float(dist.probs.sum()) - 1.0) < 1e-12

    def test_q_out_of_range(self):
        with pytest.raises(DomainError):
            q_model(1.5)


class TestFlagAudit:
    def test_all_rows_exact(self):
        rows = q_model_flag_audit()
        assert len(rows) == 8
        for row, (pab, pabc) in zip(rows, FLAG_AUDIT_EXPECTED):
            assert abs(row["p_pair_equal"] - pab) < 1e-12
            assert abs(row["p_all_equal"] - pabc) < 1e-12

    def test_single_flag_row(self):
        # alpha = beta = 0, gamma = 1: the first two parties share the flagged
        # source, so they agree with certainty and the third matches 1/4 of
        # the time.
        row = q_model_flag_audit()[1]
        assert (row["alpha_flag"], row["beta_flag"], row["gamma_flag"]) == (0, 0, 1)
        assert abs(row["p_pair_equal"] - 1.0) < 1e-12
        assert abs(row["p_all_equal"] - 0.25) < 1e-12

    def test_rows_average_to_closed_form(self):
        for q in (0.2, 0.5, 0.9):
            total = 0.0
            for row in q_model_flag_audit():
                weight = 1.0
                for flag in (row["alpha_flag"], row["beta_flag"], row["gamma_flag"]):
                    weight *= q if flag else 1.0 - q
                total += weight * row["p_all_equal"]
            assert abs(total - q_model_all_equal(q)) < 1e-12


class TestAsymmetricModel:
    def test_all_equal_and_pair_rates(self):
        stats = coincidence_stats(evaluate_model(asymmetric_model()))
        assert abs(stats.p_all_equal - 0.5) < 1e-12
        assert abs(stats.p_pair_equal - 0.5) < 1e-12
        assert abs(stats.p_cond_triple - 1.0) < 1e-12

    def test_twenty_of_twentyfour_distinct_patterns_vanish(self):
        dist = evaluate_model(asymmetric_model())
        zeros = sum(
            1
            for idx in itertools.product(range(4), repeat=3)
            if len(set(idx)) == 3 and dist.probs[idx] == 0.0
        )
        assert zeros == 20

    def test_deterministic_responses(self):
        model = asymmetric_model()
        assert all(r.deterministic for r in model.responses)


class TestEvaluateAndSample:
    def test_line_model_evaluation(self):
        # Two parties on a line: middle source copied by both ends.
        sources = (
            HiddenSource.uniform(4),
            HiddenSource.uniform(4),
            HiddenSource.uniform(4),
        )
        copy_right = np.zeros((4, 4, 4))
        copy_left = np.zeros((4, 4, 4))
        for l in range(4):
            for r in range(4):
                copy_right[l, r, r] = 1.0
                copy_left[l, r, l] = 1.0
        model = RingLocalModel(
            "line", 2, sources,
            (ResponseTable(0, copy_right), ResponseTable(1, copy_left)),
        )
        dist = evaluate_model(model)
        assert abs(coincidence_stats(dist).p_pair_equal - 1.0) < 1e-12

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(random_models())
    def test_matches_brute_force_sum(self, case):
        model, reads = case
        expected = brute_force_table(model, reads)
        assert np.max(np.abs(evaluate_model(model).probs - expected)) < 1e-14

    def test_capacity_bound(self):
        # 500**3 hidden configurations exceed the documented 1e8 budget.
        sources = tuple(HiddenSource.uniform(500) for _ in range(3))
        table = np.zeros((500, 500, 4))
        table[:, :, 0] = 1.0
        responses = tuple(ResponseTable(i, table) for i in range(3))
        model = RingLocalModel("polygon", 3, sources, responses)
        with pytest.raises(CapacityError):
            evaluate_model(model)

    def test_sampling_converges_to_q_model(self):
        estimate = coincidence_stats(sample_model(q_model(0.5), 10**6, seed=42))
        p = 61 / 256
        sigma = math.sqrt(p * (1 - p) / 10**6)
        assert abs(estimate.p_all_equal - p) < 3 * sigma

    def test_sampling_converges_to_asymmetric(self):
        estimate = coincidence_stats(sample_model(asymmetric_model(), 10**6, seed=11))
        sigma = math.sqrt(0.25 / 10**6)
        assert abs(estimate.p_pair_equal - 0.5) < 3 * sigma

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(st.one_of(st.floats(0.0, 1.0).map(q_model), mixed_models()), st.integers(0, 2**32 - 1))
    def test_sampling_within_binomial_bound(self, model, seed):
        shots = 20_000
        exact = evaluate_model(model).probs
        sampled = sample_model(model, shots, seed=seed).probs
        assert np.all(sampled[exact == 0.0] == 0.0)
        sigma = np.sqrt(exact * (1.0 - exact) / shots)
        assert np.all(np.abs(sampled - exact) <= 5.0 * sigma)

    def test_zero_shots_rejected(self):
        with pytest.raises(DomainError):
            sample_model(q_model(0.5), 0)

    def test_sampling_deterministic(self):
        a = sample_model(asymmetric_model(), 1000, seed=5).probs
        b = sample_model(asymmetric_model(), 1000, seed=5).probs
        assert np.array_equal(a, b)


class TestModelValidation:
    def test_source_weights_must_normalise(self):
        with pytest.raises(ValidationError):
            HiddenSource(2, np.array([0.6, 0.6]))

    def test_response_rows_must_normalise(self):
        with pytest.raises(ValidationError):
            ResponseTable(0, np.full((2, 2, 4), 0.3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_source_weights_must_be_finite(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            HiddenSource(2, np.array([bad, bad]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_response_rows_must_be_finite(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            ResponseTable(0, np.full((2, 2, 4), bad))

    def test_arity_mismatch(self):
        source = HiddenSource.uniform(2)
        table = ResponseTable(0, np.full((2, 2, 4), 0.25))
        with pytest.raises(DomainError):
            RingLocalModel("polygon", 3, (source,) * 2, (table,) * 3)

    def test_json_round_trip(self):
        model = q_model(0.25)
        restored = model_from_json_dict(model_to_json_dict(model))
        assert restored.kind == model.kind
        assert np.max(np.abs(
            evaluate_model(restored).probs - evaluate_model(model).probs
        )) < 1e-15


class TestExhaustiveSearch:
    def test_cardinality_one_max(self):
        result = exhaustive_search(1, MAX_ALL_EQUAL)
        assert result.value == 1.0
        # Lexicographic tie-break: every party constantly outputs 1.
        for resp in result.witness.responses:
            assert np.allclose(resp.table[:, :, 0], 1.0)

    def test_cardinality_two_max(self):
        result = exhaustive_search(2, MAX_ALL_EQUAL)
        assert result.value >= 0.5
        recheck = all_equal_probability(evaluate_model(result.witness))
        assert abs(recheck - result.value) < 1e-12

    def test_cardinality_one_distances_analytic(self, triangle_ejm):
        # A constant-output triple puts all mass on one cell, so the best L1
        # distance is 2 (1 - 25/256) and the best Linf distance 1 - 25/256.
        l1 = exhaustive_search(1, MIN_L1, triangle_ejm)
        assert abs(l1.value - 2.0 * (1.0 - 25.0 / 256.0)) < 1e-12
        linf = exhaustive_search(1, MIN_LINF, triangle_ejm)
        assert abs(linf.value - (1.0 - 25.0 / 256.0)) < 1e-12

    def test_cardinality_two_l1_baseline(self, triangle_ejm):
        result = exhaustive_search(2, MIN_L1, triangle_ejm)
        assert result.value > 0.0
        # Frozen enumeration optimum over deterministic tables with uniform
        # binary sources.
        assert abs(result.value - 17.0 / 16.0) < 1e-12
        assert witness_codes(result) == (27, 45, 54)
        recheck = float(np.abs(
            evaluate_model(result.witness).probs - triangle_ejm.probs
        ).sum())
        assert abs(recheck - result.value) < 1e-12

    @pytest.mark.parametrize(
        "target, value, codes",
        [
            ("triangle_ejm", 0.10546875000000003, (6, 111, 148)),
            ("triangle_ejm_coarse", 0.09374999999999978, (5, 5, 5)),
        ],
        ids=["ejm-triangle", "ejm-triangle-coarse"],
    )
    def test_cardinality_two_linf_baseline(self, request, target, value, codes):
        target = request.getfixturevalue(target)
        result = exhaustive_search(2, MIN_LINF, target)
        # Frozen enumeration optimum and lexicographically smallest witness.
        assert result.value == value
        assert witness_codes(result) == codes
        recheck = float(np.abs(evaluate_model(result.witness).probs - target.probs).max())
        assert recheck == value

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.sampled_from([1, 2]), st.sampled_from(OBJECTIVES), st.integers(0, 2**32 - 1))
    def test_hit_scores_match_contraction(self, c, objective, seed):
        rng = np.random.default_rng(seed)
        tables = [rng.integers(0, 4, size=(c, c)) for _ in range(3)]
        target = rng.dirichlet(np.full(64, 0.3))
        kernel = _hit_scores(objective, candidate_codes(tables)[:, None], target)[0]
        table = _contract(_TRIANGLE, [np.eye(4)[t] for t in tables], [np.full(c, 1.0 / c)] * 3)
        assert abs(kernel - _objective_value(objective, table, target)) < 1e-12

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_source_relabellings_keep_the_outcome_table(self, seed):
        rng = np.random.default_rng(seed)
        tables = [rng.integers(0, 4, size=(2, 2)) for _ in range(3)]
        target = rng.dirichlet(np.ones(64))
        outcome_tables, scores = [], []
        for flips in itertools.product((0, 1), repeat=3):
            # Flipping source s swaps its two values in every table that reads it.
            values = [[f, 1 - f] for f in flips]
            relabelled = [
                t[np.ix_(values[left], values[right])]
                for t, (left, right) in zip(tables, map(_TRIANGLE.party_sources, range(3)))
            ]
            outcome_tables.append(
                _contract(_TRIANGLE, [np.eye(4)[t] for t in relabelled], [np.full(2, 0.5)] * 3)
            )
            codes = candidate_codes(relabelled)[:, None]
            scores.append([_hit_scores(o, codes, target)[0] for o in OBJECTIVES])
        assert all(np.array_equal(t, outcome_tables[0]) for t in outcome_tables)
        assert all(s == scores[0] for s in scores)

    def test_weight_refinement_keeps_optimum(self):
        result = exhaustive_search(2, MAX_ALL_EQUAL, optimize_weights=True)
        assert result.weights_refined
        assert result.value >= 1.0 - 1e-12

    def test_cardinality_three_rejected(self):
        with pytest.raises(CapacityError):
            exhaustive_search(3, MAX_ALL_EQUAL)

    def test_distance_objective_needs_target(self):
        with pytest.raises(ValidationError):
            exhaustive_search(2, MIN_L1)


class TestAnnealSearch:
    def test_rediscovers_half_or_better(self):
        result = anneal_search(
            2, MAX_ALL_EQUAL, seed=42, schedule=AnnealSchedule(steps=100_000)
        )
        assert result.value >= 0.5

    def test_cardinality_four_embedding(self):
        result = anneal_search(
            4, MAX_ALL_EQUAL, seed=7, schedule=AnnealSchedule(steps=20_000)
        )
        assert result.value >= 0.5

    def test_deterministic_given_seed(self):
        runs = [
            anneal_search(2, MAX_ALL_EQUAL, seed=9, schedule=AnnealSchedule(steps=2000))
            for _ in range(2)
        ]
        assert runs[0].value == runs[1].value
        assert runs[0].trace == runs[1].trace
        for a, b in zip(runs[0].witness.responses, runs[1].witness.responses):
            assert np.array_equal(a.table, b.table)

    def test_witness_self_certifies(self, triangle_ejm):
        result = anneal_search(
            2, MIN_L1, triangle_ejm, seed=3, schedule=AnnealSchedule(steps=5000)
        )
        recheck = float(np.abs(
            evaluate_model(result.witness).probs - triangle_ejm.probs
        ).sum())
        assert abs(recheck - result.value) < 1e-12

    def test_coarse_grained_target_distance_reported(self, triangle_ejm_coarse):
        result = anneal_search(
            2,
            MIN_LINF,
            triangle_ejm_coarse,
            seed=42,
            schedule=AnnealSchedule(steps=100_000),
        )
        # Best distance found by this deterministic run; exact attainment is
        # not claimed.
        assert abs(result.value - 0.06415341694737081) < 1e-9
        recheck = float(np.abs(
            evaluate_model(result.witness).probs - triangle_ejm_coarse.probs
        ).max())
        assert abs(recheck - result.value) < 1e-12

    def test_trace_is_monotone_improvement(self):
        result = anneal_search(
            2, MAX_ALL_EQUAL, seed=1, schedule=AnnealSchedule(steps=3000)
        )
        values = [v for _, v in result.trace]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_cardinality_bound(self):
        with pytest.raises(CapacityError):
            anneal_search(5, MAX_ALL_EQUAL)

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("steps", -5),
            ("steps", 2.5),
            ("cooling", 0.0),
            ("cooling", 5.0),
            ("cooling", math.nan),
        ],
    )
    def test_schedule_rejects_out_of_domain_field(self, field, bad):
        # Before validation, steps=-5 or cooling=5.0 ran silently to value 0.0,
        # and steps=2.5 died in range() with a TypeError.
        with pytest.raises(DomainError, match=field):
            AnnealSchedule(**{field: bad})

    def test_schedule_accepts_domain_edges(self):
        AnnealSchedule(steps=0, cooling=1.0)
        AnnealSchedule(steps=np.int64(3))
