import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ejmnet import (
    CapacityError,
    DomainError,
    JointDistribution,
    NonDyadicError,
    TwoQubitBasis,
    UnknownEventError,
    ValidationError,
    basis_by_name,
    closed_form_line,
    closed_form_polygon,
    coincidence_stats,
    conditional_all_equal,
    conditional_all_equal_fraction,
    distribution_to_json_dict,
    dyadic_reconstruct,
    event_probability,
    joint_distribution_naive,
    line_all_equal_dyadic,
    open_line,
    polygon,
    polygon_all_equal_dyadic,
    table2_rows,
)

SQRT3 = math.sqrt(3.0)

# All-equal probabilities for 1..10 parties, exact dyadic forms.
LINE_TABLE = {
    1: (1, 0), 2: (7, 4), 3: (13, 6), 4: (97, 10), 5: (181, 12),
    6: (1351, 16), 7: (2521, 18), 8: (18817, 22), 9: (35113, 24), 10: (262087, 28),
}
POLYGON_TABLE = {
    2: (1, 0), 3: (25, 6), 4: (49, 8), 5: (361, 12), 6: (169, 12),
    7: (5041, 18), 8: (9409, 20), 9: (70225, 24), 10: (32761, 24),
}
CONDITIONAL_TABLE = {
    2: Fraction(1), 3: Fraction(25, 28), 4: Fraction(49, 52), 5: Fraction(361, 388),
    6: Fraction(169, 181), 7: Fraction(5041, 5404), 8: Fraction(9409, 10084),
    9: Fraction(70225, 75268), 10: Fraction(32761, 35113),
}


class TestClosedForms:
    def test_line_values(self):
        for n, (num, k) in LINE_TABLE.items():
            assert abs(closed_form_line(n) - math.ldexp(num, -k)) < 1e-15
            dyadic = line_all_equal_dyadic(n)
            assert (dyadic.numerator, dyadic.log2_denominator) == (num, k)

    def test_polygon_values(self):
        for n, (num, k) in POLYGON_TABLE.items():
            assert abs(closed_form_polygon(n) - math.ldexp(num, -k)) < 1e-15
            dyadic = polygon_all_equal_dyadic(n)
            assert (dyadic.numerator, dyadic.log2_denominator) == (num, k)

    def test_conditional_values(self):
        for n, frac in CONDITIONAL_TABLE.items():
            assert conditional_all_equal_fraction(n) == frac
            if n >= 3:
                assert abs(conditional_all_equal(n) - float(frac)) < 1e-12

    def test_conditional_asymptote(self):
        limit = (2.0 + SQRT3) / 4.0
        assert abs(conditional_all_equal(30) - limit) < 1e-6
        assert abs(limit - 1.0 / (8.0 - 4.0 * SQRT3)) < 1e-15

    def test_conditional_converges_monotonically_enough(self):
        limit = (2.0 + SQRT3) / 4.0
        previous = None
        for n in range(3, 31):
            value = closed_form_polygon(n)
            if previous is not None:
                assert value < previous
            previous = value
        deltas = [abs(conditional_all_equal(n) - limit) for n in range(25, 31)]
        assert all(d < 1e-6 for d in deltas)

    def test_range_errors(self):
        for call in (
            lambda: closed_form_line(0),
            lambda: closed_form_line(65),
            lambda: closed_form_polygon(1),
            lambda: conditional_all_equal(2),
        ):
            with pytest.raises(DomainError):
                call()


class TestDyadicReconstruct:
    def test_reduces_to_lowest_terms(self):
        d = dyadic_reconstruct(0.09765625, 10)
        assert (d.numerator, d.log2_denominator) == (25, 8)

    def test_half(self):
        d = dyadic_reconstruct(0.5, 1)
        assert (d.numerator, d.log2_denominator) == (1, 1)

    def test_non_dyadic_rejected(self):
        with pytest.raises(NonDyadicError):
            dyadic_reconstruct(1.0 / 3.0, 8)

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            dyadic_reconstruct(1.5, 4)

    def test_zero(self):
        d = dyadic_reconstruct(0.0, 12)
        assert (d.numerator, d.log2_denominator) == (0, 0)


class TestTriangleDistribution:
    def test_pattern_values_exact_dyadic(self, triangle_ejm):
        for idx in np.ndindex(4, 4, 4):
            p = float(triangle_ejm.probs[idx])
            dyadic = dyadic_reconstruct(p, 8)
            expected = {1: 25, 2: 1, 3: 5}[len(set(idx))]
            assert (dyadic.numerator, dyadic.log2_denominator) == (expected, 8)

    def test_normalization_identity(self):
        assert 4 * 25 + 36 * 1 + 24 * 5 == 256

    def test_full_permutation_symmetry(self, triangle_ejm):
        p = triangle_ejm.probs
        for perm in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
            assert np.max(np.abs(p.transpose(perm) - p)) < 1e-12

    def test_uniform_marginals(self, triangle_ejm):
        for party in range(3):
            axes = tuple(i for i in range(3) if i != party)
            assert np.allclose(triangle_ejm.probs.sum(axis=axes), 0.25, atol=1e-12)

    def test_stats(self, triangle_ejm):
        stats = coincidence_stats(triangle_ejm)
        assert abs(stats.p_pair_equal - 7.0 / 16.0) < 1e-12
        assert abs(stats.p_cond_pair - 7.0 / 16.0) < 1e-12
        assert abs(stats.p_all_equal - 25.0 / 64.0) < 1e-12
        assert abs(stats.p_cond_triple - 25.0 / 28.0) < 1e-12

    def test_pattern_classes(self, triangle_ejm):
        classes = coincidence_stats(triangle_ejm).pattern_classes
        assert classes["0-0-0"]["count"] == 4
        assert classes["0-1-2"]["count"] == 24
        assert abs(classes["0-1-2"]["total"] - 24 * 5 / 256) < 1e-12
        pair_counts = [classes[key]["count"] for key in ("0-0-1", "0-1-0", "0-1-1")]
        assert pair_counts == [12, 12, 12]


class TestNaiveAgainstClosedForms:
    def test_line_all_equal(self, ejm):
        for n in range(1, 7):
            dist = joint_distribution_naive(open_line(n), ejm)
            total = sum(float(dist.probs[(k,) * n]) for k in range(4))
            assert abs(total - closed_form_line(n)) < 1e-10

    def test_polygon_all_equal(self, ejm):
        for n in range(2, 7):
            dist = joint_distribution_naive(polygon(n), ejm)
            total = sum(float(dist.probs[(k,) * n]) for k in range(4))
            assert abs(total - closed_form_polygon(n)) < 1e-10

    def test_uniform_marginals_both_topologies(self, ejm):
        for top in (open_line(3), polygon(4)):
            dist = joint_distribution_naive(top, ejm)
            n = top.n_parties
            for party in range(n):
                axes = tuple(i for i in range(n) if i != party)
                assert np.allclose(dist.probs.sum(axis=axes), 0.25, atol=1e-12)

    def test_capacity_bound(self, ejm):
        with pytest.raises(CapacityError):
            joint_distribution_naive(polygon(9), ejm)


class TestEventProbability:
    @pytest.mark.parametrize("name", ["ejm", "mp", "bsm"])
    def test_all_equal_matches_naive(self, name):
        basis = basis_by_name(name)
        for make, lo in ((open_line, 1), (polygon, 2)):
            for n in range(lo, 7):
                top = make(n)
                dist = joint_distribution_naive(top, basis)
                naive = sum(float(dist.probs[(k,) * n]) for k in range(4))
                assert abs(event_probability(top, basis, "all-equal") - naive) < 1e-10

    @pytest.mark.parametrize("name", ["ejm", "mp"])
    def test_prefix_matches_naive(self, name):
        basis = basis_by_name(name)
        for top in (open_line(4), polygon(5)):
            dist = joint_distribution_naive(top, basis)
            n = top.n_parties
            for n_prefix in range(1, n + 1):
                marginal = dist.probs.sum(axis=tuple(range(n_prefix, n)))
                naive = sum(float(marginal[(k,) * n_prefix]) for k in range(4))
                fast = event_probability(top, basis, ("prefix-equal", n_prefix))
                assert abs(fast - naive) < 1e-10

    def test_specific_matches_naive_and_symmetry(self, ejm):
        top = polygon(5)
        dist = joint_distribution_naive(top, ejm)
        outcome = (1, 1, 1, 1, 1)
        fast = event_probability(top, ejm, outcome)
        assert abs(fast - dist.prob(outcome)) < 1e-12
        assert abs(fast - closed_form_polygon(5) / 4.0) < 1e-12
        mixed = (1, 3, 2, 4, 1)
        assert abs(event_probability(top, ejm, mixed) - dist.prob(mixed)) < 1e-12

    def test_polygon_ten_all_equal_exact(self, ejm):
        p = event_probability(polygon(10), ejm, "all-equal")
        dyadic = dyadic_reconstruct(p, 24)
        assert (dyadic.numerator, dyadic.log2_denominator) == (32761, 24)

    def test_single_party_line_all_equal_is_one(self, ejm):
        assert abs(event_probability(open_line(1), ejm, "all-equal") - 1.0) < 1e-12

    def test_unknown_event(self, ejm):
        with pytest.raises(UnknownEventError):
            event_probability(polygon(3), ejm, "all-different")

    def test_capacity_bound(self, ejm):
        with pytest.raises(CapacityError):
            event_probability(polygon(65), ejm, "all-equal")


class TestRingOrientation:
    @pytest.mark.parametrize("name", ["ejm", "mp"])
    def test_cyclic_invariance(self, name):
        basis = basis_by_name(name)
        p = joint_distribution_naive(polygon(4), basis).probs
        assert np.max(np.abs(np.transpose(p, (1, 2, 3, 0)) - p)) < 1e-12

    @pytest.mark.parametrize("name", ["ejm", "mp"])
    def test_reversal_composes_with_party_reversal(self, name):
        basis = basis_by_name(name)
        swapped = TwoQubitBasis(
            "CUSTOM",
            np.array([s.reshape(2, 2).T.reshape(4) for s in basis.states]),
        )
        n = 4
        p = joint_distribution_naive(polygon(n), basis).probs
        q = joint_distribution_naive(polygon(n), swapped).probs
        assert np.max(np.abs(q - np.transpose(p, (3, 2, 1, 0)))) < 1e-12


def haar_basis(seed):
    """Two-qubit measurement whose states are the columns of a Haar-random unitary."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    return TwoQubitBasis("CUSTOM", (q * (np.diag(r) / np.abs(np.diag(r)))).T)


def relabel(p, perm):
    """Table with the same outcome permutation applied on every party."""
    return p[np.ix_(*[list(perm)] * p.ndim)]


RELABELLINGS = list(itertools.permutations(range(4)))
SEEDS = st.integers(0, 2**32 - 1)
TOPOLOGIES = st.one_of(st.integers(1, 6).map(open_line), st.integers(2, 6).map(polygon))


class TestSymmetryProperties:
    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(SEEDS, st.integers(2, 6))
    def test_ring_cyclic_shift_invariance(self, seed, n):
        p = joint_distribution_naive(polygon(n), haar_basis(seed)).probs
        shifted = np.transpose(p, tuple(range(1, n)) + (0,))
        assert np.max(np.abs(shifted - p)) < 1e-15

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(st.sampled_from(["ejm", "ejmz"]), TOPOLOGIES)
    def test_ejm_full_symmetry(self, name, top):
        # Reversal and all 24 global relabellings: the paper's full symmetry.
        p = joint_distribution_naive(top, basis_by_name(name)).probs
        assert np.max(np.abs(p.transpose(tuple(reversed(range(p.ndim)))) - p)) < 1e-15
        for perm in RELABELLINGS:
            assert np.max(np.abs(relabel(p, perm) - p)) < 1e-15

    def test_massar_popescu_is_not_fully_symmetric(self):
        # Control: the symmetry test can fail; MP keeps 8 relabellings only.
        p = joint_distribution_naive(polygon(4), basis_by_name("mp")).probs
        kept = [perm for perm in RELABELLINGS if np.max(np.abs(relabel(p, perm) - p)) < 1e-12]
        assert len(kept) == 8
        assert np.max(np.abs(p.transpose(3, 2, 1, 0) - p)) > 1e-6

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(SEEDS, TOPOLOGIES, st.data())
    def test_transfer_matches_naive_on_random_bases(self, seed, top, data):
        basis = haar_basis(seed)
        dist = joint_distribution_naive(top, basis)
        n = top.n_parties
        outcome = tuple(data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))
        assert abs(event_probability(top, basis, outcome) - dist.prob(outcome)) < 1e-14
        all_equal = sum(float(dist.probs[(k,) * n]) for k in range(4))
        assert abs(event_probability(top, basis, "all-equal") - all_equal) < 1e-14


class TestTopologyType:
    @pytest.mark.parametrize("build, n", [(polygon, 2.5), (open_line, 3.0)])
    def test_rejects_non_integer_party_count(self, build, n):
        with pytest.raises(DomainError, match="integer"):
            build(n)

    def test_accepts_numpy_integer_party_count(self):
        assert polygon(np.int64(3)).n_sources == 3


class TestJointDistributionType:
    def test_rejects_deep_negative(self):
        probs = np.full((4, 4), 1 / 16.0)
        probs[0, 0] = -2e-12
        probs[1, 1] += 1 / 16.0 + 2e-12
        with pytest.raises(ValidationError):
            JointDistribution(polygon(2), "x", probs)

    def test_rejects_bad_normalization(self):
        with pytest.raises(ValidationError):
            JointDistribution(polygon(2), "x", np.full((4, 4), 1 / 15.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            JointDistribution(polygon(2), "x", np.full((4, 4), bad))

    def test_clamps_tiny_negative(self):
        probs = np.full((4, 4), 1 / 16.0)
        probs[0, 0] = -1e-13
        probs[0, 1] += 1 / 16.0 + 1e-13
        dist = JointDistribution(polygon(2), "x", probs)
        assert dist.probs[0, 0] == 0.0

    def test_prob_validates_outcomes(self, triangle_ejm):
        with pytest.raises(DomainError):
            triangle_ejm.prob((1, 2))
        with pytest.raises(DomainError):
            triangle_ejm.prob((0, 1, 2))


class TestEmission:
    def test_json_dict_carries_dyadics(self, triangle_ejm):
        payload = distribution_to_json_dict(triangle_ejm)
        assert payload["topology"] == "polygon" and payload["n"] == 3
        assert len(payload["probabilities"]) == 64
        first = next(
            e for e in payload["probabilities"] if e["outcome"] == [1, 1, 1]
        )
        assert first["dyadic"] == {"num": 25, "log2den": 8}

    def test_json_deterministic(self, triangle_ejm):
        a = json.dumps(distribution_to_json_dict(triangle_ejm), sort_keys=True)
        b = json.dumps(distribution_to_json_dict(triangle_ejm), sort_keys=True)
        assert a == b

    def test_table2_rows(self):
        rows = table2_rows(10)
        assert len(rows) == 10
        by_n = {row["N"]: row for row in rows}
        assert by_n[7]["line_exact"] == "2521*2^-18"
        assert by_n[9]["polygon_exact"] == "70225*2^-24"
        assert by_n[10]["conditional_exact"] == "32761/35113"
        assert by_n[1]["polygon"] is None
