import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog

from ejmnet import belllp
from ejmnet.bases import basis_by_name
from ejmnet.belllp import (
    INCONCLUSIVE,
    LOCAL,
    NONLOCAL,
    _candidate_row_perms,
    _column_image,
    _master_matrix,
    _orbit_master_matrix,
    _orbits,
    _symmetry_group,
    _vertex_matrix,
    bell_lp_check,
    chsh_value,
    line_conditional_target,
    pr_box_target,
    uniform_target,
    verify_certificate,
)
from ejmnet.cli import main
from ejmnet.errors import ValidationError

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def full_separation_optimum(target) -> float:
    """max f . p - s over f in [-1, 1]^256 with f . v <= s on all 65536 vertices."""
    p = np.asarray(target, dtype=float).ravel()
    result = linprog(
        np.concatenate([-p, [1.0]]),
        A_ub=sparse.hstack([_vertex_matrix().T, -np.ones((65536, 1))]),
        b_ub=np.zeros(65536),
        bounds=[(-1, 1)] * 256 + [(None, None)],
        method="highs",
    )
    assert result.status == 0
    return -result.fun


def vertex_mixture(rng, k) -> np.ndarray:
    p = np.zeros((4, 4, 4, 4))
    for weight in rng.dirichlet(np.ones(k)):
        left, right = rng.integers(0, 4, size=4), rng.integers(0, 4, size=4)
        for x in range(4):
            for y in range(4):
                p[x, y, left[x], right[y]] += weight
    return p


@pytest.fixture(scope="module")
def line4_certificate():
    return bell_lp_check(line_conditional_target()), line_conditional_target()


class TestTargets:
    def test_line_conditional_is_valid(self):
        target = line_conditional_target()
        assert target.shape == (4, 4, 4, 4)
        assert np.allclose(target.sum(axis=(2, 3)), 1.0, atol=1e-10)
        assert float(target.min()) >= 0.0

    def test_line_conditional_is_nonsignalling(self):
        # The middle parties' marginals cannot depend on the far end outcome.
        target = line_conditional_target()
        left = target.sum(axis=3)   # p(a | x, y)
        right = target.sum(axis=2)  # p(b | x, y)
        assert np.max(np.abs(left - left[:, :1, :])) < 1e-10
        assert np.max(np.abs(right - right.mean(axis=0, keepdims=True))) < 1e-10

    def test_pr_box_attains_algebraic_chsh(self):
        assert abs(chsh_value(pr_box_target()) - 4.0) < 1e-12

    def test_line_conditional_respects_chsh(self):
        assert abs(chsh_value(line_conditional_target())) <= 2.0 + 1e-9


class TestMembership:
    def test_uniform_noise_is_local(self):
        certificate = bell_lp_check(uniform_target())
        assert certificate.verdict == LOCAL
        assert certificate.reconstruction_residual < 1e-8

    def test_line4_conditional_is_local(self, line4_certificate):
        certificate, target = line4_certificate
        assert certificate.verdict == LOCAL
        assert certificate.reconstruction_residual < 1e-8
        check = verify_certificate(certificate, target)
        assert check["reconstruction_residual"] < 1e-8
        assert check["weight_sum_residual"] < 1e-8
        assert check["min_weight"] >= 0.0

    def test_line4_needs_few_columns(self, line4_certificate):
        certificate, _ = line4_certificate
        assert 1 <= certificate.rounds
        assert 0 < certificate.columns < 4096
        assert np.count_nonzero(certificate.weights) <= certificate.columns

    def test_pr_box_is_nonlocal_with_separating_functional(self):
        target = pr_box_target()
        certificate = bell_lp_check(target)
        assert certificate.verdict == NONLOCAL
        assert certificate.margin > 1e-9
        assert certificate.target_value > certificate.classical_bound
        # Margin re-verified against every deterministic vertex.
        functional = certificate.functional.ravel()
        vertex_values = _vertex_matrix().T @ functional
        assert float(functional @ target.ravel()) - float(vertex_values.max()) > 1e-9
        assert abs(verify_certificate(certificate, target)["margin"] - certificate.margin) <= 1e-12
        assert np.max(np.abs(functional)) <= 1.0 + 1e-9

    def test_malformed_target_rejected(self):
        with pytest.raises(ValidationError):
            bell_lp_check(np.zeros((4, 4, 4, 4)))
        with pytest.raises(ValidationError):
            bell_lp_check(np.zeros((2, 2, 2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_target_rejected(self, bad):
        target = uniform_target()
        target[0, 0, 0, 0] = bad
        with pytest.raises(ValidationError, match="finite"):
            bell_lp_check(target)


class TestColumnGeneration:
    @settings(derandomize=True, max_examples=12, deadline=None)
    @given(SEEDS, st.integers(min_value=1, max_value=8))
    def test_vertex_mixtures_are_local(self, seed, k):
        target = vertex_mixture(np.random.default_rng(seed), k)
        certificate = bell_lp_check(target)
        assert certificate.verdict == LOCAL
        check = verify_certificate(certificate, target)
        assert check["reconstruction_residual"] < 1e-8
        assert check["weight_sum_residual"] < 1e-8
        assert check["min_weight"] >= 0.0

    @settings(derandomize=True, max_examples=6, deadline=None)
    @given(st.floats(min_value=0.6, max_value=1.0))
    def test_noisy_pr_box_is_nonlocal(self, v):
        target = v * pr_box_target() + (1.0 - v) * uniform_target()
        certificate = bell_lp_check(target)
        assert certificate.verdict == NONLOCAL
        check = verify_certificate(certificate, target)
        assert abs(check["margin"] - certificate.margin) < 1e-12
        assert check["margin"] > 1e-9
        assert np.max(np.abs(certificate.functional)) <= 1.0 + 1e-9

    @pytest.mark.parametrize("v", [1.0, 0.7])
    def test_margin_is_the_full_lp_optimum(self, v):
        target = v * pr_box_target() + (1.0 - v) * uniform_target()
        certificate = bell_lp_check(target)
        assert certificate.verdict == NONLOCAL
        assert abs(certificate.margin - full_separation_optimum(target)) < 1e-8


class TestVertexMatrix:
    def test_column_structure(self):
        v = _vertex_matrix()
        assert v.shape == (256, 65536)
        sums = np.asarray(v.sum(axis=0)).ravel()
        assert np.all(sums == 16)
        # Column 0: both parties always answer 0.
        col = np.asarray(v[:, 0].todense()).ravel().reshape(4, 4, 4, 4)
        assert col[0, 0, 0, 0] == 1 and col[1, 2, 0, 0] == 1 and col[0, 0, 1, 0] == 0


LOCAL_TARGETS = {
    "ejm-line": line_conditional_target,
    "uniform": uniform_target,
    **{
        f"chain-{name}": (lambda name=name: line_conditional_target(basis_by_name(name)))
        for name in ("ejmz", "mp", "bsm")
    },
    **{
        f"mixture-{k}": (lambda k=k: vertex_mixture(np.random.default_rng(k), k))
        for k in (3, 20, 60)
    },
}


class TestMaster:
    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(SEEDS, st.integers(min_value=1, max_value=300))
    def test_matrix_is_vertices_sum_row_and_slacks(self, seed, k):
        columns = np.random.default_rng(seed).choice(65536, size=k, replace=False)
        a = _master_matrix(columns)
        assert a.shape == (257, k + 512)
        assert a.has_sorted_indices
        dense = a.toarray()
        assert np.array_equal(dense[:256, :k], _vertex_matrix()[:, columns].toarray())
        assert np.all(dense[256, :k] == 1)
        slacks = np.vstack([np.hstack([np.eye(256), -np.eye(256)]), np.zeros((1, 512))])
        assert np.array_equal(dense[:, k:], slacks)

    @pytest.mark.parametrize("name", LOCAL_TARGETS)
    def test_local_weights_are_a_basic_solution_on_the_working_columns(self, monkeypatch, name):
        built = []
        monkeypatch.setattr(
            belllp, "_master_matrix", lambda columns: built.append(columns) or _master_matrix(columns)
        )
        certificate = bell_lp_check(LOCAL_TARGETS[name]())
        assert certificate.verdict == LOCAL
        weights = certificate.weights
        assert weights.min() >= 0.0
        assert abs(weights.sum() - 1.0) <= 1e-12
        support = np.flatnonzero(weights)
        assert np.isin(support, built[-1]).all()
        assert built[-1].size == certificate.columns
        assert support.size <= 257


def noisy_pr_box(v=0.8):
    return v * pr_box_target() + (1.0 - v) * uniform_target()


# name -> (target, order of its detected symmetry group).
SYMMETRIC_TARGETS = {
    "ejm-line": (line_conditional_target, 48),
    "chain-ejmz": (lambda: line_conditional_target(basis_by_name("ejmz")), 48),
    "chain-bsm": (lambda: line_conditional_target(basis_by_name("bsm")), 48),
    "chain-mp": (lambda: line_conditional_target(basis_by_name("mp")), 8),
    "noisy-pr-box": (noisy_pr_box, 4),
    "mixture-6": (lambda: vertex_mixture(np.random.default_rng(6), 6), 1),
}
GROUPS = {name: _symmetry_group(target().ravel()) for name, (target, _) in SYMMETRIC_TARGETS.items()}


class TestSymmetry:
    @pytest.mark.parametrize("name", SYMMETRIC_TARGETS)
    def test_detected_group_order(self, name):
        target, order = SYMMETRIC_TARGETS[name]
        assert len(_symmetry_group(target().ravel())) == order

    @pytest.mark.parametrize("name", GROUPS)
    def test_detected_group_is_closed_under_composition(self, name):
        group = GROUPS[name]
        perms = _candidate_row_perms()
        members = {tuple(perms[g]) for g in group}
        assert all(tuple(perms[g][perms[h]]) in members for g in group for h in group)

    def test_candidates_move_vertices_to_vertices(self):
        # Column c's 16 rows, moved by a candidate, are the rows of its column image.
        rows = _vertex_matrix().indices.reshape(65536, 16)
        for g, perm in enumerate(_candidate_row_perms()):
            moved = np.sort(perm[rows], axis=1)
            assert np.array_equal(moved, rows[_column_image(g)]), g

    @pytest.mark.parametrize("name", GROUPS)
    def test_orbit_counts_obey_burnside(self, name):
        # The number of orbits is the mean number of points each element fixes.
        group = GROUPS[name]
        row_orbit, representative = _orbits(group)
        perms = _candidate_row_perms()
        row_fixed = sum(np.count_nonzero(perms[g] == np.arange(256)) for g in group)
        pair_fixed = sum(np.count_nonzero(_column_image(g) == np.arange(65536)) for g in group)
        assert row_orbit.max() + 1 == row_fixed / len(group)
        assert np.unique(representative).size == pair_fixed / len(group)

    @pytest.mark.parametrize("name", ["chain-mp", "noisy-pr-box"])
    def test_orbit_members_share_their_summed_column(self, name):
        row_orbit, representative = _orbits(GROUPS[name])
        summed = _orbit_master_matrix(np.arange(65536), row_orbit)[:-1, :65536].toarray()
        assert np.array_equal(summed, summed[:, representative])

    def test_a_wrong_group_costs_no_verdict(self, monkeypatch):
        # Both certificates are re-checked on the full vertex matrix.
        monkeypatch.setattr(belllp, "_symmetry_group", lambda p: tuple(range(48)))
        assert bell_lp_check(vertex_mixture(np.random.default_rng(3), 6)).verdict != NONLOCAL
        assert bell_lp_check(pr_box_target()).verdict != LOCAL

    # v stays off (0, 0.05): a PR-box share of ~6e-8 leaves a behaviour within
    # HiGHS's 1e-7 feasibility tolerances of the polytope, and its verdict is INCONCLUSIVE.
    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(
        SEEDS,
        st.sampled_from(sorted(set(GROUPS.values()))),
        st.just(0.0) | st.floats(0.05, 1.0),
        st.integers(1, 8),
    )
    def test_group_averaged_targets(self, seed, group, v, k):
        rng = np.random.default_rng(seed)
        p = (v * pr_box_target() + (1.0 - v) * vertex_mixture(rng, k)).ravel()
        target = p[_candidate_row_perms()[list(group)]].mean(axis=0)
        assert set(_symmetry_group(target)) >= set(group)
        certificate = bell_lp_check(target.reshape(4, 4, 4, 4))
        event(f"|G| = {len(group)}, {certificate.verdict}")
        if certificate.verdict == LOCAL:
            check = verify_certificate(certificate, target.reshape(4, 4, 4, 4))
            assert check["reconstruction_residual"] < 1e-8
            assert check["weight_sum_residual"] < 1e-8
            assert check["min_weight"] >= 0.0
        else:
            assert certificate.verdict == NONLOCAL
            assert abs(certificate.margin - full_separation_optimum(target)) < 1e-8


class TestInconclusive:
    def failed_solve(self, *args, **kwargs):
        return SimpleNamespace(status=2, message="The problem is infeasible.")

    def test_solver_failure(self, monkeypatch):
        monkeypatch.setattr(belllp, "linprog", self.failed_solve)
        certificate = bell_lp_check(uniform_target())
        assert certificate.verdict == INCONCLUSIVE
        assert certificate.solver_status == "The problem is infeasible."
        assert certificate.rounds == 1 and certificate.columns > 0
        assert certificate.weights is None and certificate.functional is None

    def test_solver_failure_exits_one(self, monkeypatch, capsys):
        monkeypatch.setattr(belllp, "linprog", self.failed_solve)
        assert main(["bell-check", "--target", "uniform"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == INCONCLUSIVE
        assert payload["solver_status"] == "The problem is infeasible."

    def test_void_fit(self, monkeypatch):
        monkeypatch.setattr(belllp, "RECONSTRUCTION_ATOL", 0.0)
        certificate = bell_lp_check(line_conditional_target())
        assert certificate.verdict == INCONCLUSIVE
        assert 0.0 <= certificate.reconstruction_residual < 1e-8
        assert certificate.weights is not None and certificate.functional is None
