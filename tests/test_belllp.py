import json
import tracemalloc
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
    RECONSTRUCTION_ATOL,
    _OUTCOMES,
    _PARTY_SWAP,
    _column_image,
    _l1_fit,
    _orbit_master_matrix,
    _orbits,
    _vertex_image,
    _vertex_rows,
    _vertex_values,
    bell_lp_check,
    line_conditional_target,
    pr_box_target,
    uniform_target,
    verify_certificate,
)
from ejmnet.cli import main
from ejmnet.errors import ValidationError, cell_perms, symmetry_group

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def vertex_matrix() -> sparse.csc_matrix:
    """Oracle: the sparse (256, 65536) map from vertex weights to behaviour entries.

    Row index is ((x*4 + y)*4 + a)*4 + b; column i*256 + j is the product of
    strategies i (left party) and j (right party).  Built from COO entries,
    independently of the package's vertex helpers.
    """
    base = (np.arange(4)[:, None] * 4 + np.arange(4)[None, :]) * 16  # (x, y)
    rows = base[None, None, :, :] + _OUTCOMES[:, None, :, None] * 4 + _OUTCOMES[None, :, None, :]
    cols = np.broadcast_to(np.arange(65536).reshape(256, 256, 1, 1), rows.shape)
    return sparse.csc_matrix((np.ones(rows.size), (rows.ravel(), cols.ravel())), shape=(256, 65536))


def orbit_master_matrix(columns, row_orbit) -> sparse.csc_matrix:
    """Oracle: ``_orbit_master_matrix`` stacked block by block from identities."""
    n_rows = int(row_orbit.max()) + 1
    rows = row_orbit[_vertex_rows(columns)].ravel()
    summed = sparse.csc_matrix(
        (np.ones(rows.size), rows, 16 * np.arange(columns.size + 1)), shape=(n_rows, columns.size)
    )
    summed.sum_duplicates()
    eye = sparse.identity(n_rows)
    behaviour_rows = sparse.hstack([summed, eye, -eye])
    sum_row = np.concatenate([np.ones(columns.size), np.zeros(2 * n_rows)])
    return sparse.vstack([behaviour_rows, sum_row[None, :]], format="csc")


def full_separation_optimum(target) -> float:
    """max f . p - s over f in [-1, 1]^256 with f . v <= s on all 65536 vertices."""
    p = np.asarray(target, dtype=float).ravel()
    result = linprog(
        np.concatenate([-p, [1.0]]),
        A_ub=sparse.hstack([vertex_matrix().T, -np.ones((65536, 1))]),
        b_ub=np.zeros(65536),
        bounds=[(-1, 1)] * 256 + [(None, None)],
        method="highs",
    )
    assert result.status == 0
    return -result.fun


def chsh_value(target) -> float:
    """CHSH combination E00 + E01 + E10 - E11 on the first 2x2 input block.

    Outputs 0 and 1 are mapped to +1 and -1; outputs 2 and 3 do not
    contribute.  Local behaviours satisfy |S| <= 2 on every such block.
    """
    signs = np.array([1.0, -1.0, 0.0, 0.0])
    correlators = np.einsum("xyab,a,b->xy", np.asarray(target, dtype=float)[:2, :2], signs, signs)
    return float(correlators.sum() - 2.0 * correlators[1, 1])


def detected_group(p) -> tuple[int, ...]:
    return tuple(symmetry_group(np.ravel(p), _PARTY_SWAP).tolist())


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
        vertex_values = vertex_matrix().T @ functional
        assert float(functional @ target.ravel()) - float(vertex_values.max()) > 1e-9
        assert abs(verify_certificate(certificate, target)["margin"] - certificate.margin) <= 1e-12
        assert np.max(np.abs(functional)) <= 1.0 + 1e-9

    def test_check_and_verify_allocate_no_vertex_matrix(self):
        # All 65536 vertices are priced, rebuilt and re-checked from the
        # strategy digits, never from a (256, 65536) vertex matrix: its sparse
        # form alone would hold 12.6 MB.
        bell_lp_check(uniform_target())  # scipy's lazy imports and first solve
        _orbits.cache_clear()
        target = line_conditional_target()
        tracemalloc.start()
        try:
            certificate = bell_lp_check(target)
            verify_certificate(certificate, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert certificate.verdict == LOCAL
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB"

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

    # A PR-box share v lifts a deterministic vertex's CHSH value from 2 to
    # 2 + 2v, and the L1 distance to the polytope is 2v: down to v = 1e-9,
    # far inside HiGHS's default 1e-7 feasibility tolerances.  The exponent
    # is drawn, so every decade gets examples.
    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(st.floats(min_value=-9.0, max_value=-3.0).map(lambda e: 10.0**e))
    def test_pr_box_share_just_outside_the_polytope_is_nonlocal(self, v):
        target = v * pr_box_target() + (1.0 - v) * vertex_mixture(np.random.default_rng(0), 1)
        certificate = bell_lp_check(target)
        assert certificate.verdict == NONLOCAL
        assert abs(certificate.margin - 2.0 * v) < 1e-8

    @pytest.mark.parametrize("v", [1.0, 0.7])
    def test_margin_is_the_full_lp_optimum(self, v):
        target = v * pr_box_target() + (1.0 - v) * uniform_target()
        certificate = bell_lp_check(target)
        assert certificate.verdict == NONLOCAL
        assert abs(certificate.margin - full_separation_optimum(target)) < 1e-8


@pytest.fixture(scope="module")
def vertices():
    return vertex_matrix()


def same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestVertexMatrix:
    def test_column_structure(self, vertices):
        assert vertices.shape == (256, 65536)
        sums = np.asarray(vertices.sum(axis=0)).ravel()
        assert np.all(sums == 16)
        # Column 0: both parties always answer 0.
        col = np.asarray(vertices[:, 0].todense()).ravel().reshape(4, 4, 4, 4)
        assert col[0, 0, 0, 0] == 1 and col[1, 2, 0, 0] == 1 and col[0, 0, 1, 0] == 0

    def test_rows_are_the_oracle_indices(self, vertices):
        rows = _vertex_rows(np.arange(65536))
        assert rows.shape == (65536, 16) and rows.dtype == np.int32
        assert vertices.has_sorted_indices
        assert np.array_equal(rows.ravel(), vertices.indices)

    # The entries span 16 decades, so adding a vertex's 16 terms in any other
    # order than the matvec's could round differently.
    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(SEEDS, st.floats(min_value=-8.0, max_value=8.0))
    def test_values_are_the_oracle_matvec_bit_for_bit(self, vertices, seed, centre):
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(256) * 10.0 ** (centre + rng.uniform(-8.0, 8.0, size=256))
        values = _vertex_values(f)
        assert same_bits(values, (vertices.T @ f).reshape(256, 256))
        # Argmax ties fall as the oracle's do too: a functional of few levels.
        f = rng.integers(-2, 3, size=256) / 3.0
        assert same_bits(_vertex_values(f), (vertices.T @ f).reshape(256, 256))

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(SEEDS, st.integers(min_value=1, max_value=600))
    def test_image_is_the_oracle_matvec_bit_for_bit(self, vertices, seed, k):
        rng = np.random.default_rng(seed)
        w = np.zeros(65536)
        w[rng.choice(65536, size=k, replace=False)] = rng.dirichlet(np.ones(k))
        assert same_bits(_vertex_image(w), vertices @ w)


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
GROUPS = {name: detected_group(target()) for name, (target, _) in SYMMETRIC_TARGETS.items()}


# Reconstruction residuals of the chain targets' weights-form basic solutions:
# the spread weights must rebuild each chain no worse.
BASIC_SOLUTION_RESIDUALS = {
    "ejm-line": 7.771561172376096e-16,
    "chain-ejmz": 4.97241137153992e-14,
    "chain-mp": 5.680872439128848e-14,
    "chain-bsm": 7.008282842946301e-16,
}
NONLOCAL_TARGETS = {"pr-box": pr_box_target, "noisy-pr-box": noisy_pr_box}


def record_master_columns(monkeypatch) -> list:
    """The columns of every orbit master that bell_lp_check builds, in order."""
    built = []
    monkeypatch.setattr(
        belllp,
        "_orbit_master_matrix",
        lambda columns, row_orbit: built.append(columns) or _orbit_master_matrix(columns, row_orbit),
    )
    return built


class TestMaster:
    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(SEEDS, st.integers(min_value=1, max_value=300))
    def test_matrix_is_vertices_sum_row_and_slacks(self, vertices, seed, k):
        columns = np.random.default_rng(seed).choice(65536, size=k, replace=False)
        # The identity row orbits give the weights-form matrix.
        a = _orbit_master_matrix(columns, np.arange(256))
        assert a.shape == (257, k + 512)
        assert a.has_sorted_indices
        dense = a.toarray()
        assert np.array_equal(dense[:256, :k], vertices[:, columns].toarray())
        assert np.all(dense[256, :k] == 1)
        slacks = np.vstack([np.hstack([np.eye(256), -np.eye(256)]), np.zeros((1, 512))])
        assert np.array_equal(dense[:, k:], slacks)

    # HiGHS gets the oracle's exact arrays, so no solve can move.
    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(
        SEEDS,
        st.integers(min_value=1, max_value=2000),
        st.sampled_from([None, *sorted(set(GROUPS.values()))]),
    )
    def test_matrix_is_the_stacked_oracle_array_for_array(self, seed, k, group):
        columns = np.random.default_rng(seed).choice(65536, size=k, replace=False)
        row_orbit = np.arange(256) if group is None else _orbits(group)[0]
        a, oracle = _orbit_master_matrix(columns, row_orbit), orbit_master_matrix(columns, row_orbit)
        assert a.shape == oracle.shape
        assert a.indptr.dtype == oracle.indptr.dtype and np.array_equal(a.indptr, oracle.indptr)
        assert a.indices.dtype == oracle.indices.dtype and np.array_equal(a.indices, oracle.indices)
        assert same_bits(a.data, oracle.data)

    @pytest.mark.parametrize("name", LOCAL_TARGETS)
    def test_local_weights_are_spread_evenly_over_the_working_orbits(self, monkeypatch, name):
        built = record_master_columns(monkeypatch)
        target = LOCAL_TARGETS[name]()
        certificate = bell_lp_check(target)
        assert certificate.verdict == LOCAL
        weights = certificate.weights
        assert weights.min() >= 0.0
        assert abs(weights.sum() - 1.0) <= 1e-12
        group = detected_group(target)
        for g in group:
            assert np.array_equal(weights, weights[_column_image(g)]), g
        row_orbit, representative = _orbits(group)
        support = np.flatnonzero(weights)
        assert np.isin(representative[support], built[-1]).all()
        assert certificate.columns == support.size
        # A basic solution of the master weights at most one orbit per row.
        master_rows = row_orbit.max() + 2
        assert support.size <= master_rows * len(group)

    @pytest.mark.parametrize("name", [name for name in LOCAL_TARGETS if name.startswith("mixture")])
    def test_local_weights_are_a_basic_solution_on_the_working_columns(self, monkeypatch, name):
        # Under the trivial group every orbit is one pair, and the weights are
        # the last master's own basic solution, bit for bit.
        target = LOCAL_TARGETS[name]()
        assert detected_group(target) == (0,)
        built, fits = record_master_columns(monkeypatch), []
        monkeypatch.setattr(belllp, "_l1_fit", lambda a, b: fits.append(_l1_fit(a, b)) or fits[-1])
        certificate = bell_lp_check(target)
        assert certificate.verdict == LOCAL
        basic = np.zeros(65536)
        basic[built[-1]] = np.maximum(fits[-1].x[: built[-1].size], 0.0)
        assert same_bits(certificate.weights, basic / basic.sum())
        assert np.count_nonzero(certificate.weights) <= 257

    @pytest.mark.parametrize("name", BASIC_SOLUTION_RESIDUALS)
    def test_chain_residuals_are_no_larger_than_the_basic_solutions(self, name):
        certificate = bell_lp_check(LOCAL_TARGETS[name]())
        assert certificate.reconstruction_residual <= BASIC_SOLUTION_RESIDUALS[name]

    @pytest.mark.parametrize("name", [*LOCAL_TARGETS, *NONLOCAL_TARGETS])
    def test_one_solve_per_master_round(self, monkeypatch, name):
        fits = []
        monkeypatch.setattr(belllp, "_l1_fit", lambda a, b: fits.append(a.shape) or _l1_fit(a, b))
        certificate = bell_lp_check({**LOCAL_TARGETS, **NONLOCAL_TARGETS}[name]())
        assert certificate.verdict in (LOCAL, NONLOCAL)
        assert len(fits) == certificate.rounds

    # v = 0 in test_group_averaged_targets' draw: a group-averaged vertex mixture is local.
    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(SEEDS, st.sampled_from(sorted(set(GROUPS.values()))), st.integers(1, 8))
    def test_spread_weights_rebuild_group_averaged_targets(self, seed, group, k):
        p = vertex_mixture(np.random.default_rng(seed), k).ravel()
        target = p[cell_perms(_PARTY_SWAP)[list(group)]].mean(axis=0).reshape(4, 4, 4, 4)
        certificate = bell_lp_check(target)
        event(f"|G| = {len(detected_group(target))}")
        assert certificate.verdict == LOCAL
        assert certificate.reconstruction_residual < RECONSTRUCTION_ATOL
        check = verify_certificate(certificate, target)
        assert check["reconstruction_residual"] == certificate.reconstruction_residual
        assert check["weight_sum_residual"] < 1e-12


class TestSymmetry:
    @pytest.mark.parametrize("name", SYMMETRIC_TARGETS)
    def test_detected_group_order(self, name):
        target, order = SYMMETRIC_TARGETS[name]
        assert len(detected_group(target())) == order

    @pytest.mark.parametrize("name", GROUPS)
    def test_detected_group_is_closed_under_composition(self, name):
        group = GROUPS[name]
        perms = cell_perms(_PARTY_SWAP)
        members = {tuple(perms[g]) for g in group}
        assert all(tuple(perms[g][perms[h]]) in members for g in group for h in group)

    def test_candidates_move_vertices_to_vertices(self, vertices):
        # Column c's 16 rows, moved by a candidate, are the rows of its column image.
        rows = vertices.indices.reshape(65536, 16)
        for g, perm in enumerate(cell_perms(_PARTY_SWAP)):
            moved = np.sort(perm[rows], axis=1)
            assert np.array_equal(moved, rows[_column_image(g)]), g

    @pytest.mark.parametrize("name", GROUPS)
    def test_orbit_counts_obey_burnside(self, name):
        # The number of orbits is the mean number of points each element fixes.
        group = GROUPS[name]
        row_orbit, representative = _orbits(group)
        perms = cell_perms(_PARTY_SWAP)
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
        # Both certificates are re-checked against all 65536 vertices.
        monkeypatch.setattr(belllp, "symmetry_group", lambda p, swap: np.arange(48))
        assert bell_lp_check(vertex_mixture(np.random.default_rng(3), 6)).verdict != NONLOCAL
        assert bell_lp_check(pr_box_target()).verdict != LOCAL

    # v stays off (0, 0.05): the reference full separation LP runs at HiGHS's
    # default 1e-7 feasibility tolerances, and tiny PR-box shares are checked
    # by test_pr_box_share_just_outside_the_polytope_is_nonlocal.
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
        target = p[cell_perms(_PARTY_SWAP)[list(group)]].mean(axis=0)
        assert set(detected_group(target)) >= set(group)
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
