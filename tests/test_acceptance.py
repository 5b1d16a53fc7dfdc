"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Stated runtime budgets are asserted with wall-clock measurements
taken after a warm-up call.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from ejmnet.bases import ejm_basis, validate_basis
from ejmnet.belllp import (
    LOCAL,
    NONLOCAL,
    bell_lp_check,
    line_conditional_target,
    pr_box_target,
)
from ejmnet.linalg import tetrahedron_vectors
from ejmnet.localmodels import (
    MAX_ALL_EQUAL,
    MIN_L1,
    AnnealSchedule,
    anneal_search,
    asymmetric_model,
    evaluate_model,
    exhaustive_search,
    q_model,
    q_model_all_equal,
    q_model_flag_audit,
)
from ejmnet.network import (
    coincidence_stats,
    conditional_all_equal,
    dyadic_columns,
    event_probability,
    joint_distribution_naive,
    line_all_equal_dyadic,
    open_line,
    polygon,
    polygon_all_equal_dyadic,
)
from test_belllp import vertex_matrix

SQRT3 = math.sqrt(3.0)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_criterion_1_ejm_basis_validity():
    with criterion(1, "EJM basis orthonormal with tetrahedral marginals in < 1 ms"):
        validate_basis(ejm_basis())  # warm-up
        elapsed = math.inf
        for _ in range(50):
            diag, took = timed(lambda: validate_basis(ejm_basis()))
            elapsed = min(elapsed, took)
        assert diag.gram_residual < 1e-12
        vertices = tetrahedron_vectors()
        assert np.max(np.abs(diag.partial_bloch_first - 0.5 * SQRT3 * vertices)) < 1e-12
        assert np.max(np.abs(diag.partial_bloch_second + 0.5 * SQRT3 * vertices)) < 1e-12
        assert np.max(np.abs(diag.partial_bloch_norms - SQRT3 / 2.0)) < 1e-12
        assert elapsed < 1e-3, f"took {elapsed * 1e3:.3f} ms"


def exact_dyadic(p, k):
    """(numerator, log2 denominator) of ``p`` in lowest terms; ``p`` must lie on the 2**-k grid."""
    ok, num, log2den = dyadic_columns([p], k)
    assert ok[0], f"{p} is not n/2^{k}"
    return int(num[0]), int(log2den[0])


def test_criterion_2_triangle_distribution():
    with criterion(2, "triangle table gives 25/256, 1/256, 5/256 and its exact stats in < 1 s"):
        dist, elapsed = timed(lambda: joint_distribution_naive(polygon(3), ejm_basis()))
        for idx in np.ndindex(4, 4, 4):
            expected = {1: 25, 2: 1, 3: 5}[len(set(idx))]
            assert exact_dyadic(float(dist.probs[idx]), 8) == (expected, 8)
        stats = coincidence_stats(dist)
        assert abs(stats.p_pair_equal - 7.0 / 16.0) < 1e-12
        assert abs(stats.p_all_equal - 25.0 / 64.0) < 1e-12
        assert abs(stats.p_cond_triple - 25.0 / 28.0) < 1e-12
        assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_criterion_3_all_equal_table_reproduction():
    with criterion(3, "chain/ring all-equal table N=1..10 exact, transfer = naive for N <= 6, < 10 s"):
        start = time.perf_counter()
        basis = ejm_basis()
        reference_line = {7: (2521, 18)}
        reference_polygon = {9: (70225, 24)}
        for n in range(1, 11):
            p_line = event_probability(open_line(n), basis, "all-equal")
            exact = line_all_equal_dyadic(n)
            rec = exact_dyadic(p_line, exact.log2_denominator)
            assert rec == (exact.numerator, exact.log2_denominator)
            if n in reference_line:
                assert rec == reference_line[n]
            if n >= 2:
                p_ring = event_probability(polygon(n), basis, "all-equal")
                exact_ring = polygon_all_equal_dyadic(n)
                rec_ring = exact_dyadic(p_ring, exact_ring.log2_denominator)
                assert rec_ring == (exact_ring.numerator, exact_ring.log2_denominator)
                if n in reference_polygon:
                    assert rec_ring == reference_polygon[n]
            if n >= 3:
                conditional = (
                    event_probability(polygon(n), basis, "all-equal")
                    / event_probability(open_line(n - 1), basis, "all-equal")
                )
                assert abs(conditional - conditional_all_equal(n)) < 1e-12
        ten = event_probability(polygon(10), basis, "all-equal") / event_probability(
            open_line(9), basis, "all-equal"
        )
        assert abs(ten - 32761.0 / 35113.0) < 1e-12
        for make, lo in ((open_line, 1), (polygon, 2)):
            for n in range(lo, 7):
                top = make(n)
                dist = joint_distribution_naive(top, basis)
                naive = sum(float(dist.probs[(k,) * n]) for k in range(4))
                assert abs(event_probability(top, basis, "all-equal") - naive) < 1e-10
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f} s"


def test_criterion_4_conditional_asymptote():
    with criterion(4, "ring conditional at N=30 within 1e-6 of (2+sqrt3)/4"):
        assert abs(conditional_all_equal(30) - (2.0 + SQRT3) / 4.0) < 1e-6


def test_criterion_5_q_model():
    with criterion(5, "flagged-dit model matches (13+9q-9q^2)/64, peaks at 61/256, audits exactly, < 1 s"):
        start = time.perf_counter()
        values = []
        for i in range(101):
            q = i / 100.0
            p = coincidence_stats(evaluate_model(q_model(q))).p_all_equal
            assert abs(p - q_model_all_equal(q)) < 1e-12
            values.append((q, p))
        best_q, best_p = max(values, key=lambda t: t[1])
        assert best_q == 0.5 and abs(best_p - 61.0 / 256.0) < 1e-12
        expected = [
            (7 / 16, 13 / 64), (1.0, 1 / 4), (1 / 4, 1 / 4), (5 / 8, 1 / 4),
            (1 / 4, 1 / 4), (5 / 8, 1 / 4), (1 / 4, 1 / 4), (7 / 16, 13 / 64),
        ]
        for row, (pab, pabc) in zip(q_model_flag_audit(), expected):
            assert abs(row["p_pair_equal"] - pab) < 1e-12
            assert abs(row["p_all_equal"] - pabc) < 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_criterion_6_asymmetric_model():
    with criterion(6, "complementary-bit model: both rates 1/2, 20 of 24 distinct patterns vanish"):
        dist = evaluate_model(asymmetric_model())
        stats = coincidence_stats(dist)
        assert abs(stats.p_all_equal - 0.5) < 1e-12
        assert abs(stats.p_pair_equal - 0.5) < 1e-12
        zeros = sum(
            1
            for idx in np.ndindex(4, 4, 4)
            if len(set(idx)) == 3 and dist.probs[idx] == 0.0
        )
        assert zeros == 20


def test_criterion_7_classical_quantum_gap():
    with criterion(7, "computed flagged-dit maximum 61/256 lies below computed quantum 25/64"):
        classical = max(
            coincidence_stats(evaluate_model(q_model(i / 100.0))).p_all_equal
            for i in range(101)
        )
        quantum = coincidence_stats(
            joint_distribution_naive(polygon(3), ejm_basis())
        ).p_all_equal
        assert classical < quantum
        assert abs(classical - 61.0 / 256.0) < 1e-12
        assert abs(quantum - 25.0 / 64.0) < 1e-12


def test_criterion_8_exhaustive_search():
    with criterion(8, "exhaustive cardinality-2 search attains >= 1/2 with a self-certifying witness, < 5 min"):
        result, elapsed = timed(lambda: exhaustive_search(2, MAX_ALL_EQUAL))
        assert result.value >= 0.5
        recheck = coincidence_stats(evaluate_model(result.witness)).p_all_equal
        assert abs(recheck - result.value) < 1e-12
        assert elapsed < 300.0, f"took {elapsed:.1f} s"


def test_criterion_9_bell_lp():
    with criterion(9, "four-party chain conditional certified LOCAL, embedded PR box NONLOCAL, < 2 min"):
        start = time.perf_counter()
        local_cert = bell_lp_check(line_conditional_target())
        assert local_cert.verdict == LOCAL
        assert local_cert.reconstruction_residual < 1e-8
        pr = pr_box_target()
        nonlocal_cert = bell_lp_check(pr)
        assert nonlocal_cert.verdict == NONLOCAL
        functional = nonlocal_cert.functional.ravel()
        vertex_values = vertex_matrix().T @ functional
        margin = float(functional @ pr.ravel()) - float(vertex_values.max())
        assert margin > 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"took {elapsed:.1f} s"


def test_criterion_10_searches_are_property_based():
    with criterion(10, "conjecture probes certify by witness re-evaluation and seed determinism only"):
        triangle = joint_distribution_naive(polygon(3), ejm_basis())
        schedule = AnnealSchedule(steps=2500)
        runs = [
            anneal_search(2, MIN_L1, triangle, seed=21, schedule=schedule)
            for _ in range(2)
        ]
        assert runs[0].value == runs[1].value
        assert runs[0].trace == runs[1].trace
        for a, b in zip(runs[0].witness.responses, runs[1].witness.responses):
            assert np.array_equal(a.table, b.table)
        recheck = float(
            np.abs(evaluate_model(runs[0].witness).probs - triangle.probs).sum()
        )
        assert abs(recheck - runs[0].value) < 1e-12
