"""One-shot verification suite aggregating the package's reproduction checks.

Every check recomputes a published quantity from scratch and reports the
worst residual against its exact value, so a single run certifies the whole
chain: measurement bases, triangle statistics, chain/ring closed forms,
the flagged-dit model audit, and the four-party line membership LP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bases import basis_by_name, ejm_basis, validate_basis
from .errors import DomainError
from .linalg import SQRT3, tetrahedron_vectors
from .localmodels import (
    asymmetric_model,
    evaluate_model,
    q_model,
    q_model_all_equal,
    q_model_flag_audit,
)
from .network import (
    coincidence_stats,
    conditional_all_equal,
    conditional_all_equal_fraction,
    event_probability,
    joint_distribution_naive,
    line_all_equal_dyadic,
    open_line,
    polygon,
    polygon_all_equal_dyadic,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    detail: str = ""


def _result(name, residual, tolerance, detail=""):
    return CheckResult(name, bool(residual <= tolerance), float(residual), detail)


def _check_basis_orthonormality(tolerance):
    worst = 0.0
    for name in ("ejm", "ejmz", "mp", "bsm"):
        diag = validate_basis(basis_by_name(name), atol=max(tolerance, 1e-30))
        worst = max(worst, diag.gram_residual, diag.schmidt_sum_residual)
    return _result("basis-orthonormality", worst, tolerance, "four bases, Gram + Schmidt")


def _check_ejm_marginals(tolerance):
    diag = validate_basis(ejm_basis())
    vertices = tetrahedron_vectors()
    worst = float(np.max(np.abs(diag.partial_bloch_first - 0.5 * SQRT3 * vertices)))
    worst = max(worst, float(np.max(np.abs(diag.partial_bloch_second + 0.5 * SQRT3 * vertices))))
    worst = max(worst, float(np.max(np.abs(diag.partial_bloch_norms - 0.5 * SQRT3))))
    return _result("ejm-marginal-alignment", worst, tolerance, "+/- sqrt(3)/2 tetrahedron")


def _check_triangle_values(tolerance):
    dist = joint_distribution_naive(polygon(3), ejm_basis())
    worst = 0.0
    for idx in np.ndindex(4, 4, 4):
        distinct = len(set(idx))
        exact = {1: 25.0, 2: 1.0, 3: 5.0}[distinct] / 256.0
        worst = max(worst, abs(float(dist.probs[idx]) - exact))
    stats = coincidence_stats(dist)
    worst = max(worst, abs(stats.p_pair_equal - 7.0 / 16.0))
    worst = max(worst, abs(stats.p_all_equal - 25.0 / 64.0))
    worst = max(worst, abs(stats.p_cond_triple - 25.0 / 28.0))
    return _result("triangle-distribution", worst, tolerance, "pattern values and stats")


def _check_all_equal_table(tolerance):
    ejm = ejm_basis()
    worst = 0.0
    for n in range(1, 11):
        line = event_probability(open_line(n), ejm, "all-equal")
        worst = max(worst, abs(line - line_all_equal_dyadic(n).value))
        if n >= 2:
            ring = event_probability(polygon(n), ejm, "all-equal")
            worst = max(worst, abs(ring - polygon_all_equal_dyadic(n).value))
            cond = conditional_all_equal_fraction(n)
            worst = max(worst, abs(ring / line_prev - float(cond))) if n >= 3 else worst
        line_prev = line
    return _result("all-equal-closed-forms", worst, tolerance, "chains and rings, N <= 10")


def _check_transfer_vs_naive(tolerance):
    worst = 0.0
    for name in ("ejm", "mp", "bsm"):
        basis = basis_by_name(name)
        for make, lo in ((open_line, 1), (polygon, 2)):
            for n in range(lo, 7):
                top = make(n)
                dist = joint_distribution_naive(top, basis)
                naive = float(sum(dist.probs[(k,) * n] for k in range(4)))
                fast = event_probability(top, basis, "all-equal")
                worst = max(worst, abs(naive - fast))
    return _result("transfer-vs-naive", worst, tolerance, "three bases, both topologies, N <= 6")


def _check_asymptote(tolerance):
    residual = abs(conditional_all_equal(30) - (2.0 + SQRT3) / 4.0)
    return _result("conditional-asymptote", residual, max(tolerance, 1e-30), "limit (2+sqrt3)/4")


def _check_flag_audit(tolerance):
    expected = [
        (7 / 16, 13 / 64), (1.0, 1 / 4), (1 / 4, 1 / 4), (5 / 8, 1 / 4),
        (1 / 4, 1 / 4), (5 / 8, 1 / 4), (1 / 4, 1 / 4), (7 / 16, 13 / 64),
    ]
    worst = 0.0
    for row, (pab, pabc) in zip(q_model_flag_audit(), expected):
        worst = max(worst, abs(row["p_pair_equal"] - pab), abs(row["p_all_equal"] - pabc))
    return _result("flagged-dit-audit", worst, tolerance, "8 flag combinations")


def _check_q_model(tolerance):
    worst = 0.0
    values = []
    for i in range(101):
        q = i / 100.0
        p = coincidence_stats(evaluate_model(q_model(q))).p_all_equal
        values.append((q, p))
        worst = max(worst, abs(p - q_model_all_equal(q)))
    peak_q, peak = max(values, key=lambda t: t[1])
    worst = max(worst, abs(peak - 61.0 / 256.0), abs(peak_q - 0.5))
    return _result("q-model-closed-form", worst, tolerance, "101-point grid, peak 61/256 at q=1/2")


def _check_asymmetric(tolerance):
    dist = evaluate_model(asymmetric_model())
    stats = coincidence_stats(dist)
    worst = max(abs(stats.p_all_equal - 0.5), abs(stats.p_pair_equal - 0.5))
    zeros = sum(
        1
        for idx in np.ndindex(4, 4, 4)
        if len(set(idx)) == 3 and dist.probs[idx] == 0.0
    )
    worst = max(worst, float(zeros != 20))
    return _result("asymmetric-model", worst, tolerance, "1/2 rates, 20 of 24 zero patterns")


def _check_gap(tolerance):
    quantum = coincidence_stats(joint_distribution_naive(polygon(3), ejm_basis())).p_all_equal
    classical = max(
        coincidence_stats(evaluate_model(q_model(i / 100.0))).p_all_equal
        for i in range(101)
    )
    gap = quantum - classical
    residual = abs(gap - (25.0 / 64.0 - 61.0 / 256.0))
    if gap <= 0:
        residual = math.inf
    return _result("classical-quantum-gap", residual, tolerance, f"gap {gap:.6f}")


# Only these two checks solve LPs, so only they import belllp and with it scipy.
def _check_line4_lp(tolerance):
    from . import belllp
    certificate = belllp.bell_lp_check(belllp.line_conditional_target())
    if certificate.verdict != belllp.LOCAL:
        return CheckResult("line4-bell-membership", False, math.inf, certificate.verdict)
    return _result(
        "line4-bell-membership",
        certificate.reconstruction_residual,
        max(tolerance, belllp.RECONSTRUCTION_ATOL),
        "four-party chain conditional is local",
    )


def _check_pr_box_lp(tolerance):
    from . import belllp
    certificate = belllp.bell_lp_check(belllp.pr_box_target())
    if certificate.verdict != belllp.NONLOCAL:
        return CheckResult("pr-box-separation", False, math.inf, certificate.verdict)
    passed = certificate.margin > belllp.SEPARATION_MARGIN
    return CheckResult(
        "pr-box-separation",
        passed,
        0.0 if passed else math.inf,
        f"margin {certificate.margin:.6f}",
    )


def run_all_checks(tolerance: float = 1e-9, include_lp: bool = True) -> list[CheckResult]:
    """Run the full reproduction suite at the given float tolerance.

    DomainError unless ``tolerance`` is finite and non-negative; a NaN or
    negative tolerance would fail every check.
    """
    if not 0.0 <= tolerance < math.inf:
        raise DomainError(f"tolerance must be finite and >= 0, got {tolerance!r}")
    checks = [
        _check_basis_orthonormality,
        _check_ejm_marginals,
        _check_triangle_values,
        _check_all_equal_table,
        _check_transfer_vs_naive,
        _check_asymptote,
        _check_flag_audit,
        _check_q_model,
        _check_asymmetric,
        _check_gap,
    ]
    if include_lp:
        checks += [_check_line4_lp, _check_pr_box_lp]
    results = []
    for check in checks:
        try:
            results.append(check(tolerance))
        except Exception as exc:  # a failed check must not abort the suite
            name = check.__name__.removeprefix("_check_").replace("_", "-")
            results.append(CheckResult(name, False, math.inf, f"{type(exc).__name__}: {exc}"))
    return results


def summarize(results: list[CheckResult]) -> dict:
    return {
        "checks": [
            {
                "name": r.name,
                "passed": r.passed,
                "residual": None if math.isinf(r.residual) else r.residual,
                "detail": r.detail,
            }
            for r in results
        ],
        "passed": sum(1 for r in results if r.passed),
        "failed": sum(1 for r in results if not r.passed),
    }
