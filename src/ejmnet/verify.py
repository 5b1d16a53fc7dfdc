"""One-shot verification suite aggregating the package's reproduction checks.

Every check recomputes a published quantity from scratch and reports the
worst residual against its exact value.  Where the CLI prints a quantity,
its check reads the function the CLI prints from: the triangle check reads
``coincidence_stats`` (``stats``), the closed-form check ``table2_rows``
(``table2``), the flag-audit and q-model checks ``q_model_flag_audit`` and
``q_model_scan`` (``qmodel``), the asymmetric check
``zero_all_distinct_count`` (``asym``), and the two LP checks
``bell_lp_check`` (``bell-check``).  The classical-quantum gap reads the
q-model at q = 1/2 alone, the point the q-model check certifies as the peak
of its 101-point grid, so the gap needs no second scan.
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
    q_model_flag_audit,
    q_model_scan,
    zero_all_distinct_count,
)
from .network import (
    coincidence_stats,
    conditional_all_equal,
    event_probability,
    joint_distribution_naive,
    open_line,
    polygon,
    table2_rows,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    detail: str = ""


def _basis_orthonormality(tolerance):
    worst = 0.0
    for name in ("ejm", "ejmz", "mp", "bsm"):
        # The check's verdict is its own worst <= tolerance, so validate_basis
        # only collects the residuals: no finite Gram deviation makes it raise.
        diag = validate_basis(basis_by_name(name), atol=np.finfo(float).max)
        worst = max(worst, diag.gram_residual, diag.schmidt_sum_residual)
    return worst <= tolerance, worst, "four bases, Gram + Schmidt"


def _ejm_marginals(tolerance):
    diag = validate_basis(ejm_basis())
    vertices = tetrahedron_vectors()
    worst = float(np.max(np.abs(diag.partial_bloch_first - 0.5 * SQRT3 * vertices)))
    worst = max(worst, float(np.max(np.abs(diag.partial_bloch_second + 0.5 * SQRT3 * vertices))))
    worst = max(worst, float(np.max(np.abs(diag.partial_bloch_norms - 0.5 * SQRT3))))
    return worst <= tolerance, worst, "+/- sqrt(3)/2 tetrahedron"


def _triangle_values(tolerance):
    stats = coincidence_stats(joint_distribution_naive(polygon(3), ejm_basis()))
    worst = 0.0
    # An entry is 25, 1 or 5 /256 by how many distinct outcomes it holds, so
    # |p - exact| over a pattern class peaks at the class's min or max.
    for key, c in stats.pattern_classes.items():
        exact = {1: 25.0, 2: 1.0, 3: 5.0}[len(set(key.split("-")))] / 256.0
        worst = max(worst, abs(c["min"] - exact), abs(c["max"] - exact))
    worst = max(worst, abs(stats.p_pair_equal - 7.0 / 16.0))
    worst = max(worst, abs(stats.p_all_equal - 25.0 / 64.0))
    worst = max(worst, abs(stats.p_cond_triple - 25.0 / 28.0))
    return worst <= tolerance, worst, "pattern values and stats"


def _all_equal_table(tolerance):
    ejm = ejm_basis()
    worst = 0.0
    for row in table2_rows(10):
        n = row["N"]
        line = event_probability(open_line(n), ejm, "all-equal")
        worst = max(worst, abs(line - row["line"]))
        if n >= 2:
            ring = event_probability(polygon(n), ejm, "all-equal")
            worst = max(worst, abs(ring - row["polygon"]))
        if n >= 3:
            worst = max(worst, abs(ring / line_prev - row["conditional"]))
        line_prev = line
    return worst <= tolerance, worst, "chains and rings, N <= 10"


def _transfer_vs_naive(tolerance):
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
    return worst <= tolerance, worst, "three bases, both topologies, N <= 6"


def _asymptote(tolerance):
    residual = abs(conditional_all_equal(30) - (2.0 + SQRT3) / 4.0)
    return residual <= tolerance, residual, "limit (2+sqrt3)/4"


def _flag_audit(tolerance):
    expected = [
        (7 / 16, 13 / 64), (1.0, 1 / 4), (1 / 4, 1 / 4), (5 / 8, 1 / 4),
        (1 / 4, 1 / 4), (5 / 8, 1 / 4), (1 / 4, 1 / 4), (7 / 16, 13 / 64),
    ]
    worst = 0.0
    for row, (pab, pabc) in zip(q_model_flag_audit(), expected):
        worst = max(worst, abs(row["p_pair_equal"] - pab), abs(row["p_all_equal"] - pabc))
    return worst <= tolerance, worst, "8 flag combinations"


def _q_model(tolerance):
    rows = q_model_scan([i / 100.0 for i in range(101)])
    worst = max(abs(row["p_all_equal"] - row["closed_form"]) for row in rows)
    peak = max(rows, key=lambda row: row["p_all_equal"])
    worst = max(worst, abs(peak["p_all_equal"] - 61.0 / 256.0), abs(peak["q"] - 0.5))
    return worst <= tolerance, worst, "101-point grid, peak 61/256 at q=1/2"


def _asymmetric(tolerance):
    dist = evaluate_model(asymmetric_model())
    stats = coincidence_stats(dist)
    worst = max(abs(stats.p_all_equal - 0.5), abs(stats.p_pair_equal - 0.5))
    worst = max(worst, float(zero_all_distinct_count(dist) != 20))
    return worst <= tolerance, worst, "1/2 rates, 20 of 24 zero patterns"


def _gap(tolerance):
    quantum = coincidence_stats(joint_distribution_naive(polygon(3), ejm_basis())).p_all_equal
    gap = quantum - q_model_scan([0.5])[0]["p_all_equal"]
    residual = abs(gap - (25.0 / 64.0 - 61.0 / 256.0)) if gap > 0 else math.inf
    return residual <= tolerance, residual, f"gap {gap:.6f}"


# Only these two checks solve LPs, so only they import belllp and with it scipy.
def _line4_lp(tolerance):
    from . import belllp
    certificate = belllp.bell_lp_check(belllp.line_conditional_target())
    if certificate.verdict != belllp.LOCAL:
        return False, math.inf, certificate.verdict
    residual = certificate.reconstruction_residual
    passed = residual <= max(tolerance, belllp.RECONSTRUCTION_ATOL)
    return passed, residual, "four-party chain conditional is local"


def _pr_box_lp(tolerance):
    from . import belllp
    certificate = belllp.bell_lp_check(belllp.pr_box_target())
    if certificate.verdict != belllp.NONLOCAL:
        return False, math.inf, certificate.verdict
    passed = certificate.margin > belllp.SEPARATION_MARGIN
    return passed, 0.0 if passed else math.inf, f"margin {certificate.margin:.6f}"


# The suite in report order.  Each check returns (passed, residual, detail);
# the last two are the LP checks.
CHECKS = (
    ("basis-orthonormality", _basis_orthonormality),
    ("ejm-marginal-alignment", _ejm_marginals),
    ("triangle-distribution", _triangle_values),
    ("all-equal-closed-forms", _all_equal_table),
    ("transfer-vs-naive", _transfer_vs_naive),
    ("conditional-asymptote", _asymptote),
    ("flagged-dit-audit", _flag_audit),
    ("q-model-closed-form", _q_model),
    ("asymmetric-model", _asymmetric),
    ("classical-quantum-gap", _gap),
    ("line4-bell-membership", _line4_lp),
    ("pr-box-separation", _pr_box_lp),
)


def run_all_checks(tolerance: float = 1e-9, include_lp: bool = True) -> list[CheckResult]:
    """Run the full reproduction suite at the given float tolerance.

    DomainError unless ``tolerance`` is finite and non-negative; a NaN or
    negative tolerance would fail every check.
    """
    if not 0.0 <= tolerance < math.inf:
        raise DomainError(f"tolerance must be finite and >= 0, got {tolerance!r}")
    results = []
    for name, check in CHECKS if include_lp else CHECKS[:-2]:
        try:
            passed, residual, detail = check(tolerance)
        except Exception as exc:  # a failed check must not abort the suite
            passed, residual, detail = False, math.inf, f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(name, bool(passed), float(residual), detail))
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
