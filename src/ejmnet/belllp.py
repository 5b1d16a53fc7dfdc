"""Local-polytope membership for two-party behaviours via linear programming.

The scenario has two parties with 4 inputs and 4 outputs each, the one
obtained from a four-party open singlet chain when the end parties' random
outcomes are read as inputs of the middle parties.  The local set is the
convex hull of the 256 x 256 products of deterministic single-party
strategies.  Membership is decided by a feasibility LP over the vertex
weights; non-membership is certified by a separating functional found with
a second LP and re-checked against every vertex.

Behaviours are arrays of shape (4, 4, 4, 4) indexed [x, y, a, b] holding
p(a, b | x, y); each (x, y) slice must be a probability distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .bases import TwoQubitBasis, ejm_basis
from .errors import ValidationError, finite_array
from .network import joint_distribution_naive, open_line

LOCAL = "LOCAL"
NONLOCAL = "NONLOCAL"
INCONCLUSIVE = "INCONCLUSIVE"

RECONSTRUCTION_ATOL = 1e-8
SEPARATION_MARGIN = 1e-9


@dataclass(frozen=True)
class LocalityCertificate:
    """Re-verifiable outcome of a membership query.

    LOCAL certificates carry convex weights over the 65536 deterministic
    strategy pairs; NONLOCAL ones carry a separating functional together
    with its maximum over the local vertices (the classical bound) and its
    value on the target.
    """

    verdict: str
    weights: np.ndarray | None = None
    reconstruction_residual: float | None = None
    functional: np.ndarray | None = None
    classical_bound: float | None = None
    target_value: float | None = None
    margin: float | None = None
    solver_status: str = ""


@lru_cache(maxsize=1)
def _strategies() -> np.ndarray:
    """All deterministic single-party strategies as a (256, 4) outcome array."""
    return (np.arange(256)[:, None] // 4 ** np.arange(3, -1, -1)[None, :]) % 4


@lru_cache(maxsize=1)
def _vertex_matrix() -> sparse.csc_matrix:
    """Sparse (256, 65536) map from vertex weights to behaviour entries.

    Row index is ((x*4 + y)*4 + a)*4 + b; column i*256 + j is the product of
    strategies i (left party) and j (right party).
    """
    f = _strategies()
    base = (np.arange(4)[:, None] * 4 + np.arange(4)[None, :]) * 16  # (x, y)
    rows = base[None, None, :, :] + f[:, None, :, None] * 4 + f[None, :, None, :]
    cols = np.broadcast_to(
        np.arange(65536).reshape(256, 256)[:, :, None, None], rows.shape
    )
    data = np.ones(rows.size)
    return sparse.csc_matrix(
        (data, (rows.ravel(), cols.ravel())), shape=(256, 65536)
    )


def _validated_target(target) -> np.ndarray:
    p = finite_array(target, "target")
    if p.shape != (4, 4, 4, 4):
        raise ValidationError(f"target must have shape (4,4,4,4), got {p.shape}")
    if float(p.min()) < -1e-12:
        raise ValidationError("target has negative entries", residual=float(p.min()))
    p = np.maximum(p, 0.0)
    sums = p.sum(axis=(2, 3))
    worst = float(np.max(np.abs(sums - 1.0)))
    if worst > 1e-9:
        raise ValidationError(
            f"target conditionals must sum to 1 per input pair (worst {worst})",
            residual=worst,
        )
    return p.ravel()


def bell_lp_check(target) -> LocalityCertificate:
    """Decide membership of a behaviour in the local polytope.

    Returns a LOCAL certificate with reconstructing weights, a NONLOCAL
    certificate with a separating functional, or INCONCLUSIVE when the
    solver fails or the separation margin is numerically void.
    """
    p = _validated_target(target)
    vertices = _vertex_matrix()

    a_eq = sparse.vstack([vertices, sparse.csr_matrix(np.ones((1, 65536)))])
    b_eq = np.concatenate([p, [1.0]])
    feas = linprog(
        np.zeros(65536), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs"
    )
    if feas.status == 0:
        weights = np.maximum(feas.x, 0.0)
        residual = float(np.max(np.abs(vertices @ weights - p)))
        verdict = LOCAL if residual < RECONSTRUCTION_ATOL else INCONCLUSIVE
        return LocalityCertificate(
            verdict,
            weights=weights,
            reconstruction_residual=residual,
            solver_status=feas.message,
        )
    if feas.status != 2:
        return LocalityCertificate(INCONCLUSIVE, solver_status=feas.message)

    # Infeasible: find a functional maximising (value on target) - (vertex bound),
    # with the functional box-normalised to [-1, 1].
    objective = np.concatenate([-p, [1.0]])
    a_ub = sparse.hstack([vertices.T, -np.ones((65536, 1))])
    bounds = [(-1, 1)] * 256 + [(None, None)]
    sep = linprog(
        objective, A_ub=a_ub, b_ub=np.zeros(65536), bounds=bounds, method="highs"
    )
    if sep.status != 0:
        return LocalityCertificate(INCONCLUSIVE, solver_status=sep.message)
    functional = sep.x[:256]
    vertex_values = vertices.T @ functional
    classical_bound = float(vertex_values.max())
    target_value = float(functional @ p)
    margin = target_value - classical_bound
    verdict = NONLOCAL if margin > SEPARATION_MARGIN else INCONCLUSIVE
    return LocalityCertificate(
        verdict,
        functional=functional.reshape(4, 4, 4, 4),
        classical_bound=classical_bound,
        target_value=target_value,
        margin=float(margin),
        solver_status=sep.message,
    )


def verify_certificate(certificate: LocalityCertificate, target) -> dict:
    """Re-check a certificate by direct evaluation against the target."""
    p = _validated_target(target)
    vertices = _vertex_matrix()
    if certificate.verdict == LOCAL:
        w = certificate.weights
        return {
            "verdict": LOCAL,
            "weight_sum_residual": abs(float(w.sum()) - 1.0),
            "min_weight": float(w.min()),
            "reconstruction_residual": float(np.max(np.abs(vertices @ w - p))),
        }
    if certificate.verdict == NONLOCAL:
        f = certificate.functional.ravel()
        vertex_values = vertices.T @ f
        return {
            "verdict": NONLOCAL,
            "classical_bound": float(vertex_values.max()),
            "target_value": float(f @ p),
            "margin": float(f @ p - vertex_values.max()),
        }
    return {"verdict": certificate.verdict}


# ---------------------------------------------------------------------------
# Targets


def line_conditional_target(basis: TwoQubitBasis | None = None) -> np.ndarray:
    """p(a2, a3 | a1, a4) for four parties on an open singlet chain.

    The end outcomes a1, a4 play the role of inputs; the result is arranged
    [x, y, a, b] = [a1, a4, a2, a3] with zero-based outcomes.
    """
    d = joint_distribution_naive(open_line(4), basis if basis is not None else ejm_basis())
    p4 = d.probs  # [a1, a2, a3, a4]
    ends = p4.sum(axis=(1, 2))  # [a1, a4]
    return p4.transpose(0, 3, 1, 2) / ends[:, :, None, None]


def uniform_target() -> np.ndarray:
    """White noise p(a, b | x, y) = 1/16, a local behaviour."""
    return np.full((4, 4, 4, 4), 1.0 / 16.0)


def pr_box_target() -> np.ndarray:
    """A PR box embedded in the first two inputs and outputs of each side.

    For x, y in {0, 1} the outputs satisfy a XOR b = x AND y with uniform
    halves; all other input pairs answer uniformly on outputs {0, 1}.  The
    embedded block attains the algebraic CHSH value 4 (> classical bound 2),
    so the behaviour lies outside the local polytope.
    """
    p = np.zeros((4, 4, 4, 4))
    for x in range(4):
        for y in range(4):
            if x < 2 and y < 2:
                for a in range(2):
                    for b in range(2):
                        if (a ^ b) == (x & y):
                            p[x, y, a, b] = 0.5
            else:
                p[x, y, :2, :2] = 0.25
    return p


def chsh_value(target) -> float:
    """CHSH combination E00 + E01 + E10 - E11 on the first 2x2 input block.

    Outputs 0 and 1 are mapped to +1 and -1; outputs 2 and 3 do not
    contribute.  Local behaviours satisfy |S| <= 2 on every such block.
    """
    p = np.asarray(target, dtype=float)
    signs = np.array([1.0, -1.0, 0.0, 0.0])
    value = 0.0
    for x in (0, 1):
        for y in (0, 1):
            correlator = float(np.einsum("ab,a,b->", p[x, y], signs, signs))
            value += -correlator if (x, y) == (1, 1) else correlator
    return value
