"""Local-polytope membership for two-party behaviours via linear programming.

The scenario has two parties with 4 inputs and 4 outputs each, the one
obtained from a four-party open singlet chain when the end parties' random
outcomes are read as inputs of the middle parties.  The local set is the
convex hull of the 256 x 256 products of deterministic single-party
strategies.  One LP over a working set of vertices, grown by column
generation with an exact best-response oracle, decides both verdicts.  It
finds the L1 distance from the target to the working hull in weights form,
257 sparse equality rows (one per behaviour entry and one for the weight
sum).  A positive optimum certifies NONLOCAL with the separating functional
read off the duals of the behaviour rows; otherwise the primal is a set of
convex weights, LOCAL only if the full vertex matrix reconstructs the
target from them.  That one sparse vertex matrix also prices the best
responses and supplies the master's columns.

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
from .errors import ValidationError, finite_array, probability_array
from .network import joint_distribution_naive, open_line

LOCAL = "LOCAL"
NONLOCAL = "NONLOCAL"
INCONCLUSIVE = "INCONCLUSIVE"

RECONSTRUCTION_ATOL = 1e-8
SEPARATION_MARGIN = 1e-9
# How far each (x, y) slice of a target may sum away from 1.
TARGET_ATOL = 1e-9


@dataclass(frozen=True)
class LocalityCertificate:
    """Re-verifiable outcome of a membership query.

    LOCAL certificates carry convex weights over the 65536 deterministic
    strategy pairs, the master LP's primal solution; NONLOCAL ones carry a
    separating functional, the duals of its 256 behaviour rows, together
    with its maximum over the local vertices (the classical bound) and its
    value on the target.  ``columns`` counts the vertices the master LP
    ended with and ``rounds`` its solves.
    """

    verdict: str
    weights: np.ndarray | None = None
    reconstruction_residual: float | None = None
    functional: np.ndarray | None = None
    classical_bound: float | None = None
    target_value: float | None = None
    margin: float | None = None
    solver_status: str = ""
    columns: int = 0
    rounds: int = 0


@lru_cache(maxsize=1)
def _vertex_matrix() -> sparse.csc_matrix:
    """Sparse (256, 65536) map from vertex weights to behaviour entries.

    Row index is ((x*4 + y)*4 + a)*4 + b; column i*256 + j is the product of
    strategies i (left party) and j (right party).
    """
    # f[i, x]: deterministic strategy i's outcome on input x.
    f = (np.arange(256)[:, None] // 4 ** np.arange(3, -1, -1)[None, :]) % 4
    base = (np.arange(4)[:, None] * 4 + np.arange(4)[None, :]) * 16  # (x, y)
    rows = base[None, None, :, :] + f[:, None, :, None] * 4 + f[None, :, None, :]
    cols = np.broadcast_to(np.arange(65536).reshape(256, 256, 1, 1), rows.shape)
    return sparse.csc_matrix((np.ones(rows.size), (rows.ravel(), cols.ravel())), shape=(256, 65536))


def _master_matrix(columns: np.ndarray) -> sparse.csc_matrix:
    """``A_eq`` of the master LP: [V_C, I, -I] over 256 behaviour rows and the weight-sum row.

    V_C is the ``columns`` of :func:`_vertex_matrix` with a one appended in
    row 256; the two identities carry the slacks u+ and u-.
    """
    eye = sparse.identity(256)
    behaviour_rows = sparse.hstack([_vertex_matrix()[:, columns], eye, -eye])
    sum_row = np.concatenate([np.ones(columns.size), np.zeros(512)])
    return sparse.vstack([behaviour_rows, sum_row[None, :]], format="csc")


def _behaviour(target) -> np.ndarray:
    """``target`` as a flat (256,) array; ValidationError unless each (x, y) slice sums to 1."""
    p = finite_array(target, "target")
    if p.shape != (4, 4, 4, 4):
        raise ValidationError(f"target must have shape (4,4,4,4), got {p.shape}")
    return probability_array(p, "target conditionals", axis=(2, 3), atol=TARGET_ATOL).ravel()


def bell_lp_check(target) -> LocalityCertificate:
    """Decide membership of a behaviour in the local polytope.

    The master LP minimises 1 . u+ + 1 . u- subject to V_C w + u+ - u- = p
    and 1 . w = 1 over w, u+, u- >= 0: the L1 distance from p to the hull of
    the working vertices V_C, as 257 sparse equality rows.  Its duals on the
    256 behaviour rows are a functional f in [-1, 1]^256 and minus the dual
    on the sum row is its level s, with f . v <= s on every working vertex.
    Each round adds every pair that is either party's best response to f
    and beats s.  INCONCLUSIVE flags a solver failure or a void margin or fit.
    """
    p = _behaviour(target)
    b_eq = np.append(p, 1.0)
    # Round one prices the target itself, and s = -inf admits every best response.
    functional, level, columns, rounds = p, -np.inf, np.empty(0, dtype=np.int64), 0
    while True:
        values = (_vertex_matrix().T @ functional).reshape(256, 256)
        best = np.union1d(
            np.arange(256) * 256 + values.argmax(axis=1),
            values.argmax(axis=0) * 256 + np.arange(256),
        )
        fresh = np.setdiff1d(best[values.ravel()[best] > level + SEPARATION_MARGIN], columns)
        if fresh.size == 0:
            break
        columns, rounds = np.concatenate([columns, fresh]), rounds + 1
        master = linprog(
            np.concatenate([np.zeros(columns.size), np.ones(512)]),
            A_eq=_master_matrix(columns),
            b_eq=b_eq,
            method="highs",
        )
        if master.status != 0:
            return LocalityCertificate(
                INCONCLUSIVE, solver_status=master.message, columns=columns.size, rounds=rounds
            )
        functional, level = master.eqlin.marginals[:256], -master.eqlin.marginals[256]
    run = {"solver_status": master.message, "columns": columns.size, "rounds": rounds}
    classical_bound = float(values.max())
    target_value = float(functional @ p)
    margin = target_value - classical_bound
    if margin > SEPARATION_MARGIN:
        return LocalityCertificate(
            NONLOCAL,
            functional=functional.reshape(4, 4, 4, 4),
            classical_bound=classical_bound,
            target_value=target_value,
            margin=margin,
            **run,
        )
    weights = np.zeros(65536)
    weights[columns] = np.maximum(master.x[: columns.size], 0.0)
    weights /= weights.sum()
    residual = float(np.max(np.abs(_vertex_matrix() @ weights - p)))
    verdict = LOCAL if residual < RECONSTRUCTION_ATOL else INCONCLUSIVE
    return LocalityCertificate(verdict, weights=weights, reconstruction_residual=residual, **run)


def verify_certificate(certificate: LocalityCertificate, target) -> dict:
    """Re-check a certificate by direct evaluation against the target."""
    p = _behaviour(target)
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
    p[:, :, :2, :2] = 0.25
    x, y, a, b = np.ogrid[:2, :2, :2, :2]
    p[:2, :2, :2, :2] = 0.5 * ((a ^ b) == (x & y))
    return p


def chsh_value(target) -> float:
    """CHSH combination E00 + E01 + E10 - E11 on the first 2x2 input block.

    Outputs 0 and 1 are mapped to +1 and -1; outputs 2 and 3 do not
    contribute.  Local behaviours satisfy |S| <= 2 on every such block.
    """
    signs = np.array([1.0, -1.0, 0.0, 0.0])
    correlators = np.einsum("xyab,a,b->xy", np.asarray(target, dtype=float)[:2, :2], signs, signs)
    return float(correlators.sum() - 2.0 * correlators[1, 1])
