"""Local-polytope membership for two-party behaviours via linear programming.

The scenario has two parties with 4 inputs and 4 outputs each, the one
obtained from a four-party open singlet chain when the end parties' random
outcomes are read as inputs of the middle parties.  The local set is the
convex hull of the 256 x 256 products of deterministic single-party
strategies.  One LP over a working set of vertices, grown by column
generation with an exact best-response oracle, decides both verdicts.  It
finds the L1 distance from the target to the working hull in weights form.
A positive optimum certifies NONLOCAL with the separating functional read
off the duals of the behaviour rows; otherwise the primal is a set of
convex weights, LOCAL only if the full vertex matrix reconstructs the
target from them.  That one sparse vertex matrix also prices the best
responses and supplies the master's columns.

The master is solved over symmetry orbits.  The symmetry group G of the
target is every one of 48 candidates (one relabelling of {0, 1, 2, 3}
applied to x, y, a and b at once, with or without the party swap) that
leaves it invariant.  Some optimal weights and some optimal functional are
then G-invariant, so the master has one row per orbit of behaviour entries
(their sum), one column per orbit of strategy pairs, and one slack pair per
row orbit; the EJM chain has 11 row orbits instead of 256.  The orbit
weights of a LOCAL verdict are spread over their member pairs and one last
weights-form solve over those pairs, 257 rows, returns a basic solution.
Both certificates are re-checked against the full vertex matrix, so a
wrong group costs time but never gives a wrong verdict.  A target with no
symmetry has the trivial group, and the orbit master is then the plain one.

Behaviours are arrays of shape (4, 4, 4, 4) indexed [x, y, a, b] holding
p(a, b | x, y); each (x, y) slice must be a probability distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

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
# How far a target may move under a candidate symmetry that is still counted in its group.
SYMMETRY_ATOL = 1e-13

# Deterministic strategy i answers _OUTCOMES[i, x] on input x: the base-4
# digits of i, most significant first.
_PLACES = 4 ** np.arange(3, -1, -1)
_OUTCOMES = (np.arange(256)[:, None] // _PLACES) % 4
# The relabellings of {0, 1, 2, 3}; candidate symmetry g uses _RELABELLINGS[g // 2].
_RELABELLINGS = np.array(list(permutations(range(4))))


@dataclass(frozen=True)
class LocalityCertificate:
    """Re-verifiable outcome of a membership query.

    LOCAL certificates carry convex weights over the 65536 deterministic
    strategy pairs, a basic solution of the last weights-form solve and so
    at most 257 of them nonzero; NONLOCAL ones carry a separating
    functional, the orbit master's row duals spread over the 256 behaviour
    rows, together with its maximum over the local vertices (the classical
    bound) and its value on the target.  ``columns`` counts the strategy
    pairs of the last LP: for LOCAL the member pairs of the orbits the
    master weighted, which the last solve ran over; otherwise the member
    pairs of the master's working orbits.  ``rounds`` counts the orbit
    master's solves.
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
    base = (np.arange(4)[:, None] * 4 + np.arange(4)[None, :]) * 16  # (x, y)
    rows = base[None, None, :, :] + _OUTCOMES[:, None, :, None] * 4 + _OUTCOMES[None, :, None, :]
    cols = np.broadcast_to(np.arange(65536).reshape(256, 256, 1, 1), rows.shape)
    return sparse.csc_matrix((np.ones(rows.size), (rows.ravel(), cols.ravel())), shape=(256, 65536))


def _orbit_master_matrix(columns: np.ndarray, row_orbit: np.ndarray) -> sparse.csc_matrix:
    """``A_eq`` of the orbit master: [S V_C, I, -I] over the row orbits and the weight-sum row.

    S sums the behaviour rows of each orbit (row r lies in orbit
    ``row_orbit[r]``), V_C is the ``columns`` of :func:`_vertex_matrix`, and
    the two identities carry one slack pair per row orbit.
    """
    n_rows = int(row_orbit.max()) + 1
    vertices = _vertex_matrix()[:, columns]
    summed = sparse.csc_matrix(
        (vertices.data, row_orbit[vertices.indices], vertices.indptr), shape=(n_rows, columns.size)
    )
    summed.sum_duplicates()
    eye = sparse.identity(n_rows)
    behaviour_rows = sparse.hstack([summed, eye, -eye])
    sum_row = np.concatenate([np.ones(columns.size), np.zeros(2 * n_rows)])
    return sparse.vstack([behaviour_rows, sum_row[None, :]], format="csc")


def _master_matrix(columns: np.ndarray) -> sparse.csc_matrix:
    """``A_eq`` of the weights-form LP: [V_C, I, -I] over 256 behaviour rows and the weight-sum row.

    V_C is the ``columns`` of :func:`_vertex_matrix` with a one appended in
    row 256; the two identities carry the slacks u+ and u-.
    """
    return _orbit_master_matrix(columns, np.arange(256))


def _l1_fit(a_eq: sparse.csc_matrix, b_eq: np.ndarray):
    """Solve min 1 . u+ + 1 . u- over ``a_eq`` [w, u+, u-] = ``b_eq``, all >= 0, with HiGHS."""
    n_slacks = 2 * (b_eq.size - 1)
    cost = np.concatenate([np.zeros(a_eq.shape[1] - n_slacks), np.ones(n_slacks)])
    return linprog(cost, A_eq=a_eq, b_eq=b_eq, method="highs")


@lru_cache(maxsize=1)
def _candidate_row_perms() -> np.ndarray:
    """(48, 256) array: candidate g moves behaviour row r to row ``[g, r]``.

    Candidate g applies the relabelling ``_RELABELLINGS[g // 2]`` to x, y,
    a and b at once, and for odd g also swaps the parties.
    """
    x, y, a, b = np.unravel_index(np.arange(256), (4, 4, 4, 4))
    images = []
    for s in _RELABELLINGS:
        images.append(np.ravel_multi_index((s[x], s[y], s[a], s[b]), (4, 4, 4, 4)))
        images.append(np.ravel_multi_index((s[y], s[x], s[b], s[a]), (4, 4, 4, 4)))
    images = np.array(images)
    images.setflags(write=False)
    return images


def _symmetry_group(p: np.ndarray) -> tuple[int, ...]:
    """The candidates (indices into :func:`_candidate_row_perms`) that leave ``p`` invariant."""
    moved = np.max(np.abs(p[_candidate_row_perms()] - p), axis=1)
    return tuple(np.flatnonzero(moved <= SYMMETRY_ATOL).tolist())


def _column_image(g: int) -> np.ndarray:
    """int32 (65536,): candidate g moves strategy pair c to pair ``[c]``.

    A relabelling s sends strategy f to s . f . s^-1; the swap exchanges
    the left and right strategies.
    """
    s = _RELABELLINGS[g // 2]
    moved = np.empty_like(_OUTCOMES)
    moved[:, s] = s[_OUTCOMES]
    strategy = (moved @ _PLACES).astype(np.int32)
    pairs = strategy[:, None] * 256 + strategy[None, :]
    return (pairs.T if g % 2 else pairs).ravel()


@lru_cache(maxsize=8)
def _orbits(group: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Row-orbit ids (256,) and each strategy pair's orbit representative (65536,) under ``group``.

    The representative is the smallest member, a running minimum over the
    group's images of every pair.
    """
    row_orbit = np.unique(_candidate_row_perms()[list(group)].min(axis=0), return_inverse=True)[1]
    representative = np.arange(65536, dtype=np.int32)
    for g in group:
        np.minimum(representative, _column_image(g), out=representative)
    # Every caller with this group shares the cached arrays.
    row_orbit.setflags(write=False)
    representative.setflags(write=False)
    return row_orbit, representative


def _behaviour(target) -> np.ndarray:
    """``target`` as a flat (256,) array; ValidationError unless each (x, y) slice sums to 1."""
    p = finite_array(target, "target")
    if p.shape != (4, 4, 4, 4):
        raise ValidationError(f"target must have shape (4,4,4,4), got {p.shape}")
    return probability_array(p, "target conditionals", axis=(2, 3), atol=TARGET_ATOL).ravel()


def bell_lp_check(target) -> LocalityCertificate:
    """Decide membership of a behaviour in the local polytope.

    With S summing the behaviour rows of each orbit of the target's
    symmetry group, the orbit master minimises 1 . U+ + 1 . U- subject to
    S V_C W + U+ - U- = S p and 1 . W = 1 over W, U+, U- >= 0, where each
    column of V_C stands for one orbit of strategy pairs, all of which S
    maps to the same column.  Its optimum is the L1 distance from p to the
    hull of the working vertices.  Its row duals, spread over each orbit's
    rows, are a functional f in [-1, 1]^256, and minus the dual on the sum
    row is its level s, with f . v <= s on every working vertex.  Each
    round prices all 65536 pairs, maps every pair that is either party's
    best response to f and beats s to its orbit, and adds the new orbits.
    A LOCAL verdict spreads W over the member pairs of its orbits and
    re-solves there in weights form.  INCONCLUSIVE flags a solver failure
    or a void margin or fit.
    """
    p = _behaviour(target)
    row_orbit, representative = _orbits(_symmetry_group(p))
    b_eq = np.append(np.bincount(row_orbit, weights=p), 1.0)
    # Round one prices the target itself, and s = -inf admits every best response.
    functional, level, columns, rounds = p, -np.inf, np.empty(0, dtype=np.int64), 0
    while True:
        values = (_vertex_matrix().T @ functional).reshape(256, 256)
        best = np.union1d(
            np.arange(256) * 256 + values.argmax(axis=1),
            values.argmax(axis=0) * 256 + np.arange(256),
        )
        beating = best[values.ravel()[best] > level + SEPARATION_MARGIN]
        fresh = np.setdiff1d(representative[beating], columns)
        if fresh.size == 0:
            break
        columns, rounds = np.concatenate([columns, fresh]), rounds + 1
        master = _l1_fit(_orbit_master_matrix(columns, row_orbit), b_eq)
        if master.status != 0:
            break
        duals = master.eqlin.marginals
        functional, level = duals[row_orbit], -duals[-1]
    run = {
        "solver_status": master.message,
        "columns": np.count_nonzero(np.isin(representative, columns)),
        "rounds": rounds,
    }
    if master.status != 0:
        return LocalityCertificate(INCONCLUSIVE, **run)
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
    weighted = columns[master.x[: columns.size] > 0]
    support = np.flatnonzero(np.isin(representative, weighted))
    fit = _l1_fit(_master_matrix(support), np.append(p, 1.0))
    run.update(solver_status=fit.message, columns=support.size)
    if fit.status != 0:
        return LocalityCertificate(INCONCLUSIVE, **run)
    weights = np.zeros(65536)
    weights[support] = np.maximum(fit.x[: support.size], 0.0)
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
