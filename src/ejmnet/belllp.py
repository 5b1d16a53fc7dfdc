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
convex weights, LOCAL only if the vertices they weight reconstruct the
target.  Each vertex is read off the digits of its two strategies
(:func:`_vertex_rows`), so no 256 x 65536 vertex matrix is ever built:
the best responses are priced on all 65536 vertices at once
(:func:`_vertex_values`), the weights are summed into a behaviour
(:func:`_vertex_image`), and the master's columns are built from the rows
of its pairs.

The master is solved over symmetry orbits.  The symmetry group G of the
target is every one of 48 candidates (one relabelling of {0, 1, 2, 3}
applied to x, y, a and b at once, with or without the party swap) that
leaves it invariant, or the identity alone when those are not closed under
composition; :mod:`ejmnet.errors` numbers the candidates for this LP and
the exhaustive triangle search alike.  Some optimal weights and some
optimal functional are then G-invariant, so the master has one row per
orbit of behaviour entries (their sum), one column per orbit of strategy
pairs, and one slack pair per row orbit; the EJM chain has 11 row orbits
instead of 256.  A LOCAL verdict needs no second solve: the master's
weight on each orbit is spread evenly over the orbit's member pairs.  The
target is G-invariant, so these G-invariant weights rebuild it wherever
the orbit sums do, with at most (row orbits + 1) x |G| of them nonzero;
under the trivial group they are the master's own basic solution.
Both certificates are re-checked against all 65536 vertices, so a
wrong group costs time but never gives a wrong verdict.  A target with no
symmetry has the trivial group, and the orbit master is then the plain one.

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
from .errors import (
    CANDIDATE_RELABEL,
    CANDIDATE_SWAP,
    ValidationError,
    cell_perms,
    finite_array,
    probability_array,
    symmetry_group,
)
from .network import joint_distribution_naive, open_line

LOCAL = "LOCAL"
NONLOCAL = "NONLOCAL"
INCONCLUSIVE = "INCONCLUSIVE"

RECONSTRUCTION_ATOL = 1e-8
SEPARATION_MARGIN = 1e-9
# How far each (x, y) slice of a target may sum away from 1.
TARGET_ATOL = 1e-9
# HiGHS's default feasibility tolerances, 1e-7, let a master's slacks hide a
# distance from the polytope below ~1e-7; the reconstruction check then
# fails, and a behaviour just outside gets INCONCLUSIVE instead of NONLOCAL.
_HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}

# Deterministic strategy i answers _OUTCOMES[i, x] on input x: the base-4
# digits of i, most significant first.
_PLACES = 4 ** np.arange(3, -1, -1)
_OUTCOMES = (np.arange(256)[:, None] // _PLACES) % 4
# The first behaviour row of input cell (x, y).
_CELL_BASE = 16 * np.arange(16).reshape(4, 4)
# The party swap exchanges x with y and a with b in a behaviour row [x, y, a, b].
_PARTY_SWAP = (1, 0, 3, 2)


@dataclass(frozen=True)
class LocalityCertificate:
    """Re-verifiable outcome of a membership query.

    LOCAL certificates carry convex weights over the 65536 deterministic
    strategy pairs, the orbit master's weights spread evenly over each
    orbit's member pairs, so G-invariant and at most (row orbits + 1) x |G|
    of them nonzero; NONLOCAL ones carry a separating functional, the orbit
    master's row duals spread over the 256 behaviour rows, together with
    its maximum over the local vertices (the classical bound) and its value
    on the target.  ``columns`` counts strategy pairs: for LOCAL the member
    pairs of the orbits the master weighted; otherwise the member pairs of
    the master's working orbits.  ``rounds`` counts the orbit
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


def _vertex_rows(pairs: np.ndarray) -> np.ndarray:
    """int32 (k, 16): the ascending behaviour rows of the vertex of each strategy pair.

    Row index is ((x*4 + y)*4 + a)*4 + b, and pair i*256 + j is the product
    of strategies i (left party) and j (right party), so the vertex has a 1
    in row ``_CELL_BASE[x, y] + 4*_OUTCOMES[i, x] + _OUTCOMES[j, y]`` of each
    input cell.
    """
    left, right = np.divmod(pairs, 256)
    rows = _CELL_BASE + 4 * _OUTCOMES[left][:, :, None] + _OUTCOMES[right][:, None, :]
    return rows.reshape(-1, 16).astype(np.int32)


def _vertex_values(f) -> np.ndarray:
    """(256, 256): f . v on the vertex of every strategy pair, [left, right].

    The 16 terms of each vertex are added in its row order from 0.0, as a
    sparse matvec over the vertices would add them, so the values and their
    ties are bit for bit that matvec's.  After input x the partial sum
    depends on the left strategy's first x + 1 digits only, so the left
    index grows one digit per input.
    """
    f = np.asarray(f, dtype=float).reshape(4, 4, 4, 4)
    acc = np.zeros((1, 1, 256))
    for x in range(4):
        acc = acc + f[x, 0][:, _OUTCOMES[:, 0]]
        for y in range(1, 4):
            acc += f[x, y][:, _OUTCOMES[:, y]]
        acc = acc.reshape(-1, 1, 256)
    return acc.reshape(256, 256)


def _vertex_image(w) -> np.ndarray:
    """(256,): the behaviour sum_c w[c] v_c of weights ``w`` over the 65536 strategy pairs.

    Each row accumulates the weights of its pairs from 0.0 in ascending pair
    order, as a sparse matvec over the vertices would; pairs of weight zero
    add nothing.
    """
    w = np.asarray(w, dtype=float).reshape(65536)
    pairs = np.flatnonzero(w)
    return np.bincount(_vertex_rows(pairs).ravel(), weights=np.repeat(w[pairs], 16), minlength=256)


def _orbit_master_matrix(columns: np.ndarray, row_orbit: np.ndarray) -> sparse.csc_matrix:
    """``A_eq`` of the orbit master: [S V_C, I, -I] over the row orbits and the weight-sum row.

    S sums the behaviour rows of each orbit (row r lies in orbit
    ``row_orbit[r]``), V_C holds the vertices of the strategy pairs
    ``columns`` (see :func:`_vertex_rows`), and the two identities carry one
    slack pair per row orbit.  With ``row_orbit = np.arange(256)``, S is the
    identity and this is the weights-form matrix [V_C, I, -I].  Summing
    duplicate entries adds up the rows that an orbit repeats in a column.
    """
    n_rows = int(row_orbit.max()) + 1
    rows = np.pad(row_orbit[_vertex_rows(columns)], ((0, 0), (0, 1)), constant_values=n_rows)
    slacks = np.arange(n_rows)
    a_eq = sparse.csc_matrix(
        (
            np.repeat([1.0, -1.0], [rows.size + n_rows, n_rows]),
            np.concatenate([rows.ravel(), slacks, slacks]),
            np.append(17 * np.arange(columns.size), rows.size + np.arange(2 * n_rows + 1)),
        ),
        shape=(n_rows + 1, columns.size + 2 * n_rows),
    )
    a_eq.sum_duplicates()
    return a_eq


def _l1_fit(a_eq: sparse.csc_matrix, b_eq: np.ndarray):
    """Solve min 1 . u+ + 1 . u- over ``a_eq`` [w, u+, u-] = ``b_eq``, all >= 0, with HiGHS."""
    n_slacks = 2 * (b_eq.size - 1)
    cost = np.concatenate([np.zeros(a_eq.shape[1] - n_slacks), np.ones(n_slacks)])
    return linprog(cost, A_eq=a_eq, b_eq=b_eq, method="highs", options=_HIGHS_OPTIONS)


def _column_image(g: int) -> np.ndarray:
    """int32 (65536,): candidate g moves strategy pair c to pair ``[c]``.

    A relabelling s sends strategy f to s . f . s^-1; the swap exchanges
    the left and right strategies.
    """
    s = CANDIDATE_RELABEL[g]
    moved = np.empty_like(_OUTCOMES)
    moved[:, s] = s[_OUTCOMES]
    strategy = (moved @ _PLACES).astype(np.int32)
    pairs = strategy[:, None] * 256 + strategy[None, :]
    return (pairs.T if CANDIDATE_SWAP[g] else pairs).ravel()


@lru_cache(maxsize=8)
def _orbits(group: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Row-orbit ids (256,) and each strategy pair's orbit representative (65536,) under ``group``.

    The representative is the smallest member, a running minimum over the
    group's images of every pair.
    """
    row_orbit = np.unique(cell_perms(_PARTY_SWAP)[list(group)].min(axis=0), return_inverse=True)[1]
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
    A LOCAL verdict spreads each orbit's entry of W evenly over the orbit's
    member pairs, with no further solve.  INCONCLUSIVE flags a solver
    failure or a void margin or fit.
    """
    p = _behaviour(target)
    row_orbit, representative = _orbits(tuple(symmetry_group(p, _PARTY_SWAP).tolist()))
    b_eq = np.append(np.bincount(row_orbit, weights=p), 1.0)
    # Round one prices the target itself, and s = -inf admits every best response.
    functional, level, columns, rounds = p, -np.inf, np.empty(0, dtype=np.int64), 0
    while True:
        values = _vertex_values(functional)
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
    # The orbit sums of weights spread evenly over each orbit are the master's,
    # and so is their fit to the G-invariant target.
    weights = np.zeros(65536)
    weights[columns] = np.maximum(master.x[: columns.size], 0.0) / np.bincount(representative)[columns]
    weights = weights[representative]
    weights /= weights.sum()
    run["columns"] = np.count_nonzero(weights)
    residual = float(np.max(np.abs(_vertex_image(weights) - p)))
    verdict = LOCAL if residual < RECONSTRUCTION_ATOL else INCONCLUSIVE
    return LocalityCertificate(verdict, weights=weights, reconstruction_residual=residual, **run)


def verify_certificate(certificate: LocalityCertificate, target) -> dict:
    """Re-check a certificate by direct evaluation against the target."""
    p = _behaviour(target)
    if certificate.verdict == LOCAL:
        w = certificate.weights
        return {
            "verdict": LOCAL,
            "weight_sum_residual": abs(float(w.sum()) - 1.0),
            "min_weight": float(w.min()),
            "reconstruction_residual": float(np.max(np.abs(_vertex_image(w) - p))),
        }
    if certificate.verdict == NONLOCAL:
        f = certificate.functional.ravel()
        vertex_values = _vertex_values(f)
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

