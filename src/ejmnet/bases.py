"""Two-qubit joint-measurement bases and their diagnostics.

Provides the elegant joint measurement (EJM) built on antiparallel spins
along the tetrahedron directions, a z-anchored variant of it that is
convenient for transfer-matrix work, the Massar-Popescu parallel-spin
basis, and the Bell-state measurement, together with shared validation
and JSON serialization.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError, finite_array
from .linalg import (
    SQRT3,
    antipode_state,
    bloch_to_state,
    partial_bloch,
    schmidt_coefficients,
    singlet,
    tensor,
    tetrahedron_vectors,
)

EJM = "EJM"
EJM_Z = "EJM_Z"
MASSAR_POPESCU = "MASSAR_POPESCU"
BSM = "BSM"
CUSTOM = "CUSTOM"

# Default orthonormality threshold used by validate_basis.
ORTHONORMALITY_ATOL = 1e-10

_PRODUCT_WEIGHT = math.sqrt(1.5)
_SINGLET_WEIGHT = 1j * (SQRT3 - 1.0) / 2.0


@dataclass(frozen=True)
class TwoQubitBasis:
    """Four two-qubit pure states defining a 4-outcome joint measurement.

    ``states`` holds one state per row in big-endian amplitude order
    (|00>, |01>, |10>, |11>).  Instances are immutable.
    """

    label: str
    states: np.ndarray

    def __post_init__(self):
        arr = np.array(self.states, dtype=complex)
        if arr.shape != (4, 4):
            raise DomainError(f"basis states must have shape (4, 4), got {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "states", arr)


@dataclass(frozen=True)
class BasisDiagnostics:
    """Per-state marginals and entanglement data of a validated basis."""

    label: str
    gram_residual: float
    worst_pair: tuple[int, int]
    partial_bloch_first: np.ndarray   # (4, 3)
    partial_bloch_second: np.ndarray  # (4, 3)
    partial_bloch_norms: np.ndarray   # (4,)
    schmidt: np.ndarray               # (4, 2), descending per state
    schmidt_sum_residual: float       # max_j |s1^2 + s2^2 - 1|


def _phase_fixed(state: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the largest-magnitude amplitude is real positive."""
    k = int(np.argmax(np.abs(state)))
    phase = state[k] / abs(state[k])
    return state * np.conj(phase)


def antiparallel_spin_basis(directions, label: str = CUSTOM) -> TwoQubitBasis:
    """EJM-type basis for four directions with pairwise dot products -1/3.

    Each state superposes the antiparallel product |m, -m> with the singlet,
    weighted so the four states come out orthonormal exactly when the
    directions form a regular tetrahedron.  Because <m, -m|singlet> is the
    same for every m, the construction commutes with rigid rotations of the
    direction set.
    """
    psi_minus = singlet()
    states = []
    for m in np.asarray(directions, dtype=float).reshape(4, 3):
        product = tensor(bloch_to_state(m), antipode_state(m))
        states.append(
            _phase_fixed(_PRODUCT_WEIGHT * product + _SINGLET_WEIGHT * psi_minus)
        )
    return TwoQubitBasis(label, np.array(states))


def ejm_basis() -> TwoQubitBasis:
    """The elegant joint measurement.

    Its eigenstates all carry the same degree of partial entanglement and
    their one-qubit marginals point along +/- the tetrahedron directions
    with Bloch length sqrt(3)/2.
    """
    return antiparallel_spin_basis(tetrahedron_vectors(), label=EJM)


def z_anchored_tetrahedron() -> np.ndarray:
    """Tetrahedron congruent to ``tetrahedron_vectors()`` with vertex 1 at -z.

    The other vertices sit at height +1/3 with azimuths 0, -120 and +120
    degrees; this ordering preserves the chirality of the reference
    tetrahedron so the two are related by a proper rotation.
    """
    radius = 2.0 * math.sqrt(2.0) / 3.0
    ang = 2.0 * math.pi / 3.0
    return np.array(
        [
            [0.0, 0.0, -1.0],
            [radius, 0.0, 1.0 / 3.0],
            [radius * math.cos(ang), -radius * math.sin(ang), 1.0 / 3.0],
            [radius * math.cos(ang), radius * math.sin(ang), 1.0 / 3.0],
        ]
    )


def ejm_z_basis() -> TwoQubitBasis:
    """EJM variant anchored on the z axis; same network statistics as the EJM.

    The whole basis equals (U x U) applied to the EJM for one single-qubit
    rotation U, and since every source is a singlet (invariant under U x U)
    it reproduces the EJM outcome distribution on any chain or ring.  Its
    first state is diagonal in the computational basis, with amplitudes
    (sqrt(3)+1)/(2 sqrt(2)) on |01> and (sqrt(3)-1)/(2 sqrt(2)) on |10>,
    which is what makes closed-form transfer-matrix work pleasant.
    """
    return antiparallel_spin_basis(z_anchored_tetrahedron(), label=EJM_Z)


def massar_popescu_basis() -> TwoQubitBasis:
    """Parallel-spin basis (sqrt(3)/2)|m_j, m_j> +/- (1/2) singlet.

    The sign pattern (+, -, -, +) over the four tetrahedron directions is
    forced by orthonormality.  All four states share one degree of
    entanglement, but their one-qubit marginals are squashed towards the
    equator instead of following the tetrahedron.
    """
    psi_minus = singlet()
    signs = (1.0, -1.0, -1.0, 1.0)
    states = []
    for m, sign in zip(tetrahedron_vectors(), signs):
        ket = bloch_to_state(m)
        states.append(
            _phase_fixed(0.5 * SQRT3 * tensor(ket, ket) + sign * 0.5 * psi_minus)
        )
    return TwoQubitBasis(MASSAR_POPESCU, np.array(states))


def bsm_basis() -> TwoQubitBasis:
    """The Bell-state measurement: four maximally entangled states."""
    s2 = math.sqrt(2.0)
    states = np.array(
        [
            [1, 0, 0, 1],
            [1, 0, 0, -1],
            [0, 1, 1, 0],
            [0, 1, -1, 0],
        ],
        dtype=complex,
    ) / s2
    return TwoQubitBasis(BSM, states)


_BASIS_FACTORIES = {
    "ejm": ejm_basis,
    "ejmz": ejm_z_basis,
    "mp": massar_popescu_basis,
    "bsm": bsm_basis,
}

BASIS_NAMES = tuple(_BASIS_FACTORIES)


@functools.cache
def _named_basis(key: str) -> TwoQubitBasis:
    return _BASIS_FACTORIES[key]()


def basis_by_name(name: str) -> TwoQubitBasis:
    """The basis with a short CLI name (ejm, ejmz, mp, bsm), any case.

    Every call with the same name returns one shared instance, built on
    first use; a basis is frozen and its states read-only.
    """
    key = name.lower() if isinstance(name, str) else None
    if key not in _BASIS_FACTORIES:
        raise DomainError(f"unknown basis {name!r}; choose from {BASIS_NAMES}")
    return _named_basis(key)


def validate_basis(basis: TwoQubitBasis, atol: float = ORTHONORMALITY_ATOL) -> BasisDiagnostics:
    """Check orthonormality and collect marginal/entanglement diagnostics.

    Raises ValidationError, carrying the worst offending pair and its
    residual, when any Gram-matrix entry deviates from the identity by more
    than ``atol``, and DomainError unless ``atol`` is finite and >= 0.
    """
    if not (math.isfinite(atol) and atol >= 0):
        raise DomainError(f"atol must be finite and >= 0, got {atol!r}")
    states = basis.states
    finite_array(np.abs(states), f"basis {basis.label!r} amplitudes")
    gram = states @ states.conj().T
    deviation = np.abs(gram - np.eye(4))
    worst = tuple(int(i) for i in np.unravel_index(int(np.argmax(deviation)), deviation.shape))
    residual = float(deviation[worst])
    if residual > atol:
        raise ValidationError(
            f"basis {basis.label!r} is not orthonormal: Gram entry {worst} "
            f"deviates by {residual:.6g}",
            residual=residual,
            detail={"worst_pair": worst},
        )

    first = np.array([partial_bloch(s, "first") for s in states])
    second = np.array([partial_bloch(s, "second") for s in states])
    norms = np.linalg.norm(first, axis=1)
    schmidt = np.array([schmidt_coefficients(s) for s in states])
    sum_residual = float(np.max(np.abs((schmidt**2).sum(axis=1) - 1.0)))
    return BasisDiagnostics(
        label=basis.label,
        gram_residual=residual,
        worst_pair=worst,
        partial_bloch_first=first,
        partial_bloch_second=second,
        partial_bloch_norms=norms,
        schmidt=schmidt,
        schmidt_sum_residual=sum_residual,
    )


def basis_to_json_dict(basis: TwoQubitBasis) -> dict:
    """Serialize a basis as a label plus a 4x4 array of [re, im] pairs."""
    return {
        "label": basis.label,
        "states": [
            [[float(a.real), float(a.imag)] for a in state] for state in basis.states
        ],
    }


def basis_from_json_dict(payload: dict) -> TwoQubitBasis:
    """Inverse of :func:`basis_to_json_dict`."""
    try:
        label = str(payload["label"])
        rows = payload["states"]
        states = np.array(
            [[complex(re, im) for re, im in row] for row in rows], dtype=complex
        )
        return TwoQubitBasis(label, states)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed basis payload: {exc}") from exc
