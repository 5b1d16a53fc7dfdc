"""State-vector and Bloch-sphere primitives for few-qubit networks.

Everything operates on plain complex numpy arrays in big-endian qubit
ordering: the leftmost tensor factor is the most significant bit of the
amplitude index.  All functions are pure and never mutate their inputs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapacityError, DomainError, finite_array

# Largest tensor product ever materialised (amplitude count 2**MAX_QUBITS).
MAX_QUBITS = 24

# Pauli triple fixed by the requirement <m|sigma|m> = m for kets built by
# bloch_to_state below.  It is the textbook triple conjugated by the basis
# swap |0> <-> |1>, i.e. (sx, -sy, -sz) in the usual representation.
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)
PAULI = (PAULI_X, PAULI_Y, PAULI_Z)

SQRT3 = math.sqrt(3.0)


def tetrahedron_vectors() -> np.ndarray:
    """Unit vectors to the four vertices of the reference tetrahedron, one per row.

    Pairwise dot products are -1/3 and the four vectors sum to zero.
    """
    vertices = np.array(
        [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
    )
    return vertices / SQRT3


def _unit_vector(m, atol: float = 1e-9) -> np.ndarray:
    v = finite_array(m, "Bloch vector").reshape(3)
    n = float(np.linalg.norm(v))
    if abs(n - 1.0) > atol:
        raise DomainError(f"expected a unit Bloch vector, got norm {n}")
    return v / n


def _ket(eta: float, phi: float) -> np.ndarray:
    return np.array(
        [
            math.sqrt(max(0.5 * (1.0 - eta), 0.0)) * np.exp(0.5j * phi),
            math.sqrt(max(0.5 * (1.0 + eta), 0.0)) * np.exp(-0.5j * phi),
        ]
    )


def bloch_to_state(m) -> np.ndarray:
    """Qubit ket pointing along the unit Bloch vector ``m``.

    With eta the z component and phi = atan2(y, x), the ket is
    sqrt((1-eta)/2) e^{+i phi/2} |0> + sqrt((1+eta)/2) e^{-i phi/2} |1>,
    which satisfies <m|sigma|m> = m for the PAULI triple above.  At the
    poles phi degenerates to a global phase; atan2(0, 0) = 0 fixes it.
    """
    v = _unit_vector(m)
    return _ket(v[2], math.atan2(v[1], v[0]))


def antipode_state(m) -> np.ndarray:
    """Ket orthogonal to ``bloch_to_state(m)``, via eta -> -eta and phi -> phi + pi.

    The phase convention matters: with it, <m, -m|singlet> = i/sqrt(2) for
    every unit m, which pins all relative phases used by the measurement
    bases downstream.
    """
    v = _unit_vector(m)
    return _ket(-v[2], math.atan2(v[1], v[0]) + math.pi)


def singlet() -> np.ndarray:
    """Two-qubit singlet (|01> - |10>)/sqrt(2)."""
    return np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two state vectors, left factor most significant."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.size * b.size > 2**MAX_QUBITS:
        raise CapacityError(
            f"tensor product of dims {a.size} x {b.size} exceeds 2**{MAX_QUBITS}"
        )
    return np.kron(a, b)


def partial_bloch(state, side: str = "first") -> np.ndarray:
    """Bloch vector of one qubit of a normalised two-qubit pure state.

    The vector lies strictly inside the sphere when the state is entangled
    and vanishes for maximally entangled states.
    """
    psi = np.asarray(state, dtype=complex).reshape(2, 2)
    if side == "first":
        rho = psi @ psi.conj().T
    elif side == "second":
        rho = psi.T @ psi.conj()
    else:
        raise DomainError(f"side must be 'first' or 'second', got {side!r}")
    return np.array([float(np.real(np.trace(rho @ p))) for p in PAULI])


def schmidt_coefficients(state) -> np.ndarray:
    """Schmidt coefficients (descending singular values) of a two-qubit state."""
    psi = np.asarray(state, dtype=complex).reshape(2, 2)
    return np.linalg.svd(psi, compute_uv=False)
