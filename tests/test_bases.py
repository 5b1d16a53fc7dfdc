import math

import numpy as np
import pytest

from ejmnet.bases import (
    TwoQubitBasis,
    basis_by_name,
    basis_from_json_dict,
    basis_to_json_dict,
    ejm_basis,
    validate_basis,
    z_anchored_tetrahedron,
)
from ejmnet.errors import DomainError, ValidationError
from ejmnet.linalg import (
    PAULI,
    antipode_state,
    bloch_to_state,
    singlet,
    tensor,
    tetrahedron_vectors,
)
from ejmnet.network import joint_distribution_naive, polygon

SQRT3 = math.sqrt(3.0)


def gram_residual(states):
    return np.max(np.abs(states @ states.conj().T - np.eye(4)))


class TestEjmBasis:
    def test_orthonormal(self, ejm):
        assert gram_residual(ejm.states) < 1e-12

    def test_states_match_antiparallel_construction_up_to_phase(self, ejm):
        weight = 1j * (SQRT3 - 1.0) / 2.0
        for state, m in zip(ejm.states, tetrahedron_vectors()):
            reference = math.sqrt(1.5) * tensor(bloch_to_state(m), antipode_state(m))
            reference = reference + weight * singlet()
            assert abs(abs(np.vdot(reference, state)) - 1.0) < 1e-12

    def test_partial_bloch_alignment(self, ejm):
        diag = validate_basis(ejm)
        vertices = tetrahedron_vectors()
        assert np.max(np.abs(diag.partial_bloch_first - 0.5 * SQRT3 * vertices)) < 1e-12
        assert np.max(np.abs(diag.partial_bloch_second + 0.5 * SQRT3 * vertices)) < 1e-12

    def test_partial_bloch_norms(self, ejm):
        diag = validate_basis(ejm)
        assert np.max(np.abs(diag.partial_bloch_norms - 0.5 * SQRT3)) < 1e-12

    def test_identical_schmidt_pairs(self, ejm):
        diag = validate_basis(ejm)
        assert np.max(np.abs(diag.schmidt - diag.schmidt[0])) < 1e-12


class TestEjmZBasis:
    def test_anchored_tetrahedron_geometry(self):
        t = z_anchored_tetrahedron()
        gram = t @ t.T
        assert np.allclose(np.diag(gram), 1.0, atol=1e-14)
        off = gram[~np.eye(4, dtype=bool)]
        assert np.allclose(off, -1.0 / 3.0, atol=1e-14)
        assert np.allclose(t[0], [0, 0, -1], atol=1e-15)

    def test_z_state_amplitudes(self, ejmz):
        large = (SQRT3 + 1.0) / (2.0 * math.sqrt(2.0))
        small = (SQRT3 - 1.0) / (2.0 * math.sqrt(2.0))
        assert np.allclose(ejmz.states[0], [0.0, large, small, 0.0], atol=1e-12)

    def test_orthonormal(self, ejmz):
        assert gram_residual(ejmz.states) < 1e-12

    def test_product_local_unitary_to_ejm(self, ejm, ejmz):
        # The rotation taking the reference tetrahedron onto the z-anchored
        # one lifts to a single-qubit unitary U with (U x U) Phi_j ~ Phi_j^z.
        rotation = _aligning_rotation(tetrahedron_vectors(), z_anchored_tetrahedron())
        assert np.max(np.abs(tetrahedron_vectors() @ rotation.T - z_anchored_tetrahedron())) < 1e-12
        u = _su2_from_rotation(rotation)
        uu = np.kron(u, u)
        for state, z_state in zip(ejm.states, ejmz.states):
            assert abs(abs(np.vdot(uu @ state, z_state)) - 1.0) < 1e-12

    def test_same_triangle_distribution_as_ejm(self, ejm, ejmz, triangle_ejm):
        via_z = joint_distribution_naive(polygon(3), ejmz)
        assert np.max(np.abs(via_z.probs - triangle_ejm.probs)) < 1e-12


class TestMassarPopescuBasis:
    def test_orthonormal(self, mp):
        assert gram_residual(mp.states) < 1e-12

    def test_identical_schmidt_pairs(self, mp):
        diag = validate_basis(mp)
        assert np.max(np.abs(diag.schmidt - diag.schmidt[0])) < 1e-12

    def test_marginals_squashed_off_the_tetrahedron(self, mp):
        diag = validate_basis(mp)
        b = diag.partial_bloch_first[0]
        m1 = tetrahedron_vectors()[0]
        angle = math.acos(float(np.dot(b, m1)) / float(np.linalg.norm(b)))
        assert angle > 1e-3


class TestBsmBasis:
    def test_orthonormal(self, bsm):
        assert gram_residual(bsm.states) < 1e-12

    def test_marginals_vanish(self, bsm):
        diag = validate_basis(bsm)
        assert np.max(np.abs(diag.partial_bloch_first)) < 1e-12
        assert np.max(np.abs(diag.partial_bloch_second)) < 1e-12

    def test_maximally_entangled_schmidt(self, bsm):
        diag = validate_basis(bsm)
        assert np.max(np.abs(diag.schmidt - 1.0 / math.sqrt(2.0))) < 1e-12


class TestValidateBasis:
    def test_scaled_state_flagged_with_residual(self, ejm):
        states = ejm.states.copy()
        states[2] = 1.01 * states[2]
        broken = TwoQubitBasis("CUSTOM", states)
        with pytest.raises(ValidationError) as err:
            validate_basis(broken)
        assert abs(err.value.residual - 0.0201) < 1e-12
        assert err.value.detail["worst_pair"] == (2, 2)
        assert "Gram entry (2, 2) deviates" in str(err.value)

    def test_non_finite_basis_rejected(self, ejm):
        states = ejm.states.copy()
        states[1, 2] = complex(np.nan, 0.0)
        with pytest.raises(ValidationError, match="finite"):
            validate_basis(TwoQubitBasis("CUSTOM", states))

    @pytest.mark.parametrize("atol", [math.nan, math.inf, -1e-3])
    def test_unusable_atol_rejected(self, ejm, atol):
        # A NaN or infinite atol would pass this basis, whose Gram residual is 3.
        with pytest.raises(DomainError, match="atol"):
            validate_basis(TwoQubitBasis("bad", 2 * ejm.states), atol=atol)

    def test_bloch_schmidt_consistency_identity(self):
        for name in ("ejm", "ejmz", "mp", "bsm"):
            diag = validate_basis(basis_by_name(name))
            # For any two-qubit pure state |b|^2 + 4 (s1 s2)^2 = (s1^2 + s2^2)^2 = 1.
            s1, s2 = diag.schmidt.T
            assert np.max(np.abs(diag.partial_bloch_norms**2 + 4.0 * (s1 * s2) ** 2 - 1.0)) < 1e-9
            assert diag.schmidt_sum_residual < 1e-12

    def test_unknown_name_rejected(self):
        with pytest.raises(DomainError):
            basis_by_name("chsh")

    @pytest.mark.parametrize("name", [3, None])
    def test_non_string_name_rejected(self, name):
        with pytest.raises(DomainError, match="unknown basis"):
            basis_by_name(name)

    def test_named_basis_is_one_shared_read_only_instance(self):
        assert basis_by_name("EJM") is basis_by_name("ejm")
        assert not basis_by_name("ejm").states.flags.writeable
        assert ejm_basis() is not ejm_basis()


class TestSerialization:
    def test_round_trip(self, ejm):
        payload = basis_to_json_dict(ejm)
        restored = basis_from_json_dict(payload)
        assert restored.label == ejm.label
        assert np.max(np.abs(restored.states - ejm.states)) == 0.0

    def test_states_are_immutable(self, ejm):
        with pytest.raises(ValueError):
            ejm.states[0, 0] = 1.0

    def test_malformed_payload(self):
        # A wrong shape too is malformed content, not a DomainError: the CLI
        # exits 1 for a bad --basis-file and 64 only for a bad flag value.
        for states in ([[1, 2], [3]], [[[1, 0], [0, 0]]]):
            with pytest.raises(ValidationError, match="malformed"):
                basis_from_json_dict({"label": "X", "states": states})


def _aligning_rotation(source, target):
    """Proper rotation mapping the source tetrahedron onto the target one."""

    def frame(v1, v2):
        e1 = v1 / np.linalg.norm(v1)
        e2 = v2 - (v2 @ e1) * e1
        e2 = e2 / np.linalg.norm(e2)
        return np.column_stack([e1, e2, np.cross(e1, e2)])

    return frame(target[0], target[1]) @ frame(source[0], source[1]).T


def _su2_from_rotation(rotation):
    """SU(2) element implementing a rotation in the package's Pauli frame."""
    trace = np.trace(rotation)
    if trace > 0:
        s = math.sqrt(trace + 1.0) * 2.0
        q = (s / 4.0, (rotation[2, 1] - rotation[1, 2]) / s,
             (rotation[0, 2] - rotation[2, 0]) / s, (rotation[1, 0] - rotation[0, 1]) / s)
    else:
        i = int(np.argmax(np.diag(rotation)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = math.sqrt(1.0 + rotation[i, i] - rotation[j, j] - rotation[k, k]) * 2.0
        axis = [0.0, 0.0, 0.0]
        axis[i] = s / 4.0
        axis[j] = (rotation[j, i] + rotation[i, j]) / s
        axis[k] = (rotation[k, i] + rotation[i, k]) / s
        q = ((rotation[k, j] - rotation[j, k]) / s, *axis)
    w, x, y, z = q
    return w * np.eye(2, dtype=complex) - 1j * (x * PAULI[0] + y * PAULI[1] + z * PAULI[2])
