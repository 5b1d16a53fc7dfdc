import math

import numpy as np
import pytest

from ejmnet.errors import CapacityError, DomainError, ValidationError
from ejmnet.linalg import (
    PAULI,
    antipode_state,
    bloch_to_state,
    partial_bloch,
    singlet,
    tensor,
    tetrahedron_vectors,
)

SQRT3 = math.sqrt(3.0)


def random_unit_vectors(count, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(count, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def pauli_expectation(state) -> np.ndarray:
    """Bloch vector <psi|sigma|psi> of a single-qubit state."""
    psi = np.asarray(state, dtype=complex).reshape(2)
    return np.array([float(np.real(np.conj(psi) @ (p @ psi))) for p in PAULI])


class TestTetrahedron:
    def test_first_vertex(self):
        m = tetrahedron_vectors()
        assert np.allclose(m[0], np.array([1.0, 1.0, 1.0]) / SQRT3, atol=1e-15)

    def test_vertices_sum_to_zero(self):
        assert np.allclose(tetrahedron_vectors().sum(axis=0), 0.0, atol=1e-15)

    def test_pairwise_dot_products(self):
        m = tetrahedron_vectors()
        gram = m @ m.T
        for j in range(4):
            for k in range(4):
                expected = 1.0 if j == k else -1.0 / 3.0
                assert abs(gram[j, k] - expected) < 1e-14


class TestPauliTriple:
    def test_hermitian_unitary_traceless(self):
        for p in PAULI:
            assert np.allclose(p, p.conj().T)
            assert np.allclose(p @ p.conj().T, np.eye(2))
            assert abs(np.trace(p)) < 1e-15

    def test_pairwise_anticommuting(self):
        for i in range(3):
            for j in range(i + 1, 3):
                anti = PAULI[i] @ PAULI[j] + PAULI[j] @ PAULI[i]
                assert np.max(np.abs(anti)) < 1e-15


class TestBlochToState:
    def test_north_pole_kills_zero_component(self):
        assert np.allclose(bloch_to_state((0, 0, 1)), [0.0, 1.0], atol=1e-15)

    def test_x_axis_is_equal_superposition(self):
        s = bloch_to_state((1, 0, 0))
        assert np.allclose(s, [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-15)

    def test_expectation_recovers_vector_on_vertices_and_random(self):
        vectors = np.vstack([tetrahedron_vectors(), random_unit_vectors(10_000)])
        for m in vectors:
            assert np.max(np.abs(pauli_expectation(bloch_to_state(m)) - m)) < 1e-12

    def test_norm_one(self):
        for m in random_unit_vectors(100, seed=1):
            assert abs(np.linalg.norm(bloch_to_state(m)) - 1.0) < 1e-12

    def test_non_unit_input_rejected(self):
        with pytest.raises(DomainError):
            bloch_to_state((0.5, 0.0, 0.0))
        with pytest.raises(DomainError):
            antipode_state((0.0, 0.0, 1.5))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_input_rejected(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            bloch_to_state((bad, 0.0, 0.0))
        with pytest.raises(ValidationError, match="finite"):
            antipode_state((0.0, 0.0, bad))


class TestAntipode:
    def test_orthogonal_to_state(self):
        for m in np.vstack([tetrahedron_vectors(), random_unit_vectors(200, seed=2)]):
            overlap = np.vdot(bloch_to_state(m), antipode_state(m))
            assert abs(overlap) < 1e-12

    def test_matches_opposite_state_up_to_phase(self):
        for m in np.vstack([tetrahedron_vectors(), random_unit_vectors(200, seed=3)]):
            overlap = np.vdot(bloch_to_state(-m), antipode_state(m))
            assert abs(abs(overlap) - 1.0) < 1e-12

    def test_antiparallel_product_overlap_with_singlet(self):
        # The fixed phase convention makes this i/sqrt(2) for every direction.
        for m in np.vstack([tetrahedron_vectors(), random_unit_vectors(50, seed=4)]):
            pair = tensor(bloch_to_state(m), antipode_state(m))
            overlap = np.vdot(pair, singlet())
            assert abs(overlap - 1j / math.sqrt(2)) < 1e-12

    def test_cross_overlaps_between_vertex_products(self):
        m = tetrahedron_vectors()
        pairs = [tensor(bloch_to_state(v), antipode_state(v)) for v in m]
        for j in range(4):
            for k in range(4):
                if j != k:
                    overlap = np.vdot(pairs[j], pairs[k])
                    assert abs(overlap - 1.0 / 3.0) < 1e-12


class TestSinglet:
    def test_amplitudes(self):
        psi = singlet()
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-15
        assert psi[0] == 0 and psi[3] == 0
        assert abs(psi[1] - 1 / math.sqrt(2)) < 1e-15
        assert abs(psi[2] + 1 / math.sqrt(2)) < 1e-15


class TestTensor:
    def test_basis_vector_index(self):
        zero = np.array([1, 0], dtype=complex)
        one = np.array([0, 1], dtype=complex)
        assert np.allclose(tensor(zero, one), [0, 1, 0, 0])

    def test_norm_multiplicative(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        b = rng.normal(size=8) + 1j * rng.normal(size=8)
        product = tensor(a, b)
        assert abs(np.linalg.norm(product) - np.linalg.norm(a) * np.linalg.norm(b)) < 1e-12

    def test_double_singlet_component(self):
        psi2 = tensor(singlet(), singlet())
        assert abs(psi2[0b0101] - 0.5) < 1e-15

    def test_associative_exactly_on_exact_amplitudes(self):
        # Gaussian-integer amplitudes multiply without rounding, so the two
        # association orders must agree bit for bit.
        rng = np.random.default_rng(6)
        a, b, c = (
            rng.integers(-8, 9, size=2) + 1j * rng.integers(-8, 9, size=2)
            for _ in range(3)
        )
        assert np.array_equal(tensor(tensor(a, b), c), tensor(a, tensor(b, c)))

    def test_associative_to_rounding_on_generic_amplitudes(self):
        rng = np.random.default_rng(7)
        a, b, c = (rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(3))
        left, right = tensor(tensor(a, b), c), tensor(a, tensor(b, c))
        assert np.max(np.abs(left - right)) < 1e-12

    def test_capacity_bound(self):
        big = np.zeros(2**13, dtype=complex)
        with pytest.raises(CapacityError):
            tensor(big, np.zeros(2**13, dtype=complex))


class TestPartialBloch:
    def test_singlet_marginals_vanish(self):
        for side in ("first", "second"):
            assert np.max(np.abs(partial_bloch(singlet(), side))) < 1e-15

    def test_product_state_marginals(self):
        # |01>: first qubit is |0>, which is the -z ket in this convention.
        state = np.array([0, 1, 0, 0], dtype=complex)
        assert np.allclose(partial_bloch(state, "first"), [0, 0, -1], atol=1e-15)
        assert np.allclose(partial_bloch(state, "second"), [0, 0, 1], atol=1e-15)

    def test_unknown_side_rejected(self):
        with pytest.raises(DomainError):
            partial_bloch(singlet(), "third")
