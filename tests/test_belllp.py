import numpy as np
import pytest

from ejmnet import (
    LOCAL,
    NONLOCAL,
    ValidationError,
    bell_lp_check,
    chsh_value,
    line_conditional_target,
    pr_box_target,
    uniform_target,
    verify_certificate,
)
from ejmnet.belllp import _vertex_matrix


@pytest.fixture(scope="module")
def line4_certificate():
    return bell_lp_check(line_conditional_target()), line_conditional_target()


class TestTargets:
    def test_line_conditional_is_valid(self):
        target = line_conditional_target()
        assert target.shape == (4, 4, 4, 4)
        assert np.allclose(target.sum(axis=(2, 3)), 1.0, atol=1e-10)
        assert float(target.min()) >= 0.0

    def test_line_conditional_is_nonsignalling(self):
        # The middle parties' marginals cannot depend on the far end outcome.
        target = line_conditional_target()
        left = target.sum(axis=3)   # p(a | x, y)
        right = target.sum(axis=2)  # p(b | x, y)
        assert np.max(np.abs(left - left[:, :1, :])) < 1e-10
        assert np.max(np.abs(right - right.mean(axis=0, keepdims=True))) < 1e-10

    def test_pr_box_attains_algebraic_chsh(self):
        assert abs(chsh_value(pr_box_target()) - 4.0) < 1e-12

    def test_line_conditional_respects_chsh(self):
        assert abs(chsh_value(line_conditional_target())) <= 2.0 + 1e-9


class TestMembership:
    def test_uniform_noise_is_local(self):
        certificate = bell_lp_check(uniform_target())
        assert certificate.verdict == LOCAL
        assert certificate.reconstruction_residual < 1e-8

    def test_line4_conditional_is_local(self, line4_certificate):
        certificate, target = line4_certificate
        assert certificate.verdict == LOCAL
        assert certificate.reconstruction_residual < 1e-8
        check = verify_certificate(certificate, target)
        assert check["reconstruction_residual"] < 1e-8
        assert check["weight_sum_residual"] < 1e-8
        assert check["min_weight"] >= 0.0

    def test_pr_box_is_nonlocal_with_separating_functional(self):
        target = pr_box_target()
        certificate = bell_lp_check(target)
        assert certificate.verdict == NONLOCAL
        assert certificate.margin > 1e-9
        assert certificate.target_value > certificate.classical_bound
        # Margin re-verified against every deterministic vertex.
        functional = certificate.functional.ravel()
        vertex_values = _vertex_matrix().T @ functional
        assert float(functional @ target.ravel()) - float(vertex_values.max()) > 1e-9

    def test_malformed_target_rejected(self):
        with pytest.raises(ValidationError):
            bell_lp_check(np.zeros((4, 4, 4, 4)))
        with pytest.raises(ValidationError):
            bell_lp_check(np.zeros((2, 2, 2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_target_rejected(self, bad):
        target = uniform_target()
        target[0, 0, 0, 0] = bad
        with pytest.raises(ValidationError, match="finite"):
            bell_lp_check(target)


class TestVertexMatrix:
    def test_column_structure(self):
        v = _vertex_matrix()
        assert v.shape == (256, 65536)
        sums = np.asarray(v.sum(axis=0)).ravel()
        assert np.all(sums == 16)
        # Column 0: both parties always answer 0.
        col = np.asarray(v[:, 0].todense()).ravel().reshape(4, 4, 4, 4)
        assert col[0, 0, 0, 0] == 1 and col[1, 2, 0, 0] == 1 and col[0, 0, 1, 0] == 0
