import numpy as np
import pytest

from ejmnet.bases import bsm_basis, ejm_basis, ejm_z_basis, massar_popescu_basis
from ejmnet.network import JointDistribution, joint_distribution_naive, polygon


@pytest.fixture(scope="session")
def ejm():
    return ejm_basis()


@pytest.fixture(scope="session")
def ejmz():
    return ejm_z_basis()


@pytest.fixture(scope="session")
def mp():
    return massar_popescu_basis()


@pytest.fixture(scope="session")
def bsm():
    return bsm_basis()


@pytest.fixture(scope="session")
def triangle_ejm(ejm):
    return joint_distribution_naive(polygon(3), ejm)


@pytest.fixture(scope="session")
def triangle_ejm_coarse(triangle_ejm):
    """EJM triangle with outcomes grouped two by two, supported on {1,2}^3."""
    coarse = np.zeros((4, 4, 4))
    groups = np.array([0, 0, 1, 1])
    for idx in np.ndindex(4, 4, 4):
        coarse[tuple(groups[list(idx)])] += triangle_ejm.probs[idx]
    return JointDistribution(triangle_ejm.topology, "ejm-coarse", coarse)
