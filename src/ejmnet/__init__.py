"""Quantum correlations of two-qubit joint measurements on singlet networks.

The package simulates the outcome statistics of chains and rings of
singlets whose parties all apply a four-outcome joint measurement (the
elegant joint measurement, its z-anchored form, the Massar-Popescu basis
or the Bell-state measurement), recovers the exact dyadic probabilities
behind the floats where the floats certify them, and probes how close
classical network-local hidden-variable models can come to the quantum
statistics.
"""

from .bases import (
    BSM,
    CUSTOM,
    EJM,
    EJM_Z,
    MASSAR_POPESCU,
    BasisDiagnostics,
    TwoQubitBasis,
    basis_by_name,
    basis_from_json_dict,
    basis_to_json_dict,
    bsm_basis,
    ejm_basis,
    ejm_z_basis,
    massar_popescu_basis,
    validate_basis,
    z_anchored_tetrahedron,
)
from .belllp import (
    INCONCLUSIVE,
    LOCAL,
    NONLOCAL,
    LocalityCertificate,
    bell_lp_check,
    chsh_value,
    line_conditional_target,
    pr_box_target,
    uniform_target,
    verify_certificate,
)
from .errors import (
    CapacityError,
    DomainError,
    NonDyadicError,
    UnknownEventError,
    ValidationError,
)
from .linalg import (
    PAULI,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    antipode_state,
    bloch_to_state,
    partial_bloch,
    pauli_expectation,
    schmidt_coefficients,
    singlet,
    tensor,
    tetrahedron_vectors,
)
from .localmodels import (
    MAX_ALL_EQUAL,
    MIN_L1,
    MIN_LINF,
    AnnealResult,
    AnnealSchedule,
    HiddenSource,
    ResponseTable,
    RingLocalModel,
    SearchResult,
    anneal_search,
    asymmetric_model,
    evaluate_model,
    exhaustive_search,
    model_from_json_dict,
    model_to_json_dict,
    q_model,
    q_model_all_equal,
    q_model_flag_audit,
    sample_model,
)
from .network import (
    OPEN_LINE,
    POLYGON,
    CoincidenceStats,
    DyadicProbability,
    JointDistribution,
    NetworkTopology,
    closed_form_line,
    closed_form_polygon,
    coincidence_stats,
    conditional_all_equal,
    conditional_all_equal_fraction,
    distribution_to_json_dict,
    dyadic_columns,
    dyadic_reconstruct,
    event_probability,
    joint_distribution_naive,
    line_all_equal_dyadic,
    open_line,
    polygon,
    polygon_all_equal_dyadic,
    table2_rows,
    transfer_matrices,
)

__version__ = "0.1.0"
