"""Preparation-uncertainty bounds for finite-dimensional quantum systems.

Computes and cross-verifies the Heisenberg-Robertson-Schrodinger bounds (t1,
t2) and the Maccone-Pati sum bounds (l1, l2) for arbitrary pure states and
Hermitian observable pairs, including closed-form optimization of the
Maccone-Pati bounds over the orthogonal complement of the state, brute-force
and Monte Carlo verification, and a CLI.
"""

from .bounds import (
    BoundReport,
    OrthogonalCandidate,
    OrthogonalityError,
    bound_report,
    hrsur_product_bound,
    hrsur_sum_bound,
    optimal_xi_perp,
)
from .instances import Instance, InstanceFormatError, load_instance, parse_instance, report_to_dict
from .montecarlo import (
    BornDistribution,
    EstimateReport,
    StatisticalCheckReport,
    born_distribution,
    empirical_variance,
    sample_outcomes,
    statistical_bound_check,
)
from .quantum import (
    DimensionMismatchError,
    EigensolverError,
    EmptyComplementError,
    HermiticityError,
    NormalizationError,
    NullVectorError,
    Observable,
    QuantumState,
    anticommutator_mean,
    basis_state,
    commutator_mean,
    covariance,
    deviation_vector,
    equatorial_state,
    expectation,
    hermitian_eigensystem,
    identity_observable,
    inner_product,
    is_eigenstate,
    norm,
    normalize,
    orthonormal_complement_basis,
    pauli_x,
    pauli_z,
    quantum_covariance,
    variance,
)
from .verify import (
    RandomSpec,
    SearchResult,
    SuiteReport,
    check_csi,
    check_parallelogram,
    l1_bound,
    l2_bound,
    random_observable,
    random_state,
    random_unit_in_complement,
    run_invariant_suite,
    search_optimal_xi_perp,
)

__version__ = "0.1.0"
