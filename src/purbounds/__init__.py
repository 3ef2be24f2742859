"""Preparation-uncertainty bounds for finite-dimensional quantum systems.

Computes and cross-verifies the Heisenberg-Robertson-Schrodinger bounds (t1,
t2) and the Maccone-Pati sum bounds (l1, l2) for arbitrary pure states and
Hermitian observable pairs, including closed-form optimization of the
Maccone-Pati bounds over the orthogonal complement of the state, brute-force
and Monte Carlo verification, and a CLI.

The package namespace holds the API the README documents; every other public
name is importable from its module.
"""

from .bounds import BoundReport, OrthogonalityError, bound_report, optimal_xi_perp
from .instances import InstanceFormatError, load_instance
from .montecarlo import statistical_bound_check
from .quantum import (
    DimensionMismatchError,
    HermiticityError,
    NormalizationError,
    Observable,
    QuantumState,
    equatorial_state,
    pauli_x,
    pauli_z,
)
from .verify import l1_bound, l2_bound, run_invariant_suite

__version__ = "0.1.0"
