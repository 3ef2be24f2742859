"""Preparation-uncertainty bounds for finite-dimensional quantum systems.

Computes and cross-verifies the Heisenberg-Robertson-Schrodinger bounds (t1,
t2) and the Maccone-Pati sum bounds (l1, l2) for arbitrary pure states and
Hermitian observable pairs, including closed-form optimization of the
Maccone-Pati bounds over the orthogonal complement of the state, brute-force
and Monte Carlo verification, and a CLI.

The package namespace holds the API the README documents; every other public
name is importable from its module. Importing the package loads `quantum` and
`bounds`, which every CLI subcommand runs. The other six names load their
module (`instances`, `verify` or `montecarlo`) on first access (PEP 562), so
`purbounds bounds` never imports `verify` or `montecarlo`, and `purbounds
sweep` imports none of the three.
"""

from .bounds import BoundReport, OrthogonalityError, bound_report, optimal_xi_perp
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

__version__ = "0.1.0"

# the module of each name that loads on first access
_LAZY = {
    "InstanceFormatError": "instances",
    "load_instance": "instances",
    "statistical_bound_check": "montecarlo",
    "l1_bound": "verify",
    "l2_bound": "verify",
    "run_invariant_suite": "verify",
}

# the README API, in the README's order
__all__ = [
    "QuantumState", "Observable", "pauli_x", "pauli_z", "equatorial_state",
    "bound_report", "BoundReport", "optimal_xi_perp",
    "l1_bound", "l2_bound", "run_invariant_suite", "statistical_bound_check",
    "load_instance",
    "DimensionMismatchError", "NormalizationError", "HermiticityError", "OrthogonalityError", "InstanceFormatError",
]


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    # bound once, so later reads skip this hook
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
