"""JSON instance files and report serialization.

An instance file holds one (state, A, B) problem with complex numbers encoded
as two-element [re, im] arrays:

    {
      "dim": 2,
      "state": [[re, im], ...],              # length d
      "A": [[[re, im], ...], ...],           # d x d, Hermitian
      "B": [[[re, im], ...], ...],
      "xi_perp": [[re, im], ...]             # optional, length d
    }

Serialization keeps doubles at full precision (shortest round-trip repr), so
written reports parse back bit-for-bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .bounds import BoundReport, OrthogonalCandidate
from .quantum import HermiticityError, NormalizationError, Observable, QuantumState

__all__ = [
    "InstanceFormatError",
    "Instance",
    "parse_instance",
    "load_instance",
    "complex_pair",
    "vector_pairs",
    "matrix_pairs",
    "instance_payload",
    "candidate_to_dict",
    "report_to_dict",
    "json_dumps",
]


class InstanceFormatError(ValueError):
    """Instance file is malformed or violates a validity constraint."""


def complex_pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def vector_pairs(vec) -> list[list[float]]:
    arr = np.asarray(vec, dtype=complex)
    return [complex_pair(z) for z in arr]


def matrix_pairs(mat) -> list[list[list[float]]]:
    arr = np.asarray(mat, dtype=complex)
    return [[complex_pair(z) for z in row] for row in arr]


def _pair_to_complex(obj, where: str) -> complex:
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in obj)
    ):
        raise InstanceFormatError(f"{where}: expected a [re, im] pair, got {obj!r}")
    try:
        return complex(float(obj[0]), float(obj[1]))
    except OverflowError as exc:  # an integer literal beyond the double range
        raise InstanceFormatError(f"{where}: {exc}") from exc


def _pairs_to_vector(obj, dim: int, name: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != dim:
        raise InstanceFormatError(f"{name}: expected a length-{dim} array of [re, im] pairs")
    return np.array([_pair_to_complex(entry, f"{name}[{k}]") for k, entry in enumerate(obj)])


def _pairs_to_matrix(obj, dim: int, name: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != dim:
        raise InstanceFormatError(f"{name}: expected a {dim}x{dim} array of [re, im] pairs")
    rows = []
    for j, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != dim:
            raise InstanceFormatError(f"{name}[{j}]: expected a length-{dim} row")
        rows.append([_pair_to_complex(entry, f"{name}[{j}][{k}]") for k, entry in enumerate(row)])
    return np.array(rows)


@dataclass(frozen=True)
class Instance:
    """One validated (state, A, B) problem, optionally with a user xi_perp."""

    state: QuantumState
    a: Observable
    b: Observable
    xi_perp: QuantumState | None = None

    @property
    def dim(self) -> int:
        return self.state.dim


def parse_instance(data) -> Instance:
    """Validate shapes, normalizability and Hermiticity; name the offender on failure."""
    if not isinstance(data, dict):
        raise InstanceFormatError("instance file must contain a JSON object")
    if "dim" not in data or not isinstance(data["dim"], int) or isinstance(data["dim"], bool):
        raise InstanceFormatError("missing or non-integer 'dim'")
    dim = data["dim"]
    if dim < 2:
        raise InstanceFormatError(f"dim must be at least 2, got {dim}")
    for key in ("state", "A", "B"):
        if key not in data:
            raise InstanceFormatError(f"missing required field {key!r}")

    try:
        state = QuantumState(_pairs_to_vector(data["state"], dim, "state"))
    except (NormalizationError, ValueError) as exc:
        if isinstance(exc, InstanceFormatError):
            raise
        raise InstanceFormatError(f"state: {exc}") from exc

    observables = {}
    for key in ("A", "B"):
        try:
            observables[key] = Observable(_pairs_to_matrix(data[key], dim, key))
        except HermiticityError as exc:
            raise InstanceFormatError(f"matrix {key} is not Hermitian: {exc}") from exc
        except ValueError as exc:
            if isinstance(exc, InstanceFormatError):
                raise
            raise InstanceFormatError(f"matrix {key}: {exc}") from exc

    xi_perp = None
    if data.get("xi_perp") is not None:
        try:
            xi_perp = QuantumState(_pairs_to_vector(data["xi_perp"], dim, "xi_perp"))
        except (NormalizationError, ValueError) as exc:
            if isinstance(exc, InstanceFormatError):
                raise
            raise InstanceFormatError(f"xi_perp: {exc}") from exc

    return Instance(state=state, a=observables["A"], b=observables["B"], xi_perp=xi_perp)


def load_instance(path) -> Instance:
    """Read and parse an instance file. I/O errors and JSON errors propagate."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return parse_instance(data)


def instance_payload(state: QuantumState, a: Observable, b: Observable, xi_perp: QuantumState | None = None) -> dict:
    """Instance as a JSON-ready dict (the replay format of violation records)."""
    payload = {
        "dim": state.dim,
        "state": vector_pairs(state.vector),
        "A": matrix_pairs(a.matrix),
        "B": matrix_pairs(b.matrix),
    }
    if xi_perp is not None:
        payload["xi_perp"] = vector_pairs(xi_perp.vector)
    return payload


def candidate_to_dict(candidate: OrthogonalCandidate) -> dict:
    return {
        "value": candidate.bound_value,
        "sign": candidate.sign,
        "kind": candidate.kind,
        "xi_perp": vector_pairs(candidate.vector.vector),
    }


def report_to_dict(report: BoundReport) -> dict:
    return {
        "var_a": report.var_a,
        "var_b": report.var_b,
        "sum_var": report.sum_var,
        "prod_var": report.prod_var,
        "covq": report.covq,
        "comm_mean_abs": report.comm_mean_abs,
        "t1": report.t1,
        "t2": report.t2,
        "l1": candidate_to_dict(report.l1_candidate),
        "l2": candidate_to_dict(report.l2_candidate),
        "l1_by_sign": {"plus": report.l1_by_sign[0], "minus": report.l1_by_sign[1]},
        "l2_by_sign": {"plus": report.l2_by_sign[0], "minus": report.l2_by_sign[1]},
        "mpur": report.mpur,
        "hrsur_trivial": report.hrsur_trivial,
        "common_eigenvector": report.common_eigenvector,
        "saturation_gap": report.saturation_gap,
    }


def json_dumps(obj) -> str:
    """Canonical JSON: sorted keys, two-space indent, full double precision."""
    return json.dumps(obj, sort_keys=True, indent=2)
