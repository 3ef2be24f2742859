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

from .bounds import MP_BOUNDS, BoundReport, OrthogonalCandidate
from .quantum import HermiticityError, Observable, QuantumState, _check_dim

__all__ = [
    "InstanceFormatError",
    "Instance",
    "parse_instance",
    "load_instance",
    "instance_payload",
    "candidate_to_dict",
    "report_to_dict",
    "json_dumps",
]


class InstanceFormatError(ValueError):
    """Instance file is malformed or violates a validity constraint."""


def _is_number(kind: type) -> bool:
    # a JSON number: bool subclasses int, but true and false are not numbers
    return issubclass(kind, (int, float)) and not issubclass(kind, bool)


def _decode(obj, shape: tuple[int, ...], name: str) -> np.ndarray:
    """Complex array of `shape` from nested [re, im] pairs, keeping every bit.

    One pass over the whole field: an object array, one shape check, one
    entry rule on the set of entry types, one cast. On failure the error
    names the first malformed row or pair in row-major order (`A[3][4]`), or
    the field itself.
    """
    arr = np.array(obj, dtype=object)
    if arr.shape == shape + (2,) and all(map(_is_number, set(map(type, arr.flat)))):
        try:
            return arr.astype(float).view(complex).reshape(shape)
        except OverflowError as exc:  # an integer literal beyond the double range
            if not shape:
                raise InstanceFormatError(f"{name}: {exc}") from exc
    if not shape:
        raise InstanceFormatError(f"{name}: expected a [re, im] pair, got {obj!r}")
    # the field failed as a whole: the first row or pair that fails alone raises
    if arr.ndim and len(arr) == shape[0]:
        for k, item in enumerate(obj):
            _decode(item, shape[1:], f"{name}[{k}]")
    size = f"length-{shape[0]}" if len(shape) == 1 else "x".join(map(str, shape))
    raise InstanceFormatError(f"{name}: expected a {size} array of [re, im] pairs")


def _pairs(arr: np.ndarray) -> list:
    """Nested [re, im] pairs of a complex array, the inverse of `_decode`."""
    return np.stack((arr.real, arr.imag), -1).tolist()


@dataclass(frozen=True)
class Instance:
    """One validated (state, A, B) problem, optionally with a user xi_perp."""

    state: QuantumState
    a: Observable
    b: Observable
    xi_perp: QuantumState | None = None


def parse_instance(data) -> Instance:
    """Validate shapes, normalizability and Hermiticity; name the offender on failure."""
    if not isinstance(data, dict):
        raise InstanceFormatError("instance file must contain a JSON object")
    for key in ("dim", "state", "A", "B"):
        if key not in data:
            raise InstanceFormatError(f"missing required field {key!r}")
    try:
        dim = _check_dim(data["dim"])
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from exc

    fields = [("state", QuantumState, (dim,)), ("A", Observable, (dim, dim)), ("B", Observable, (dim, dim))]
    if data.get("xi_perp") is not None:
        fields.append(("xi_perp", QuantumState, (dim,)))
    parsed = {}
    for key, make, shape in fields:
        value = _decode(data[key], shape, key)
        label = key if make is QuantumState else f"matrix {key}"
        try:
            parsed[key] = make(value)
        except HermiticityError as exc:
            raise InstanceFormatError(f"{label} is not Hermitian: {exc}") from exc
        except ValueError as exc:
            raise InstanceFormatError(f"{label}: {exc}") from exc
    return Instance(state=parsed["state"], a=parsed["A"], b=parsed["B"], xi_perp=parsed.get("xi_perp"))


def load_instance(path) -> Instance:
    """Read and parse an instance file. I/O errors and JSON errors propagate."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return parse_instance(data)


def instance_payload(state: QuantumState, a: Observable, b: Observable, xi_perp: QuantumState | None = None) -> dict:
    """Instance as a JSON-ready dict (the replay format of violation records)."""
    payload = {
        "dim": state.dim,
        "state": _pairs(state.vector),
        "A": _pairs(a.matrix),
        "B": _pairs(b.matrix),
    }
    if xi_perp is not None:
        payload["xi_perp"] = _pairs(xi_perp.vector)
    return payload


def candidate_to_dict(candidate: OrthogonalCandidate) -> dict:
    return {
        "value": candidate.bound_value,
        "sign": candidate.sign,
        "kind": candidate.kind,
        "xi_perp": _pairs(candidate.vector.vector),
    }


def report_to_dict(report: BoundReport) -> dict:
    """The report's fields by name, each candidate under its bound's name and each by-sign pair as plus/minus."""
    out = {name: getattr(report, name) for name in BoundReport.__dataclass_fields__ if not name.endswith("_candidate")}
    for which in MP_BOUNDS:
        out[which] = candidate_to_dict(getattr(report, f"{which}_candidate"))
        out[f"{which}_by_sign"] = dict(zip(("plus", "minus"), out[f"{which}_by_sign"]))
    return out


def json_dumps(obj) -> str:
    """Canonical JSON: sorted keys, two-space indent, full double precision."""
    return json.dumps(obj, sort_keys=True, indent=2)
