"""Variance lower bounds for a pair of observables on a pure state.

Computes the Heisenberg-Robertson-Schrodinger bounds

    t1 = CovQ(A,B)^2 + |<[A,B]>|^2 / 4   (product form: Var(A) Var(B) >= t1)
    t2 = |<[A,B]>|                       (sum form:     Var(A) + Var(B) >= t2)

and the Maccone-Pati sum bounds built from a unit vector xi_perp orthogonal
to the state,

    l1(s) = |<xi|(A + s B)|xi_perp>|^2 / 2
    l2(s) = s i <[A,B]> + |<xi|(A + s i B)|xi_perp>|^2,   s in {+1, -1},

together with the closed-form optimal xi_perp for each bound.

Everything is computed from the two deviation vectors psi = (A - <A>)|xi>
and phi = (B - <B>)|xi>: Var(A) = |psi|^2, Var(B) = |phi|^2, CovQ(A,B) =
Re<psi|phi> and <[A,B]> = 2i Im<psi|phi>, while for xi_perp orthogonal to xi

    <xi|(A + s B)|xi_perp>   = <psi + s phi|xi_perp>
    <xi|(A + s i B)|xi_perp> = <psi - s i phi|xi_perp>.

Taking xi_perp along the complement projection of psi + s phi (resp.
psi - s i phi) saturates the Cauchy-Schwarz step of each derivation, so no
search is needed. The optimized l2 always equals Var(A) + Var(B); the
optimized l1 equals (Var(A) + Var(B))/2 + |CovQ(A,B)|. The per-xi_perp
formulas evaluated from (A + s B)|xi> and (A - s i B)|xi> directly live in
`verify`, as the independent reference this module is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .quantum import (
    RENORM_WINDOW,
    TOL_EIG,
    TOL_NULL,
    EmptyComplementError,
    Observable,
    QuantumState,
    _complement_projection,
    _same_dim,
    _squared_norm,
    deviation_vector,
)

__all__ = [
    "OrthogonalCandidate",
    "BoundReport",
    "OrthogonalityError",
    "optimal_xi_perp",
    "bound_report",
]

CANDIDATE_KINDS = ("user_supplied", "analytic_optimum")

MP_BOUNDS = ("l1", "l2")


class OrthogonalityError(ValueError):
    """Proposed xi_perp is not orthogonal to the state within tolerance."""


@dataclass(frozen=True)
class OrthogonalCandidate:
    """A unit vector in the complement of the state with the bound it attains."""

    vector: QuantumState
    bound_value: float
    sign: int
    kind: str

    def __post_init__(self):
        _validate_sign(self.sign)
        if self.kind not in CANDIDATE_KINDS:
            raise ValueError(f"unknown candidate kind {self.kind!r}")


@dataclass(frozen=True)
class BoundReport:
    """Every quantity computed for one (state, A, B) instance.

    l1/l2 carry the maximizing sign (+1 on ties) and its candidate vector;
    the per-sign values are kept unclamped for diagnostics. mpur is
    max(l1, l2) and saturation_gap = sum_var - mpur.
    """

    var_a: float
    var_b: float
    sum_var: float
    prod_var: float
    covq: float
    comm_mean_abs: float
    t1: float
    t2: float
    l1: float
    l2: float
    l1_candidate: OrthogonalCandidate
    l2_candidate: OrthogonalCandidate
    l1_by_sign: tuple[float, float]
    l2_by_sign: tuple[float, float]
    mpur: float
    hrsur_trivial: bool
    common_eigenvector: bool
    saturation_gap: float


def _validate_sign(sign: int) -> int:
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    return sign


def _validate_which(which: str) -> str:
    if which not in MP_BOUNDS:
        raise ValueError(f"which must be 'l1' or 'l2', got {which!r}")
    return which


def _checked_perp(state: QuantumState, xi_perp) -> np.ndarray:
    """xi_perp renormalized, after checking unit norm and orthogonality to the state.

    Takes one vector or a stack of row vectors, and checks every row.
    """
    vec = xi_perp.vector if isinstance(xi_perp, QuantumState) else np.asarray(xi_perp, dtype=complex)
    if vec.ndim not in (1, 2) or not np.isfinite(vec).all():
        raise ValueError(f"xi_perp must be a finite vector or stack of rows, got shape {vec.shape}")
    _same_dim(state.dim, vec.shape[-1])
    # np.linalg.norm(vec, axis=-1, keepdims=True), the same reduction without its dispatch
    nrm = np.sqrt((vec.conj() * vec).real.sum(axis=-1, keepdims=True))
    off = np.abs(nrm - 1.0) > RENORM_WINDOW
    if off.any():
        raise OrthogonalityError(f"xi_perp norm {float(nrm[off][0])!r} is not 1")
    vec = vec / nrm
    overlap = float(np.abs(vec @ state.vector.conj()).max(initial=0.0))
    if overlap > TOL_EIG:
        raise OrthogonalityError(f"|<state|xi_perp>| = {overlap:.3e} exceeds {TOL_EIG:.1e}")
    return vec


class _Deviations(NamedTuple):
    """psi = (A - <A>)|xi>, phi = (B - <B>)|xi> and Cov(A,B) = <psi|phi>."""

    psi: np.ndarray
    phi: np.ndarray
    overlap: complex


def _deviations(a: Observable, b: Observable, state: QuantumState) -> _Deviations:
    _same_dim(a.dim, b.dim, state.dim)
    psi = deviation_vector(a, state)
    phi = deviation_vector(b, state)
    return _Deviations(psi, phi, complex(np.vdot(psi, phi)))


def _direction(dev: _Deviations, which: str, sign: int) -> np.ndarray:
    """The vector whose overlap with xi_perp is the bound's matrix element.

    psi + s phi for l1 (<xi|(A + s B)|xi_perp>) and psi - s i phi for l2
    (<xi|(A + s i B)|xi_perp>).
    """
    if which == "l1":
        return dev.psi + sign * dev.phi
    return dev.psi - sign * 1j * dev.phi


def _bound_value(dev: _Deviations, perp: np.ndarray, which: str, sign: int) -> float:
    """The bound `which` at `sign`, evaluated at a unit `perp` orthogonal to the state.

    The l2 value may be negative for the non-maximizing sign and is kept
    unclamped.
    """
    element = abs(np.vdot(_direction(dev, which, sign), perp)) ** 2
    if which == "l1":
        return float(0.5 * element)
    # s i <[A,B]> = s i (2i Im Cov) is real
    return float(-2.0 * sign * dev.overlap.imag + element)


def _optimal_perp(state: QuantumState, dev: _Deviations, which: str, sign: int, null_tol: float) -> np.ndarray:
    """Normalized complement projection of the bound's direction, as an array.

    When the projection is numerically null the matrix element vanishes for
    every admissible xi_perp, and the normalized complement projection of e_k
    is taken, with k the first index other than that of the largest |xi_k|.
    Then |xi_k|^2 <= 1/2, so that projection has norm at least 1/sqrt(2).
    """
    if state.dim < 2:
        raise EmptyComplementError("optimal xi_perp needs a nonempty complement (d >= 2)")
    xi = state.vector
    projected = _direction(dev, which, sign)
    # two passes keep the normalized direction orthogonal even when the
    # projection nearly annihilates the vector
    for _ in range(2):
        projected = projected - np.vdot(xi, projected) * xi
    nrm = float(np.linalg.norm(projected))
    if nrm <= null_tol:
        # e_k with k = 0, or k = 1 when |xi_0| is the largest
        e_k = np.zeros(state.dim, dtype=complex)
        e_k[int(np.abs(xi).argmax() == 0)] = 1.0
        fallback = _complement_projection(state, e_k)
        return fallback / np.linalg.norm(fallback)
    return projected / nrm


def _null_tol(a: Observable, b: Observable) -> float:
    return TOL_NULL * (1.0 + a.frobenius_norm() + b.frobenius_norm())


def optimal_xi_perp(a: Observable, b: Observable, state: QuantumState, which: str, sign: int) -> OrthogonalCandidate:
    """Closed-form optimal xi_perp for bound `which` ("l1" or "l2") at `sign`, with its value.

    The vector is the normalized complement projection of psi + sign phi (l1)
    or psi - sign i phi (l2), the Cauchy-Schwarz-saturating choice. When the
    projection is numerically null a fixed complement vector, the normalized
    projection of the first standard basis vector other than the one of the
    largest |xi_k|, is reported, with the value it attains.
    """
    _validate_which(which)
    _validate_sign(sign)
    dev = _deviations(a, b, state)
    perp = _optimal_perp(state, dev, which, sign, _null_tol(a, b))
    return OrthogonalCandidate(QuantumState(perp), _bound_value(dev, perp, which, sign), sign, "analytic_optimum")


def _maximizing_sign(plus: float, minus: float) -> int:
    # values equal within TOL_EIG count as a tie, which goes to +1 for determinism
    return 1 if plus >= minus - TOL_EIG else -1


def bound_report(a: Observable, b: Observable, state: QuantumState, user_xi_perp=None) -> BoundReport:
    """All four bounds for one instance, with maximizing signs and candidates.

    Every field comes from the two deviation vectors. With `user_xi_perp` the
    Maccone-Pati bounds are evaluated at that vector for both signs;
    otherwise each bound and sign is evaluated at its own analytic optimum.
    """
    dev = _deviations(a, b, state)
    var_a = _squared_norm(dev.psi)
    var_b = _squared_norm(dev.phi)
    sum_var = var_a + var_b
    # CovQ = Re Cov(A,B) and |<[A,B]>| = 2 |Im Cov(A,B)|
    covq = dev.overlap.real
    t2 = 2.0 * abs(dev.overlap.imag)
    t1 = covq * covq + 0.25 * t2**2

    keys = [(which, sign) for which in MP_BOUNDS for sign in (1, -1)]
    if user_xi_perp is None:
        null_tol = _null_tol(a, b)
        perps = {key: _optimal_perp(state, dev, *key, null_tol) for key in keys}
        user, kind = None, "analytic_optimum"
    else:
        user = QuantumState(_checked_perp(state, user_xi_perp))
        perps = dict.fromkeys(keys, user.vector)
        kind = "user_supplied"
    values = {key: _bound_value(dev, perp, *key) for key, perp in perps.items()}

    def candidate(which: str) -> OrthogonalCandidate:
        # only the two returned vectors are wrapped (and validated) as states
        sign = _maximizing_sign(values[which, 1], values[which, -1])
        return OrthogonalCandidate(user or QuantumState(perps[which, sign]), values[which, sign], sign, kind)

    l1_cand, l2_cand = candidate("l1"), candidate("l2")
    l1 = l1_cand.bound_value
    l2 = l2_cand.bound_value
    mpur = max(l1, l2)
    return BoundReport(
        var_a=var_a,
        var_b=var_b,
        sum_var=sum_var,
        prod_var=var_a * var_b,
        covq=covq,
        comm_mean_abs=t2,
        t1=t1,
        t2=t2,
        l1=l1,
        l2=l2,
        l1_candidate=l1_cand,
        l2_candidate=l2_cand,
        l1_by_sign=(values["l1", 1], values["l1", -1]),
        l2_by_sign=(values["l2", 1], values["l2", -1]),
        mpur=mpur,
        hrsur_trivial=bool(t1 <= TOL_EIG and t2 <= TOL_EIG and sum_var > TOL_EIG),
        common_eigenvector=bool(var_a <= TOL_EIG and var_b <= TOL_EIG),
        saturation_gap=sum_var - mpur,
    )
