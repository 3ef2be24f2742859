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

The kernel's two private halves take a stack of states with shared A and B,
and every row of a stacked call is bit for bit the one-state result:
`bound_report` and `optimal_xi_perp` are their one-row views.
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
    _deviation_vectors,
    _norms,
    _row_norms,
    _same_dim,
    _trusted_state,
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

# Below this Var(A) Var(B), prod_var, t1 <= prod_var and t2^2 <= 4 prod_var are
# finite, and so is every degree-2 quantity, since Observable caps each variance
# at half the largest double.
_MAX_VAR_PRODUCT = float(np.finfo(float).max) / 8


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
    nrm = _row_norms(vec)
    off = np.abs(nrm - 1.0) > RENORM_WINDOW
    if off.any():
        raise OrthogonalityError(f"xi_perp norm {float(nrm[off][0])!r} is not 1")
    vec = vec / nrm
    overlap = float(np.abs(vec @ state.vector.conj()).max(initial=0.0))
    if overlap > TOL_EIG:
        raise OrthogonalityError(f"|<state|xi_perp>| = {overlap:.3e} exceeds {TOL_EIG:.1e}")
    return vec


class _Deviations(NamedTuple):
    """psi = (A - <A>)|xi>, phi = (B - <B>)|xi> (n, d) and Cov(A,B) = <psi|phi> (n,), one row per state."""

    psi: np.ndarray
    phi: np.ndarray
    overlap: np.ndarray


def _deviations(a: Observable, b: Observable, xi: np.ndarray) -> _Deviations:
    _same_dim(a.dim, b.dim, xi.shape[-1])
    psi = _deviation_vectors(a, xi)
    phi = _deviation_vectors(b, xi)
    return _Deviations(psi, phi, np.vecdot(psi, phi))


def _project(xi: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Each row of `vecs` with the component along its own state row of `xi` removed.

    Two passes keep the result orthogonal even when the projection nearly
    annihilates a vector.
    """
    for _ in range(2):
        vecs = vecs - np.vecdot(xi, vecs)[..., None] * xi
    return vecs


_SIGNS = np.array([1, -1])
# the (bound, sign) direction is psi + c phi for l1 and psi - c phi for l2, with c = s and s i
_L1_COEFFS = _SIGNS.astype(complex)[:, None]
_L2_COEFFS = (_SIGNS * 1j)[:, None]
# s i <[A,B]> = s i (2i Im Cov) = -2 s Im Cov is real
_L2_OFFSETS = -2.0 * _SIGNS


def _signs(xi: np.ndarray, dev: _Deviations, null_tol: float, which: str, xi_perp=None) -> tuple[np.ndarray, np.ndarray]:
    """Both signs of bound `which` for the n states `xi`: unit `xi_perp` rows (n, 2, d) and values (n, 2).

    The bound is the square of one matrix element, <psi + s phi|xi_perp> for
    l1 (<xi|(A + s B)|xi_perp>) and <psi - s i phi|xi_perp> for l2
    (<xi|(A + s i B)|xi_perp>), with s = +1 in column 0 and -1 in column 1.
    Without `xi_perp` each row takes the normalized complement projection of
    its direction, the Cauchy-Schwarz optimum. Where that projection is
    numerically null the element vanishes for every admissible xi_perp, and
    the row takes the normalized complement projection of e_k instead, with
    k the first index other than that of the largest |xi_k|. Then
    |xi_k|^2 <= 1/2, so that projection has norm at least 1/sqrt(2). With
    `xi_perp` (n, d), checked unit rows orthogonal to their states, both
    signs are evaluated there, and those rows are returned as (n, 1, d).
    The l2 value may be negative for the non-maximizing sign and is kept
    unclamped.
    """
    psi, phi = dev.psi[:, None], dev.phi[:, None]
    direction = psi + _L1_COEFFS * phi if which == "l1" else psi - _L2_COEFFS * phi
    if xi_perp is None:
        if xi.shape[-1] < 2:
            raise EmptyComplementError("optimal xi_perp needs a nonempty complement (d >= 2)")
        perp = _project(xi[:, None], direction)
        nrm = _norms(perp)
        null = nrm <= null_tol
        if np.count_nonzero(null):
            # e_k with k = 0, or k = 1 where |xi_0| is the largest
            e_k = np.eye(xi.shape[-1], dtype=complex)[(np.abs(xi).argmax(axis=-1) == 0).astype(int)]
            fallback = _project(xi, e_k)[:, None]
            perp = np.where(null[..., None], fallback, perp)
            nrm = np.where(null, _norms(fallback), nrm)
        perp = perp / nrm[..., None]
    else:
        perp = xi_perp[:, None]
    # |z| by hypot, as abs() of one complex scalar takes it; np.abs of a complex array may round differently
    element = np.vecdot(direction, perp)
    element = np.hypot(element.real, element.imag)
    element = element * element
    if which == "l1":
        return perp, 0.5 * element
    return perp, _L2_OFFSETS * dev.overlap.imag[:, None] + element


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
    xi = state.vector[None]
    perps, values = _signs(xi, _deviations(a, b, xi), _null_tol(a, b), which)
    column = (1 - sign) // 2
    return OrthogonalCandidate(_trusted_state(perps[0, column]), float(values[0, column]), sign, "analytic_optimum")


class _Hrsur(NamedTuple):
    """The HRSUR half of the kernel for n states: the deviation vectors, and one float per
    state, in row order, for each of the variances, their product, CovQ, t1 and t2."""

    dev: _Deviations
    var_a: list[float]
    var_b: list[float]
    prod_var: list[float]
    covq: list[float]
    t1: list[float]
    t2: list[float]


def _hrsur(a: Observable, b: Observable, xi: np.ndarray) -> _Hrsur:
    """The Heisenberg-Robertson-Schrodinger bounds of each state in `xi` (..., d), rows in C order.

    The deviation vectors and their inner products are one array pass over
    the stack; the closed forms are then taken per row in Python floats.
    Raises ValueError when Var(A) Var(B) exceeds _MAX_VAR_PRODUCT in any row,
    where the degree-4 quantities (prod_var, t1, t2^2) would leave the double
    range.
    """
    dev = _deviations(a, b, xi.reshape(-1, xi.shape[-1]))
    var_a = np.vecdot(dev.psi, dev.psi).real.tolist()
    var_b = np.vecdot(dev.phi, dev.phi).real.tolist()
    prod_var = [x * y for x, y in zip(var_a, var_b)]
    for product in prod_var:
        if product > _MAX_VAR_PRODUCT:
            raise ValueError(
                f"operand scale too large: Var(A) Var(B) = {product:.3e} exceeds {_MAX_VAR_PRODUCT:.3e} "
                f"(|A|_F = {a.frobenius_norm():.3e}, |B|_F = {b.frobenius_norm():.3e})"
            )
    # CovQ = Re Cov(A,B) and |<[A,B]>| = 2 |Im Cov(A,B)|
    covq = dev.overlap.real.tolist()
    t2 = [2.0 * abs(im) for im in dev.overlap.imag.tolist()]
    t1 = [c * c + 0.25 * t**2 for c, t in zip(covq, t2)]
    return _Hrsur(dev, var_a, var_b, prod_var, covq, t1, t2)


def _report(a: Observable, b: Observable, xi: np.ndarray, hrsur: _Hrsur, user_xi_perp=None) -> list[BoundReport]:
    """The Maccone-Pati half of the kernel: the report of each state in `xi` (..., d), rows in C order.

    Each bound's two signs come from one `_signs` pass over every row; each
    row then keeps its maximizing sign. `user_xi_perp` (..., d) holds checked
    unit rows, one per state.
    """
    dim = xi.shape[-1]
    xi = xi.reshape(-1, dim)
    null_tol = _null_tol(a, b)
    if user_xi_perp is None:
        kind, users = "analytic_optimum", None
    else:
        user_xi_perp = user_xi_perp.reshape(-1, dim)
        kind, users = "user_supplied", [_trusted_state(row) for row in user_xi_perp]

    passes = []
    for which in MP_BOUNDS:
        perps, by_sign = _signs(xi, hrsur.dev, null_tol, which, user_xi_perp)
        passes.append((perps, by_sign.tolist()))

    reports = []
    for i, (var_a, var_b, prod_var, covq, t1, t2) in enumerate(zip(*hrsur[1:])):
        candidates, by_signs = [], []
        for perps, by_sign in passes:
            values = tuple(by_sign[i])
            # values equal within TOL_EIG count as a tie, which goes to +1 for determinism
            column = 0 if values[0] >= values[1] - TOL_EIG else 1
            vector = users[i] if users else _trusted_state(perps[i, column])
            candidates.append(OrthogonalCandidate(vector, values[column], 1 - 2 * column, kind))
            by_signs.append(values)
        l1_cand, l2_cand = candidates
        l1, l2 = l1_cand.bound_value, l2_cand.bound_value
        sum_var = var_a + var_b
        mpur = max(l1, l2)
        reports.append(
            BoundReport(
                var_a=var_a,
                var_b=var_b,
                sum_var=sum_var,
                prod_var=prod_var,
                covq=covq,
                comm_mean_abs=t2,
                t1=t1,
                t2=t2,
                l1=l1,
                l2=l2,
                l1_candidate=l1_cand,
                l2_candidate=l2_cand,
                l1_by_sign=by_signs[0],
                l2_by_sign=by_signs[1],
                mpur=mpur,
                hrsur_trivial=bool(t1 <= TOL_EIG and t2 <= TOL_EIG and sum_var > TOL_EIG),
                common_eigenvector=bool(var_a <= TOL_EIG and var_b <= TOL_EIG),
                saturation_gap=sum_var - mpur,
            )
        )
    return reports


def bound_report(a: Observable, b: Observable, state: QuantumState, user_xi_perp=None) -> BoundReport:
    """All four bounds for one instance, with maximizing signs and candidates.

    Every field comes from the two deviation vectors. With `user_xi_perp` the
    Maccone-Pati bounds are evaluated at that vector for both signs;
    otherwise each bound and sign is evaluated at its own analytic optimum.
    Raises ValueError when the operand scale puts Var(A) Var(B) above an
    eighth of the largest double, where prod_var and t1 would overflow.
    """
    # the one-row view of the stacked kernel
    xi = state.vector[None]
    hrsur = _hrsur(a, b, xi)
    if user_xi_perp is not None:
        user_xi_perp = _checked_perp(state, user_xi_perp)
        if user_xi_perp.ndim != 1:
            # the candidate is a state, so one vector, as QuantumState requires
            raise ValueError(f"expected a 1-D vector, got shape {user_xi_perp.shape}")
        user_xi_perp = user_xi_perp[None]
    (report,) = _report(a, b, xi, hrsur, user_xi_perp)
    return report
