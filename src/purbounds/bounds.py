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
search is needed, and at that optimum every value is a closed form in three
scalars:

    l1(s) = (Var(A) + Var(B))/2 + s CovQ(A,B)     l2(s) = Var(A) + Var(B).

The optimized l1 is thus (Var(A) + Var(B))/2 + |CovQ(A,B)|, and both l2 signs
tie, so l2 reports sign +1. The per-xi_perp formulas evaluated from
(A + s B)|xi> and (A - s i B)|xi> directly live in `verify`, as the
independent reference this module is checked against at the returned vectors.

One private kernel record, from one fused pass over an (n, d) stack of states
with A and B as one operand stack, holds the states, psi, phi, their Gram
stack, Var(A), Var(B) and CovQ per row, and (|A|_F, |B|_F); read in the other
order, it is the record of (B, A). Values come first: one named values row per
state holds every float and flag of its report and no vector. `bound_report`
builds a report from its one row and projects only the two returned
directions. Every row of a stacked call is bit for bit the one-state result.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .quantum import (
    RENORM_WINDOW,
    TOL_EIG,
    TOL_NULL,
    Observable,
    QuantumState,
    _deviation_vectors,
    _integer,
    _norms,
    _project,
    _same_dim,
    _trusted,
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
        object.__setattr__(self, "sign", _validate_sign(self.sign))
        if self.kind not in CANDIDATE_KINDS:
            raise ValueError(f"unknown candidate kind {self.kind!r}")


@dataclass(frozen=True)
class BoundReport:
    """Every quantity computed for one (state, A, B) instance.

    l1/l2 carry the maximizing sign (+1 on ties) and its candidate vector;
    the per-sign values are kept unclamped for diagnostics. mpur is
    max(l1, l2) and saturation_gap = sum_var - mpur. comm_mean_abs is an
    alias of t2: the same float, |<[A,B]>|, under its own name.
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
    sign = _integer("sign", sign)
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    return sign


def _validate_which(which: str) -> str:
    if which not in MP_BOUNDS:
        raise ValueError(f"which must be 'l1' or 'l2', got {which!r}")
    return which


def _checked_perp(state: QuantumState, xi_perp) -> np.ndarray:
    """xi_perp renormalized, after checking unit norm and orthogonality to the state.

    Takes one vector or a stack of row vectors, and checks every row. Each row
    is divided by its `_norms` entry, bit for bit `row / _norm(row)`. A
    QuantumState's vector is finite and 1-D by construction, so only an array
    is checked for both.
    """
    if isinstance(xi_perp, QuantumState):
        vec = xi_perp.vector
    else:
        vec = np.asarray(xi_perp, dtype=complex)
        if vec.ndim not in (1, 2) or not np.isfinite(vec).all():
            raise ValueError(f"xi_perp must be a finite vector or stack of rows, got shape {vec.shape}")
    _same_dim(state.dim, vec.shape[-1])
    nrm = _norms(vec)
    off = np.abs(nrm - 1.0) > RENORM_WINDOW
    if off.any():
        raise OrthogonalityError(f"xi_perp norm {float(nrm[off][0])!r} is not 1")
    vec = vec / nrm[..., None]
    overlap = float(np.abs(np.vecdot(state.vector, vec)).max(initial=0.0))
    if overlap > TOL_EIG:
        raise OrthogonalityError(f"|<state|xi_perp>| = {overlap:.3e} exceeds {TOL_EIG:.1e}")
    return vec


# the kernel record of n states xi with shared A and B: xi, psi = (A - <A>)|xi>, phi = (B - <B>)|xi>
# (n, d), the Gram stack of (psi, phi) (2, 2, n), whose entry gram[0, 1] is Cov(A,B) = <psi|phi>;
# Var(A) = |psi|^2, Var(B) = |phi|^2 and CovQ(A,B) = Re<psi|phi>, one float per state; and (|A|_F, |B|_F)
_Kernel = namedtuple("_Kernel", "xi psi phi gram var_a var_b covq norms")


def _kernel(a: Observable, b: Observable, xi: np.ndarray) -> _Kernel:
    """The kernel record of the n states in `xi` (n, d), one per row, from one fused pass over the stack."""
    # the shapes read directly: the `dim` properties would add two Python calls per report
    _same_dim(a.matrix.shape[0], b.matrix.shape[0], xi.shape[-1])
    # A and B as one operand stack, and the (2, 2, n) Gram stack of (psi, phi) from one inner product
    dev = _deviation_vectors((a, b), xi)
    gram = np.vecdot(dev[:, None], dev)
    (var_a, covq), (_, var_b) = gram.real.tolist()
    return _Kernel(xi, dev[0], dev[1], gram, var_a, var_b, covq, (a._frobenius, b._frobenius))


def _exchanged(k: _Kernel) -> _Kernel:
    """The record of `k` with A and B exchanged, bit for bit `_kernel(b, a, k.xi)`, read from its Gram stack."""
    gram = k.gram[::-1, ::-1]
    return _Kernel(k.xi, k.phi, k.psi, gram, k.var_b, k.var_a, gram[0, 1].real.tolist(), k.norms[::-1])


# phi's coefficient c in each direction psi + c phi, in table order (l1(+), l1(-), l2(+), l2(-)), row
# 2 * bound + column: c = s for l1, and c = -s i for l2. The whole (4, 1) table broadcasts against (n, 1, d)
# rows, and so does a (1, m, 1) selection of its rows
_COEFFS = np.array([[1], [-1], [-1j], [1j]])
# a report's two candidate directions, l1 then l2, keyed by the columns (l1_column, l2_column): (1, 2, 1)
_CANDIDATE_COEFFS = {(c1, c2): _COEFFS[[[c1, 2 + c2]]] for c1 in (0, 1) for c2 in (0, 1)}


def _signs(k: _Kernel, xi_perp: np.ndarray):
    """Both signs of l1 and of l2 at checked unit rows `xi_perp` (n, d), one per state, as a lazy iterator:
    per row, the tuples (l1(+1), l1(-1)) and (l2(+1), l2(-1)); every row is formed at the first row's turn.

    Each bound is the square of one matrix element, <psi + s phi|xi_perp> for
    l1 (<xi|(A + s B)|xi_perp>) and <psi - s i phi|xi_perp> for l2
    (<xi|(A + s i B)|xi_perp>); the four directions are one (n, 4, d) pass.
    The l2 value may be negative for the non-maximizing sign and is kept
    unclamped.
    """
    direction = k.psi[:, None] + _COEFFS * k.phi[:, None]
    # |z| by hypot, as abs() of one complex scalar takes it; np.abs of a complex array may round differently
    element = np.vecdot(direction, xi_perp[:, None])
    element = np.hypot(element.real, element.imag)
    # the rest in Python floats, each the one IEEE operation numpy would take; s i <[A,B]> = -2 s Im Cov is real
    for (l1_plus, l1_minus, l2_plus, l2_minus), im in zip((element * element).tolist(), k.gram[0, 1].imag.tolist()):
        yield (0.5 * l1_plus, 0.5 * l1_minus), (-2.0 * im + l2_plus, 2.0 * im + l2_minus)


def _unit_projections(k: _Kernel, coeffs: np.ndarray) -> np.ndarray:
    """The normalized complement projection of each direction psi + c phi of `k`, with phi's coefficients
    `coeffs` (n, m, 1), or (1, m, 1) for every state, read from `_COEFFS`: (n, m, d). `_project` raises
    EmptyComplementError at d = 1.

    This is the Cauchy-Schwarz optimum of the direction's bound. Where a
    projection is numerically null, at most TOL_NULL (1 + |A|_F + |B|_F),
    the bound's element vanishes for every admissible xi_perp, and that
    direction takes the normalized complement projection of e_j instead,
    with j the first index other than that of the largest |xi_j|. Then
    |xi_j|^2 <= 1/2, so that projection has norm at least 1/sqrt(2).
    """
    perp = _project(k.xi[:, None], k.psi[:, None] + coeffs * k.phi[:, None])
    nrm = _norms(perp)
    tol = TOL_NULL * (1.0 + k.norms[0] + k.norms[1])
    # one Python comparison of the smallest norm, and the null mask only when it is at most tol (or NaN)
    if not min(nrm.ravel().tolist()) > tol:
        null = nrm <= tol
        # e_j with j = 0, or j = 1 where |xi_0| is the largest
        e_j = np.eye(k.xi.shape[-1], dtype=complex)[(np.abs(k.xi).argmax(axis=-1) == 0).astype(int)]
        fallback = _project(k.xi, e_j)[:, None]
        perp = np.where(null[..., None], fallback, perp)
        nrm = np.where(null, _norms(fallback), nrm)
    return perp / nrm[..., None]


def _optimum_values(var_a: float, var_b: float, covq: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """(l1(+1), l1(-1)) and (l2(+1), l2(-1)) at the Cauchy-Schwarz optimum, from three scalars.

    psi and phi are orthogonal to the state, so each direction is its own
    complement projection, and at its normalized projection the element is
    the direction's norm: |psi + s phi|^2 / 2 = sum_var/2 + s CovQ and
    s i<[A,B]> + |psi - s i phi|^2 = sum_var. At a numerically null direction
    the fallback vector attains the value to within the direction's squared
    norm, which is below the squared null tolerance. l1 is kept unclamped, as
    l2 is: near a common eigenvector the losing sign may read about
    -eps (|A|_F^2 + |B|_F^2).
    """
    sum_var = var_a + var_b
    half = 0.5 * sum_var
    return (half + covq, half - covq), (sum_var, sum_var)


def optimal_xi_perp(a: Observable, b: Observable, state: QuantumState, which: str, sign: int) -> OrthogonalCandidate:
    """Closed-form optimal xi_perp for bound `which` ("l1" or "l2") at `sign`, with its value.

    The vector is the normalized complement projection of psi + sign phi (l1)
    or psi - sign i phi (l2), the Cauchy-Schwarz-saturating choice, and the
    value is its closed form, (Var(A) + Var(B))/2 + sign CovQ(A,B) (l1) or
    Var(A) + Var(B) (l2). When the projection is numerically null a fixed
    complement vector, the normalized projection of the first standard basis
    vector other than the one of the largest |xi_k|, is reported.
    """
    _validate_which(which)
    sign = _validate_sign(sign)
    k = _kernel(a, b, state.vector[None])
    column = (1 - sign) // 2
    value = _optimum_values(k.var_a[0], k.var_b[0], k.covq[0])[MP_BOUNDS.index(which)][column]
    perp = _unit_projections(k, _COEFFS[[[2 * MP_BOUNDS.index(which) + column]]])
    return _trusted(OrthogonalCandidate, _trusted_state(perp[0, 0]), value, sign, "analytic_optimum")


# a values row: BoundReport's fields in order, each candidate replaced by the column of its sign (0: +1, 1: -1)
_Values = namedtuple("_Values", [name.replace("candidate", "column") for name in BoundReport.__dataclass_fields__])


def _value_rows(k: _Kernel, user_xi_perp=None) -> list[_Values]:
    """The values of each state of `k`, no vector: one `_Values` row per state, in row order, from one loop.

    HRSUR bounds as closed forms in each row's Python floats; at the analytic
    optimum, the closed forms in Var(A), Var(B) and CovQ; else both signs at
    `user_xi_perp` (n, d), checked unit rows. Raises ValueError when
    Var(A) Var(B) exceeds _MAX_VAR_PRODUCT in a row, where the degree-4
    quantities (prod_var, t1, t2^2) would leave the double range, before that
    row's Maccone-Pati values are read. The d < 2 check is the caller's: a
    report's projection pass makes it through `_project`.
    """
    by_sign = map(_optimum_values, k.var_a, k.var_b, k.covq) if user_xi_perp is None else _signs(k, user_xi_perp)
    rows = []
    for var_a, var_b, covq, im in zip(k.var_a, k.var_b, k.covq, k.gram[0, 1].imag.tolist()):
        prod_var = var_a * var_b
        if prod_var > _MAX_VAR_PRODUCT:
            raise ValueError(
                f"operand scale too large: Var(A) Var(B) = {prod_var:.3e} exceeds {_MAX_VAR_PRODUCT:.3e} "
                f"(|A|_F = {k.norms[0]:.3e}, |B|_F = {k.norms[1]:.3e})"
            )
        # |<[A,B]>| = 2 |Im Cov(A,B)|
        t2 = 2.0 * abs(im)
        t1 = covq * covq + 0.25 * t2**2
        l1_by_sign, l2_by_sign = next(by_sign)
        # the column of each maximizing sign: values equal within TOL_EIG are a tie, which goes to +1; at the
        # analytic optimum the two l2 values are one float, so l2 takes sign +1
        l1_col = 0 if l1_by_sign[0] >= l1_by_sign[1] - TOL_EIG else 1
        l2_col = 0 if l2_by_sign[0] >= l2_by_sign[1] - TOL_EIG else 1
        l1, l2 = l1_by_sign[l1_col], l2_by_sign[l2_col]
        sum_var, mpur = var_a + var_b, max(l1, l2)
        trivial = t1 <= TOL_EIG and t2 <= TOL_EIG and sum_var > TOL_EIG
        # comm_mean_abs is t2
        rows.append(_Values(var_a, var_b, sum_var, prod_var, covq, t2, t1, t2, l1, l2, l1_col, l2_col, l1_by_sign,
                            l2_by_sign, mpur, trivial, var_a <= TOL_EIG and var_b <= TOL_EIG, sum_var - mpur))
    return rows


def bound_report(a: Observable, b: Observable, state: QuantumState, user_xi_perp=None) -> BoundReport:
    """All four bounds for one instance, with maximizing signs and candidates.

    Every field comes from the two deviation vectors. With `user_xi_perp` the
    Maccone-Pati bounds are evaluated at that vector for both signs;
    otherwise each bound and sign takes its closed-form value at its own
    analytic optimum, and only the maximizing sign's vector is formed.
    Raises ValueError when the operand scale puts Var(A) Var(B) above an
    eighth of the largest double, where prod_var and t1 would overflow.
    """
    # the one-row view of the stacked kernel
    k = _kernel(a, b, state.vector[None])
    # the trusted wraps of `_trusted_state` and `_trusted` written out, as their calls would lift a report above
    # its pinned frame count: each state, candidate and the report is filled by one __dict__ update, and each
    # vector is a read-only row the package normalized itself
    if user_xi_perp is None:
        (row,) = _value_rows(k)
        kind = "analytic_optimum"
        # both maximizing directions in one projection pass, their coefficients read by the two columns
        vectors = _unit_projections(k, _CANDIDATE_COEFFS[row.l1_column, row.l2_column])[0]
        vectors.setflags(write=False)
        l1_vec, l2_vec = object.__new__(QuantumState), object.__new__(QuantumState)
        l1_vec.__dict__["vector"], l2_vec.__dict__["vector"] = vectors
    else:
        user_xi_perp = _checked_perp(state, user_xi_perp)
        if user_xi_perp.ndim != 1:
            # the candidate is a state, so one vector, as QuantumState requires
            raise ValueError(f"expected a 1-D vector, got shape {user_xi_perp.shape}")
        (row,) = _value_rows(k, user_xi_perp[None])
        kind = "user_supplied"
        user_xi_perp.setflags(write=False)
        l1_vec = l2_vec = object.__new__(QuantumState)
        l1_vec.__dict__["vector"] = user_xi_perp
    l1_candidate, l2_candidate = object.__new__(OrthogonalCandidate), object.__new__(OrthogonalCandidate)
    l1_candidate.__dict__.update(vector=l1_vec, bound_value=row.l1, sign=1 - 2 * row.l1_column, kind=kind)
    l2_candidate.__dict__.update(vector=l2_vec, bound_value=row.l2, sign=1 - 2 * row.l2_column, kind=kind)
    report = object.__new__(BoundReport)
    # the row's fields are the report's in order; each sign column gives way to its candidate
    report.__dict__.update(zip(BoundReport.__dataclass_fields__, row), l1_candidate=l1_candidate, l2_candidate=l2_candidate)
    return report
