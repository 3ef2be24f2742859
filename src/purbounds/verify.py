"""Independent verification machinery for the bound computations.

Seeded random instance generation (Haar states, GUE-style observables), the
per-xi_perp Maccone-Pati formulas evaluated from (A + s B)|xi> and
(A - s i B)|xi> directly (the reference `bound_report` is checked against),
brute-force optimization over the orthogonal complement as a check on the
closed-form optima, direct numeric checks of the foundational identities
(Cauchy-Schwarz, parallelogram law), and the randomized invariant suite that
drives all of them. The reference is one function of (A, B, state, xi_perp)
that forms only the two images A|xi> and B|xi>; from them it also gives every
HRSUR value, against which the suite checks each values row. Complement
samples go through the kernel's own projection and row-norm rules, so every
row is normalized the same way. The suite checks an instance from one 2-row
kernel call, the state and its phased copy: one named values row per state and
one projection pass over both rows for the four directions in table order,
each its own sign's optimum; of each, the suite reads the state's row 0.

Randomness is pinned to numpy's PCG64: every operation takes a seed (or an
already-constructed Generator), and the suite derives one independent stream
per instance from (seed, instance index), so results do not depend on
evaluation order.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from .bounds import (
    _COEFFS,
    _checked_perp,
    _kernel,
    _unit_projections,
    _validate_sign,
    _validate_which,
    _value_rows,
    optimal_xi_perp,
)
from .instances import instance_payload
from .quantum import (
    Observable,
    QuantumState,
    _as_vector,
    _check_dim,
    _integer,
    _norm,
    _norms,
    _project,
    _same_dim,
    _trusted_observable,
    _trusted_state,
)

__all__ = [
    "SearchResult",
    "SuiteReport",
    "random_state",
    "random_observable",
    "random_unit_in_complement",
    "l1_bound",
    "l2_bound",
    "search_optimal_xi_perp",
    "check_parallelogram",
    "check_csi",
    "run_invariant_suite",
    "DEFAULT_SUITE_DIMS",
]

DEFAULT_SUITE_DIMS = (2, 3, 4, 6, 8)
DEFAULT_SUITE_TOL = 1e-9


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard complex Gaussian entries, real parts drawn before imaginary parts.

    The same stream and values as `standard_normal(shape) + 1j *
    standard_normal(shape)`, assembled in place without its complex multiply.
    """
    out = np.empty(shape, dtype=complex)
    out.real = rng.standard_normal(shape)
    out.imag = rng.standard_normal(shape)
    return out


def random_state(dim: int, seed) -> QuantumState:
    """Haar-distributed state: standard complex Gaussian components, normalized."""
    dim = _check_dim(dim)
    vec = _complex_normal(np.random.default_rng(seed), dim)
    return _trusted_state(vec / _norm(vec))


def random_observable(dim: int, seed) -> Observable:
    """GUE-style observable: (G + G†)/2 for G with standard complex Gaussian entries."""
    dim = _check_dim(dim)
    return _trusted_observable(_complex_normal(np.random.default_rng(seed), (dim, dim)))


def _complement_samples(state: QuantumState, count: int, rng: np.random.Generator) -> np.ndarray:
    """`count` unit vectors uniform on the complement sphere of the state, as rows.

    A standard complex Gaussian projected onto the complement is a standard
    complex Gaussian there, so each normalized row is uniform on its sphere.
    The rows go through the kernel's projection and row-norm rules, `_project`
    and `_norms`, so each is bit for bit `r / _norm(r)` of its projection r.
    """
    vecs = _project(state.vector, _complex_normal(rng, (count, state.dim)))
    return vecs / _norms(vecs)[:, None]


def random_unit_in_complement(state: QuantumState, seed) -> QuantumState:
    """Uniform unit vector orthogonal to the state (a projected complex Gaussian)."""
    return _trusted_state(_complement_samples(state, 1, np.random.default_rng(seed))[0])


# the (bound, sign) columns of the reference, in the order of BoundReport's by-sign pairs
REFERENCE_ROWS = (("l1", 1), ("l1", -1), ("l2", 1), ("l2", -1))
# column k reads the image (A + c_k B)|xi>: c = s for l1, and c = -s i for l2,
# since <xi|(A + s i B)|xi_perp> = <(A - s i B) xi | xi_perp>
_REFERENCE_COEFFS = np.array([sign if which == "l1" else -sign * 1j for which, sign in REFERENCE_ROWS])
_REFERENCE_SCALE = np.array([0.5 if which == "l1" else 1.0 for which, _ in REFERENCE_ROWS])


def _reference_values(a: Observable, b: Observable, state: QuantumState, xi_perp) -> tuple[np.ndarray, dict]:
    """(values, hrsur): the per-xi_perp bounds of every (bound, sign) in REFERENCE_ROWS, one column each, and the
    HRSUR values by field name, all from the two images A|xi> and B|xi>.

    l1(s) = |<xi|(A + s B)|xi_perp>|^2 / 2 and l2(s) = s i<[A,B]> + |<xi|(A + s i B)|xi_perp>|^2, from
    the images A|xi> + c B|xi> of (A + s B)|xi> and (A - s i B)|xi>, never from the deviation vectors:
    two matrix-vector products give A|xi> and B|xi>, and their Gram every mean. For Hermitian A and B,
    <xi|AB|xi> = <Ax|Bx>, so <[A,B]> = 2i Im<Ax|Bx> and s i<[A,B]> = -2 s Im<Ax|Bx>. xi_perp is checked
    once, and one (n, d) @ (d, 4) product evaluates every column at every xi_perp. One vector gives values
    of shape (4,), a stack of n vectors (n, 4). <A>, <B> and the Gram give Var(A) = <Ax|Ax> - <A>^2 and
    Cov(A,B) = <Ax|Bx> - <A><B>, then CovQ = Re Cov, t2 = 2 |Im Cov| and t1 = CovQ^2 + t2^2 / 4. As <A><B>
    is real, Im Cov is Im<Ax|Bx> bit for bit, so t2 and the l2 offsets read one float.
    """
    _same_dim(a.dim, b.dim, state.dim)
    xi = state.vector
    ax, bx = a.matrix @ xi, b.matrix @ xi
    perps = _checked_perp(state, xi_perp)
    images = np.stack((ax, bx))
    mean_a, mean_b = np.vecdot(xi, images).real.tolist()
    (aa, cov), (_, bb) = np.vecdot(images[:, None], images).tolist()
    var_a, var_b, cov = aa.real - mean_a * mean_a, bb.real - mean_b * mean_b, cov - mean_a * mean_b
    t2 = 2.0 * abs(cov.imag)
    hrsur = dict(var_a=var_a, var_b=var_b, sum_var=var_a + var_b, covq=cov.real, prod_var=var_a * var_b,
                 t1=cov.real * cov.real + 0.25 * t2 * t2, t2=t2)
    offset = np.array([0.0 if which == "l1" else -2.0 * sign * cov.imag for which, sign in REFERENCE_ROWS])
    columns = ax + _REFERENCE_COEFFS[:, None] * bx
    return np.abs(perps @ columns.conj().T) ** 2 * _REFERENCE_SCALE + offset, hrsur


def l1_bound(a: Observable, b: Observable, state: QuantumState, xi_perp, sign: int):
    """|<xi|(A + sign B)|xi_perp>|^2 / 2 for a unit xi_perp orthogonal to xi.

    `xi_perp` is one vector (one value) or a stack of row vectors (one value
    per row). The ("l1", sign) column of `_reference_values`.
    """
    sign = _validate_sign(sign)
    return _reference_values(a, b, state, xi_perp)[0].T[(1 - sign) // 2]


def l2_bound(a: Observable, b: Observable, state: QuantumState, xi_perp, sign: int):
    """sign * i<[A,B]> + |<xi|(A + sign i B)|xi_perp>|^2, signs correlated.

    Takes one xi_perp or a stack of rows, as `l1_bound`. The first term is
    real because the commutator mean is purely imaginary; the value may be
    negative for the non-maximizing sign and is returned unclamped. The
    ("l2", sign) column of `_reference_values`.
    """
    sign = _validate_sign(sign)
    return _reference_values(a, b, state, xi_perp)[0].T[2 + (1 - sign) // 2]


@dataclass(frozen=True)
class SearchResult:
    """Brute-force complement search outcome versus the analytic optimum."""

    best_value: float
    best_vector: QuantumState
    samples_used: int
    analytic_value: float

    @property
    def gap(self) -> float:
        return self.analytic_value - self.best_value


def search_optimal_xi_perp(
    a: Observable,
    b: Observable,
    state: QuantumState,
    which: str,
    sign: int,
    samples: int,
    seed,
) -> SearchResult:
    """Evaluate one bound at `samples` random complement vectors and compare.

    best_value is the maximum over the random samples only; the analytic
    optimum always dominates it (gap >= 0 up to rounding), and for d = 2 the
    complement is a single phase circle so the gap vanishes.
    """
    _validate_which(which)
    sign = _validate_sign(sign)
    samples = _integer("samples", samples, 1)
    perps = _complement_samples(state, samples, np.random.default_rng(seed))
    values = (l1_bound if which == "l1" else l2_bound)(a, b, state, perps, sign)
    analytic = optimal_xi_perp(a, b, state, which, sign).bound_value
    best = int(np.argmax(values))
    return SearchResult(
        best_value=float(values[best]),
        best_vector=_trusted_state(perps[best].copy()),
        samples_used=samples,
        analytic_value=analytic,
    )


def _checked_pair(u, v) -> tuple[np.ndarray, np.ndarray]:
    uv, vv = _as_vector(u, "u"), _as_vector(v, "v")
    _same_dim(uv.size, vv.size)
    return uv, vv


# the two identities of vectors u and v, given their squared norms uu and vv, so that a caller
# checking both takes each norm once
def _csi(u: np.ndarray, v: np.ndarray, uu: float, vv: float) -> float:
    return float(uu * vv - abs(np.vdot(u, v)) ** 2)


def _parallelogram(u: np.ndarray, v: np.ndarray, uu: float, vv: float) -> float:
    return abs(2.0 * (uu + vv) - (_norm(u + v) ** 2 + _norm(u - v) ** 2))


def check_parallelogram(u, v) -> float:
    """|2(||u||^2 + ||v||^2) - ||u+v||^2 - ||u-v||^2|, zero in exact arithmetic."""
    u, v = _checked_pair(u, v)
    return _parallelogram(u, v, _norm(u) ** 2, _norm(v) ** 2)


def check_csi(u, v) -> float:
    """Cauchy-Schwarz slack <u|u><v|v> - |<u|v>|^2; zero iff collinear (or null)."""
    u, v = _checked_pair(u, v)
    return _csi(u, v, _norm(u) ** 2, _norm(v) ** 2)


@dataclass
class SuiteReport:
    """Aggregate of the randomized invariant suite."""

    count: int
    dims: tuple[int, ...]
    seed: int
    tol: float
    perp_samples: int
    min_slacks: dict = field(default_factory=dict)
    max_defects: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


# the suite's checks in report order: a slack is violated below -tol, a defect above tol
SLACK_CHECKS = (
    "hrsur_product", "sigma_vs_t2", "csi", "mpur_l1_random_perp", "mpur_l2_random_perp", "dominance_l1", "dominance_l2",
)
DEFECT_CHECKS = ("parallelogram", "tightness_l2", "l1_identity", "hrsur_values", "phase_invariance")


def _check_instance(state: QuantumState, a: Observable, b: Observable, perps: np.ndarray, theta: float):
    """(rep, slacks, defects, candidate_l2) of one instance: the state's values row, the values in
    SLACK_CHECKS and DEFECT_CHECKS order, and the reference's l2 at the row's own l2 candidate.

    Values the suite built itself go through the private array forms unchecked,
    except the sampled `perps` and the vectors at which the record's values are
    attained, which the reference checks as it checks any xi_perp.
    """
    # the state and its global-phase copy as one 2-row kernel call: every value is phase-invariant
    own = _kernel(a, b, np.array((state.vector, np.exp(1j * theta) * state.vector)))
    rep, phased = _value_rows(own)
    # the record's own deviation vectors feed the Cauchy-Schwarz and parallelogram checks
    psi, phi = own.psi[0], own.phi[0]

    # each bound's maximizing sign is attained at its candidate, the other sign at its own optimum: the
    # four directions in table order (l1(+), l1(-), l2(+), l2(-)), in one projection pass over both rows,
    # of which the state's row 0 is read
    vectors = _unit_projections(own, _COEFFS)[0]
    # the reference at the sampled xi_perp, then at those four vectors, all checked as any xi_perp is, and its
    # HRSUR values. No Hermiticity residue is read: Observable stores each matrix exactly Hermitian, and one
    # forced past its check moves the HRSUR values and the tightness of l2 off the row's
    reference, hrsur = _reference_values(a, b, state, np.concatenate((perps, vectors)))
    # Maccone-Pati validity against Var(A) + Var(B) and dominance against the optimum of the same
    # sign at sampled xi_perp: as rounding is monotone, min(v - x) is v - max(x) bit for bit
    optima = np.array(((rep.sum_var,) * 4, rep.l1_by_sign + rep.l2_by_sign))
    minima = (optima - reference[:-4].max(axis=0)).reshape(4, 2).min(axis=1).tolist()
    # every value the record gives for a bound against the reference at its vector: each by-sign entry at
    # its own direction's vector, the diagonal of the last four rows, and the bound at its column's
    columns = (rep.l1_column, rep.l2_column)
    at = np.diagonal(reference[-4:]).reshape(2, 2).tolist()
    l1_defect, l2_defect = (
        max(abs(pair[column] - bound), abs(pair[0] - by_sign[0]), abs(pair[1] - by_sign[1]))
        for pair, bound, by_sign, column in zip(at, (rep.l1, rep.l2), (rep.l1_by_sign, rep.l2_by_sign), columns)
    )
    # both identities of (psi, phi), each squared norm taken once
    identities = (psi, phi, _norm(psi) ** 2, _norm(phi) ** 2)
    slacks = (rep.prod_var - rep.t1, 2.0 * math.sqrt(rep.var_a) * math.sqrt(rep.var_b) - rep.t2, _csi(*identities), *minima)
    defects = (
        _parallelogram(*identities),
        l2_defect,
        l1_defect,
        # every HRSUR value of the row against the reference's
        max(abs(getattr(rep, name) - value) for name, value in hrsur.items()),
        # the state's row against its phased copy's, field by field
        max(abs(getattr(rep, name) - getattr(phased, name)) for name in ("var_a", "var_b", "t1", "t2", "l1", "l2", "mpur")),
    )
    return rep, slacks, defects, at[1][rep.l2_column]


def run_invariant_suite(
    count: int = 1000,
    dims: tuple[int, ...] = DEFAULT_SUITE_DIMS,
    seed: int = 42,
    tol: float = DEFAULT_SUITE_TOL,
    perp_samples: int = 100,
) -> SuiteReport:
    """Run every invariant over `count` random instances, dims cycled in order.

    Instance k draws its own PCG64 stream from (seed, k): state, observable A,
    observable B, `perp_samples` complement vectors, then the test phase.
    """
    count, seed = _integer("count", count, 1), _integer("seed", seed, 0)
    perp_samples = _integer("perp_samples", perp_samples, 1)
    dims = tuple(map(_check_dim, dims))
    if not dims:
        raise ValueError("dims must be nonempty")
    # True would be written as "tol": true, a numpy float fails only at serialization, and a NaN compares
    # false with every slack and defect, so no check could fire
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 < tol < math.inf:
        raise ValueError(f"tol must be a positive finite real number, got {tol!r}")
    tol = float(tol)

    report = SuiteReport(count=count, dims=dims, seed=seed, tol=tol, perp_samples=perp_samples)
    slacks = np.empty((count, len(SLACK_CHECKS)))
    defects = np.empty((count, len(DEFECT_CHECKS)))
    for index in range(count):
        dim = dims[index % len(dims)]
        rng = np.random.default_rng([seed, index])
        state = random_state(dim, rng)
        a = random_observable(dim, rng)
        b = random_observable(dim, rng)
        perps = _complement_samples(state, perp_samples, rng)
        theta = 2.0 * math.pi * rng.random()
        rep, slack_row, defect_row, candidate_l2 = _check_instance(state, a, b, perps, theta)
        slacks[index], defects[index] = slack_row, defect_row
        failed = [(name, "slack", v) for name, v in zip(SLACK_CHECKS, slack_row) if v < -tol]
        failed += [(name, "defect", v) for name, v in zip(DEFECT_CHECKS, defect_row) if v > tol]
        # zero bounds only at (numerical) common eigenvectors, and conversely; the first reads the reference's
        # l2 at the row's l2 candidate, since the row's own l2 is Var(A) + Var(B), never below either variance
        if candidate_l2 <= tol and (rep.var_a > tol or rep.var_b > tol):
            failed.append(("nontriviality", "defect", max(rep.var_a, rep.var_b)))
        if rep.common_eigenvector and rep.mpur > tol:
            failed.append(("nontriviality_converse", "defect", rep.mpur))
        if failed:
            # serialized only for a failing instance, once for all its records
            context = {"index": index, "dim": dim, "instance": instance_payload(state, a, b)}
            report.violations += [{**context, "check": name, kind: value} for name, kind, value in failed]

    report.min_slacks = dict(zip(SLACK_CHECKS, slacks.min(axis=0).tolist()))
    report.max_defects = dict(zip(DEFECT_CHECKS, defects.max(axis=0).tolist()))
    return report
