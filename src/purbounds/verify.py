"""Independent verification machinery for the bound computations.

Seeded random instance generation (Haar states, GUE-style observables), the
per-xi_perp Maccone-Pati formulas evaluated from (A + s B)|xi> and
(A - s i B)|xi> directly (the reference `bound_report` is checked against),
brute-force optimization over the orthogonal complement as a check on the
closed-form optima, direct numeric checks of the foundational identities
(Cauchy-Schwarz, parallelogram law), and the randomized invariant suite that
drives all of them.

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

from .bounds import _checked_perp, _validate_sign, _validate_which, bound_report, optimal_xi_perp
from .instances import instance_payload
from .quantum import (
    MAX_DIM,
    EmptyComplementError,
    Observable,
    QuantumState,
    _as_vector,
    _complement_projection,
    _norm,
    _same_dim,
    commutator_mean,
    deviation_vector,
    normalize,
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


def _rng(seed) -> np.random.Generator:
    return np.random.default_rng(seed)


def _check_dim(dim: int) -> int:
    if not 2 <= dim <= MAX_DIM:
        raise ValueError(f"dimension {dim} outside supported range [2, {MAX_DIM}]")
    return dim


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
    _check_dim(dim)
    return normalize(_complex_normal(_rng(seed), dim))


def random_observable(dim: int, seed) -> Observable:
    """GUE-style observable: (G + G†)/2 for G with standard complex Gaussian entries."""
    _check_dim(dim)
    g = _complex_normal(_rng(seed), (dim, dim))
    return Observable(0.5 * (g + g.conj().T))


def _complement_samples(state: QuantumState, count: int, rng: np.random.Generator) -> np.ndarray:
    """`count` unit vectors uniform on the complement sphere of the state, as rows.

    A standard complex Gaussian projected onto the complement is a standard
    complex Gaussian there, so each normalized row is uniform on its sphere.
    """
    if state.dim < 2:
        raise EmptyComplementError("a 1-dimensional state has an empty orthogonal complement")
    vecs = _complement_projection(state, _complex_normal(rng, (count, state.dim)))
    # np.linalg.norm(vecs, axis=1, keepdims=True), the same reduction without its dispatch
    return vecs / np.sqrt((vecs.conj() * vecs).real.sum(axis=1, keepdims=True))


def random_unit_in_complement(state: QuantumState, seed) -> QuantumState:
    """Uniform unit vector orthogonal to the state (a projected complex Gaussian)."""
    return QuantumState(_complement_samples(state, 1, _rng(seed))[0])


# the (bound, sign) columns of the reference, in the order of BoundReport's by-sign pairs
REFERENCE_ROWS = (("l1", 1), ("l1", -1), ("l2", 1), ("l2", -1))
# column k reads the image (A + c_k B)|xi>: c = s for l1, and c = -s i for l2,
# since <xi|(A + s i B)|xi_perp> = <(A - s i B) xi | xi_perp>
_REFERENCE_COEFFS = np.array([sign if which == "l1" else -sign * 1j for which, sign in REFERENCE_ROWS])
_REFERENCE_SCALE = np.array([0.5 if which == "l1" else 1.0 for which, _ in REFERENCE_ROWS])


def _reference_values(a: Observable, b: Observable, state: QuantumState, xi_perp) -> np.ndarray:
    """The per-xi_perp bounds of every (bound, sign) in REFERENCE_ROWS, one column each.

    l1(s) = |<xi|(A + s B)|xi_perp>|^2 / 2 and
    l2(s) = s i<[A,B]> + |<xi|(A + s i B)|xi_perp>|^2, from the images
    A|xi> + c B|xi> of (A + s B)|xi> and (A - s i B)|xi>, never from the
    deviation vectors. xi_perp is checked once and <[A,B]> computed once, and
    one (n, d) @ (d, 4) product evaluates every column at every xi_perp. One
    vector gives shape (4,), a stack of n vectors (n, 4).
    """
    _same_dim(a.dim, b.dim, state.dim)
    perps = _checked_perp(state, xi_perp)
    xi = state.vector
    images = a.matrix @ xi + _REFERENCE_COEFFS[:, None] * (b.matrix @ xi)
    # s i <[A,B]> is real: the commutator mean is purely imaginary
    comm = commutator_mean(a, b, state)
    offset = np.array([0.0 if which == "l1" else (sign * 1j * comm).real for which, sign in REFERENCE_ROWS])
    return np.abs(perps @ images.conj().T) ** 2 * _REFERENCE_SCALE + offset


def l1_bound(a: Observable, b: Observable, state: QuantumState, xi_perp, sign: int):
    """|<xi|(A + sign B)|xi_perp>|^2 / 2 for a unit xi_perp orthogonal to xi.

    `xi_perp` is one vector (one value) or a stack of row vectors (one value
    per row). The ("l1", sign) column of `_reference_values`.
    """
    _validate_sign(sign)
    return _reference_values(a, b, state, xi_perp).T[(1 - sign) // 2]


def l2_bound(a: Observable, b: Observable, state: QuantumState, xi_perp, sign: int):
    """sign * i<[A,B]> + |<xi|(A + sign i B)|xi_perp>|^2, signs correlated.

    Takes one xi_perp or a stack of rows, as `l1_bound`. The first term is
    real because the commutator mean is purely imaginary; the value may be
    negative for the non-maximizing sign and is returned unclamped. The
    ("l2", sign) column of `_reference_values`.
    """
    _validate_sign(sign)
    return _reference_values(a, b, state, xi_perp).T[2 + (1 - sign) // 2]


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
    if samples < 1:
        raise ValueError("samples must be positive")
    _same_dim(a.dim, b.dim, state.dim)
    perps = _complement_samples(state, samples, _rng(seed))
    values = (l1_bound if which == "l1" else l2_bound)(a, b, state, perps, sign)
    analytic = optimal_xi_perp(a, b, state, which, sign).bound_value
    best = int(np.argmax(values))
    return SearchResult(
        best_value=float(values[best]),
        best_vector=QuantumState(perps[best]),
        samples_used=samples,
        analytic_value=analytic,
    )


def check_parallelogram(u, v) -> float:
    """|2(||u||^2 + ||v||^2) - ||u+v||^2 - ||u-v||^2|, zero in exact arithmetic."""
    uv, vv = _as_vector(u), _as_vector(v)
    _same_dim(uv.size, vv.size)
    lhs = 2.0 * (_norm(uv) ** 2 + _norm(vv) ** 2)
    rhs = _norm(uv + vv) ** 2 + _norm(uv - vv) ** 2
    return abs(lhs - rhs)


def check_csi(u, v) -> float:
    """Cauchy-Schwarz slack <u|u><v|v> - |<u|v>|^2; zero iff collinear (or null)."""
    uv, vv = _as_vector(u), _as_vector(v)
    _same_dim(uv.size, vv.size)
    return float(_norm(uv) ** 2 * _norm(vv) ** 2 - abs(np.vdot(uv, vv)) ** 2)


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
    "hrsur_product", "hrsur_sum_vs_sigma", "sigma_vs_t2", "csi",
    "mpur_l1_random_perp", "mpur_l2_random_perp", "dominance_l1", "dominance_l2",
)
DEFECT_CHECKS = (
    "parallelogram", "commutator_mean_realpart", "anticommutator_mean_imagpart", "tightness_l2",
    "l1_identity", "t1_symmetry", "t2_symmetry", "phase_invariance",
)


def _check_instance(state: QuantumState, a: Observable, b: Observable, perps: np.ndarray, theta: float):
    """(report, slacks, defects) of one instance, the values in SLACK_CHECKS and DEFECT_CHECKS order."""
    rep = bound_report(a, b, state)
    sigma_term = 2.0 * math.sqrt(rep.var_a) * math.sqrt(rep.var_b)

    psi = deviation_vector(a, state)
    phi = deviation_vector(b, state)

    # <xi|AB|xi> and <xi|BA|xi> once: <[A,B]> must be imaginary, <{A,B}> real
    xi = state.vector
    ab = np.vdot(xi, a.matrix @ (b.matrix @ xi))
    ba = np.vdot(xi, b.matrix @ (a.matrix @ xi))

    # Maccone-Pati validity and analytic-optimum dominance at sampled xi_perp:
    # columns (+1, -1) of each bound, against the optimum of the same sign
    values = _reference_values(a, b, state, perps)
    l1_vals, l2_vals = values[:, :2], values[:, 2:]

    # swapping the observables must not change the HRSUR bounds
    swapped = bound_report(b, a, state)

    # every computed quantity is invariant under a global phase on the state
    phased = QuantumState(np.exp(1j * theta) * state.vector)
    rep_phased = bound_report(a, b, phased)

    slacks = (
        rep.prod_var - rep.t1,
        rep.sum_var - sigma_term,
        sigma_term - rep.t2,
        check_csi(psi, phi),
        float((rep.sum_var - l1_vals).min()),
        float((rep.sum_var - l2_vals).min()),
        float((np.array(rep.l1_by_sign) - l1_vals).min()),
        float((np.array(rep.l2_by_sign) - l2_vals).min()),
    )
    defects = (
        check_parallelogram(psi, phi),
        abs(complex(ab - ba).real),
        abs(complex(ab + ba).imag),
        max(abs(v - rep.sum_var) for v in rep.l2_by_sign),
        max(
            abs(rep.l1_by_sign[i] - (0.5 * rep.sum_var + s * rep.covq))
            for i, s in ((0, 1), (1, -1))
        ),
        abs(rep.t1 - swapped.t1),
        abs(rep.t2 - swapped.t2),
        max(
            abs(getattr(rep, name) - getattr(rep_phased, name))
            for name in ("var_a", "var_b", "t1", "t2", "l1", "l2", "mpur")
        ),
    )
    return rep, slacks, defects


def _integer(name: str, value) -> int:
    # int() would read 2.9 as 2 and True as 1
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


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
    count, seed = _integer("count", count), _integer("seed", seed)
    perp_samples = _integer("perp_samples", perp_samples)
    if count < 1:
        raise ValueError("count must be positive")
    if perp_samples < 1:
        raise ValueError("perp_samples must be positive")
    dims = tuple(_integer("dims", d) for d in dims)
    if not dims:
        raise ValueError("dims must be nonempty")
    for d in dims:
        _check_dim(d)
    if not math.isfinite(tol):
        # NaN compares false with every slack and defect, so no check could fire
        raise ValueError(f"tol must be finite, got {tol!r}")
    if tol <= 0:
        raise ValueError("tol must be positive")

    report = SuiteReport(count=count, dims=dims, seed=seed, tol=tol, perp_samples=perp_samples)
    slacks = np.empty((count, len(SLACK_CHECKS)))
    defects = np.empty((count, len(DEFECT_CHECKS)))
    for index in range(count):
        dim = dims[index % len(dims)]
        rng = _rng([seed, index])
        state = random_state(dim, rng)
        a = random_observable(dim, rng)
        b = random_observable(dim, rng)
        perps = _complement_samples(state, perp_samples, rng)
        theta = 2.0 * math.pi * rng.random()
        rep, slack_row, defect_row = _check_instance(state, a, b, perps, theta)
        slacks[index], defects[index] = slack_row, defect_row
        failed = [(name, "slack", v) for name, v in zip(SLACK_CHECKS, slack_row) if v < -tol]
        failed += [(name, "defect", v) for name, v in zip(DEFECT_CHECKS, defect_row) if v > tol]
        # zero bounds only at (numerical) common eigenvectors, and conversely
        if rep.mpur <= tol and (rep.var_a > tol or rep.var_b > tol):
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
