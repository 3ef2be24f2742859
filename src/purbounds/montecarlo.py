"""Born-rule measurement simulation and statistical checks of the bounds.

Builds the outcome distribution of an observable on a state (eigenvalue
probabilities via squared overlaps, degenerate eigenvalues merged), draws
i.i.d. outcomes by inverse CDF over the pinned PRNG, estimates variances with
their standard errors, and checks the analytic Maccone-Pati bound against the
empirical variance sum at a 5-sigma margin.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .bounds import _kernel, _value_rows
from .quantum import (
    TOL_EIG,
    TOL_NORM,
    Observable,
    QuantumState,
    _complement_dim,
    _integer,
    _same_dim,
    hermitian_eigensystem,
)

__all__ = [
    "BornDistribution",
    "EstimateReport",
    "StatisticalCheckReport",
    "born_distribution",
    "sample_outcomes",
    "empirical_variance",
    "statistical_bound_check",
]

# guards divisions when an estimator is exactly degenerate
_Z_FLOOR = 1e-300

# outcomes below this probability are outside double-precision resolution and
# are dropped from the support
_PROB_FLOOR = 1e-14

SIGMA_MARGIN = 5.0

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class BornDistribution:
    """Distinct outcome values (ascending) with their probabilities."""

    values: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).copy()
        probs = np.asarray(self.probabilities, dtype=float).copy()
        if vals.ndim != 1 or vals.shape != probs.shape or vals.size == 0:
            raise ValueError("values and probabilities must be matching nonempty 1-D arrays")
        # a NaN compares false with every bound below, so it would pass them all
        if not (np.isfinite(vals).all() and np.isfinite(probs).all()):
            raise ValueError("values and probabilities must be finite")
        if np.any(probs < -TOL_NORM):
            raise ValueError("probabilities must be nonnegative")
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        probs = np.clip(probs, 0.0, None) / total
        vals.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "probabilities", probs)

    def mean(self) -> float:
        return float(self.values @ self.probabilities)

    def variance(self) -> float:
        mu = self.mean()
        return float(((self.values - mu) ** 2) @ self.probabilities)


def born_distribution(a: Observable, state: QuantumState) -> BornDistribution:
    """p(lambda) = sum of |<v|state>|^2 over the eigenvectors of lambda.

    Eigenvalues within tol_eig * ||A||_F of the smallest value of their group
    are treated as one degenerate outcome whose probability is the sum
    (value: probability-weighted mean), so no group spans more than that;
    outcomes of numerically zero probability are dropped from the support.
    """
    _same_dim(a.dim, state.dim)
    eig_values, eig_vectors = hermitian_eigensystem(a)
    weights = np.abs(eig_vectors.conj().T @ state.vector) ** 2
    gap_tol = TOL_EIG * a.frobenius_norm()

    # [first eigenvalue, probability, sum of eigenvalue x weight] per group, summed in eigenvalue order; a
    # new group opens more than gap_tol above the open group's first value
    groups: list[list[float]] = []
    for lam, w in zip(eig_values.tolist(), weights.tolist()):
        if not groups or lam - groups[-1][0] > gap_tol:
            groups.append([lam, 0.0, 0.0])
        groups[-1][1] += w
        groups[-1][2] += lam * w
    # each kept group's probability-weighted value and probability
    kept = [(moment / total, total) for _, total, moment in groups if total > _PROB_FLOOR]
    return BornDistribution(np.array([value for value, _ in kept]), np.array([prob for _, prob in kept]))


def sample_outcomes(dist: BornDistribution, n: int, seed) -> np.ndarray:
    """n i.i.d. outcomes by inverse CDF; deterministic per seed."""
    n = _integer("n", n)
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    edges = np.cumsum(dist.probabilities)
    idx = np.searchsorted(edges, rng.random(n), side="right")
    idx = np.minimum(idx, dist.values.size - 1)
    return dist.values[idx]


@dataclass(frozen=True)
class EstimateReport:
    """Sample variance with its standard error.

    var_stderr is the finite-n standard deviation of the unbiased variance
    estimator, sqrt((m4 - (n-3)/(n-1) m2^2)/n), from the sample's central
    moments m2 and m4. It is positive for every non-constant sample, also for a
    fair two-outcome one, where m4 = m2^2 and the large-n form
    sqrt((m4 - m2^2)/n) reads 0.
    bound_checked/z_margin are filled when the estimate is compared against a
    reference value.
    """

    n: int
    mean_hat: float
    var_hat: float
    var_stderr: float
    bound_checked: float | None = None
    z_margin: float | None = None


def empirical_variance(samples) -> EstimateReport:
    """Unbiased sample variance of a 1-D sample, with standard error.

    A sample of one value reads var_hat = var_stderr = 0 and that value as its
    mean. Raises ValueError if the variance of any other sample leaves the
    double range.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("need a 1-D sample with n >= 2")
    if not np.isfinite(arr).all():
        raise ValueError("samples must be finite")
    n = arr.size
    if (arr == arr[0]).all():
        # one outcome: the variance is exactly 0, where the deviations from the mean would be its rounding error
        return EstimateReport(n=n, mean_hat=float(arr[0]), var_hat=0.0, var_stderr=0.0)
    mean = float(arr.mean())
    dev = arr - mean
    # m2, m4 and the stderr's square root in units of 2^e, e the binary exponent of the largest |dev|
    # truncated toward zero to a multiple of 128: the scale is exact, and no dev^4 overflows or loses
    # all its bits. Within 2^+-127 the unit is 1, which keeps dev**4's bits (np.power is not exactly
    # scale-covariant).
    peak = float(np.abs(dev).max())
    e = int(math.frexp(peak)[1] / 128) * 128
    dev = np.ldexp(dev, -e)
    m2 = float(np.mean(dev**2))
    m4 = float(np.mean(dev**4))
    try:
        var_hat = math.ldexp(m2 * n / (n - 1), 2 * e)
        stderr = math.ldexp(math.sqrt(max(m4 - (n - 3) / (n - 1) * m2 * m2, 0.0) / n), 2 * e)
    except OverflowError:
        var_hat = math.inf
    if not 0.0 < var_hat < math.inf:
        raise ValueError(f"sample variance leaves the double range (largest |deviation| {peak:.3e})")
    return EstimateReport(n=n, mean_hat=mean, var_hat=var_hat, var_stderr=stderr)


def _z_margin(residue: float, stderr: float, allowance: float) -> float:
    """`residue` in standard errors, or 0.0 where the standard error is 0 and the residue is within the
    analytic allowance: it is then the analytic value's rounding, not a miss of a constant sample."""
    if stderr == 0.0 and abs(residue) <= allowance:
        return 0.0
    return residue / max(stderr, _Z_FLOOR)


@dataclass(frozen=True)
class StatisticalCheckReport:
    """Empirical variance sum versus the analytic sum and the Maccone-Pati bound."""

    estimate_a: EstimateReport
    estimate_b: EstimateReport
    empirical_sum: float
    combined_stderr: float
    mpur: float
    analytic_sum: float
    z_margin: float
    sigma_margin: float
    undercut_violation: bool
    overshoot_violation: bool

    @property
    def violation(self) -> bool:
        return self.undercut_violation or self.overshoot_violation

    def to_dict(self) -> dict:
        return {**asdict(self), "violation": self.violation}


def statistical_bound_check(
    a: Observable,
    b: Observable,
    state: QuantumState,
    n: int,
    seed,
) -> StatisticalCheckReport:
    """Estimate Var(A) + Var(B) from sampled outcomes and check the bound.

    Each observable samples its own stream derived from (seed, 0) / (seed, 1).
    Flags a violation when the empirical sum undercuts the optimized
    Maccone-Pati bound by more than SIGMA_MARGIN combined standard errors, or
    exceeds the analytic sum by the same margin. Both comparisons also grant
    the analytic values their forward-error allowance, 4 eps (|A|_F^2 +
    |B|_F^2): at a common eigenvector mpur is rounding residue that a
    one-outcome sample, of variance and standard error exactly 0, cannot reach.
    For the same reason a z-margin of standard error 0 reads 0.0 when its
    residue is within that allowance.
    """
    n = _integer("n", n)
    if n < 2:
        raise ValueError("variance estimation needs n >= 2")
    # an integer, so that (seed, 0) and (seed, 1) seed the two streams
    seed = _integer("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    (rep,) = _value_rows(_kernel(a, b, state.vector[None]))
    # the d < 2 check, which `_value_rows` leaves to its caller
    _complement_dim(state.dim)
    allowance = 4.0 * _EPS * (a.frobenius_norm() ** 2 + b.frobenius_norm() ** 2)

    estimates = []
    for stream, obs, analytic in ((0, a, rep.var_a), (1, b, rep.var_b)):
        dist = born_distribution(obs, state)
        outcomes = sample_outcomes(dist, n, np.random.default_rng([seed, stream]))
        est = empirical_variance(outcomes)
        z = _z_margin(est.var_hat - analytic, est.var_stderr, allowance)
        estimates.append(replace(est, bound_checked=analytic, z_margin=z))
    est_a, est_b = estimates

    empirical_sum = est_a.var_hat + est_b.var_hat
    combined = math.hypot(est_a.var_stderr, est_b.var_stderr)
    z_margin = _z_margin(empirical_sum - rep.mpur, combined, allowance)
    return StatisticalCheckReport(
        estimate_a=est_a,
        estimate_b=est_b,
        empirical_sum=empirical_sum,
        combined_stderr=combined,
        mpur=rep.mpur,
        analytic_sum=rep.sum_var,
        z_margin=z_margin,
        sigma_margin=SIGMA_MARGIN,
        undercut_violation=bool(empirical_sum + SIGMA_MARGIN * combined < rep.mpur - allowance),
        overshoot_violation=bool(empirical_sum - SIGMA_MARGIN * combined > rep.sum_var + allowance),
    )

