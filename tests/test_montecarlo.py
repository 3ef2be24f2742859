import json
import re

import numpy as np
import pytest

from purbounds import montecarlo
from purbounds.montecarlo import (
    BornDistribution,
    born_distribution,
    empirical_variance,
    sample_outcomes,
    statistical_bound_check,
)
from purbounds.quantum import (
    TOL_EIG,
    Observable,
    QuantumState,
    basis_state,
    equatorial_state,
    expectation,
    pauli_x,
    pauli_z,
    variance,
)
from purbounds.verify import random_observable, random_state


class TestBornDistribution:
    @pytest.mark.parametrize("alpha", [0.0, 0.7, np.pi / 2, 3.9])
    def test_z_on_equatorial_state_is_fair(self, alpha):
        dist = born_distribution(pauli_z(), equatorial_state(alpha))
        np.testing.assert_allclose(dist.values, [-1.0, 1.0])
        np.testing.assert_allclose(dist.probabilities, [0.5, 0.5], atol=1e-14)

    def test_eigenstate_is_deterministic(self):
        dist = born_distribution(pauli_z(), basis_state(2, 0))
        np.testing.assert_allclose(dist.values, [1.0])
        np.testing.assert_allclose(dist.probabilities, [1.0])

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 2.5])
    def test_x_on_equatorial_state(self, alpha):
        dist = born_distribution(pauli_x(), equatorial_state(alpha))
        np.testing.assert_allclose(dist.values, [-1.0, 1.0])
        np.testing.assert_allclose(
            dist.probabilities, [(1 - np.cos(alpha)) / 2, (1 + np.cos(alpha)) / 2], atol=1e-14
        )
        assert dist.mean() == pytest.approx(np.cos(alpha), abs=1e-13)

    def test_moments_match_analytic_values(self):
        rng = np.random.default_rng(51)
        for dim in (2, 3, 6):
            state_vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            from purbounds.quantum import normalize

            state = normalize(state_vec)
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            a = Observable(0.5 * (g + g.conj().T))
            dist = born_distribution(a, state)
            assert dist.mean() == pytest.approx(expectation(a, state), abs=1e-10)
            assert dist.variance() == pytest.approx(variance(a, state), abs=1e-10)

    @pytest.mark.parametrize("p,outcomes", [(1e-16, 1), (1e-12, 2)], ids=["below_floor", "above_floor"])
    def test_outcome_probability_floor(self, p, outcomes):
        # diag(0, 1) at sqrt(1 - p)|0> + sqrt(p)|1>: outcome 1 has probability p, dropped below the floor of 1e-14
        state = QuantumState(np.array([np.sqrt(1 - p), np.sqrt(p)], dtype=complex))
        dist = born_distribution(Observable(np.diag([0.0, 1.0]).astype(complex)), state)
        assert dist.values.tolist() == [0.0, 1.0][:outcomes]

    def test_degenerate_eigenvalues_merged(self):
        dist = born_distribution(Observable(np.eye(3)), basis_state(3, 1))
        np.testing.assert_allclose(dist.values, [1.0])
        np.testing.assert_allclose(dist.probabilities, [1.0])

    def test_near_degenerate_chain_not_merged_past_gap_tol(self):
        # steps of 0.6 gap_tol chain to a span of 1.2 gap_tol, which must split
        gap = TOL_EIG * np.sqrt(28.0)
        a = Observable(np.diag([1.0, 1.0 + 0.6 * gap, 1.0 + 1.2 * gap, 5.0]).astype(complex))
        assert TOL_EIG * a.frobenius_norm() == pytest.approx(gap, rel=1e-6)
        dist = born_distribution(a, QuantumState(np.full(4, 0.5, dtype=complex)))
        np.testing.assert_allclose(dist.values, [1.0 + 0.3 * gap, 1.0 + 1.2 * gap, 5.0], rtol=0, atol=1e-15)
        np.testing.assert_allclose(dist.probabilities, [0.5, 0.25, 0.25], atol=1e-14)

    def test_invalid_distribution_rejected(self):
        with pytest.raises(ValueError):
            BornDistribution(np.array([1.0, 2.0]), np.array([0.5, 0.4]))
        with pytest.raises(ValueError):
            BornDistribution(np.array([1.0]), np.array([-1.0]))

    def test_total_renormalized_to_one(self):
        # a total 5e-10 above 1 is accepted and divided out; multiplied in, it would leave a sum of ~1 + 1e-9
        dist = BornDistribution(np.array([1.0, 2.0]), np.array([0.5, 0.5 + 5e-10]))
        assert abs(float(dist.probabilities.sum()) - 1.0) <= 4 * np.finfo(float).eps

    @pytest.mark.parametrize(
        "values,probabilities,name",
        [
            ([1.0, 2.0], [np.nan, 1.0], "probabilities"),
            ([np.nan, 2.0], [0.5, 0.5], "values"),
            ([1.0, np.inf], [0.5, 0.5], "values"),
            ([1.0, 2.0], [np.inf, 0.5], "probabilities"),
        ],
        ids=["nan_probability", "nan_value", "inf_value", "inf_probability"],
    )
    def test_non_finite_distribution_rejected(self, values, probabilities, name):
        # a NaN probability passed both the sign and the sum check, and every sample then read 1.0
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            BornDistribution(np.array(values), np.array(probabilities))

    @pytest.mark.parametrize(
        "values,probabilities,message",
        [
            ([1.0, 2.0], [1.0], "values and probabilities must be matching nonempty arrays"),
            ([], [], "values and probabilities must be matching nonempty arrays"),
            ([[1.0]], [[1.0]], "values must be a 1-D array, got shape (1, 1)"),
            ([1.0, 2.0], [[0.5, 0.5]], "probabilities must be a 1-D array, got shape (1, 2)"),
        ],
        ids=["mismatched", "empty", "two_axes", "two_axis_probabilities"],
    )
    def test_values_and_probabilities_must_match(self, values, probabilities, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BornDistribution(np.array(values), np.array(probabilities))


class TestSampleOutcomes:
    def test_deterministic_distribution(self):
        dist = BornDistribution(np.array([1.0]), np.array([1.0]))
        np.testing.assert_array_equal(sample_outcomes(dist, 100, 0), np.ones(100))

    def test_seed_reproducibility(self):
        dist = born_distribution(pauli_z(), equatorial_state(1.0))
        np.testing.assert_array_equal(sample_outcomes(dist, 1000, 5), sample_outcomes(dist, 1000, 5))

    def test_fair_coin_mean_within_binomial_ci(self):
        # binomial oracle: |mean| <= 4/sqrt(n) holds with overwhelming margin
        dist = born_distribution(pauli_z(), equatorial_state(0.0))
        n = 100_000
        outcomes = sample_outcomes(dist, n, 7)
        assert set(np.unique(outcomes)) <= {-1.0, 1.0}
        assert abs(outcomes.mean()) <= 4.0 / np.sqrt(n)

    def test_n_must_be_positive(self):
        dist = BornDistribution(np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError, match="^n must be at least 1, got 0$"):
            sample_outcomes(dist, 0, 0)
        np.testing.assert_array_equal(sample_outcomes(dist, 1, 0), np.ones(1))

    def test_draw_above_the_last_edge_takes_the_last_outcome(self):
        # ten outcomes of 0.1 sum to 1 - 2^-53 in cumulative order, so the draw 1 - 2^-53 lies at the last edge
        class Top(np.random.Generator):
            def random(self, n):
                return np.full(n, 1.0 - 2.0**-53)

        dist = BornDistribution(np.arange(10.0), np.full(10, 0.1))
        assert np.cumsum(dist.probabilities)[-1] == 1.0 - 2.0**-53
        np.testing.assert_array_equal(sample_outcomes(dist, 3, Top(np.random.PCG64(0))), np.full(3, 9.0))


class TestEmpiricalVariance:
    def test_constant_samples(self):
        rep = empirical_variance(np.full(50, 3.25))
        assert rep.var_hat == 0.0
        assert rep.var_stderr == 0.0
        assert rep.mean_hat == pytest.approx(3.25)

    def test_needs_two_samples(self):
        for samples, message in (
            ([1.0], "sample size must be at least 2, got 1"),
            ([[1.0, 2.0]], "samples must be a 1-D array, got shape (1, 2)"),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                empirical_variance(samples)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected(self, bad):
        # var_hat read nan
        with pytest.raises(ValueError, match="^samples must be finite$"):
            empirical_variance([1.0, bad, 2.0])

    def test_fair_signs_close_to_unit_variance(self):
        dist = born_distribution(pauli_z(), equatorial_state(0.0))
        rep = empirical_variance(sample_outcomes(dist, 100_000, 11))
        assert abs(rep.var_hat - 1.0) <= 5.0 * max(rep.var_stderr, 1e-9)

    def test_x_variance_at_third_turn(self):
        # Var(X) = sin^2(pi/3) = 0.75 on the equatorial state
        state = equatorial_state(np.pi / 3)
        rep = empirical_variance(sample_outcomes(born_distribution(pauli_x(), state), 100_000, 13))
        assert rep.var_hat == pytest.approx(0.75, abs=5.0 * rep.var_stderr)

    def test_unbiased_normalization(self):
        samples = np.array([0.0, 2.0])
        rep = empirical_variance(samples)
        assert rep.var_hat == pytest.approx(2.0)  # n-1 in the denominator

    def test_fair_two_outcome_stderr_is_finite_n(self):
        # m2 = m4 = 1, so sqrt((m4 - m2^2)/n) would read 0; the finite-n form
        # gives sqrt((1 - (n-3)/(n-1))/n) = sqrt(2/(n(n-1)))
        rep = empirical_variance(np.array([1.0, -1.0, 1.0, -1.0]))
        assert rep.var_stderr == pytest.approx(np.sqrt(2.0 / 12.0), rel=1e-15)

    @pytest.mark.parametrize("scale", [1.0, 3.0, 1e-30, 1e30])
    def test_ordinary_samples_keep_the_plain_formula_bits(self, scale):
        samples = scale * np.random.default_rng(17).standard_normal(1_000)
        n, dev = samples.size, samples - samples.mean()
        m2, m4 = float(np.mean(dev**2)), float(np.mean(dev**4))
        rep = empirical_variance(samples)
        assert rep.var_hat.hex() == (m2 * n / (n - 1)).hex()
        assert rep.var_stderr.hex() == np.sqrt(max(m4 - (n - 3) / (n - 1) * m2 * m2, 0.0) / n).hex()

    @pytest.mark.parametrize("exponent", [-300, -200, 100, 150])
    def test_extreme_samples_scale_by_their_power_of_two(self, exponent):
        # dev**4 would overflow (or underflow) here; a power-of-two scale is exact,
        # so the estimate is the unit-scale one times 2^(2 exponent)
        unit = np.random.default_rng(19).standard_normal(1_000)
        rep, ref = empirical_variance(np.ldexp(unit, exponent)), empirical_variance(unit)
        assert rep.var_hat == np.ldexp(ref.var_hat, 2 * exponent)
        assert rep.var_stderr == np.ldexp(ref.var_stderr, 2 * exponent)

    @pytest.mark.parametrize("samples", [[1e160, -1e160, 0.0], [1e-170, -1e-170, 3e-170]], ids=["overflow", "underflow"])
    def test_variance_outside_the_double_range_rejected(self, samples):
        with pytest.raises(ValueError, match="sample variance leaves the double range"):
            empirical_variance(samples)

    @pytest.mark.parametrize("value", [1e-150, 1e-160, 1e300])
    def test_constant_sample_never_leaves_the_range(self, value):
        # the mean of 1000 equal samples is off by its rounding error, so every deviation is that
        # error: its square underflowed (or overflowed) to a variance the range check rejected
        samples = np.full(1_000, value)
        assert samples.mean() != value
        rep = empirical_variance(samples)
        assert (rep.mean_hat, rep.var_hat, rep.var_stderr) == (value, 0.0, 0.0)


class TestStatisticalBoundCheck:
    def test_quarter_turn_instance(self):
        rep = statistical_bound_check(pauli_x(), pauli_z(), equatorial_state(np.pi / 2), n=100_000, seed=42)
        assert not rep.violation
        assert rep.mpur == pytest.approx(2.0, abs=1e-12)
        assert rep.empirical_sum == pytest.approx(2.0, abs=0.01)
        assert rep.estimate_a.bound_checked == pytest.approx(1.0, abs=1e-12)

    def test_triviality_instance(self):
        rep = statistical_bound_check(pauli_z(), pauli_x(), basis_state(2, 0), n=100_000, seed=42)
        assert not rep.violation
        assert rep.mpur == pytest.approx(1.0, abs=1e-12)
        assert rep.empirical_sum == pytest.approx(1.0, abs=0.01)

    def test_common_eigenvector_instance(self):
        rep = statistical_bound_check(pauli_z(), pauli_z(), basis_state(2, 0), n=10_000, seed=1)
        assert not rep.violation
        assert rep.empirical_sum == 0.0
        assert rep.mpur == pytest.approx(0.0, abs=1e-15)
        assert np.isfinite(rep.z_margin)

    def test_sharp_observable_at_small_scale(self):
        # |0> is an eigenstate of 1e-150 Z, so every B outcome is 1e-150 and B's sample is constant
        small_z = Observable(1e-150 * pauli_z().matrix)
        rep = statistical_bound_check(pauli_x(), small_z, basis_state(2, 0), n=2_000, seed=42)
        assert not rep.violation
        assert (rep.estimate_b.var_hat, rep.estimate_b.var_stderr) == (0.0, 0.0)
        assert rep.mpur == 1.0

    def test_sharp_observables_read_no_overshoot(self):
        # every outcome of both is 0.1 on |0>, and 1000 copies of 0.1 do not average to 0.1: the mean's
        # rounding error read as a variance of ~1.9e-34 with a stderr of ~2.7e-37, and the overshoot
        # check fired at z = 1000.5 against the analytic sum 0
        a, b = Observable(np.diag([0.1, 0.3])), Observable(np.diag([0.1, 0.7]))
        assert np.full(1_000, 0.1).mean() != 0.1
        rep = statistical_bound_check(a, b, basis_state(2, 0), n=1_000, seed=0)
        assert not rep.violation
        for est in (rep.estimate_a, rep.estimate_b):
            assert (est.mean_hat, est.var_hat, est.var_stderr) == (0.1, 0.0, 0.0)
        assert (rep.empirical_sum, rep.analytic_sum, rep.z_margin) == (0.0, 0.0, 0.0)

    # A = X and B = X + I/2 share the eigenvector |+>, which is not a basis vector: both samples hold one
    # outcome, so the sampled sum and its stderr are exactly 0, while mpur is the kernel's rounding residue
    PLUS = QuantumState(np.array([0.7071067811865476, 0.7071067811865476]))
    X_PLUS_HALF = Observable(np.array([[0.5, 1.0], [1.0, 0.5]]))

    def test_common_eigenvector_off_the_basis_reads_no_undercut(self):
        # 0 + 5 * 0 < mpur ~ 2.5e-32 fired the undercut check
        rep = statistical_bound_check(pauli_x(), self.X_PLUS_HALF, self.PLUS, n=1_000, seed=0)
        assert (rep.empirical_sum, rep.combined_stderr) == (0.0, 0.0)
        # within the analytic allowance 4 eps (|A|_F^2 + |B|_F^2)
        assert rep.mpur <= 4 * np.finfo(float).eps * (2.0 + self.X_PLUS_HALF.frobenius_norm() ** 2)
        assert not rep.violation

    def test_rotated_diagonal_pair_reads_no_violation(self):
        # a common eigenvector of two diagonal observables in a random basis at d = 8
        rng = np.random.default_rng(8)
        u = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))[0]
        a, b = (Observable(u @ np.diag(rng.standard_normal(8)) @ u.conj().T) for _ in range(2))
        rep = statistical_bound_check(a, b, QuantumState(u[:, 0]), n=1_000, seed=0)
        assert (rep.empirical_sum, rep.combined_stderr) == (0.0, 0.0)
        assert not rep.violation

    def test_zero_stderr_within_the_allowance_reads_zero_sigma(self):
        # the residue ~2.5e-32 over the division floor 1e-300 read as a -2.5e268-sigma miss
        rep = statistical_bound_check(pauli_x(), self.X_PLUS_HALF, self.PLUS, n=1_000, seed=0)
        assert (rep.z_margin, rep.estimate_a.z_margin, rep.estimate_b.z_margin) == (0.0, 0.0, 0.0)
        # the README instance: A = X is sharp on |+>, B = Z is not, so only A's margin is a zero-stderr one
        readme = statistical_bound_check(pauli_x(), pauli_z(), self.PLUS, n=100_000, seed=42)
        assert readme.estimate_a.var_stderr == 0.0 and readme.estimate_a.z_margin == 0.0
        est_b = readme.estimate_b
        assert est_b.z_margin == (est_b.var_hat - est_b.bound_checked) / est_b.var_stderr
        assert readme.z_margin == (readme.empirical_sum - readme.mpur) / readme.combined_stderr

    def test_zero_stderr_beyond_the_allowance_keeps_its_margin(self, monkeypatch):
        # an analytic mpur a unit above the constant samples' sum is a miss, read against the division floor
        original = montecarlo._value_rows
        monkeypatch.setattr(montecarlo, "_value_rows", lambda k: [row._replace(mpur=row.mpur + 1.0) for row in original(k)])
        rep = statistical_bound_check(pauli_x(), self.X_PLUS_HALF, self.PLUS, n=1_000, seed=0)
        assert rep.combined_stderr == 0.0
        assert rep.z_margin == -rep.mpur / montecarlo._Z_FLOOR

    @pytest.mark.parametrize(
        "field,shift,flag",
        [("mpur", 1.0, "undercut_violation"), ("sum_var", -1.0, "overshoot_violation")],
        ids=["undercut", "overshoot"],
    )
    def test_analytic_value_off_the_sampled_sum_still_fires(self, monkeypatch, field, shift, flag):
        # the allowance is rounding-sized: an analytic value a unit away from the exact sampled sum fires
        original = montecarlo._value_rows

        def shifted(k, user_xi_perp=None):
            return [row._replace(**{field: getattr(row, field) + shift}) for row in original(k, user_xi_perp)]

        monkeypatch.setattr(montecarlo, "_value_rows", shifted)
        rep = statistical_bound_check(pauli_x(), self.X_PLUS_HALF, self.PLUS, n=1_000, seed=0)
        assert getattr(rep, flag) and rep.violation

    def test_operands_scaled_past_dev4_overflow(self):
        # Var(A) Var(B) ~ 1 passes the report's scale limit, but the A samples ~1e100 overflowed
        # dev**4: var_stderr and z_margin read nan, so the check could never fire
        rng = np.random.default_rng([5, 4])
        state, a, b = random_state(4, rng), random_observable(4, rng), random_observable(4, rng)
        big_a, small_b = Observable(1e100 * a.matrix), Observable(1e-100 * b.matrix)
        rep = statistical_bound_check(big_a, small_b, state, n=100_000, seed=42)
        estimates = (rep.estimate_a, rep.estimate_b)
        assert all(np.isfinite([est.var_stderr, est.z_margin]).all() and est.var_stderr > 0.0 for est in estimates)
        assert np.isfinite(rep.z_margin) and rep.combined_stderr > 0.0
        assert not rep.violation
        # the same draws at unit scale give the same estimates, scaled by the square of each factor
        unit = statistical_bound_check(a, b, state, n=100_000, seed=42)
        for est, ref, factor in zip(estimates, (unit.estimate_a, unit.estimate_b), (1e100, 1e-100)):
            assert est.var_hat == pytest.approx(factor**2 * ref.var_hat, rel=1e-12)
            assert est.var_stderr == pytest.approx(factor**2 * ref.var_stderr, rel=1e-9)
            assert est.z_margin == pytest.approx(ref.z_margin, rel=1e-6)

    def test_deterministic_report(self):
        first = statistical_bound_check(pauli_x(), pauli_z(), equatorial_state(0.9), n=5_000, seed=3)
        second = statistical_bound_check(pauli_x(), pauli_z(), equatorial_state(0.9), n=5_000, seed=3)
        assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(second.to_dict(), sort_keys=True)

    def test_streams_differ_per_observable(self):
        rep = statistical_bound_check(pauli_x(), pauli_z(), equatorial_state(np.pi / 2), n=2_000, seed=5)
        assert rep.estimate_a.mean_hat != rep.estimate_b.mean_hat

    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match="^n must be at least 2, got 1$"):
            statistical_bound_check(pauli_x(), pauli_z(), equatorial_state(1.0), n=1, seed=0)
        assert statistical_bound_check(pauli_x(), pauli_z(), equatorial_state(1.0), n=2, seed=0).estimate_a.n == 2

    @pytest.mark.parametrize("seed", [True, 2.5, 7.0, None], ids=["bool", "fraction", "integral_float", "none"])
    def test_non_integer_seed_rejected_before_any_work(self, monkeypatch, seed):
        # True was read as seed 1, and 2.5 raised TypeError after the report was computed
        def no_work(*args, **kwargs):
            raise AssertionError("the seed is checked before any work")

        monkeypatch.setattr(montecarlo, "_kernel", no_work)
        with pytest.raises(ValueError, match="seed must be an integer"):
            statistical_bound_check(pauli_x(), pauli_z(), equatorial_state(1.0), n=100, seed=seed)

    @pytest.mark.parametrize("seed", [-1, np.int64(-7)])
    def test_negative_seed_is_rejected_before_any_work(self, monkeypatch, seed):
        def fail(*args):
            raise AssertionError("the kernel ran before the seed was checked")

        monkeypatch.setattr(montecarlo, "_kernel", fail)
        with pytest.raises(ValueError, match=f"^seed must be at least 0, got {int(seed)}$"):
            statistical_bound_check(pauli_x(), pauli_z(), equatorial_state(0.3), n=100, seed=seed)

    def test_numpy_integer_seed_accepted(self):
        # and so is the lower bound, 0
        for seed in (3, 0):
            plain = statistical_bound_check(pauli_x(), pauli_z(), equatorial_state(0.4), n=500, seed=seed)
            numpy_seed = statistical_bound_check(pauli_x(), pauli_z(), equatorial_state(0.4), n=500, seed=np.int64(seed))
            assert json.dumps(plain.to_dict(), sort_keys=True) == json.dumps(numpy_seed.to_dict(), sort_keys=True)

    @pytest.mark.parametrize("n", [True, 2.5, 1000.0], ids=["bool", "fraction", "integral_float"])
    def test_non_integer_n_rejected(self, n):
        # numpy raised TypeError on the sample count
        with pytest.raises(ValueError, match="n must be an integer"):
            statistical_bound_check(pauli_x(), pauli_z(), equatorial_state(1.0), n=n, seed=0)
        with pytest.raises(ValueError, match="n must be an integer"):
            sample_outcomes(BornDistribution(np.array([1.0]), np.array([1.0])), n, 0)

    def test_numpy_integer_n_accepted(self):
        rep = statistical_bound_check(pauli_x(), pauli_z(), equatorial_state(0.9), n=np.int64(2_000), seed=3)
        assert rep.estimate_a.n == 2_000
        assert rep.to_dict() == statistical_bound_check(pauli_x(), pauli_z(), equatorial_state(0.9), n=2_000, seed=3).to_dict()

    @pytest.mark.parametrize(
        "a,b,state",
        [(pauli_x(), pauli_z(), equatorial_state(0.0)), (pauli_z(), pauli_x(), basis_state(2, 0))],
        ids=["xz-alpha0", "zx-ground"],
    )
    def test_no_false_violation_on_triviality_instances(self, a, b, state):
        # one observable is sharp and the other a fair coin; a stderr that
        # vanishes with the sample mean flagged about 7% of these seeds
        flagged = [seed for seed in range(200) if statistical_bound_check(a, b, state, n=2_000, seed=seed).violation]
        assert flagged == []
