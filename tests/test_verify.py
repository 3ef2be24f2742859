import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from purbounds.bounds import bound_report, optimal_xi_perp
from purbounds.instances import json_dumps, parse_instance
from purbounds.quantum import (
    EmptyComplementError,
    basis_state,
    deviation_vector,
    equatorial_state,
    pauli_x,
    pauli_z,
    variance,
)
from purbounds.verify import (
    DEFECT_CHECKS,
    REFERENCE_ROWS,
    SLACK_CHECKS,
    _reference_values,
    check_csi,
    check_parallelogram,
    l1_bound,
    l2_bound,
    random_observable,
    random_state,
    random_unit_in_complement,
    run_invariant_suite,
    search_optimal_xi_perp,
)


def complex_vectors(dim, max_mag=10.0):
    return arrays(
        np.float64,
        (2 * dim,),
        elements=st.floats(min_value=-max_mag, max_value=max_mag, allow_nan=False),
    ).map(lambda x: x[:dim] + 1j * x[dim:])


class TestRandomState:
    def test_unit_norm(self):
        for dim in (2, 5, 64):
            assert np.linalg.norm(random_state(dim, 0).vector) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self):
        np.testing.assert_array_equal(random_state(4, 123).vector, random_state(4, 123).vector)

    def test_dim_out_of_range(self):
        with pytest.raises(ValueError):
            random_state(1, 0)
        with pytest.raises(ValueError):
            random_state(65, 0)

    def test_haar_marginal_d2(self):
        # Haar marginal: |amp_0|^2 is uniform on [0, 1], mean 1/2
        rng = np.random.default_rng(2)
        weights = [abs(random_state(2, rng).vector[0]) ** 2 for _ in range(10_000)]
        assert np.mean(weights) == pytest.approx(0.5, abs=0.02)


class TestRandomObservable:
    def test_exactly_hermitian(self):
        for dim in (2, 8):
            a = random_observable(dim, 7)
            assert np.max(np.abs(a.matrix - a.matrix.conj().T)) == 0.0

    def test_real_eigenvalues(self):
        a = random_observable(6, 3)
        values = np.linalg.eigvalsh(a.matrix)
        assert np.all(np.isreal(values))

    def test_zero_mean_trace_d2(self):
        rng = np.random.default_rng(8)
        traces = [np.trace(random_observable(2, rng).matrix).real for _ in range(10_000)]
        assert np.mean(traces) == pytest.approx(0.0, abs=0.05)

    def test_deterministic(self):
        np.testing.assert_array_equal(random_observable(3, 55).matrix, random_observable(3, 55).matrix)


class TestRandomUnitInComplement:
    def test_d2_unique_direction(self):
        state = equatorial_state(0.6)
        perp = random_unit_in_complement(state, 1)
        unique = np.array([1.0, -np.exp(0.6j)]) / np.sqrt(2.0)
        assert abs(np.vdot(unique, perp.vector)) == pytest.approx(1.0, abs=1e-12)

    def test_overlap_and_norm_d8(self):
        rng = np.random.default_rng(21)
        for k in range(20):
            state = random_state(8, rng)
            perp = random_unit_in_complement(state, k)
            assert abs(np.vdot(state.vector, perp.vector)) < 1e-10
            assert np.linalg.norm(perp.vector) == pytest.approx(1.0, abs=1e-12)

    def test_d1_rejected(self):
        from purbounds.quantum import QuantumState

        with pytest.raises(EmptyComplementError):
            random_unit_in_complement(QuantumState(np.array([1.0 + 0j])), 0)


class TestSearchOptimalXiPerp:
    @pytest.mark.parametrize("alpha", [0.0, 0.9, np.pi / 2, 2.4])
    def test_d2_search_matches_analytic(self, alpha):
        state = equatorial_state(alpha)
        res = search_optimal_xi_perp(pauli_x(), pauli_z(), state, "l2", 1, samples=25, seed=3)
        assert res.analytic_value == pytest.approx(1.0 + np.sin(alpha) ** 2, abs=1e-12)
        assert abs(res.gap) <= 1e-9

    def test_gap_nonnegative_on_random_instances(self):
        rng = np.random.default_rng(41)
        for dim in (2, 3, 4):
            for _ in range(5):
                state = random_state(dim, rng)
                a = random_observable(dim, rng)
                b = random_observable(dim, rng)
                for which in ("l1", "l2"):
                    for sign in (1, -1):
                        res = search_optimal_xi_perp(a, b, state, which, sign, samples=200, seed=5)
                        assert res.gap >= -1e-9

    def test_d4_dense_sampling_close_to_supremum(self):
        # frozen calibration: 2e4 samples on the d=4 complement sphere get
        # within 5% of the analytic optimum (observed ~1%)
        rng = np.random.default_rng(7)
        state = random_state(4, rng)
        a = random_observable(4, rng)
        b = random_observable(4, rng)
        for which in ("l1", "l2"):
            res = search_optimal_xi_perp(a, b, state, which, 1, samples=20_000, seed=8)
            assert res.gap <= 0.05 * res.analytic_value

    def test_invalid_arguments(self):
        state = basis_state(2, 0)
        with pytest.raises(ValueError):
            search_optimal_xi_perp(pauli_x(), pauli_z(), state, "l3", 1, 10, 0)
        with pytest.raises(ValueError):
            search_optimal_xi_perp(pauli_x(), pauli_z(), state, "l1", 1, 0, 0)

    def test_best_vector_is_admissible(self):
        state = equatorial_state(1.7)
        res = search_optimal_xi_perp(pauli_x(), pauli_z(), state, "l1", -1, samples=50, seed=12)
        assert abs(np.vdot(state.vector, res.best_vector.vector)) < 1e-10
        assert res.samples_used == 50


class TestCheckParallelogram:
    def test_orthonormal_pair(self):
        assert check_parallelogram(basis_state(2, 0), basis_state(2, 1)) == pytest.approx(0.0, abs=1e-15)

    def test_equal_vectors(self):
        v = np.array([1.0 + 2.0j, -0.5])
        assert check_parallelogram(v, v) == pytest.approx(0.0, abs=1e-14)

    def test_deviation_vectors_of_qubit_instance(self):
        state = equatorial_state(1.1)
        psi = deviation_vector(pauli_x(), state)
        phi = deviation_vector(pauli_z(), state)
        assert check_parallelogram(psi, phi) <= 1e-12

    @given(complex_vectors(4), complex_vectors(4))
    @settings(max_examples=80, deadline=None)
    def test_identity_for_random_pairs(self, u, v):
        scale = 1.0 + np.linalg.norm(u) ** 2 + np.linalg.norm(v) ** 2
        assert check_parallelogram(u, v) <= 1e-10 * scale


class TestCheckCsi:
    def test_collinear_equality(self):
        u = np.array([1.0, 2.0j, -0.3])
        assert check_csi(u, 3j * u) == pytest.approx(0.0, abs=1e-12)

    def test_orthonormal_pair(self):
        assert check_csi(basis_state(2, 0), basis_state(2, 1)) == pytest.approx(1.0)

    def test_null_vector_is_satisfied(self):
        assert check_csi(np.zeros(3), np.ones(3)) == 0.0

    def test_deviation_vectors_reproduce_hrsur_slack(self):
        # <psi|phi> decomposes into CovQ + half the commutator mean, so the
        # CSI slack of the deviation vectors equals Var Var - t1
        state = equatorial_state(0.8)
        psi = deviation_vector(pauli_x(), state)
        phi = deviation_vector(pauli_z(), state)
        slack = check_csi(psi, phi)
        t1 = bound_report(pauli_x(), pauli_z(), state).t1
        hrsur_slack = variance(pauli_x(), state) * variance(pauli_z(), state) - t1
        assert slack == pytest.approx(hrsur_slack, abs=1e-13)

    @given(complex_vectors(3), complex_vectors(3))
    @settings(max_examples=80, deadline=None)
    def test_nonnegative_for_random_pairs(self, u, v):
        scale = 1.0 + (np.linalg.norm(u) * np.linalg.norm(v)) ** 2
        assert check_csi(u, v) >= -1e-10 * scale


class TestInvariantSuite:
    def test_small_suite_passes(self):
        report = run_invariant_suite(count=50, dims=(2, 3, 4, 6, 8), seed=42, tol=1e-9)
        assert report.passed
        assert report.violations == []
        assert tuple(report.min_slacks) == SLACK_CHECKS
        assert tuple(report.max_defects) == DEFECT_CHECKS

    def test_suite_passes_up_to_max_dim(self):
        report = run_invariant_suite(count=6, dims=(16, 32, 64))
        assert report.passed
        assert report.violations == []

    def test_report_serialization_deterministic(self):
        first = run_invariant_suite(count=25, dims=(2, 4), seed=9, tol=1e-9, perp_samples=30)
        second = run_invariant_suite(count=25, dims=(2, 4), seed=9, tol=1e-9, perp_samples=30)
        assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(second.to_dict(), sort_keys=True)

    def test_different_seeds_differ(self):
        first = run_invariant_suite(count=5, dims=(3,), seed=1, tol=1e-9, perp_samples=10)
        second = run_invariant_suite(count=5, dims=(3,), seed=2, tol=1e-9, perp_samples=10)
        assert first.min_slacks != second.min_slacks

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            run_invariant_suite(count=0)
        with pytest.raises(ValueError):
            run_invariant_suite(count=1, dims=(1,))
        with pytest.raises(ValueError):
            run_invariant_suite(count=1, dims=())
        with pytest.raises(ValueError):
            run_invariant_suite(count=1, tol=0.0)

    def test_rerun_gives_identical_json(self):
        # the same seed reproduces the report byte for byte, at every default dimension and MAX_DIM
        runs = [
            json_dumps(run_invariant_suite(count=12, dims=(2, 3, 4, 6, 8, 64), seed=17).to_dict())
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_tol_rejected(self, tol):
        # a NaN tolerance compares false with every slack and defect, so nothing could fail
        with pytest.raises(ValueError, match="tol must be finite"):
            run_invariant_suite(count=5, tol=tol)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dims": (2.9, 3.5)},
            {"dims": (True, 3)},
            {"count": True},
            {"count": 2.0},
            {"perp_samples": True},
            {"perp_samples": 2.5},
            {"seed": True},
            {"seed": 2.5},
        ],
        ids=[
            "float_dims",
            "bool_dim",
            "bool_count",
            "float_count",
            "bool_perp_samples",
            "float_perp_samples",
            "bool_seed",
            "float_seed",
        ],
    )
    def test_non_integer_arguments_rejected(self, kwargs):
        # int() would run (2.9, 3.5) at (2, 3), and True would be written as "count": true
        with pytest.raises(ValueError, match="must be an integer"):
            run_invariant_suite(**{"count": 1, "perp_samples": 3, **kwargs})

    def test_numpy_integers_accepted(self):
        report = run_invariant_suite(count=np.int64(2), dims=(np.int64(3),), seed=np.int64(5), perp_samples=np.int64(4))
        assert json.loads(json_dumps(report.to_dict()))["count"] == 2
        assert report.dims == (3,)

    def test_dims_cycle_in_order(self):
        report = run_invariant_suite(count=4, dims=(2, 3), seed=0, tol=1e-9, perp_samples=5)
        assert report.count == 4
        assert report.dims == (2, 3)


class TestSuiteViolations:
    """At tol 1e-30 rounding-level slacks and defects fail: the violation records."""

    TOL = 1e-30

    @pytest.fixture(scope="class")
    def report(self):
        return run_invariant_suite(count=50, tol=self.TOL)

    def test_records_in_index_then_table_order(self, report):
        order = SLACK_CHECKS + DEFECT_CHECKS + ("nontriviality", "nontriviality_converse")
        assert all(v["check"] in order for v in report.violations)
        keys = [(v["index"], order.index(v["check"])) for v in report.violations]
        assert keys and keys == sorted(set(keys))
        assert not report.passed

    def test_extremes_fail_exactly_when_a_record_exists(self, report):
        for names, kind, extremes, fails in (
            (SLACK_CHECKS, "slack", report.min_slacks, lambda x: x < -self.TOL),
            (DEFECT_CHECKS, "defect", report.max_defects, lambda x: x > self.TOL),
        ):
            for name in names:
                values = [v[kind] for v in report.violations if v["check"] == name]
                assert fails(extremes[name]) == bool(values), name
                assert all(fails(x) for x in values)
                if values:
                    best = min(values) if kind == "slack" else max(values)
                    assert best == extremes[name]
        # both outcomes occur, so the equivalence is tested each way
        assert {v["check"] for v in report.violations} < set(SLACK_CHECKS + DEFECT_CHECKS)

    def test_payloads_replay_the_instance_bit_for_bit(self, report):
        for v in report.violations:
            assert v["dim"] == report.dims[v["index"] % len(report.dims)]
            rng = np.random.default_rng([report.seed, v["index"]])
            state = random_state(v["dim"], rng)
            a, b = random_observable(v["dim"], rng), random_observable(v["dim"], rng)
            inst = parse_instance(json.loads(json_dumps(v["instance"])))
            assert inst.state.vector.tobytes() == state.vector.tobytes()
            assert inst.a.matrix.tobytes() == a.matrix.tobytes()
            assert inst.b.matrix.tobytes() == b.matrix.tobytes()


class TestAnalyticOptimaAgainstSearch:
    """The closed-form optima and the brute-force oracle check each other."""

    def test_l1_search_never_beats_analytic_and_d2_matches(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            state = random_state(2, rng)
            a = random_observable(2, rng)
            b = random_observable(2, rng)
            for sign in (1, -1):
                cand = optimal_xi_perp(a, b, state, "l1", sign)
                res = search_optimal_xi_perp(a, b, state, "l1", sign, samples=40, seed=2)
                assert abs(res.best_value - cand.bound_value) <= 1e-9

    def test_l2_search_never_beats_analytic_and_d2_matches(self):
        rng = np.random.default_rng(73)
        for _ in range(10):
            state = random_state(2, rng)
            a = random_observable(2, rng)
            b = random_observable(2, rng)
            for sign in (1, -1):
                cand = optimal_xi_perp(a, b, state, "l2", sign)
                res = search_optimal_xi_perp(a, b, state, "l2", sign, samples=40, seed=4)
                assert abs(res.best_value - cand.bound_value) <= 1e-9


class TestKernelAgainstReference:
    """bound_report works from the deviation vectors; l1_bound/l2_bound from
    (A + s B)|xi> and (A - s i B)|xi> directly. They must agree at every vector."""

    @pytest.mark.parametrize("dim", [2, 3, 8, 64])
    def test_per_sign_values_match_reference(self, dim):
        rng = np.random.default_rng([61, dim])
        for _ in range(5):
            state, a, b = random_state(dim, rng), random_observable(dim, rng), random_observable(dim, rng)
            tol = 1e-12 * (1.0 + a.frobenius_norm() ** 2 + b.frobenius_norm() ** 2)
            perp = random_unit_in_complement(state, rng)
            user = bound_report(a, b, state, user_xi_perp=perp)
            rep = bound_report(a, b, state)
            assert variance(a, state) == rep.var_a
            assert variance(b, state) == rep.var_b
            for i, sign in enumerate((1, -1)):
                assert abs(user.l1_by_sign[i] - l1_bound(a, b, state, perp, sign)) <= tol
                assert abs(user.l2_by_sign[i] - l2_bound(a, b, state, perp, sign)) <= tol
                for which, by_sign, reference in (("l1", rep.l1_by_sign, l1_bound), ("l2", rep.l2_by_sign, l2_bound)):
                    cand = optimal_xi_perp(a, b, state, which, sign)
                    assert cand.bound_value == by_sign[i]
                    assert abs(by_sign[i] - reference(a, b, state, cand.vector, sign)) <= tol
            for cand, reference in ((rep.l1_candidate, l1_bound), (rep.l2_candidate, l2_bound)):
                assert abs(cand.bound_value - reference(a, b, state, cand.vector, cand.sign)) <= tol

    def test_stack_of_rows_matches_single_vectors(self):
        rng = np.random.default_rng(67)
        state, a, b = random_state(5, rng), random_observable(5, rng), random_observable(5, rng)
        perps = np.array([random_unit_in_complement(state, rng).vector for _ in range(4)])
        for reference in (l1_bound, l2_bound):
            for sign in (1, -1):
                stacked = reference(a, b, state, perps, sign)
                assert stacked.shape == (4,)
                for row, value in zip(perps, stacked):
                    assert value == pytest.approx(reference(a, b, state, row, sign), abs=1e-12)


class TestStackedReference:
    """`_reference_values` evaluates every (bound, sign) column in one product;
    `l1_bound`/`l2_bound` are views of its columns, so they agree exactly."""

    @pytest.mark.parametrize("dim", [2, 3, 8, 64])
    def test_rows_match_per_sign_calls(self, dim):
        rng = np.random.default_rng([79, dim])
        for _ in range(3):
            state, a, b = random_state(dim, rng), random_observable(dim, rng), random_observable(dim, rng)
            perps = np.array([random_unit_in_complement(state, rng).vector for _ in range(6)])
            for xi_perp in (perps[0], perps):
                stacked = _reference_values(a, b, state, xi_perp)
                assert stacked.shape == xi_perp.shape[:-1] + (len(REFERENCE_ROWS),)
                for column, (which, sign) in enumerate(REFERENCE_ROWS):
                    single = (l1_bound if which == "l1" else l2_bound)(a, b, state, xi_perp, sign)
                    assert np.shape(single) == xi_perp.shape[:-1]
                    np.testing.assert_array_equal(stacked[..., column], single)

    def test_rows_follow_bound_report_order(self):
        # at the analytic optimum each column reproduces the report's by-sign value
        rng = np.random.default_rng(83)
        state, a, b = random_state(5, rng), random_observable(5, rng), random_observable(5, rng)
        rep = bound_report(a, b, state)
        tol = 1e-12 * (1.0 + a.frobenius_norm() ** 2 + b.frobenius_norm() ** 2)
        by_sign = {"l1": rep.l1_by_sign, "l2": rep.l2_by_sign}
        for column, (which, sign) in enumerate(REFERENCE_ROWS):
            cand = optimal_xi_perp(a, b, state, which, sign)
            value = _reference_values(a, b, state, cand.vector)[column]
            assert abs(value - by_sign[which][(1 - sign) // 2]) <= tol
