import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from purbounds import bounds, verify
from purbounds.bounds import bound_report, optimal_xi_perp
from purbounds.instances import json_dumps, parse_instance
from purbounds.quantum import (
    MAX_DIM,
    TOL_EIG,
    DimensionMismatchError,
    Observable,
    QuantumState,
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
        # and a float or a bool is no dimension, even at an integral value in range
        for dim in (0, 1, 65, 1.0, -1.0, True, 3.0):
            with pytest.raises(ValueError):
                random_state(dim, 0)
            with pytest.raises(ValueError):
                random_observable(dim, 0)
        for dim in (0, 1, 65):
            message = rf"^dimension {dim} outside supported range \[2, 64\]$"
            with pytest.raises(ValueError, match=message):
                random_state(dim, 0)
            with pytest.raises(ValueError, match=message):
                random_observable(dim, 0)

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
        # a d = 1 state has an empty complement; it is refused when built, with the one range message
        with pytest.raises(ValueError, match=r"^dimension 1 outside supported range \[2, 64\]$"):
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

    def test_dimension_mismatch_is_the_references_check(self):
        # the search leaves the dimension check to l1_bound / l2_bound, which make it with the same message
        a, b = random_observable(3, 0), random_observable(3, 1)
        for which in ("l1", "l2"):
            with pytest.raises(DimensionMismatchError, match=r"^dimension mismatch: \(3, 3, 2\)$"):
                search_optimal_xi_perp(a, b, random_state(2, 0), which, 1, samples=3, seed=0)

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
        with pytest.raises(ValueError, match="^samples must be at least 1, got 0$"):
            search_optimal_xi_perp(pauli_x(), pauli_z(), state, "l1", 1, 0, 0)
        # in signature order, before any sample is drawn
        with pytest.raises(ValueError, match="^sign must be \\+1 or -1, got 2$"):
            search_optimal_xi_perp(pauli_x(), pauli_z(), state, "l1", 2, 0, 0)

    def test_best_vector_is_admissible(self):
        state = equatorial_state(1.7)
        res = search_optimal_xi_perp(pauli_x(), pauli_z(), state, "l1", -1, samples=50, seed=12)
        assert abs(np.vdot(state.vector, res.best_vector.vector)) < 1e-10
        assert res.samples_used == 50

    @pytest.mark.parametrize("samples", [True, 2.5, 10.0], ids=["bool", "fraction", "integral_float"])
    def test_non_integer_samples_rejected(self, samples):
        # numpy would raise TypeError on the sample shape, or read True as 1
        with pytest.raises(ValueError, match="samples must be an integer"):
            search_optimal_xi_perp(pauli_x(), pauli_z(), equatorial_state(0.4), "l1", 1, samples, 0)

    def test_numpy_integer_samples_stored_as_int(self):
        # and the lower bound, 1, is accepted
        for samples in (np.int64(7), 1):
            res = search_optimal_xi_perp(pauli_x(), pauli_z(), equatorial_state(0.4), "l2", 1, samples, 0)
            assert type(res.samples_used) is int and res.samples_used == samples


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

    def test_takes_no_cauchy_schwarz_product(self):
        # |u|^2 |v|^2 and |<u|v>|^2 would overflow, and the filter turns their warning into an error
        u, v = 1e100 * np.array([1.0, 2.0j]), 1e100 * np.array([0.5, 1.0j])
        assert check_parallelogram(u, v) <= 1e-10 * 6.25e200


class TestCheckCsi:
    def test_collinear_equality(self):
        u = np.array([1.0, 2.0j, -0.3])
        assert check_csi(u, 3j * u) == pytest.approx(0.0, abs=1e-12)

    def test_orthonormal_pair(self):
        assert check_csi(basis_state(2, 0), basis_state(2, 1)) == pytest.approx(1.0)

    def test_null_vector_is_satisfied(self):
        assert check_csi(np.zeros(3), np.ones(3)) == 0.0

    def test_each_operand_is_named(self):
        with pytest.raises(ValueError, match=r"^v must be a 1-D array, got shape \(1, 2\)$"):
            check_csi([1, 2], [[1, 2]])
        with pytest.raises(ValueError, match="^u must be finite$"):
            check_csi([np.inf, 2], [1, 2])

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

    def test_takes_no_parallelogram_norm(self):
        # |u + v|^2 would overflow in numpy, and the filter turns its warning into an error; the
        # product |u|^2 |v|^2 of Python floats reads inf without one
        u, v = np.array([1e154, 0.0]), np.array([0.0, 1e154])
        assert check_csi(u, v) == math.inf


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
        with pytest.raises(ValueError, match="^count must be at least 1, got 0$"):
            run_invariant_suite(count=0)
        # each integer is checked fully, type then bound, in signature order
        with pytest.raises(ValueError, match="^count must be at least 1, got 0$"):
            run_invariant_suite(count=0, seed=-1)
        for dim in (0, 1, 65):
            with pytest.raises(ValueError, match=rf"^dimension {dim} outside supported range \[2, 64\]$"):
                run_invariant_suite(count=1, dims=(dim,))
        with pytest.raises(ValueError):
            run_invariant_suite(count=1, dims=())
        with pytest.raises(ValueError):
            run_invariant_suite(count=1, tol=0.0)

    def test_each_dimension_takes_the_dimension_rule_once(self):
        # the integer rule and the range rule of each dimension in turn, with random_state's messages
        with pytest.raises(ValueError, match=r"^dim must be an integer, got 2\.9$"):
            run_invariant_suite(count=1, dims=(2, 2.9))
        for dim in (0, 1, 65):
            with pytest.raises(ValueError, match=rf"^dimension {dim} outside supported range \[2, 64\]$"):
                run_invariant_suite(count=1, dims=(dim, 2.9))

    def test_perp_samples_must_be_positive(self):
        with pytest.raises(ValueError, match="^perp_samples must be at least 1, got 0$"):
            run_invariant_suite(count=1, perp_samples=0)

    @pytest.mark.parametrize("seed", [-1, np.int64(-7)])
    def test_negative_seed_is_rejected_before_any_draw(self, monkeypatch, seed):
        def fail(*args):
            raise AssertionError("an instance was drawn before the seed was checked")

        monkeypatch.setattr(verify, "random_state", fail)
        with pytest.raises(ValueError, match=f"^seed must be at least 0, got {int(seed)}$"):
            run_invariant_suite(count=2, seed=seed)

    def test_rerun_gives_identical_json(self):
        # the same seed reproduces the report byte for byte, at every default dimension and MAX_DIM
        runs = [
            json_dumps(run_invariant_suite(count=12, dims=(2, 3, 4, 6, 8, 64), seed=17).to_dict())
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), float("-inf"), 0, -1e-9])
    def test_non_finite_tol_rejected(self, tol):
        # a NaN tolerance compares false with every slack and defect, so nothing could fail; zero and
        # negative ones are the same error
        message = f"tol must be a positive finite real number, got {tol!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
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
            {"perp_samples": 2.0},
            {"seed": 0.0},
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
            "integral_float_perp_samples",
            "integral_float_seed",
        ],
    )
    def test_non_integer_arguments_rejected(self, kwargs):
        # int() would run (2.9, 3.5) at (2, 3), and True would be written as "count": true
        with pytest.raises(ValueError, match="must be an integer"):
            run_invariant_suite(**{"count": 1, "perp_samples": 3, **kwargs})

    @pytest.mark.parametrize(
        "tol", [True, "1e-9", None, 1e-9j, "x"], ids=["bool", "str", "none", "complex", "word"]
    )
    def test_non_real_tol_rejected(self, tol):
        # True ran and was written as "tol": true; a string raised TypeError
        message = f"tol must be a positive finite real number, got {tol!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_invariant_suite(count=1, tol=tol)

    def test_numpy_float_tol_stored_as_float(self):
        # a float32 tol ran the whole suite, then failed to serialize
        report = run_invariant_suite(count=2, dims=(3,), perp_samples=4, tol=np.float32(1e-9))
        assert type(report.tol) is float and report.tol == float(np.float32(1e-9))
        assert json.loads(json_dumps(report.to_dict()))["tol"] == report.tol

    def test_numpy_integers_accepted(self):
        report = run_invariant_suite(count=np.int64(2), dims=(np.int64(3),), seed=np.int64(5), perp_samples=np.int64(4))
        assert json.loads(json_dumps(report.to_dict()))["count"] == 2
        assert report.dims == (3,)
        # each integer at its lower bound
        report = run_invariant_suite(count=1, dims=(2,), seed=0, perp_samples=1)
        assert (report.count, report.seed, report.perp_samples) == (1, 0, 1)

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


def assert_as_validated_state(state):
    """The vector is read-only and is what QuantumState builds from it, bit for bit."""
    vec = state.vector
    assert not vec.flags.writeable
    assert vec.tobytes() == QuantumState(vec).vector.tobytes()


def assert_as_validated_observable(obs):
    """The matrix is read-only and is what Observable builds from it, bit for bit, norm included."""
    again = Observable(obs.matrix)
    assert not obs.matrix.flags.writeable
    assert obs.matrix.tobytes() == again.matrix.tobytes()
    assert obs.frobenius_norm().hex() == again.frobenius_norm().hex()


class TestTrustedWraps:
    """Values the package builds itself are wrapped without re-validation. Each
    must be what the validating constructor would build from it."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_instances_at_every_dimension(self, seed):
        for dim in range(2, MAX_DIM + 1):
            state = random_state(dim, [seed, dim])
            assert_as_validated_state(state)
            obs = random_observable(dim, [seed, dim])
            assert_as_validated_observable(obs)
            # the same draw through the validating route stores the same bits
            g = verify._complex_normal(np.random.default_rng([seed, dim]), (dim, dim))
            assert obs.matrix.tobytes() == Observable(0.5 * (g + g.conj().T)).matrix.tobytes()
            assert_as_validated_state(random_unit_in_complement(state, seed))

    def test_suite_phased_states_and_candidates(self, monkeypatch):
        # the suite's one Maccone-Pati kernel call per instance has two rows: the state and its
        # phased copy; its one projection pass covers both rows, and its row 0 gives the state's
        # candidates and other-sign optima
        kernels, projections = [], []

        def recording_kernel(a, b, xi):
            kernels.append(xi)
            return bounds._kernel(a, b, xi)

        def recording_projections(k, coeffs):
            perps = bounds._unit_projections(k, coeffs)
            projections.append(perps)
            return perps

        monkeypatch.setattr(verify, "_kernel", recording_kernel)
        monkeypatch.setattr(verify, "_unit_projections", recording_projections)
        run_invariant_suite(count=2 * (MAX_DIM - 1), dims=tuple(range(2, MAX_DIM + 1)), perp_samples=2)
        assert len(kernels) == len(projections) == 2 * (MAX_DIM - 1)
        for xi, perps in zip(kernels, projections):
            assert xi.shape[0] == 2 and perps.shape == (2, 4, xi.shape[1])
            # the phased row, and each vector the reference is evaluated at, is what QuantumState
            # builds from it, bit for bit
            for vec in (xi[1], *perps[0]):
                assert vec.tobytes() == QuantumState(vec).vector.tobytes()

    @staticmethod
    def _candidates(a, b, state, perp):
        reports = [bound_report(a, b, state), bound_report(a, b, state, user_xi_perp=perp)]
        cands = [c for rep in reports for c in (rep.l1_candidate, rep.l2_candidate)]
        cands += [optimal_xi_perp(a, b, state, which, sign) for which in ("l1", "l2") for sign in (1, -1)]
        search = search_optimal_xi_perp(a, b, state, "l1", 1, samples=3, seed=0)
        return [c.vector for c in cands] + [search.best_vector]

    @pytest.mark.parametrize("dim", [2, 3, 8, 64])
    def test_analytic_and_user_candidates(self, dim):
        for seed in range(3):
            rng = np.random.default_rng([seed, dim])
            state, a, b = random_state(dim, rng), random_observable(dim, rng), random_observable(dim, rng)
            for cand in self._candidates(a, b, state, random_unit_in_complement(state, rng)):
                assert_as_validated_state(cand)

    @pytest.mark.parametrize("dim", [2, 4, 64])
    def test_null_projection_fallback_candidates(self, dim):
        # a common eigenvector: every projection is null, every candidate the e_k fallback
        state = basis_state(dim, dim - 1)
        a = Observable(np.diag(np.arange(1.0, dim + 1.0)).astype(complex))
        b = Observable(np.diag(np.linspace(-1.0, 2.0, dim)).astype(complex))
        rep = bound_report(a, b, state)
        assert rep.common_eigenvector
        np.testing.assert_array_equal(rep.l1_candidate.vector.vector, basis_state(dim, 0).vector)
        for cand in self._candidates(a, b, state, basis_state(dim, 0)):
            assert_as_validated_state(cand)

    @pytest.mark.parametrize("scale", [1e70, 1e80, 1e100, 1e150])
    def test_candidates_at_large_operand_scale(self, scale):
        rng = np.random.default_rng([53, 4])
        state = random_state(4, rng)
        a, b = (Observable(scale * random_observable(4, rng).matrix) for _ in range(2))
        perp = random_unit_in_complement(state, rng)
        cands = [optimal_xi_perp(a, b, state, w, s).vector for w in ("l1", "l2") for s in (1, -1)]
        try:
            cands = self._candidates(a, b, state, perp)
        except ValueError as exc:
            # past the report's scale limit only optimal_xi_perp has candidates
            assert "operand scale" in str(exc) and scale > 1e70
        for cand in cands:
            assert_as_validated_state(cand)


class TestCheckInstanceRoutes:
    """The suite's rows read private array forms and shared products; each value
    must equal, bit for bit, what the public routes compute on the same instance."""

    @pytest.mark.parametrize("dim", [2, 3, 8, 64])
    def test_rows_equal_public_routes_by_hex(self, dim):
        for index in range(4):
            # the suite's draw order
            rng = np.random.default_rng([31, dim, index])
            state, a, b = random_state(dim, rng), random_observable(dim, rng), random_observable(dim, rng)
            perps = verify._complement_samples(state, 20, rng)
            theta = 2.0 * np.pi * rng.random()
            _, slacks, defects, candidate_l2 = verify._check_instance(state, a, b, perps, theta)

            rep = bound_report(a, b, state)
            psi, phi = deviation_vector(a, state), deviation_vector(b, state)
            # the suite's reference rows: the samples, the report's two candidates, then the
            # other sign's optimum of each bound
            cands = (rep.l1_candidate, rep.l2_candidate)
            others = [optimal_xi_perp(a, b, state, which, -cand.sign) for which, cand in zip(("l1", "l2"), cands)]
            rows = np.concatenate((perps, [c.vector.vector for c in cands + tuple(others)]))
            l1 = np.stack([l1_bound(a, b, state, rows, s) for s in (1, -1)], axis=1)
            l2 = np.stack([l2_bound(a, b, state, rows, s) for s in (1, -1)], axis=1)
            attained = []
            for k, (values, bound, cand, by_sign) in enumerate(
                ((l1, rep.l1, cands[0], rep.l1_by_sign), (l2, rep.l2, cands[1], rep.l2_by_sign))
            ):
                column = (1 - cand.sign) // 2
                best, other = values[-4 + k, column], values[-2 + k, 1 - column]
                gaps = (best - bound, best - cand.bound_value, best - by_sign[column], other - by_sign[1 - column])
                attained.append(max(abs(float(gap)) for gap in gaps))
            # the nontriviality record's value: the reference's l2 at the report's l2 candidate
            assert candidate_l2.hex() == float(l2[-3, (1 - cands[1].sign) // 2]).hex()
            l1, l2 = l1[:-4], l2[:-4]
            xi = state.vector
            sigma = 2.0 * np.sqrt(rep.var_a) * np.sqrt(rep.var_b)
            phased = bound_report(a, b, QuantumState(np.exp(1j * theta) * xi))
            # the HRSUR values from the plain images A|xi> and B|xi>, one inner product at a time
            ax, bx = a.matrix @ xi, b.matrix @ xi
            mean_a, mean_b = np.vecdot(xi, ax).real, np.vecdot(xi, bx).real
            var_a, var_b = np.vecdot(ax, ax).real - mean_a * mean_a, np.vecdot(bx, bx).real - mean_b * mean_b
            cov = np.vecdot(ax, bx) - mean_a * mean_b
            t2 = 2.0 * abs(cov.imag)
            hrsur = {
                "var_a": var_a, "var_b": var_b, "sum_var": var_a + var_b, "covq": cov.real,
                "prod_var": var_a * var_b, "t1": cov.real * cov.real + t2 * t2 / 4, "t2": t2,
            }
            expected_slacks = (
                rep.prod_var - rep.t1,
                sigma - rep.t2,
                check_csi(psi, phi),
                float((rep.sum_var - l1).min()),
                float((rep.sum_var - l2).min()),
                float((np.array(rep.l1_by_sign) - l1).min()),
                float((np.array(rep.l2_by_sign) - l2).min()),
            )
            expected_defects = (
                check_parallelogram(psi, phi),
                attained[1],
                attained[0],
                max(abs(getattr(rep, name) - value) for name, value in hrsur.items()),
                max(abs(getattr(rep, n) - getattr(phased, n)) for n in ("var_a", "var_b", "t1", "t2", "l1", "l2", "mpur")),
            )
            for names, row, expected in ((SLACK_CHECKS, slacks, expected_slacks), (DEFECT_CHECKS, defects, expected_defects)):
                for name, value, public in zip(names, row, expected):
                    assert float(value).hex() == float(public).hex(), name


class TestOnePassInstance:
    """Each suite instance makes one kernel call (the state and its phased copy) and one
    projection pass (its candidates and the other signs' optima), and nothing else does."""

    def test_one_kernel_call_and_one_projection_pass_per_instance(self, monkeypatch):
        calls = []

        def counted(name, original):
            def wrapper(*args):
                calls.append(name)
                return original(*args)

            return wrapper

        for name in ("_kernel", "_unit_projections"):
            wrapper = counted(name, getattr(bounds, name))
            monkeypatch.setattr(bounds, name, wrapper)
            monkeypatch.setattr(verify, name, wrapper)
        dims = (2, 3, 8, 64)
        report = run_invariant_suite(count=3 * len(dims), dims=dims, perp_samples=5)
        assert report.passed
        assert calls == ["_kernel", "_unit_projections"] * 12


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
            # the analytic by-sign values are closed forms: each must be attained at a vector,
            # the maximizing sign at the report's candidate, the other at its own optimum
            for which, cand, by_sign, reference in (
                ("l1", rep.l1_candidate, rep.l1_by_sign, l1_bound),
                ("l2", rep.l2_candidate, rep.l2_by_sign, l2_bound),
            ):
                column = (1 - cand.sign) // 2
                assert cand.bound_value == by_sign[column]
                assert abs(by_sign[column] - reference(a, b, state, cand.vector, cand.sign)) <= tol
                other = optimal_xi_perp(a, b, state, which, -cand.sign)
                assert other.bound_value == by_sign[1 - column]
                assert abs(by_sign[1 - column] - reference(a, b, state, other.vector, -cand.sign)) <= tol

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
                stacked = _reference_values(a, b, state, xi_perp)[0]
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
            value = _reference_values(a, b, state, cand.vector)[0][column]
            assert abs(value - by_sign[which][(1 - sign) // 2]) <= tol


class TestReroutedChecksFire:
    """The suite reads the two values rows of its 2-row kernel call (state, phased state), the
    vectors of one projection pass, and the reference's HRSUR values from A|xi> and B|xi>: a kernel
    that breaks an invariance, or a value or vector off its optimum or off the reference, fails."""

    @staticmethod
    def _patch_both(monkeypatch, name, patched):
        # bound_report looks the function up in bounds, the suite in verify
        monkeypatch.setattr(bounds, name, patched)
        monkeypatch.setattr(verify, name, patched)

    @staticmethod
    def _failed_checks():
        report = run_invariant_suite(count=8, dims=(2, 8, 64))
        return {v["check"] for v in report.violations}

    # planted values-row defects, as (field, the planted value from the row's value and the kernel record); the
    # operand-order rows shift a field only where |A|_F > |B|_F. No other check fires on the t1 x 0.9, t2 x 0.9,
    # prod_var x 1.1 and covq x -1 rows: each moves a one-sided inequality to its safe side or flips a sign
    PLANTED_ROWS = {
        "t1_x0.9": ("t1", lambda value, k: 0.9 * value),
        "t2_x0.9": ("t2", lambda value, k: 0.9 * value),
        "prod_var_x1.1": ("prod_var", lambda value, k: 1.1 * value),
        "t2_x1.1": ("t2", lambda value, k: 1.1 * value),
        "var_a_x1.01": ("var_a", lambda value, k: 1.01 * value),
        "covq_x-1": ("covq", lambda value, k: -value),
        "sum_var_x0.99": ("sum_var", lambda value, k: 0.99 * value),
        "t1_operand_order": ("t1", lambda value, k: value + 1.0 if k.norms[0] > k.norms[1] else value),
        "t2_operand_order": ("t2", lambda value, k: value + 1.0 if k.norms[0] > k.norms[1] else value),
    }

    @pytest.mark.parametrize("plant", PLANTED_ROWS)
    def test_planted_row_defect_fires_hrsur_values(self, monkeypatch, plant):
        name, planted = self.PLANTED_ROWS[plant]
        original = bounds._value_rows

        def defective(k, user_xi_perp=None):
            return [row._replace(**{name: planted(getattr(row, name), k)}) for row in original(k, user_xi_perp)]

        self._patch_both(monkeypatch, "_value_rows", defective)
        assert "hrsur_values" in self._failed_checks()

    def test_phase_dependence_fires_phase_invariance(self, monkeypatch):
        original = bounds._value_rows

        def phase_dependent(k, user_xi_perp=None):
            rows = original(k, user_xi_perp)
            return [row._replace(l1=row.l1 + abs(xi[0].imag)) for row, xi in zip(rows, k.xi)]

        self._patch_both(monkeypatch, "_value_rows", phase_dependent)
        assert "phase_invariance" in self._failed_checks()

    def test_common_eigenvector_flag_with_positive_mpur_fires_nontriviality_converse(self, monkeypatch):
        # every drawn instance has mpur > tol, so a values row that also reads common_eigenvector must fire
        original = bounds._value_rows

        def flagged(k, user_xi_perp=None):
            return [row._replace(common_eigenvector=True) for row in original(k, user_xi_perp)]

        self._patch_both(monkeypatch, "_value_rows", flagged)
        assert "nontriviality_converse" in self._failed_checks()

    def test_l2_candidate_off_its_optimum_fires_nontriviality(self, monkeypatch):
        # the l2(+) vector turned orthogonal to its own direction psi - i phi, in the complement: the
        # reference's l2(+) there is i<[A,B]> = -2 Im Cov(A,B), at most 0 on about half the instances, while
        # the row's l2 stays Var(A) + Var(B). At d = 2 the complement is one phase circle and has no such vector
        original = bounds._unit_projections

        def orthogonal_l2_plus(k, coeffs):
            perps = original(k, coeffs)
            if k.xi.shape[-1] > 2:
                u, w = perps[:, 2], perps[:, 0]
                v = w - np.vecdot(u, w)[:, None] * u
                perps[:, 2] = v / np.linalg.norm(v, axis=-1, keepdims=True)
            return perps

        monkeypatch.setattr(verify, "_unit_projections", orthogonal_l2_plus)
        assert "nontriviality" in self._failed_checks()

    def test_l2_candidate_just_below_tol_fires_nontriviality(self, monkeypatch):
        # the reference's l2 at the row's own l2 candidate planted at 0.75 tol, while every drawn instance
        # has a variance far above tol: the record fires, so a threshold of tol / 2 fails
        tol = verify.DEFAULT_SUITE_TOL
        original = verify._reference_values

        def planted(a, b, state, xi_perp):
            reference, *rest = original(a, b, state, xi_perp)
            # the last four rows are the four directions' vectors; l2(+) and l2(-) are its columns 2 and 3
            reference[-2, 2] = reference[-1, 3] = 0.75 * tol
            return reference, *rest

        monkeypatch.setattr(verify, "_reference_values", planted)
        records = [v for v in run_invariant_suite(count=8, dims=(2, 8, 64)).violations if v["check"] == "nontriviality"]
        assert len(records) == 8
        assert all(v["defect"] > tol for v in records)

    def test_non_hermitian_trusted_observable_fails_the_suite(self, monkeypatch):
        original = verify._trusted_observable

        def non_hermitian(g):
            # A + i eps I, past Observable's Hermiticity check: no evaluation re-checks it. The kernel's
            # Im<psi|phi> does not move, as psi and phi each gain i eps xi, while the reference's
            # Im<Ax|Bx> moves by eps_B <A> - eps_A <B>, and its t2 with it
            obs = original(g)
            eps = 0.5 * TOL_EIG * (1.0 + obs.frobenius_norm())
            object.__setattr__(obs, "matrix", obs.matrix + 1j * eps * np.eye(obs.dim))
            return obs

        monkeypatch.setattr(verify, "_trusted_observable", non_hermitian)
        assert "hrsur_values" in self._failed_checks()

    def test_candidate_off_its_optimum_fires_tightness(self, monkeypatch):
        # each l2 direction carries the l1 vector of its sign: the reported l2 stays Var(A) + Var(B), so
        # only the reference at the candidate can see it
        original = bounds._unit_projections

        def swapped_candidates(k, coeffs):
            # the directions in table order (l1(+), l1(-), l2(+), l2(-)): both l2 vectors read the l1 ones
            perps = original(k, coeffs)
            perps[:, 2:] = perps[:, :2]
            return perps

        monkeypatch.setattr(verify, "_unit_projections", swapped_candidates)
        assert "tightness_l2" in self._failed_checks()

    def test_value_off_the_attained_one_fires_l1_identity(self, monkeypatch):
        original = bounds._value_rows

        def bumped(k, user_xi_perp=None):
            return [row._replace(l1=row.l1 + 1e-6) for row in original(k, user_xi_perp)]

        monkeypatch.setattr(verify, "_value_rows", bumped)
        assert "l1_identity" in self._failed_checks()

    def test_losing_l1_sign_off_its_optimum_fires_l1_identity(self, monkeypatch):
        # l1(-1) reads l1(+1): the signs tie to +1, the candidate and the reported l1 still
        # match the reference, and only the other sign's entry is off its optimum
        original = bounds._optimum_values

        def losing_l1_off(var_a, var_b, covq):
            (l1_plus, _), l2 = original(var_a, var_b, covq)
            return (l1_plus, l1_plus), l2

        monkeypatch.setattr(bounds, "_optimum_values", losing_l1_off)
        assert "l1_identity" in self._failed_checks()

    def test_losing_l2_sign_off_its_optimum_fires_tightness(self, monkeypatch):
        original = bounds._optimum_values

        def losing_l2_off(var_a, var_b, covq):
            l1, (l2_plus, _) = original(var_a, var_b, covq)
            return l1, (l2_plus, l2_plus + 1e-6)

        monkeypatch.setattr(bounds, "_optimum_values", losing_l2_off)
        assert "tightness_l2" in self._failed_checks()

    def test_unpatched_kernel_passes(self):
        assert self._failed_checks() == set()
