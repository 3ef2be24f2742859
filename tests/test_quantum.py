import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from purbounds.bounds import _checked_perp, bound_report, optimal_xi_perp
from purbounds.montecarlo import statistical_bound_check
from purbounds.quantum import (
    RENORM_WINDOW,
    TOL_EIG,
    DimensionMismatchError,
    EigensolverError,
    EmptyComplementError,
    HermiticityError,
    NormalizationError,
    NullVectorError,
    Observable,
    QuantumState,
    basis_state,
    commutator_mean,
    deviation_vector,
    equatorial_state,
    expectation,
    hermitian_eigensystem,
    normalize,
    pauli_x,
    pauli_z,
    _MAX_ENTRY,
    _norm,
    _project,
    variance,
)
from purbounds.verify import (
    _complement_samples,
    _complex_normal,
    random_state,
    random_unit_in_complement,
    search_optimal_xi_perp,
)

ALPHAS = [0.0, 0.3, np.pi / 4, np.pi / 3, 1.1, np.pi / 2, 2.5, np.pi, 4.0, 5.9]


def perp_of(alpha):
    return np.array([1.0, -np.exp(1j * alpha)], dtype=complex) / np.sqrt(2.0)


def complex_vectors(dim, max_mag=10.0):
    return arrays(
        np.float64,
        (2 * dim,),
        elements=st.floats(min_value=-max_mag, max_value=max_mag, allow_nan=False),
    ).map(lambda x: x[:dim] + 1j * x[dim:])


class TestQuantumState:
    def test_renormalizes_benign_noise(self):
        state = QuantumState(np.array([1.0 + 3e-7, 0.0], dtype=complex))
        assert _norm(state.vector) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_far_from_unit(self):
        with pytest.raises(NormalizationError):
            QuantumState(np.array([2.0, 0.0], dtype=complex))

    def test_global_phase_kept(self):
        phase = np.exp(1j * 0.7)
        state = QuantumState(phase * basis_state(2, 0).vector)
        assert state.vector[0] == pytest.approx(phase)

    def test_vector_is_read_only(self):
        state = basis_state(3, 1)
        with pytest.raises(ValueError):
            state.vector[0] = 1.0

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            QuantumState(np.array([np.nan, 0.0], dtype=complex))

    def test_rejects_oversized_dimension(self):
        vec = np.zeros(65, dtype=complex)
        vec[0] = 1.0
        with pytest.raises(ValueError):
            QuantumState(vec)

    @pytest.mark.parametrize("dim, index", [(2.0, 0), (2, 1.0), (True, 0), (2, True), (2, -1), (2, 2)])
    def test_basis_state_rejects_non_integer_or_out_of_range(self, dim, index):
        with pytest.raises(ValueError):
            basis_state(dim, index)


class TestNormKernel:
    """`_norm` stands in for np.linalg.norm in every validation, so it must agree bit for bit."""

    @pytest.mark.parametrize("dim", range(1, 65))
    def test_matches_numpy_bit_for_bit(self, dim):
        rng = np.random.default_rng([5, dim])
        for scale in (1.0, 1e-3, 1e3, 1e-160, 1e160):
            vec = scale * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
            mat = scale * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
            # contiguous inputs and the strided views numpy flattens in memory order
            for x in (vec, vec[::-1], vec[::2], mat, mat.T, mat.conj().T, mat[:, ::-1]):
                with np.errstate(over="ignore"):  # 1e160 overflows to inf in both
                    assert _norm(x).hex() == float(np.linalg.norm(x)).hex()


# (input, exception class, message) as raised before the validation rewrite
BAD_STATES = {
    "nan": ([np.nan, 0.0], ValueError, "vector contains non-finite entries"),
    "inf": ([np.inf, 0.0], ValueError, "vector contains non-finite entries"),
    "neg_inf_imag": ([1.0, complex(0.0, -np.inf)], ValueError, "vector contains non-finite entries"),
    "nan_imag": ([complex(1.0, np.nan), 0.0], ValueError, "vector contains non-finite entries"),
    "nan_oversized": ([np.nan] + [0.0] * 64, ValueError, "vector contains non-finite entries"),
    "matrix": ([[1.0, 0.0]], ValueError, "expected a 1-D vector, got shape (1, 2)"),
    "scalar": (1.0, ValueError, "expected a 1-D vector, got shape ()"),
    "empty": ([], ValueError, "state dimension 0 outside supported range [1, 64]"),
    "oversized": ([1.0] + [0.0] * 64, ValueError, "state dimension 65 outside supported range [1, 64]"),
    "norm_two": ([2.0, 0.0], NormalizationError, "state norm 2.0 differs from 1 by more than 1e-06"),
    "norm_above_window": ([1.0 + 2e-6, 0.0], NormalizationError, "state norm 1.000002 differs from 1 by more than 1e-06"),
    "norm_below_window": ([0.0, 1.0 - 2e-6], NormalizationError, "state norm 0.999998 differs from 1 by more than 1e-06"),
    "zero": ([0.0, 0.0], NormalizationError, "state norm 0.0 differs from 1 by more than 1e-06"),
    "norm_overflow": ([1e200, 1e200], NormalizationError, "state norm inf differs from 1 by more than 1e-06"),
}

BAD_OBSERVABLES = {
    "nan": ([[np.nan, 0.0], [0.0, 1.0]], ValueError, "observable contains non-finite entries"),
    "inf_imag": (
        [[1.0, complex(0.0, np.inf)], [complex(0.0, -np.inf), 1.0]], ValueError,
        "observable contains non-finite entries",
    ),
    "vector": ([1.0, 0.0], ValueError, "observable must be a square matrix, got shape (2,)"),
    "non_square": (np.zeros((2, 3)), ValueError, "observable must be a square matrix, got shape (2, 3)"),
    "rank3": (np.zeros((2, 2, 2)), ValueError, "observable must be a square matrix, got shape (2, 2, 2)"),
    "empty": (np.zeros((0, 0)), ValueError, "observable dimension 0 outside supported range [1, 64]"),
    "oversized": (np.eye(65), ValueError, "observable dimension 65 outside supported range [1, 64]"),
    "oversized_nan": (np.full((65, 65), np.nan), ValueError, "observable dimension 65 outside supported range [1, 64]"),
    "anti_hermitian": (
        [[0.0, 1j], [1j, 0.0]], HermiticityError, "Hermiticity defect 2.000e+00 exceeds 1.0e-10 * 2.000e+00",
    ),
    "defect_above_tol": (
        [[1.0, 1e-6], [0.0, 1.0]], HermiticityError,
        "Hermiticity defect 1.000e-06 exceeds 1.0e-10 * 2.000e+00",
    ),
    "scaled_defect": (
        [[100.0, 1e-7], [0.0, 0.0]], HermiticityError,
        "Hermiticity defect 1.000e-07 exceeds 1.0e-10 * 1.010e+02",
    ),
    # M + M^dagger would overflow to inf
    "entry_overflow": ([[1.7e308, 0.0], [0.0, 1.0]], ValueError, "observable entry modulus 1.700e+308 exceeds 1.481e+152"),
    # finite once symmetrized, but the squared Frobenius norm would overflow
    "norm_overflow": ([[1e300, 0.0], [0.0, 1.0]], ValueError, "observable entry modulus 1.000e+300 exceeds 1.481e+152"),
    # the modulus itself overflows to inf
    "modulus_overflow": (
        [[0.0, complex(1.5e308, 1.5e308)], [complex(1.5e308, -1.5e308), 0.0]], ValueError,
        "observable entry modulus inf exceeds 1.481e+152",
    ),
}


class TestValidationErrors:
    @pytest.mark.parametrize("name", BAD_STATES)
    def test_state_error_class_and_message(self, name):
        vec, cls, message = BAD_STATES[name]
        with pytest.raises(cls) as info, np.errstate(over="ignore"):
            QuantumState(np.asarray(vec, dtype=complex))
        assert type(info.value) is cls
        assert str(info.value) == message

    @pytest.mark.parametrize("name", BAD_OBSERVABLES)
    def test_observable_error_class_and_message(self, name):
        mat, cls, message = BAD_OBSERVABLES[name]
        with pytest.raises(cls) as info:
            Observable(mat)
        assert type(info.value) is cls
        assert str(info.value) == message

    def test_large_entries_accepted_with_finite_norm(self):
        obs = Observable([[1e150, 0.0], [0.0, 1.0]])
        assert obs.matrix[0, 0] == 1e150
        assert obs.frobenius_norm() == pytest.approx(1e150, rel=1e-15)
        # the limit holds at the largest dimension, with every entry at it
        assert np.isfinite(Observable(np.full((64, 64), _MAX_ENTRY)).frobenius_norm())

    def test_window_edges_accepted(self):
        for nrm in (1.0 + 0.5 * RENORM_WINDOW, 1.0 - 0.5 * RENORM_WINDOW):
            state = QuantumState(np.array([nrm, 0.0], dtype=complex))
            assert abs(state.vector[0] - 1.0) <= 1e-15


class TestInnerProductAndNorm:
    def test_orthonormal_basis(self):
        assert np.vdot(basis_state(2, 0).vector, basis_state(2, 1).vector) == 0

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_state_orthogonal_to_its_complement_vector(self, alpha):
        assert abs(np.vdot(equatorial_state(alpha).vector, perp_of(alpha))) < 1e-15

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_state_normalized(self, alpha):
        vec = equatorial_state(alpha).vector
        assert np.vdot(vec, vec) == pytest.approx(1.0)

    def test_norm_of_plus(self):
        assert _norm(np.array([1.0, 1.0], dtype=complex)) == pytest.approx(np.sqrt(2.0))

    def test_normalize_scaling(self):
        state = normalize(2.0 * basis_state(2, 0).vector)
        np.testing.assert_allclose(state.vector, basis_state(2, 0).vector)

    def test_normalize_null_rejected(self):
        with pytest.raises(NullVectorError):
            normalize(np.zeros(3))

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_deviation_norm_squared_is_variance(self, alpha):
        # the squared norm of the centered image vector is the variance
        state = equatorial_state(alpha)
        dev = deviation_vector(pauli_x(), state)
        assert _norm(dev) ** 2 == pytest.approx(variance(pauli_x(), state), abs=1e-13)

    @given(complex_vectors(4), complex_vectors(4))
    @settings(max_examples=60, deadline=None)
    def test_conjugate_symmetry(self, u, v):
        assert np.vdot(u, v) == pytest.approx(np.conj(np.vdot(v, u)))


class TestValidateHermitian:
    def test_pauli_x_accepted(self):
        obs = Observable([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(obs.matrix, pauli_x().matrix)

    def test_anti_hermitian_rejected(self):
        with pytest.raises(HermiticityError):
            Observable([[0.0, 1.0j], [1.0j, 0.0]])

    def test_tiny_defect_accepted_and_symmetrized(self):
        obs = Observable([[1.0, 1e-14j], [0.0, 2.0]])
        defect = np.max(np.abs(obs.matrix - obs.matrix.conj().T))
        assert defect == 0.0
        # symmetrization averages the off-diagonal pair
        assert obs.matrix[0, 1] == pytest.approx(0.5e-14j + 0.0)

    def test_symmetrizing_keeps_signed_zeros(self):
        # halving by a complex multiply, 0.5 * z, would turn these -0.0 real parts into +0.0
        obs = Observable([[1.0, complex(-0.0, 1e-300)], [complex(-0.0, -1e-300), 2.0]])
        assert np.signbit(obs.matrix[[0, 1], [1, 0]].real).all()
        assert Observable(obs.matrix).matrix.tobytes() == obs.matrix.tobytes()

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            Observable(np.zeros((2, 3)))


class TestExpectation:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_z_mean_zero(self, alpha):
        assert expectation(pauli_z(), equatorial_state(alpha)) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_x_mean_cosine(self, alpha):
        assert expectation(pauli_x(), equatorial_state(alpha)) == pytest.approx(np.cos(alpha), abs=1e-14)

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_identity_mean_one(self, dim):
        state = normalize(np.arange(1, dim + 1, dtype=complex) + 0.5j)
        assert expectation(Observable(np.eye(dim)), state) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            expectation(pauli_z(), basis_state(3, 0))


class TestDeviationVector:
    def test_eigenvector_gives_zero(self):
        np.testing.assert_allclose(deviation_vector(pauli_z(), basis_state(2, 0)), np.zeros(2))

    def test_x_on_ground_state(self):
        # oracle: X|0> = |1>, <X> = 0, so the centered image is |1>
        np.testing.assert_allclose(deviation_vector(pauli_x(), basis_state(2, 0)), [0.0, 1.0])

    def test_orthogonal_to_state(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            state = normalize(rng.standard_normal(4) + 1j * rng.standard_normal(4))
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            a = Observable(0.5 * (g + g.conj().T))
            overlap = np.vdot(state.vector, deviation_vector(a, state))
            assert abs(overlap) < 1e-12 * (1.0 + a.frobenius_norm())


class TestVariance:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_z_variance_one(self, alpha):
        assert variance(pauli_z(), equatorial_state(alpha)) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_x_variance_sin_squared(self, alpha):
        assert variance(pauli_x(), equatorial_state(alpha)) == pytest.approx(np.sin(alpha) ** 2, abs=1e-14)

    def test_eigenvector_variance_clamped_to_zero(self):
        assert variance(pauli_z(), basis_state(2, 0)) == 0.0
        assert variance(pauli_x(), equatorial_state(0.0)) >= 0.0


class TestCovariance:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_covq_xz_zero(self, alpha):
        assert bound_report(pauli_x(), pauli_z(), equatorial_state(alpha)).covq == pytest.approx(0.0, abs=1e-14)

    def test_covq_self_is_variance(self):
        state = equatorial_state(0.9)
        assert bound_report(pauli_x(), pauli_x(), state).covq == pytest.approx(
            variance(pauli_x(), state), abs=1e-14
        )

    def test_commuting_diagonal_pair(self):
        # direct 2x2 oracle: A=diag(1,-1), B=diag(2,0) commute; on |+> both
        # covariances are real and equal (Cov = CovQ = 1)
        a = Observable(np.diag([1.0, -1.0]).astype(complex))
        b = Observable(np.diag([2.0, 0.0]).astype(complex))
        plus = normalize(np.array([1.0, 1.0]))
        cov = np.vdot(deviation_vector(a, plus), deviation_vector(b, plus))
        covq = bound_report(a, b, plus).covq
        assert cov.imag == pytest.approx(0.0, abs=1e-15)
        assert cov.real == pytest.approx(1.0, abs=1e-14)
        assert covq == pytest.approx(cov.real, abs=1e-14)


class TestCommutatorMeans:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_xz_commutator_mean(self, alpha):
        state = equatorial_state(alpha)
        mean = commutator_mean(pauli_x(), pauli_z(), state)
        assert mean == pytest.approx(-2j * np.sin(alpha), abs=1e-14)
        assert abs(mean) ** 2 == pytest.approx(4.0 * np.sin(alpha) ** 2, abs=1e-13)

    def test_self_commutator_vanishes(self):
        assert commutator_mean(pauli_x(), pauli_x(), equatorial_state(1.3)) == 0

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_zx_product_mean(self, alpha):
        # <ZX> recovered as Cov(Z, X) + <Z><X>
        state = equatorial_state(alpha)
        cov = np.vdot(deviation_vector(pauli_z(), state), deviation_vector(pauli_x(), state))
        zx = cov + expectation(pauli_z(), state) * expectation(pauli_x(), state)
        assert zx == pytest.approx(1j * np.sin(alpha), abs=1e-14)

    def test_real_part_guard(self):
        # a stored A = |0><1|, past the constructor's Hermiticity check: <+|[A, Z]|+> = -1, a real mean
        a = object.__new__(Observable)
        object.__setattr__(a, "matrix", np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
        object.__setattr__(a, "_frobenius", 1.0)
        with pytest.raises(HermiticityError, match=r"commutator mean has real part -1\.000e\+00; inputs not Hermitian"):
            commutator_mean(a, pauli_z(), equatorial_state(0.0))

    def test_purity_of_phase(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            state = normalize(rng.standard_normal(6) + 1j * rng.standard_normal(6))
            mats = []
            for _ in range(2):
                g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
                mats.append(Observable(0.5 * (g + g.conj().T)))
            a, b = mats
            tol = 1e-12 * (1.0 + a.frobenius_norm() * b.frobenius_norm())
            assert abs(commutator_mean(a, b, state).real) < tol
            xi = state.vector
            anticommutator = np.vdot(xi, a.matrix @ (b.matrix @ xi)) + np.vdot(xi, b.matrix @ (a.matrix @ xi))
            assert abs(anticommutator.imag) < tol


def gram_schmidt_complement(state: QuantumState) -> np.ndarray:
    """Reference: modified Gram-Schmidt with re-orthogonalization, as rows.

    Completes the state with standard basis vectors in ascending order,
    skipping the one of largest overlap modulus.
    """
    d = state.dim
    skip = int(np.argmax(np.abs(state.vector)))
    accepted = [state.vector]
    for j in range(d):
        if j == skip:
            continue
        v = np.zeros(d, dtype=complex)
        v[j] = 1.0
        for _ in range(2):
            for b in accepted:
                v = v - np.vdot(b, v) * b
        accepted.append(v / np.linalg.norm(v))
    return np.array(accepted[1:])


def _haar(rng, d):
    return normalize(rng.standard_normal(d) + 1j * rng.standard_normal(d))


def _reference_inputs():
    rng = np.random.default_rng(2024)
    cases = [(f"haar-d{d}-{k}", _haar(rng, d)) for d in (2, 3, 4, 8, 16, 64) for k in range(5)]
    cases += [(f"basis-d{d}-{i}", basis_state(d, i)) for d in (2, 5, 64) for i in range(d)]
    cases += [(f"equatorial-{alpha:.3f}", equatorial_state(alpha)) for alpha in ALPHAS]
    cases += [(f"uniform-d{d}", QuantumState(np.full(d, 1.0 / np.sqrt(d), dtype=complex))) for d in (2, 3, 8, 64)]
    zeros = np.zeros(8, dtype=complex)
    zeros[[1, 4, 6]] = [0.6, 0.64j, -0.48]
    cases.append(("exact-zeros-d8", QuantumState(zeros)))
    tiny = _haar(rng, 16).vector.copy()
    tiny[3] = 1e-8
    tiny[[5, 9]] = 0.0
    cases.append(("near-zero-d16", normalize(tiny)))
    return cases


REFERENCE_INPUTS = _reference_inputs()


def fallback_vector(state: QuantumState) -> np.ndarray:
    """The null-projection fallback of `optimal_xi_perp`: zero observables null every projection."""
    zero = Observable(np.zeros((state.dim, state.dim)))
    return optimal_xi_perp(zero, zero, state, "l1", 1).vector.vector


class TestComplementBasis:
    """The complement of a state without a stored basis, against the Gram-Schmidt
    basis built here: the null-projection fallback is its first row, and the
    sampled rows are unit vectors in its span."""

    def test_ground_state_complement(self):
        excited = basis_state(2, 1).vector
        assert abs(np.vdot(fallback_vector(basis_state(2, 0)), excited)) == pytest.approx(1.0)
        (vec,) = _complement_samples(basis_state(2, 0), 1, np.random.default_rng(0))
        assert abs(np.vdot(vec, excited)) == pytest.approx(1.0)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_equatorial_complement_collinear_with_unique_direction(self, alpha):
        state = equatorial_state(alpha)
        for vec in (fallback_vector(state), *_complement_samples(state, 3, np.random.default_rng(1))):
            assert abs(np.vdot(vec, perp_of(alpha))) == pytest.approx(1.0, abs=1e-12)

    def test_random_d5_gram_identity(self):
        # each sample's coordinates in the reference basis have unit norm, so it lies in its span
        rng = np.random.default_rng(17)
        for _ in range(10):
            state = normalize(rng.standard_normal(5) + 1j * rng.standard_normal(5))
            samples = _complement_samples(state, 20, rng)
            assert samples.shape == (20, 5)
            coords = samples @ gram_schmidt_complement(state).conj().T
            np.testing.assert_allclose(np.linalg.norm(coords, axis=1), 1.0, atol=1e-10)
            assert np.max(np.abs(samples @ state.vector.conj())) < 1e-10

    def test_deterministic(self):
        state = equatorial_state(2.2)
        np.testing.assert_array_equal(fallback_vector(state), fallback_vector(state))
        first = _complement_samples(state, 5, np.random.default_rng(7))
        second = _complement_samples(state, 5, np.random.default_rng(7))
        np.testing.assert_array_equal(first, second)

    def test_empty_complement(self):
        with pytest.raises(EmptyComplementError):
            _complement_samples(QuantumState(np.array([1.0 + 0j])), 1, np.random.default_rng(0))

    @pytest.mark.parametrize("name,state", REFERENCE_INPUTS, ids=[name for name, _ in REFERENCE_INPUTS])
    def test_matches_gram_schmidt_reference(self, name, state):
        reference = gram_schmidt_complement(state)
        np.testing.assert_allclose(fallback_vector(state), reference[0], rtol=0, atol=1e-13)
        samples = _complement_samples(state, 16, np.random.default_rng(3))
        np.testing.assert_allclose(np.linalg.norm(samples, axis=1), 1.0, rtol=0, atol=1e-13)
        assert np.max(np.abs(samples @ state.vector.conj())) < 1e-13

    @pytest.mark.parametrize("dim", [3, 8, 64])
    def test_samples_are_isotropic_in_the_complement(self, dim):
        # |<u|v>|^2 for v uniform on the unit sphere of C^n, n = d - 1, is Beta(1, n - 1):
        # mean 1/n, variance (n - 1) / (n^2 (n + 1))
        rng = np.random.default_rng([29, dim])
        state = _haar(rng, dim)
        u = gram_schmidt_complement(state)[-1]
        count, n = 20_000, dim - 1
        overlaps = np.abs(_complement_samples(state, count, rng) @ u.conj()) ** 2
        sigma = np.sqrt((n - 1) / (n * n * (n + 1)) / count)
        assert abs(overlaps.mean() - 1.0 / n) < 5.0 * sigma


class TestOneComplementRule:
    """One projection, one row-norm rule and one d < 2 check serve the report's candidates,
    the xi_perp check and the complement sampler alike."""

    def test_empty_complement_has_one_message(self):
        state = QuantumState(np.array([1.0 + 0j]))
        one = Observable(np.array([[1.0]]))
        calls = (
            lambda: bound_report(one, one, state),
            lambda: optimal_xi_perp(one, one, state, "l2", -1),
            lambda: random_unit_in_complement(state, 0),
            lambda: search_optimal_xi_perp(one, one, state, "l1", 1, 10, 0),
            lambda: statistical_bound_check(one, one, state, 100, 0),
        )
        messages = []
        for call in calls:
            with pytest.raises(EmptyComplementError) as info:
                call()
            messages.append(str(info.value))
        assert messages == ["a 1-dimensional state has an empty orthogonal complement"] * len(calls)

    @pytest.mark.parametrize("dim", range(2, 65))
    def test_rows_are_divided_by_their_norm(self, dim):
        # every row is bit for bit r / _norm(r), as QuantumState and the report's candidates take it
        rng = np.random.default_rng([43, dim])
        state = random_state(dim, rng)
        # rows in the complement, off unit norm by about 1e-8
        rows = _complement_samples(state, 64, rng) * (1.0 + 1e-8 * rng.standard_normal((64, 1)))
        expected = [(row / _norm(row)).tobytes() for row in rows]
        assert [row.tobytes() for row in _checked_perp(state, rows)] == expected
        assert _checked_perp(state, rows[0]).tobytes() == expected[0]
        # the sampler's rows against its own projected draws
        projected = _project(state.vector, _complex_normal(np.random.default_rng([47, dim]), (64, dim)))
        samples = _complement_samples(state, 64, np.random.default_rng([47, dim]))
        assert [row.tobytes() for row in samples] == [(r / _norm(r)).tobytes() for r in projected]

    @pytest.mark.parametrize("dim", [2, 3, 8, 64])
    def test_projection_takes_stacked_states(self, dim):
        # (n, 1, d) states against (n, m, d) rows: each block is the one-state projection, bit for bit
        rng = np.random.default_rng([53, dim])
        xi = np.array([random_state(dim, rng).vector for _ in range(5)])
        vecs = _complex_normal(rng, (5, 3, dim))
        stacked = _project(xi[:, None], vecs)
        for state, block, got in zip(xi, vecs, stacked):
            assert got.tobytes() == _project(state, block).tobytes()
            assert np.abs(block @ state.conj()).max() > 0.1 > np.abs(got @ state.conj()).max()


class TestEigensystem:
    def test_pauli_z(self):
        values, vectors = hermitian_eigensystem(pauli_z())
        np.testing.assert_allclose(values, [-1.0, 1.0])
        assert abs(vectors[1, 0]) == pytest.approx(1.0)  # eigenvector of -1 is |1>
        assert abs(vectors[0, 1]) == pytest.approx(1.0)  # eigenvector of +1 is |0>

    def test_pauli_x(self):
        # analytic 2x2 diagonalization: values -1, +1 with vectors (|0> -+ |1>)/sqrt2
        values, vectors = hermitian_eigensystem(pauli_x())
        np.testing.assert_allclose(values, [-1.0, 1.0], atol=1e-15)
        minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert abs(np.vdot(minus, vectors[:, 0])) == pytest.approx(1.0, abs=1e-14)
        assert abs(np.vdot(plus, vectors[:, 1])) == pytest.approx(1.0, abs=1e-14)

    def test_degenerate_identity(self):
        values, vectors = hermitian_eigensystem(Observable(np.eye(3)))
        np.testing.assert_allclose(values, np.ones(3))
        gram = vectors.conj().T @ vectors
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-14)

    def test_reconstruction_trace_and_frobenius(self):
        rng = np.random.default_rng(23)
        for dim in (2, 3, 8, 16):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            a = Observable(0.5 * (g + g.conj().T))
            values, vectors = hermitian_eigensystem(a)
            rebuilt = (vectors * values) @ vectors.conj().T
            np.testing.assert_allclose(rebuilt, a.matrix, atol=1e-12 * (1 + a.frobenius_norm()))
            assert values.sum() == pytest.approx(np.trace(a.matrix).real, abs=1e-10)
            assert (values**2).sum() == pytest.approx(a.frobenius_norm() ** 2, abs=1e-10)
            assert np.all(np.diff(values) >= 0)

    def test_solver_failure_is_an_eigensolver_error(self, monkeypatch):
        def fail(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(EigensolverError, match="^eigensolver failed to converge: Eigenvalues did not converge$"):
            hermitian_eigensystem(pauli_x())

    def test_reconstruction_residual_above_tolerance_is_an_eigensolver_error(self, monkeypatch):
        # X's eigenvectors with Z's eigenvalues rebuild Z, at residual |X - Z|_F = 2 > TOL_EIG (1 + sqrt 2)
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda matrix: (eigh(matrix)[0], np.eye(2, dtype=complex)))
        with pytest.raises(EigensolverError, match="^eigendecomposition residual 2.000e\\+00 above tolerance$"):
            hermitian_eigensystem(pauli_x())


class TestIsEigenstate:
    def test_basis_state_of_z(self):
        assert variance(pauli_z(), basis_state(2, 0)) <= TOL_EIG

    def test_plus_state_of_x(self):
        assert variance(pauli_x(), equatorial_state(0.0)) <= TOL_EIG

    def test_circular_state_not_x_eigenstate(self):
        # variance of X there is 1
        assert not variance(pauli_x(), equatorial_state(np.pi / 2)) <= TOL_EIG
        assert variance(pauli_x(), equatorial_state(np.pi / 2)) == pytest.approx(1.0, abs=1e-14)


@given(complex_vectors(3), complex_vectors(3))
@settings(max_examples=80, deadline=None)
def test_cauchy_schwarz_property(u, v):
    uu = np.vdot(u, u).real
    vv = np.vdot(v, v).real
    slack = uu * vv - abs(np.vdot(u, v)) ** 2
    assert slack >= -TOL_EIG * (1.0 + uu * vv)


@given(complex_vectors(3), st.floats(min_value=-8.0, max_value=8.0, allow_nan=False), st.floats(min_value=-8.0, max_value=8.0))
@settings(max_examples=60, deadline=None)
def test_cauchy_schwarz_equality_for_collinear(u, cr, ci):
    v = (cr + 1j * ci) * u
    uu = np.vdot(u, u).real
    vv = np.vdot(v, v).real
    slack = uu * vv - abs(np.vdot(u, v)) ** 2
    assert abs(slack) <= 1e-9 * (1.0 + uu * vv)
