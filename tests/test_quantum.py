import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from purbounds.bounds import _checked_perp, bound_report, optimal_xi_perp
from purbounds.instances import parse_instance
from purbounds.quantum import (
    RENORM_WINDOW,
    TOL_EIG,
    TOL_HERM,
    DimensionMismatchError,
    EigensolverError,
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
    random_observable,
    random_state,
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


# (dim, index, message); a dict would merge (2, 1.0) with (2, True) and (True, 0) with (1, 0)
BAD_BASIS_STATES = [
    (2.0, 0, "dim must be an integer, got 2.0"),
    (2, 1.0, "index must be an integer, got 1.0"),
    (True, 0, "dim must be an integer, got True"),
    (2, True, "index must be an integer, got True"),
    (2, -1, "basis index -1 outside [0, 2)"),
    (2, 2, "basis index 2 outside [0, 2)"),
    (0, 0, "dimension 0 outside supported range [2, 64]"),
    (1, 0, "dimension 1 outside supported range [2, 64]"),
    (65, 0, "dimension 65 outside supported range [2, 64]"),
    # the dimension is named, not the index
    (1, 5, "dimension 1 outside supported range [2, 64]"),
    (2**20, 0, "dimension 1048576 outside supported range [2, 64]"),
]


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
        with pytest.raises(ValueError, match="^vector must be finite$"):
            QuantumState(np.array([np.nan, 0.0], dtype=complex))
        # normalize names its argument
        with pytest.raises(ValueError, match="^u must be finite$"):
            normalize([np.nan, 1.0])

    def test_rejects_oversized_dimension(self):
        vec = np.zeros(65, dtype=complex)
        vec[0] = 1.0
        with pytest.raises(ValueError):
            QuantumState(vec)

    @pytest.mark.parametrize("dim, index, message", BAD_BASIS_STATES, ids=[f"{d}-{i}" for d, i, _ in BAD_BASIS_STATES])
    def test_basis_state_rejects_non_integer_or_out_of_range(self, dim, index, message):
        # the dimension is checked before the vector is allocated: 2**20 entries would take 16 MiB
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as info:
                basis_state(dim, index)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == message
        assert peak < 1 << 16


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


# (input, exception class, message)
BAD_STATES = {
    "nan": ([np.nan, 0.0], ValueError, "vector must be finite"),
    "inf": ([np.inf, 0.0], ValueError, "vector must be finite"),
    "neg_inf_imag": ([1.0, complex(0.0, -np.inf)], ValueError, "vector must be finite"),
    "nan_imag": ([complex(1.0, np.nan), 0.0], ValueError, "vector must be finite"),
    "nan_oversized": ([np.nan] + [0.0] * 64, ValueError, "vector must be finite"),
    "matrix": ([[1.0, 0.0]], ValueError, "vector must be a 1-D array, got shape (1, 2)"),
    "scalar": (1.0, ValueError, "vector must be a 1-D array, got shape ()"),
    "empty": ([], ValueError, "dimension 0 outside supported range [2, 64]"),
    # a d = 1 state has no orthogonal complement, so no xi_perp: rejected before any work is done
    "one": ([1.0], ValueError, "dimension 1 outside supported range [2, 64]"),
    "oversized": ([1.0] + [0.0] * 64, ValueError, "dimension 65 outside supported range [2, 64]"),
    "norm_two": ([2.0, 0.0], NormalizationError, "state norm 2.0 differs from 1 by more than 1e-06"),
    "norm_above_window": ([1.0 + 2e-6, 0.0], NormalizationError, "state norm 1.000002 differs from 1 by more than 1e-06"),
    "norm_below_window": ([0.0, 1.0 - 2e-6], NormalizationError, "state norm 0.999998 differs from 1 by more than 1e-06"),
    "zero": ([0.0, 0.0], NormalizationError, "state norm 0.0 differs from 1 by more than 1e-06"),
    "norm_overflow": ([1e200, 1e200], NormalizationError, "state norm inf differs from 1 by more than 1e-06"),
}

BAD_OBSERVABLES = {
    "nan": ([[np.nan, 0.0], [0.0, 1.0]], ValueError, "observable must be finite"),
    "inf_imag": (
        [[1.0, complex(0.0, np.inf)], [complex(0.0, -np.inf), 1.0]], ValueError,
        "observable must be finite",
    ),
    "vector": ([1.0, 0.0], ValueError, "observable must be a square matrix, got shape (2,)"),
    "non_square": (np.zeros((2, 3)), ValueError, "observable must be a square matrix, got shape (2, 3)"),
    "rank3": (np.zeros((2, 2, 2)), ValueError, "observable must be a square matrix, got shape (2, 2, 2)"),
    "empty": (np.zeros((0, 0)), ValueError, "dimension 0 outside supported range [2, 64]"),
    "one": ([[1.0]], ValueError, "dimension 1 outside supported range [2, 64]"),
    "oversized": (np.eye(65), ValueError, "dimension 65 outside supported range [2, 64]"),
    "oversized_nan": (np.full((65, 65), np.nan), ValueError, "dimension 65 outside supported range [2, 64]"),
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
    # the first double above the limit: a guard at twice the limit lets it through
    "above_max_entry": (
        [[np.nextafter(_MAX_ENTRY, np.inf), 0.0], [0.0, 1.0]], ValueError,
        "observable entry modulus 1.481e+152 exceeds 1.481e+152",
    ),
    # the modulus itself overflows to inf
    "modulus_overflow": (
        [[0.0, complex(1.5e308, 1.5e308)], [complex(1.5e308, -1.5e308), 0.0]], ValueError,
        "observable entry modulus inf exceeds 1.481e+152",
    ),
}


def _near_hermitian(rng, dim, scale):
    """scale (G + G†)/2 plus a non-Hermitian draw whose defect is TOL_HERM (1 + peak) / 4."""
    g = _complex_normal(rng, (dim, dim))
    mat = scale * 0.5 * (g + g.conj().T)
    noise = _complex_normal(rng, (dim, dim))
    noise *= 0.25 * TOL_HERM * (1.0 + np.abs(mat).max()) / np.abs(noise - noise.conj().T).max()
    mat = mat + noise
    assert not np.array_equal(mat, mat.conj().T)
    return mat


def _parsed_pair(rng, dim):
    """A and B of an instance file whose matrices are `_near_hermitian` draws."""
    payload = {"dim": dim, "state": [[1.0, 0.0]] + [[0.0, 0.0]] * (dim - 1)}
    for key in ("A", "B"):
        mat = _near_hermitian(rng, dim, 1.0)
        payload[key] = np.stack((mat.real, mat.imag), -1).tolist()
    instance = parse_instance(payload)
    return instance.a, instance.b


# each way the API makes an Observable, as an (A, B) pair at dimension d from a seeded generator
# (None where the construction has no such d)
OBSERVABLE_CONSTRUCTIONS = {
    **{
        f"Observable_{scale:g}": lambda rng, dim, scale=scale: tuple(
            Observable(_near_hermitian(rng, dim, scale)) for _ in range(2)
        )
        for scale in (1e-6, 1.0, 1e6)
    },
    "random_observable": lambda rng, dim: tuple(random_observable(dim, rng.integers(2**32)) for _ in range(2)),
    "pauli": lambda rng, dim: (pauli_x(), pauli_z()) if dim == 2 else None,
    "parse_instance": _parsed_pair,
}


class TestValidationErrors:
    @pytest.mark.parametrize("name", BAD_STATES)
    def test_state_error_class_and_message(self, name):
        vec, cls, message = BAD_STATES[name]
        with pytest.raises(cls) as info:
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
        # the empty vector has norm 0, so it is null too
        for vec in (np.zeros(3), np.zeros(0)):
            with pytest.raises(NullVectorError, match="^cannot normalize a null vector$"):
                normalize(vec)
        # a nonzero vector outside the range reaches QuantumState's dimension rule
        for dim in (1, 65):
            with pytest.raises(ValueError, match=rf"^dimension {dim} outside supported range \[2, 64\]$"):
                normalize(np.ones(dim))

    # (input, the input it normalizes as): a squared norm that overflows to inf is scaled down by the largest
    # |Re| or |Im| first, so the vector is normalized, with no warning, to the bits of its scaled form
    OVERFLOWING = {
        "one_entry": ([1e200, 0], [1, 0]),
        "two_entries": ([1e200, 1e200], [1, 1]),
        # np.abs of the entry would overflow too
        "complex_entry": ([1e308 + 1e308j, 0], [1 + 1j, 0]),
    }

    @pytest.mark.parametrize("name", OVERFLOWING)
    def test_normalize_overflowing_norm(self, name):
        vec, scaled = self.OVERFLOWING[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = normalize(vec)
        assert state.vector.tobytes() == normalize(scaled).vector.tobytes()
        if name == "one_entry":
            assert state.vector.tobytes() == basis_state(2, 0).vector.tobytes()

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

    @pytest.mark.parametrize("dim", [2, 3, 8, 64])
    def test_every_api_observable_is_exactly_hermitian(self, dim):
        # Observable owns Hermiticity: no mean re-checks it, so every matrix the API stores must be
        # exactly Hermitian, read-only and frozen, and a replaced matrix goes through the same check
        rng = np.random.default_rng([137, dim])
        xi = np.stack([random_state(dim, [139, dim, k]).vector for k in range(8)])
        for name, make in OBSERVABLE_CONSTRUCTIONS.items():
            pair = make(rng, dim)
            if pair is None:
                continue
            for obs in pair:
                m = obs.matrix
                assert np.array_equal(m, m.conj().T), name
                assert not m.flags.writeable, name
                with pytest.raises(dataclasses.FrozenInstanceError):
                    obs.matrix = m
                # why no mean re-checks Hermiticity: the raw Im<A> stays far below TOL_EIG (1 + |A|_F)
                residue = np.abs(np.vecdot(xi, xi @ m.T).imag).max()
                assert residue <= 1e-4 * TOL_EIG * (1.0 + obs.frobenius_norm()), name
            a, b = pair
            # and the raw Re(<x|A(Bx)> - <x|B(Ax)>) far below TOL_EIG (1 + |A|_F |B|_F); commutator_mean reads
            # A|x> and B|x> alone, so its real part is 0.0 by construction and cannot show this residue
            ab = np.vecdot(xi, (xi @ b.matrix.T) @ a.matrix.T)
            ba = np.vecdot(xi, (xi @ a.matrix.T) @ b.matrix.T)
            real_part = np.abs((ab - ba).real).max()
            assert real_part <= 1e-4 * TOL_EIG * (1.0 + a.frobenius_norm() * b.frobenius_norm()), name
            bad = a.matrix + 2.0 * TOL_HERM * (1.0 + np.abs(a.matrix).max()) * np.triu(np.ones((dim, dim)), 1)
            with pytest.raises(HermiticityError, match="^Hermiticity defect "):
                dataclasses.replace(a, matrix=bad)


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
            assert commutator_mean(a, b, state).real == 0.0
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
    """One projection and one row-norm rule serve the report's candidates, the xi_perp check and
    the complement sampler alike, and one unit-vector rule serves a state and an xi_perp: a vector
    within TOL_NORM of unit norm is kept as given, and one farther off is divided by its norm."""

    @pytest.mark.parametrize("dim", range(2, 65))
    def test_rows_are_divided_by_their_norm(self, dim):
        # rows off unit norm beyond TOL_NORM: every row is bit for bit r / _norm(r), as the sampler takes it
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

    # (scale, kept): a unit vector scaled by 1 + 5e-13 is within TOL_NORM = 1e-12 and kept bit for bit; one
    # scaled by 1 + 2e-12 is not, and comes back as r / _norm(r). A TOL_NORM ten times wider or narrower fails.
    # At 1 + 5e-7, well inside RENORM_WINDOW, a state and an xi_perp are divided alike too
    UNIT_EDGES = {
        "inside_tol_norm": (1 + 5e-13, True),
        "outside_tol_norm": (1 + 2e-12, False),
        "inside_renorm_window": (1 + 5e-7, False),
    }

    @pytest.mark.parametrize("edge", UNIT_EDGES)
    @pytest.mark.parametrize("dim", [2, 3, 8, 64])
    def test_unit_vector_rule_at_tol_norm(self, dim, edge):
        scale, kept = self.UNIT_EDGES[edge]
        rng = np.random.default_rng([61, dim])
        state = random_state(dim, rng)
        rows = scale * _complement_samples(state, 16, rng)
        expected = [(row if kept else row / _norm(row)).tobytes() for row in rows]
        assert [QuantumState(row).vector.tobytes() for row in rows] == expected
        assert [row.tobytes() for row in _checked_perp(state, rows)] == expected
        assert _checked_perp(state, rows[0]).tobytes() == expected[0]

    @pytest.mark.parametrize("dim", [2, 3, 8, 64])
    def test_checked_perp_reads_the_samplers_rows(self, dim):
        # the sampler's rows are unit within TOL_NORM, so the reference reads them bit for bit, not
        # renormalized one rounding away
        rng = np.random.default_rng([59, dim])
        state = random_state(dim, rng)
        rows = _complement_samples(state, 100, rng)
        assert _checked_perp(state, rows).tobytes() == rows.tobytes()

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

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_residual_on_both_sides_of_the_tolerance(self, monkeypatch, factor):
        # X's eigenvectors turned by theta rebuild X at residual 2 sqrt(2) sin(theta), here `factor` times the
        # tolerance TOL_EIG (1 + |X|_F): 0.5 returns, 2 raises, so a tolerance ten times wider fails
        a = pauli_x()
        tol = TOL_EIG * (1.0 + a.frobenius_norm())
        theta = np.arcsin(factor * tol / (2.0 * np.sqrt(2.0)))
        turn = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        values, vectors = np.linalg.eigh(a.matrix)
        turned = vectors @ turn
        monkeypatch.setattr(np.linalg, "eigh", lambda matrix: (values, turned))
        assert _norm(a.matrix - (turned * values) @ turned.conj().T) == pytest.approx(factor * tol, rel=1e-4)
        if factor < 1.0:
            assert hermitian_eigensystem(a)[1] is turned
        else:
            with pytest.raises(EigensolverError, match="^eigendecomposition residual .* above tolerance$"):
                hermitian_eigensystem(a)

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
