"""Complex dense linear algebra and quantum-mechanical primitives.

Pure vectors and Hermitian observables on small Hilbert spaces (2 <= d <= 64),
with the expectations, deviation vectors, variances, the commutator mean,
eigensystems and the orthogonal-complement projection that the bound
computations are built from. All values are immutable after construction
and every operation is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAX_DIM",
    "TOL_NORM",
    "TOL_HERM",
    "TOL_EIG",
    "TOL_NULL",
    "RENORM_WINDOW",
    "DimensionMismatchError",
    "NormalizationError",
    "HermiticityError",
    "NullVectorError",
    "EmptyComplementError",
    "EigensolverError",
    "QuantumState",
    "Observable",
    "normalize",
    "expectation",
    "deviation_vector",
    "variance",
    "commutator_mean",
    "hermitian_eigensystem",
    "basis_state",
    "pauli_x",
    "pauli_z",
    "equatorial_state",
]

MAX_DIM = 64

# Double-precision headroom at d <= 64.
TOL_NORM = 1e-12
TOL_HERM = 1e-10
TOL_EIG = 1e-10
TOL_NULL = 1e-12

# States further than this from unit norm are rejected instead of renormalized.
RENORM_WINDOW = 1e-6

# Observable entries up to this modulus (~1.5e152) keep the squared Frobenius
# norm, at most d^2 max |M_ij|^2, below half the largest double at every d.
_MAX_ENTRY = math.sqrt(np.finfo(float).max / 2) / MAX_DIM


class DimensionMismatchError(ValueError):
    """Operands live in Hilbert spaces of different dimension."""


class NormalizationError(ValueError):
    """Vector norm too far from 1 to be a benign rounding artifact."""


class HermiticityError(ValueError):
    """Matrix (or a derived mean value) violates Hermiticity beyond tolerance."""


class NullVectorError(ValueError):
    """Operation undefined on the (numerically) null vector."""


class EmptyComplementError(ValueError):
    """The orthogonal complement of a d = 1 state is empty."""


class EigensolverError(RuntimeError):
    """Dense Hermitian eigensolver failed to converge or to reconstruct."""


def _as_vector(u) -> np.ndarray:
    """Coerce a QuantumState or array-like to a 1-D complex ndarray."""
    if isinstance(u, QuantumState):
        return u.vector
    vec = np.asarray(u, dtype=complex)
    if vec.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {vec.shape}")
    if not np.isfinite(vec).all():
        raise ValueError("vector contains non-finite entries")
    return vec


def _norm(x: np.ndarray) -> float:
    """np.linalg.norm(x) bit for bit (Frobenius for a matrix), without its dispatch.

    The same flattening and the same sqrt(re.re + im.im) that numpy uses for
    complex input, so every tolerance and renormalization is unchanged.
    """
    flat = x.ravel(order="K")
    re, im = flat.real, flat.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _same_dim(*dims: int) -> int:
    first = dims[0]
    for d in dims[1:]:
        if d != first:
            raise DimensionMismatchError(f"dimension mismatch: {dims}")
    return first


@dataclass(frozen=True, eq=False)
class QuantumState:
    """Normalized complex vector; the preparation of the system.

    Construction renormalizes inputs whose norm is within RENORM_WINDOW of 1
    and rejects anything farther off. Global phase is kept as given; all
    derived quantities are phase-invariant.
    """

    vector: np.ndarray

    def __post_init__(self):
        vec = _as_vector(self.vector)
        if not 1 <= vec.size <= MAX_DIM:
            raise ValueError(f"state dimension {vec.size} outside supported range [1, {MAX_DIM}]")
        nrm = _norm(vec)
        if abs(nrm - 1.0) > RENORM_WINDOW:
            raise NormalizationError(f"state norm {nrm!r} differs from 1 by more than {RENORM_WINDOW}")
        if abs(nrm - 1.0) > TOL_NORM:
            vec = vec / nrm
        else:
            vec = vec.copy()
        vec.setflags(write=False)
        object.__setattr__(self, "vector", vec)

    @property
    def dim(self) -> int:
        return self.vector.size


@dataclass(frozen=True, eq=False)
class Observable:
    """d x d Hermitian matrix; eigenvalues are the measurement outcomes.

    The stored matrix is symmetrized to (M + M†)/2 so Hermiticity is exact;
    inputs whose Hermiticity defect exceeds TOL_HERM * (1 + max |M_ij|) are
    rejected, and so are entries of modulus above ~1.5e152, before any
    arithmetic on them can overflow.
    """

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"observable must be a square matrix, got shape {mat.shape}")
        if not 1 <= mat.shape[0] <= MAX_DIM:
            raise ValueError(f"observable dimension {mat.shape[0]} outside supported range [1, {MAX_DIM}]")
        if not np.isfinite(mat).all():
            raise ValueError("observable contains non-finite entries")
        peak = float(np.abs(mat).max())
        if peak > _MAX_ENTRY:
            raise ValueError(f"observable entry modulus {peak:.3e} exceeds {_MAX_ENTRY:.3e}")
        adjoint = mat.conj().T
        defect = float(np.abs(mat - adjoint).max())
        scale = 1.0 + peak
        if defect > TOL_HERM * scale:
            raise HermiticityError(f"Hermiticity defect {defect:.3e} exceeds {TOL_HERM:.1e} * {scale:.3e}")
        # halved part by part: 0.5 * z is a complex multiply that can turn a -0.0 part into +0.0
        mat = mat + adjoint
        mat.real *= 0.5
        mat.imag *= 0.5
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        # every scale-relative tolerance reads the norm; the matrix never changes
        object.__setattr__(self, "_frobenius", _norm(mat))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def frobenius_norm(self) -> float:
        return self._frobenius


def normalize(u) -> QuantumState:
    """u / ||u|| as a QuantumState; the numerically null vector is rejected."""
    vec = _as_vector(u)
    nrm = _norm(vec)
    if vec.size == 0 or nrm <= TOL_NULL:
        raise NullVectorError("cannot normalize a null vector")
    return QuantumState(vec / nrm)


def _mean_of_image(a: Observable, state: QuantumState, image: np.ndarray) -> float:
    """Re<state|image> for image = A|state>; the imaginary residue must vanish within tolerance."""
    raw = complex(np.vdot(state.vector, image))
    tol = TOL_EIG * (1.0 + a.frobenius_norm())
    if abs(raw.imag) > tol:
        raise HermiticityError(f"expectation has imaginary part {raw.imag:.3e} above tolerance")
    return raw.real


def _squared_norm(vec: np.ndarray) -> float:
    return float(np.vdot(vec, vec).real)


def expectation(a: Observable, state: QuantumState) -> float:
    """Re<state|A|state>; the imaginary residue must vanish within tolerance."""
    _same_dim(a.dim, state.dim)
    return _mean_of_image(a, state, a.matrix @ state.vector)


def deviation_vector(a: Observable, state: QuantumState) -> np.ndarray:
    """(A - <A> I)|state>, from one matrix-vector product.

    Orthogonal to |state> and of squared norm Var(A); every bound is a closed
    form in the deviation vectors of the two observables.
    """
    _same_dim(a.dim, state.dim)
    image = a.matrix @ state.vector
    return image - _mean_of_image(a, state, image) * state.vector


def variance(a: Observable, state: QuantumState) -> float:
    """Var(A) = ||(A - <A>)|state>||^2, nonnegative by construction."""
    return _squared_norm(deviation_vector(a, state))


def commutator_mean(a: Observable, b: Observable, state: QuantumState) -> complex:
    """<[A,B]> = <AB> - <BA>; purely imaginary for Hermitian inputs (asserted)."""
    _same_dim(a.dim, b.dim, state.dim)
    xi = state.vector
    mean = complex(np.vdot(xi, a.matrix @ (b.matrix @ xi)) - np.vdot(xi, b.matrix @ (a.matrix @ xi)))
    if abs(mean.real) > TOL_EIG * (1.0 + a.frobenius_norm() * b.frobenius_norm()):
        raise HermiticityError(f"commutator mean has real part {mean.real:.3e}; inputs not Hermitian")
    return mean


def _complement_projection(state: QuantumState, vecs: np.ndarray) -> np.ndarray:
    """One vector, or a stack of rows, with the component along |state> removed.

    Two passes keep the result orthogonal even when the projection nearly
    annihilates a vector.
    """
    xi = state.vector
    for _ in range(2):
        vecs = vecs - (vecs @ xi.conj())[..., None] * xi
    return vecs


def hermitian_eigensystem(a: Observable) -> tuple[np.ndarray, np.ndarray]:
    """(values, vectors) with ascending eigenvalues and verified reconstruction.

    `vectors[:, k]` is the eigenvector of `values[k]`.
    """
    try:
        values, vectors = np.linalg.eigh(a.matrix)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigensolver failed to converge: {exc}") from exc
    residual = _norm(a.matrix - (vectors * values) @ vectors.conj().T)
    if residual > TOL_EIG * (1.0 + a.frobenius_norm()):
        raise EigensolverError(f"eigendecomposition residual {residual:.3e} above tolerance")
    return values, vectors


def basis_state(dim: int, index: int) -> QuantumState:
    """Computational basis vector |index> in dimension `dim`."""
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} outside [0, {dim})")
    vec = np.zeros(dim, dtype=complex)
    vec[index] = 1.0
    return QuantumState(vec)


def pauli_x() -> Observable:
    """|0><1| + |1><0|."""
    return Observable(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))


def pauli_z() -> Observable:
    """|0><0| - |1><1|."""
    return Observable(np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex))


def equatorial_state(alpha: float) -> QuantumState:
    """(|0> + e^{i alpha}|1>)/sqrt(2), the equatorial qubit family."""
    return QuantumState(np.array([1.0, np.exp(1j * alpha)], dtype=complex) / np.sqrt(2.0))
