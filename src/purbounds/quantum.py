"""Complex dense linear algebra and quantum-mechanical primitives.

Pure vectors and Hermitian observables on small Hilbert spaces (2 <= d <= 64),
with the expectations, deviation vectors, variances, the commutator mean and
eigensystems that the bound computations are built from. All values are
immutable after construction and every operation is a pure function of its
inputs.

Integer arguments have one rule, `_integer`: every count, seed, sample size
and index is an int (a bool or a float is rejected), and at least its lower
bound where it has one. Vectors from outside have one rule, `_as_vector`: a
state, an identity operand, Born outcome values, probabilities and samples
are each a finite 1-D array, and a message names the argument that is not.
The supported dimensions have one rule, `_check_dim`:
`QuantumState` and `Observable` accept only 2 <= d <= MAX_DIM, since a d = 1
state has no unit vector orthogonal to it, so every state the package is
given has a nonempty complement. The geometry of that complement has one
owner, this module: one row-norm rule (`_norms`, of which `_norm` is the
one-row view) and one complement projection (`_project`). Unit vectors have
one rule, `_unit_rows`, for a state and an xi_perp array alike: rows all
within TOL_NORM of unit norm are kept as given, bit for bit; else each row
within RENORM_WINDOW is divided by its norm; one farther off is rejected. A
state, candidate or report the package built itself skips the checks, its
fields filled by name through `__dict__`.
Hermiticity has one owner, `Observable`: a matrix is checked within
TOL_HERM (1 + max |M_ij|) and stored as (M + M†)/2, exactly Hermitian, and
no evaluation re-checks it. A mean is the real part of <xi|A|xi>, and
<[A,B]> is read from the two images: <xi|AB|xi> = <Axi|Bxi> for Hermitian A
and B, so <[A,B]> = <Axi|Bxi> - <Bxi|Axi>, exactly imaginary.
"""

from __future__ import annotations

import math
import numbers
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
    """Matrix violates Hermiticity beyond tolerance."""


class NullVectorError(ValueError):
    """Operation undefined on the (numerically) null vector."""


class EigensolverError(RuntimeError):
    """Dense Hermitian eigensolver failed to converge or to reconstruct."""


def _as_vector(u, name: str = "vector", dtype=complex) -> np.ndarray:
    """`u` as a finite 1-D ndarray of `dtype`, a QuantumState's vector as it is: the one vector rule of
    the package. A wrong shape or a non-finite entry raises ValueError that names the argument."""
    if isinstance(u, QuantumState):
        return u.vector
    vec = np.asarray(u, dtype=dtype)
    if vec.ndim != 1:
        raise ValueError(f"{name} must be a 1-D array, got shape {vec.shape}")
    if not np.isfinite(vec).all():
        raise ValueError(f"{name} must be finite")
    return vec


def _norm(x: np.ndarray) -> float:
    """np.linalg.norm(x) bit for bit (Frobenius for a matrix): the one-row view of `_norms`."""
    return float(_norms(x.ravel(order="K")))


def _norms(vecs: np.ndarray) -> np.ndarray:
    """The norm of each row of a stack, bit for bit np.linalg.norm of that row: the same
    sqrt(re.re + im.im) that numpy uses for complex input, so every tolerance and
    renormalization is unchanged."""
    re, im = vecs.real, vecs.imag
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


def _unit_rows(vecs: np.ndarray, name: str, error: type[ValueError]) -> np.ndarray:
    """One finite vector or a stack of rows under the one unit-vector rule, as a new read-only array: a copy
    if every row is within TOL_NORM of unit norm, else each row divided by its `_norms` entry. A row whose
    norm is farther than RENORM_WINDOW from 1 raises `error`, naming `name`."""
    # a norm that overflows to inf is outside the window, so numpy need not warn of it
    with np.errstate(over="ignore"):
        nrm = _norms(vecs)
    # the largest distance from unit norm decides both the window and the unit-vector rule
    drift = float(np.abs(nrm - 1.0).max(initial=0.0))
    if drift > RENORM_WINDOW:
        off = float(nrm[np.abs(nrm - 1.0) > RENORM_WINDOW][0])
        raise error(f"{name} norm {off!r} differs from 1 by more than {RENORM_WINDOW}")
    vecs = vecs / nrm[..., None] if drift > TOL_NORM else vecs.copy()
    vecs.setflags(write=False)
    return vecs


def _project(xi: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Each row of `vecs` with the component along its state row of `xi` removed.

    `xi` is one state (d,), shared by every row, or a stack that broadcasts
    against `vecs`, such as (n, 1, d) states for (n, m, d) rows. Two passes
    keep the result orthogonal even when the projection nearly annihilates a
    vector.
    """
    for _ in range(2):
        vecs = vecs - np.vecdot(xi, vecs)[..., None] * xi
    return vecs


def _integer(name: str, value, low: int | None = None) -> int:
    """`value` as an int, of at least `low` if given: the one integer rule of the package. numpy
    integers pass; a bool, any float (2.0 too) or an integer below `low` raises ValueError."""
    # int() would read 2.9 as 2 and True as 1
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if low is not None and value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")
    return value


def _check_dim(dim) -> int:
    """`dim` as an int in the supported range [2, MAX_DIM]: the one dimension rule of the package."""
    dim = _integer("dim", dim)
    if not 2 <= dim <= MAX_DIM:
        raise ValueError(f"dimension {dim} outside supported range [2, {MAX_DIM}]")
    return dim


def _same_dim(*dims: int) -> None:
    if len(set(dims)) > 1:
        raise DimensionMismatchError(f"dimension mismatch: {dims}")


@dataclass(frozen=True, eq=False)
class QuantumState:
    """Normalized complex vector of dimension 2 <= d <= MAX_DIM; the preparation of the system.

    Construction renormalizes inputs whose norm is within RENORM_WINDOW of 1
    and rejects anything farther off. Global phase is kept as given; all
    derived quantities are phase-invariant.
    """

    vector: np.ndarray

    def __post_init__(self):
        vec = _as_vector(self.vector)
        _check_dim(vec.size)
        object.__setattr__(self, "vector", _unit_rows(vec, "state", NormalizationError))

    @property
    def dim(self) -> int:
        return self.vector.size


@dataclass(frozen=True, eq=False)
class Observable:
    """d x d Hermitian matrix, 2 <= d <= MAX_DIM; eigenvalues are the measurement outcomes.

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
        _check_dim(mat.shape[0])
        # one pass: a NaN or infinite entry makes the peak NaN or infinite
        peak = float(np.abs(mat).max())
        if not peak <= _MAX_ENTRY:
            # a finite entry whose modulus overflows also reads inf, so look once more
            if not np.isfinite(mat).all():
                raise ValueError("observable must be finite")
            raise ValueError(f"observable entry modulus {peak:.3e} exceeds {_MAX_ENTRY:.3e}")
        adjoint = mat.conj().T
        defect = float(np.abs(mat - adjoint).max())
        scale = 1.0 + peak
        if defect > TOL_HERM * scale:
            raise HermiticityError(f"Hermiticity defect {defect:.3e} exceeds {TOL_HERM:.1e} * {scale:.3e}")
        _store_hermitian_part(self, mat, adjoint)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def frobenius_norm(self) -> float:
        return self._frobenius


def _store_hermitian_part(obs: Observable, mat: np.ndarray, adjoint: np.ndarray) -> Observable:
    """Store (M + M†)/2, exactly Hermitian, read-only, with its Frobenius norm."""
    # halved part by part: 0.5 * z is a complex multiply that can turn a -0.0 part into +0.0
    mat = mat + adjoint
    mat.real *= 0.5
    mat.imag *= 0.5
    mat.setflags(write=False)
    object.__setattr__(obs, "matrix", mat)
    # every scale-relative tolerance reads the norm; the matrix never changes
    object.__setattr__(obs, "_frobenius", _norm(mat))
    return obs


def _trusted_state(vec: np.ndarray) -> QuantumState:
    """A unit vector the package normalized itself, as a QuantumState without re-validation.

    `vec` must be a 1-D complex array of unit norm to rounding that nothing
    else writes to (a fresh array, or a row of one), so that
    `QuantumState(vec)` would store it unchanged. It is made read-only in place.
    """
    vec.setflags(write=False)
    state = object.__new__(QuantumState)
    state.__dict__["vector"] = vec
    return state


def _trusted_observable(g: np.ndarray) -> Observable:
    """(G + G†)/2 of a square complex draw `g`, wrapped without re-validation.

    G + G† is exactly Hermitian in floating point, so this stores what
    `Observable` would store for the same matrix, without its checks.
    """
    return _store_hermitian_part(object.__new__(Observable), g, g.conj().T)


def normalize(u) -> QuantumState:
    """u / ||u|| as a QuantumState; the numerically null vector, the empty one included, is rejected."""
    vec = _as_vector(u, "u")
    with np.errstate(over="ignore"):
        nrm = _norm(vec)
    if nrm == math.inf:
        # scaled by the largest |Re| or |Im| (np.abs can overflow too), part by part, so that it reads exactly 1
        peak = max(np.abs(vec.real).max(), np.abs(vec.imag).max())
        vec = vec.real / peak + 1j * (vec.imag / peak)
        nrm = _norm(vec)
    if nrm <= TOL_NULL:
        raise NullVectorError("cannot normalize a null vector")
    return QuantumState(vec / nrm)


def _deviation_vectors(ops, xi: np.ndarray) -> np.ndarray:
    """(A - <A> I)|xi> for each operand A of `ops` (k) and each of the n states `xi` (n, d): (k, n, d).

    All images go into one buffer, one `np.matmul` on (d, 1) columns per
    operand, which runs the same product per row as `A @ x`, so every row is
    bit for bit what one state gives; all means are the real part of one inner product.
    """
    dev = np.empty((len(ops), *xi.shape, 1), dtype=complex)
    columns = xi[..., None]
    for op, out in zip(ops, dev):
        np.matmul(op.matrix, columns, out=out)
    dev = dev[..., 0]
    dev -= np.vecdot(xi, dev).real[..., None] * xi
    return dev


def expectation(a: Observable, state: QuantumState) -> float:
    """Re<state|A|state>, the one-row view of the kernel's means; A is Hermitian, so it is the whole mean."""
    _same_dim(a.dim, state.dim)
    xi = state.vector
    return float(np.vecdot(xi, a.matrix @ xi).real)


def deviation_vector(a: Observable, state: QuantumState) -> np.ndarray:
    """(A - <A> I)|state>, from one matrix-vector product.

    Orthogonal to |state> and of squared norm Var(A); every bound is a closed
    form in the deviation vectors of the two observables. The one-operand,
    one-row view of the kernel's fused deviation step.
    """
    _same_dim(a.dim, state.dim)
    return _deviation_vectors((a,), state.vector[None])[0, 0]


def variance(a: Observable, state: QuantumState) -> float:
    """Var(A) = ||(A - <A>)|state>||^2, nonnegative by construction."""
    psi = deviation_vector(a, state)
    return float(np.vecdot(psi, psi).real)


def commutator_mean(a: Observable, b: Observable, state: QuantumState) -> complex:
    """<[A,B]> = <Ax|Bx> - <Bx|Ax>, from the two images A|x> and B|x>: exactly imaginary, since
    <Bx|Ax> is the conjugate of <Ax|Bx>."""
    _same_dim(a.dim, b.dim, state.dim)
    xi = state.vector
    ab = complex(np.vdot(a.matrix @ xi, b.matrix @ xi))
    return ab - ab.conjugate()


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
    # the range first, so that no vector is allocated for a dimension QuantumState would reject
    dim, index = _check_dim(dim), _integer("index", index)
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


def _equatorial_vectors(alphas) -> np.ndarray:
    """The vectors (1, e^{i alpha})/sqrt(2) of the equatorial qubit family, one row per alpha: (n, 2)."""
    alphas = np.asarray(alphas, dtype=float)
    return np.stack((np.ones_like(alphas), np.exp(1j * alphas)), axis=-1) / np.sqrt(2.0)


def equatorial_state(alpha: float) -> QuantumState:
    """(|0> + e^{i alpha}|1>)/sqrt(2), the equatorial qubit family."""
    return QuantumState(_equatorial_vectors([alpha])[0])
