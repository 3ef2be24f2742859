"""The report's closed forms against the exact rational oracle in `exact.py`."""

from fractions import Fraction

import numpy as np
import pytest

from exact import exact_moments
from purbounds.bounds import bound_report, optimal_xi_perp
from purbounds.quantum import Observable, basis_state, commutator_mean, equatorial_state, pauli_x, pauli_z
from purbounds.verify import l1_bound, random_observable, random_state

EPS = float(np.finfo(float).eps)

# Each analytic by-sign value lies within FORWARD_K eps (|A|_F^2 + |B|_F^2) of its exact
# value. Measured: at most 1.09 over 2,520 Haar/GUE instances at d = 2..8 with operands
# scaled by 1e-6, 1 and 1e6 and |B|_F / |A|_F from 0.1 to 10 (the element form it
# replaced reached 1.63 on the same instances), and 0.097 / 0.042 / 0.026 at
# d = 16 / 32 / 64 on the 12 instances per dimension that the test below draws.
FORWARD_K = 4.0


def forward_error(value: float, exact: Fraction, a: Observable, b: Observable) -> float:
    """|value - exact| in units of eps (|A|_F^2 + |B|_F^2)."""
    return float(abs(Fraction(value) - exact)) / (EPS * (a.frobenius_norm() ** 2 + b.frobenius_norm() ** 2))


def fraction_moments(a, b, state):
    """The oracle's four moments summed in `fractions.Fraction` over object arrays, term by term."""

    def parts(arr):
        return tuple(np.vectorize(Fraction, otypes=[object])(part) for part in (arr.real, arr.imag))

    def image(obs):
        (mr, mi), (xr, xi) = parts(obs.matrix), x
        return mr @ xr - mi @ xi, mr @ xi + mi @ xr

    def inner(u, v):
        return u[0] @ v[0] + u[1] @ v[1], u[0] @ v[1] - u[1] @ v[0]

    x = parts(state.vector)
    ax, bx = image(a), image(b)
    norm_sq = inner(x, x)[0]
    mean_a, mean_b = inner(x, ax)[0] / norm_sq, inner(x, bx)[0] / norm_sq
    cov_re, cov_im = inner(ax, bx)
    return (
        inner(ax, ax)[0] / norm_sq - mean_a * mean_a,
        inner(bx, bx)[0] / norm_sq - mean_b * mean_b,
        cov_re / norm_sq - mean_a * mean_b,
        cov_im / norm_sq,
    )


class TestOracle:
    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_integer_sums_equal_fraction_sums(self, dim):
        # the oracle's integers over one power of two per array are the same rationals
        rng = np.random.default_rng([113, dim])
        state, a, b = random_state(dim, rng), random_observable(dim, rng), random_observable(dim, rng)
        for scale in (1e-300, 1e-6, 1.0, 1e6, 1e150):
            sa, sb = Observable(scale * a.matrix), Observable(0.37 * scale * b.matrix)
            assert exact_moments(sa, sb, state) == fraction_moments(sa, sb, state)

    @pytest.mark.parametrize("alpha", [0.0, 0.4, np.pi / 2, 2.8])
    def test_qubit_family(self, alpha):
        # X and Z on (|0> + e^{i alpha}|1>)/sqrt 2: Var(X) = sin^2 alpha, Var(Z) = 1, CovQ = 0,
        # up to the rounding of the stored state
        exact = exact_moments(pauli_x(), pauli_z(), equatorial_state(alpha))
        assert float(exact.var_a) == pytest.approx(np.sin(alpha) ** 2, abs=1e-15)
        assert float(exact.var_b) == pytest.approx(1.0, abs=1e-15)
        assert float(exact.covq) == pytest.approx(0.0, abs=1e-15)
        assert float(exact.cov_imag) == pytest.approx(-np.sin(alpha), abs=1e-15)

    def test_common_eigenvector_is_exactly_zero(self):
        a = Observable(np.diag([1.0, -2.0, 0.5]).astype(complex))
        b = Observable(np.diag([3.0, 0.25, -1.0]).astype(complex))
        assert exact_moments(a, b, basis_state(3, 1)) == (0, 0, 0, 0)


class TestForwardError:
    @pytest.mark.parametrize("dim", [*range(2, 9), 16, 32, 64])
    def test_by_sign_values_within_k_eps_of_exact(self, dim):
        for seed in range(4):
            rng = np.random.default_rng([107, dim, seed])
            state, a, b = random_state(dim, rng), random_observable(dim, rng), random_observable(dim, rng)
            for scale in (1e-6, 1.0, 1e6):
                sa = Observable(scale * a.matrix)
                sb = Observable(scale * rng.uniform(0.1, 10.0) * b.matrix)
                rep = bound_report(sa, sb, state)
                (l1_plus, l1_minus), (l2_plus, l2_minus) = exact_moments(sa, sb, state).by_sign()
                got = (*rep.l1_by_sign, *rep.l2_by_sign)
                for value, exact in zip(got, (l1_plus, l1_minus, l2_plus, l2_minus)):
                    assert forward_error(value, exact, sa, sb) <= FORWARD_K
                # the sign with the larger exact value wins, unless the two tie within TOL_EIG
                if abs(l1_plus - l1_minus) > 1e-9:
                    assert rep.l1_candidate.sign == (1 if l1_plus > l1_minus else -1)
                assert rep.l2_candidate.sign == 1


class TestCommutatorMean:
    """<[A,B]> = <Ax|Bx> - <Bx|Ax> from the two images A|x> and B|x>: its real part is 0.0 exactly, and its
    imaginary part lies within FORWARD_K eps (|A|_F^2 + |B|_F^2) of the exact 2 Im Cov(A,B)."""

    @pytest.mark.parametrize("dim", [2, 3, 8, 64])
    def test_exactly_imaginary_and_within_k_eps_of_exact(self, dim):
        for seed in range(4):
            rng = np.random.default_rng([149, dim, seed])
            state, a, b = random_state(dim, rng), random_observable(dim, rng), random_observable(dim, rng)
            for scale in (1e-6, 1.0, 1e6):
                sa = Observable(scale * a.matrix)
                sb = Observable(scale * rng.uniform(0.1, 10.0) * b.matrix)
                mean = commutator_mean(sa, sb, state)
                assert mean.real == 0.0
                assert forward_error(mean.imag, 2 * exact_moments(sa, sb, state).cov_imag, sa, sb) <= FORWARD_K


class TestNullDirection:
    """At a numerically null direction the closed form is kept unclamped, as l2 is: its
    rounding error, not the element at the fallback vector, is what it reports."""

    def test_common_eigenvector_reports_exact_zeros(self):
        a = Observable(np.diag([1.0, -2.0, 0.5, 4.0]).astype(complex))
        b = Observable(np.diag([3.0, 0.25, -1.0, 2.0]).astype(complex))
        rep = bound_report(a, b, basis_state(4, 2))
        assert rep.l1_by_sign == rep.l2_by_sign == (0.0, 0.0)
        # every direction is null: both candidates are the normalized projection of e_0
        assert rep.l1_candidate.vector.vector.tolist() == rep.l2_candidate.vector.vector.tolist() == [1, 0, 0, 0]

    @pytest.mark.parametrize("dim", [2, 4])
    def test_losing_l1_sign_may_read_below_zero(self, dim):
        # B = A + 1e-14 C: psi - phi is far below the null tolerance, so l1(-1) sits at the e_k fallback,
        # where the exact value is ~1e-29 and the closed form (Var(A) + Var(B))/2 - CovQ rounds either way
        negative = 0
        for seed in range(12):
            rng = np.random.default_rng([5, dim, seed])
            state, a = random_state(dim, rng), random_observable(dim, rng)
            b = Observable(a.matrix + 1e-14 * random_observable(dim, rng).matrix)
            rep = bound_report(a, b, state)
            value = rep.l1_by_sign[1]
            assert value == 0.5 * rep.sum_var - rep.covq
            exact = exact_moments(a, b, state).by_sign()[0][1]
            assert 0 < exact < 1e-27
            assert forward_error(value, exact, a, b) <= FORWARD_K
            fallback = optimal_xi_perp(a, b, state, "l1", -1)
            assert fallback.bound_value == value
            xi = state.vector
            e_k = np.eye(dim)[int(np.abs(xi).argmax() == 0)]
            expected = e_k - np.vdot(xi, e_k) * xi
            np.testing.assert_allclose(fallback.vector.vector, expected / np.linalg.norm(expected), atol=1e-15)
            # the element at the fallback vector is nonnegative, and as close to the reported value
            attained = l1_bound(a, b, state, fallback.vector, -1)
            assert 0.0 <= attained <= 1e-27
            assert forward_error(attained, exact, a, b) <= FORWARD_K
            assert rep.l1_candidate.sign == 1
            negative += value < 0.0
        assert negative > 0
