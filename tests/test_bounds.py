import numpy as np
import pytest

from purbounds.bounds import OrthogonalityError, bound_report, optimal_xi_perp
from purbounds.quantum import (
    DimensionMismatchError,
    Observable,
    QuantumState,
    basis_state,
    equatorial_state,
    normalize,
    pauli_x,
    pauli_z,
    variance,
)
from purbounds.verify import l1_bound, l2_bound, random_unit_in_complement

ALPHAS = [0.0, 0.4, np.pi / 4, 1.2, np.pi / 2, 2.8, np.pi, 4.4, 5.7]


def perp_of(alpha):
    return QuantumState(np.array([1.0, -np.exp(1j * alpha)], dtype=complex) / np.sqrt(2.0))


def random_instance(rng, dim):
    state = normalize(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    mats = []
    for _ in range(2):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        mats.append(Observable(0.5 * (g + g.conj().T)))
    return state, mats[0], mats[1]


class TestHrsurProductBound:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_qubit_family(self, alpha):
        value = bound_report(pauli_x(), pauli_z(), equatorial_state(alpha)).t1
        assert value == pytest.approx(np.sin(alpha) ** 2, abs=1e-13)

    def test_triviality_on_eigenvector(self):
        # 0 * Var(X) >= 0: the bound reveals nothing although Var(X) = 1
        state = basis_state(2, 0)
        assert bound_report(pauli_z(), pauli_x(), state).t1 == 0.0
        assert variance(pauli_z(), state) * variance(pauli_x(), state) == 0.0

    def test_same_observable_collapses_to_squared_variance(self):
        state = equatorial_state(0.8)
        value = bound_report(pauli_x(), pauli_x(), state).t1
        assert value == pytest.approx(variance(pauli_x(), state) ** 2, abs=1e-13)

    def test_validity_on_random_instances(self):
        rng = np.random.default_rng(3)
        for dim in (2, 3, 5, 8):
            for _ in range(10):
                state, a, b = random_instance(rng, dim)
                t1 = bound_report(a, b, state).t1
                assert variance(a, state) * variance(b, state) >= t1 - 1e-9


class TestHrsurSumBound:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_qubit_family(self, alpha):
        value = bound_report(pauli_x(), pauli_z(), equatorial_state(alpha)).t2
        assert value == pytest.approx(2.0 * abs(np.sin(alpha)), abs=1e-13)

    def test_eigenvector_gives_zero(self):
        # oracle: <0|[Z,X]|0> = 0 by direct 2x2 arithmetic
        assert bound_report(pauli_z(), pauli_x(), basis_state(2, 0)).t2 == 0.0

    def test_commuting_pair_gives_zero(self):
        a = Observable(np.diag([1.0, -1.0, 2.0]).astype(complex))
        b = Observable(np.diag([0.5, 3.0, -1.0]).astype(complex))
        state = normalize(np.array([1.0, 1.0, 1.0]))
        assert bound_report(a, b, state).t2 == 0.0

    def test_chain_on_random_instances(self):
        rng = np.random.default_rng(4)
        for dim in (2, 4, 6):
            for _ in range(10):
                state, a, b = random_instance(rng, dim)
                t2 = bound_report(a, b, state).t2
                sigma = 2.0 * np.sqrt(variance(a, state) * variance(b, state))
                assert variance(a, state) + variance(b, state) >= sigma - 1e-9
                assert sigma >= t2 - 1e-9


class TestL1Bound:
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("sign", [1, -1])
    def test_qubit_family_either_sign(self, alpha, sign):
        value = l1_bound(pauli_x(), pauli_z(), equatorial_state(alpha), perp_of(alpha), sign)
        assert value == pytest.approx((1.0 + np.sin(alpha) ** 2) / 2.0, abs=1e-13)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_eigenvector_instance(self, sign):
        # oracle: <0|(Z +- X)|1> = +-1, so the bound is 1/2 for both signs
        value = l1_bound(pauli_z(), pauli_x(), basis_state(2, 0), basis_state(2, 1), sign)
        assert value == pytest.approx(0.5, abs=1e-15)

    def test_vanishing_operator_difference(self):
        value = l1_bound(pauli_z(), pauli_z(), basis_state(2, 0), basis_state(2, 1), -1)
        assert value == 0.0

    def test_orthogonality_violation_rejected(self):
        with pytest.raises(OrthogonalityError):
            l1_bound(pauli_x(), pauli_z(), basis_state(2, 0), basis_state(2, 0), 1)

    def test_norm_violation_rejected(self):
        bad = np.array([0.0, 0.5])
        with pytest.raises(OrthogonalityError):
            l1_bound(pauli_x(), pauli_z(), basis_state(2, 0), bad, 1)

    def test_bad_sign_rejected(self):
        for bound in (l1_bound, l2_bound):
            for sign in (2, 0):
                with pytest.raises(ValueError):
                    bound(pauli_x(), pauli_z(), basis_state(2, 0), basis_state(2, 1), sign)

    @pytest.mark.parametrize("bound", [l1_bound, l2_bound], ids=["l1", "l2"])
    @pytest.mark.parametrize("dim", [2, 8])
    def test_empty_stack_gives_one_value_per_row(self, bound, dim):
        state, a, b = random_instance(np.random.default_rng(dim), dim)
        for sign in (1, -1):
            values = bound(a, b, state, np.zeros((0, dim), dtype=complex), sign)
            assert values.shape == (0,)


class TestL2Bound:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_qubit_family_best_sign(self, alpha):
        state, perp = equatorial_state(alpha), perp_of(alpha)
        best = max(l2_bound(pauli_x(), pauli_z(), state, perp, s) for s in (1, -1))
        assert best == pytest.approx(1.0 + np.sin(alpha) ** 2, abs=1e-13)

    def test_nontrivial_where_hrsur_is_zero(self):
        # oracle: <0|(Z -+ iX)|1> = -+i, so the best sign attains Var(Z)+Var(X) = 1
        state = basis_state(2, 0)
        best = max(l2_bound(pauli_z(), pauli_x(), state, basis_state(2, 1), s) for s in (1, -1))
        assert best == pytest.approx(1.0, abs=1e-15)
        assert bound_report(pauli_z(), pauli_x(), state).t1 == 0.0

    def test_common_eigenvector_gives_zero(self):
        value = max(l2_bound(pauli_z(), pauli_z(), basis_state(2, 0), basis_state(2, 1), s) for s in (1, -1))
        assert value == pytest.approx(0.0, abs=1e-15)

    def test_losing_sign_may_go_negative_but_validity_holds(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            state, a, b = random_instance(rng, 3)
            perp = QuantumState(
                np.linalg.qr(
                    np.column_stack([state.vector, rng.standard_normal(3) + 1j * rng.standard_normal(3)])
                )[0][:, 1]
            )
            sum_var = variance(a, state) + variance(b, state)
            for s in (1, -1):
                assert l2_bound(a, b, state, perp, s) <= sum_var + 1e-9


class TestOptimalXiPerpL1:
    @pytest.mark.parametrize("sign", [1, -1])
    def test_qubit_matches_unique_direction(self, sign):
        state = equatorial_state(1.0)
        cand = optimal_xi_perp(pauli_x(), pauli_z(), state, "l1", sign)
        overlap = abs(np.vdot(cand.vector.vector, perp_of(1.0).vector))
        assert overlap == pytest.approx(1.0, abs=1e-12)
        assert cand.bound_value == pytest.approx((1.0 + np.sin(1.0) ** 2) / 2.0, abs=1e-13)
        assert cand.kind == "analytic_optimum"

    def test_value_identity_on_random_instances(self):
        # expanding the projected norm gives (Var(A)+Var(B))/2 + s CovQ(A,B)
        rng = np.random.default_rng(13)
        for dim in (2, 3, 4, 8):
            for _ in range(10):
                state, a, b = random_instance(rng, dim)
                expected_base = 0.5 * (variance(a, state) + variance(b, state))
                covq = bound_report(a, b, state).covq
                for s in (1, -1):
                    cand = optimal_xi_perp(a, b, state, "l1", s)
                    assert cand.bound_value == pytest.approx(expected_base + s * covq, abs=1e-9)

    def test_degenerate_fallback(self):
        cand = optimal_xi_perp(pauli_z(), pauli_z(), basis_state(2, 0), "l1", -1)
        assert cand.bound_value == 0.0
        assert abs(np.vdot(cand.vector.vector, basis_state(2, 1).vector)) == pytest.approx(1.0)

    def test_fallback_reports_attained_value(self):
        # (Z - B)|0> = -1e-14 |1> is below the null tolerance, but not zero
        b = Observable(pauli_z().matrix + 1e-14 * pauli_x().matrix)
        state = basis_state(2, 0)
        cand = optimal_xi_perp(pauli_z(), b, state, "l1", -1)
        assert abs(np.vdot(cand.vector.vector, basis_state(2, 1).vector)) == pytest.approx(1.0)
        assert cand.bound_value == pytest.approx(l1_bound(pauli_z(), b, state, cand.vector, -1), rel=1e-12)
        assert cand.bound_value == pytest.approx(0.5e-28, rel=1e-12)


class TestOptimalXiPerpL2:
    def test_tightness_on_random_instances(self):
        rng = np.random.default_rng(19)
        for dim in (2, 3, 4, 8):
            for _ in range(10):
                state, a, b = random_instance(rng, dim)
                sum_var = variance(a, state) + variance(b, state)
                for s in (1, -1):
                    cand = optimal_xi_perp(a, b, state, "l2", s)
                    assert cand.bound_value == pytest.approx(sum_var, abs=1e-9)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_qubit_family(self, alpha):
        cand = optimal_xi_perp(pauli_x(), pauli_z(), equatorial_state(alpha), "l2", 1)
        assert cand.bound_value == pytest.approx(1.0 + np.sin(alpha) ** 2, abs=1e-13)

    def test_common_eigenvector_gives_zero(self):
        cand = optimal_xi_perp(pauli_z(), pauli_z(), basis_state(2, 0), "l2", 1)
        assert cand.bound_value == pytest.approx(0.0, abs=1e-15)


class TestBoundReport:
    def test_triviality_scenario_quantified(self):
        rep = bound_report(pauli_z(), pauli_x(), basis_state(2, 0))
        assert rep.hrsur_trivial
        assert rep.t1 == 0.0
        assert rep.t2 == 0.0
        assert rep.mpur == pytest.approx(1.0, abs=1e-15)
        assert rep.sum_var == pytest.approx(1.0, abs=1e-15)
        assert not rep.common_eigenvector

    def test_qubit_at_quarter_turn(self):
        rep = bound_report(pauli_x(), pauli_z(), equatorial_state(np.pi / 2))
        assert rep.var_a == pytest.approx(1.0, abs=1e-13)
        assert rep.var_b == pytest.approx(1.0, abs=1e-13)
        assert rep.t1 == pytest.approx(1.0, abs=1e-13)
        assert rep.t2 == pytest.approx(2.0, abs=1e-13)
        assert rep.l1 == pytest.approx(1.0, abs=1e-13)
        assert rep.l2 == pytest.approx(2.0, abs=1e-13)
        assert rep.mpur == pytest.approx(2.0, abs=1e-13)
        assert not rep.hrsur_trivial

    def test_common_eigenvector_instance(self):
        rep = bound_report(pauli_z(), pauli_z(), basis_state(2, 0))
        assert rep.common_eigenvector
        assert rep.sum_var == 0.0
        assert max(rep.t1, rep.t2, rep.l1, rep.l2) <= 1e-15
        assert not rep.hrsur_trivial  # a real common eigenvector is not the triviality problem

    def test_user_xi_perp_used_for_both_bounds(self):
        state = basis_state(2, 0)
        rep = bound_report(pauli_z(), pauli_x(), state, user_xi_perp=basis_state(2, 1))
        assert rep.l1_candidate.kind == "user_supplied"
        assert rep.l2_candidate.kind == "user_supplied"
        assert rep.l1 == pytest.approx(0.5, abs=1e-15)
        assert rep.l2 == pytest.approx(1.0, abs=1e-15)

    def test_sign_tie_reports_plus(self):
        # CovQ(X, Z) = 0 on the equatorial family, so both l1 signs tie
        rep = bound_report(pauli_x(), pauli_z(), equatorial_state(0.7))
        assert rep.l1_candidate.sign == 1
        assert rep.l2_candidate.sign == 1

    def test_mpur_is_exact_max(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            state, a, b = random_instance(rng, 4)
            rep = bound_report(a, b, state)
            assert rep.mpur == max(rep.l1, rep.l2)
            assert rep.saturation_gap == rep.sum_var - rep.mpur
            assert rep.saturation_gap >= -1e-9

    def test_report_inequalities(self):
        rng = np.random.default_rng(31)
        for dim in (2, 3, 6):
            for _ in range(10):
                state, a, b = random_instance(rng, dim)
                rep = bound_report(a, b, state)
                tol = 1e-9
                assert rep.t1 <= rep.prod_var + tol
                assert rep.t2 <= rep.sum_var + tol
                assert rep.l1 <= rep.sum_var + tol
                assert rep.l2 <= rep.sum_var + tol

    def test_phase_invariance(self):
        rng = np.random.default_rng(37)
        state, a, b = random_instance(rng, 5)
        rep = bound_report(a, b, state)
        phased = QuantumState(np.exp(1j * 1.23) * state.vector)
        rep2 = bound_report(a, b, phased)
        for name in ("var_a", "var_b", "t1", "t2", "l1", "l2", "mpur"):
            assert getattr(rep, name) == pytest.approx(getattr(rep2, name), abs=1e-12)

    def test_xi_perp_phase_invariance(self):
        state = basis_state(2, 0)
        plain = bound_report(pauli_z(), pauli_x(), state, user_xi_perp=basis_state(2, 1))
        phased_perp = QuantumState(np.exp(1j * 2.1) * basis_state(2, 1).vector)
        phased = bound_report(pauli_z(), pauli_x(), state, user_xi_perp=phased_perp)
        assert plain.l1 == pytest.approx(phased.l1, abs=1e-13)
        assert plain.l2 == pytest.approx(phased.l2, abs=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            bound_report(pauli_x(), pauli_z(), basis_state(3, 0))

    @pytest.mark.parametrize("dim", [2, 3, 8, 64])
    def test_candidates_are_read_only_unit_states_equal_to_optimal_xi_perp(self, dim):
        rng = np.random.default_rng([89, dim])
        diag = Observable(np.diag(rng.standard_normal(dim)))
        cases = [random_instance(rng, dim) for _ in range(3)]
        # common eigenvector: every direction is null and the fallback basis vector is returned
        cases.append((basis_state(dim, dim // 2), diag, diag))
        for state, a, b in cases:
            rep = bound_report(a, b, state)
            for which, cand in (("l1", rep.l1_candidate), ("l2", rep.l2_candidate)):
                assert isinstance(cand.vector, QuantumState)
                assert not cand.vector.vector.flags.writeable
                assert abs(np.linalg.norm(cand.vector.vector) - 1.0) <= 1e-15
                optimum = optimal_xi_perp(a, b, state, which, cand.sign)
                assert cand.vector.vector.tobytes() == optimum.vector.vector.tobytes()
                assert cand.bound_value == optimum.bound_value


def random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def report_floats(rep):
    """Every float of a report, by name; the per-sign pairs are unpacked."""
    values = {}
    for name, value in vars(rep).items():
        if isinstance(value, float):
            values[name] = value
        elif isinstance(value, tuple):
            values[f"{name}[0]"], values[f"{name}[1]"] = value
    values["l1_candidate.bound_value"] = rep.l1_candidate.bound_value
    values["l2_candidate.bound_value"] = rep.l2_candidate.bound_value
    return values


class TestInvariances:
    """Unitary covariance and A <-> B swap symmetry of the whole report."""

    @pytest.mark.parametrize("dim", [2, 3, 8, 64])
    def test_unitary_covariance(self, dim):
        rng = np.random.default_rng([41, dim])
        for _ in range(4):
            state, a, b = random_instance(rng, dim)
            u = random_unitary(rng, dim)
            ua = Observable(u @ a.matrix @ u.conj().T)
            ub = Observable(u @ b.matrix @ u.conj().T)
            ustate = QuantumState(u @ state.vector)
            tol = 1e-12 * (1.0 + a.frobenius_norm() ** 2 + b.frobenius_norm() ** 2)
            perp = optimal_xi_perp(a, b, state, "l1", 1).vector
            for xi_perp, uxi_perp in ((None, None), (perp, u @ perp.vector)):
                rep = bound_report(a, b, state, user_xi_perp=xi_perp)
                urep = bound_report(ua, ub, ustate, user_xi_perp=uxi_perp)
                plain, rotated = report_floats(rep), report_floats(urep)
                assert plain.keys() == rotated.keys()
                for name in plain:
                    assert abs(plain[name] - rotated[name]) <= tol, name
                for cand, ucand in ((rep.l1_candidate, urep.l1_candidate), (rep.l2_candidate, urep.l2_candidate)):
                    assert ucand.sign == cand.sign
                    np.testing.assert_allclose(ucand.vector.vector, u @ cand.vector.vector, rtol=0, atol=1e-12)
                assert (urep.hrsur_trivial, urep.common_eigenvector) == (rep.hrsur_trivial, rep.common_eigenvector)

    @pytest.mark.parametrize("dim", [2, 3, 8, 64])
    def test_swap_symmetry(self, dim):
        rng = np.random.default_rng([43, dim])
        for _ in range(4):
            state, a, b = random_instance(rng, dim)
            tol = 1e-12 * (1.0 + a.frobenius_norm() ** 2 + b.frobenius_norm() ** 2)
            # at the analytic optimum both l2 signs equal sum_var; a user xi_perp tells them apart
            for xi_perp in (None, random_unit_in_complement(state, rng)):
                rep = bound_report(a, b, state, user_xi_perp=xi_perp)
                swapped = bound_report(b, a, state, user_xi_perp=xi_perp)
                for name in ("t1", "t2", "sum_var", "covq", "l1", "l2", "mpur"):
                    assert abs(getattr(rep, name) - getattr(swapped, name)) <= tol, name
                # the l2 direction of (B, A) at sign s is a phase times that of (A, B) at -s
                for value, swapped_value in zip(rep.l2_by_sign, swapped.l2_by_sign[::-1]):
                    assert abs(value - swapped_value) <= tol
