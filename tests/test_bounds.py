import dataclasses
import os
import re
import sys
import warnings

import numpy as np
import pytest

import purbounds
from golden import report_bits
from purbounds import bounds
from purbounds.bounds import (
    BoundReport,
    OrthogonalCandidate,
    OrthogonalityError,
    _COEFFS,
    _checked_perp,
    _kernel,
    _unit_projections,
    _Values,
    _value_rows,
    bound_report,
    optimal_xi_perp,
)
from purbounds.quantum import (
    DimensionMismatchError,
    Observable,
    QuantumState,
    _equatorial_vectors,
    _norms,
    _project,
    basis_state,
    deviation_vector,
    equatorial_state,
    hermitian_eigensystem,
    normalize,
    pauli_x,
    pauli_z,
    variance,
)
from purbounds.verify import (
    l1_bound,
    l2_bound,
    random_observable,
    random_state,
    random_unit_in_complement,
    search_optimal_xi_perp,
)

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
        # a float or a bool is no sign, even at the value of one: 1.0 indexed a column, True read as +1
        state, perp = basis_state(2, 0), basis_state(2, 1)
        for sign in (2, 0, 1.0, -1.0, True):
            for bound in (l1_bound, l2_bound):
                with pytest.raises(ValueError):
                    bound(pauli_x(), pauli_z(), state, perp, sign)
            with pytest.raises(ValueError):
                optimal_xi_perp(pauli_x(), pauli_z(), state, "l1", sign)
            with pytest.raises(ValueError):
                OrthogonalCandidate(perp, 1.0, sign, "user_supplied")

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


class TestUserXiPerpShape:
    """A user xi_perp array is checked rank first, then for finiteness, and each entry point names its own
    rule: a report takes one vector, the reference one vector or a stack of rows. Its norm may be off 1 by
    at most RENORM_WINDOW (1e-6): both entry points take (1, -1)/sqrt(2) at 1 + 5e-7 times its length and
    reject it at 1 + 5e-6, so a window ten times wider or narrower fails. Its overlap with the state may be
    at most TOL_EIG (1e-10): both take an overlap of 0.9e-10 and reject 1.1e-10."""

    RANK = "xi_perp must be a 1-D array, got shape {}"
    STACK = "xi_perp must be a 1-D array or a stack of rows, got shape {}"
    FINITE = "xi_perp must be finite"
    OFF_NORM = "xi_perp norm 1.000005 differs from 1 by more than 1e-06"
    OVERFLOW = "xi_perp norm inf differs from 1 by more than 1e-06"
    OVERLAP = "|<state|xi_perp>| = 1.100e-10 exceeds 1.0e-10"

    # xi_perp at the state (1, 1)/sqrt(2), bound_report's message and l1_bound's, each with the shape filled in;
    # None: l1_bound accepts the stack and returns one value per row, or both entry points accept the vector
    BAD = {
        "nan": (np.array([1.0, np.nan]), FINITE, FINITE),
        "inf_imag": (np.array([1.0, complex(0.0, np.inf)]), FINITE, FINITE),
        "rank_3": (np.zeros((1, 1, 2)), RANK, STACK),
        "scalar": (np.array(1.0), RANK, STACK),
        "zero_rows": (np.zeros((2, 2)), RANK, "xi_perp norm 0.0 differs from 1 by more than 1e-06"),
        "unit_orthogonal_rows": (np.array([[1, -1], [1, -1]]) / np.sqrt(2), RANK, None),
        "wrong_dim_rows": (np.zeros((2, 3)), RANK, "dimension mismatch: (2, 3)"),
        "norm_inside_window": ((1 + 5e-7) * np.array([1, -1]) / np.sqrt(2), None, None),
        "norm_outside_window": ((1 + 5e-6) * np.array([1, -1]) / np.sqrt(2), OFF_NORM, OFF_NORM),
        # the squared norm overflows to inf, which is outside the window: one error and no RuntimeWarning
        "norm_overflow": (np.array([1e200, -1e200]), OVERFLOW, OVERFLOW),
        "norm_overflow_rows": (np.array([[1e200, -1e200], [1, -1]]), RANK, OVERFLOW),
        # a unit row 0 and a row 1 of norm 2: the message names the first row outside the window, not row 0
        "second_row_off_norm": (np.array([[1, -1] / np.sqrt(2), [2, 0]]), RANK,
                                "xi_perp norm 2.0 differs from 1 by more than 1e-06"),
        # eps (1, 1)/sqrt(2) + (1, -1)/sqrt(2), at overlap eps with the state: the overlap tolerance is TOL_EIG
        # (1e-10), absolute, since both vectors are unit whatever the scale of A and B
        "overlap_inside": ((0.9e-10 * np.array([1, 1]) + np.array([1, -1])) / np.sqrt(2), None, None),
        "overlap_outside": ((1.1e-10 * np.array([1, 1]) + np.array([1, -1])) / np.sqrt(2), OVERLAP, OVERLAP),
    }

    @pytest.mark.parametrize("name", BAD)
    def test_rejected_with_its_shape(self, name):
        xi_perp, report_message, reference_message = self.BAD[name]
        state = equatorial_state(0.0)
        if report_message is None:
            rep = bound_report(pauli_x(), pauli_z(), state, user_xi_perp=xi_perp)
            assert rep.l1_candidate.kind == "user_supplied"
            assert np.isfinite(l1_bound(pauli_x(), pauli_z(), state, xi_perp, 1))
            return
        with pytest.raises(ValueError, match=f"^{re.escape(report_message.format(xi_perp.shape))}$") as info:
            bound_report(pauli_x(), pauli_z(), state, user_xi_perp=xi_perp)
        orthogonality = (self.OFF_NORM, self.OVERFLOW, self.OVERLAP)
        assert type(info.value) is (OrthogonalityError if report_message in orthogonality else ValueError)
        if reference_message is None:
            assert l1_bound(pauli_x(), pauli_z(), state, xi_perp, 1).shape == (len(xi_perp),)
            return
        with pytest.raises(ValueError, match=f"^{re.escape(reference_message.format(xi_perp.shape))}$"):
            l1_bound(pauli_x(), pauli_z(), state, xi_perp, 1)


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

    @pytest.mark.parametrize("form", ["state", "array"])
    def test_unit_xi_perp_is_read_as_given(self, form):
        # (1, -1)/sqrt(2) has norm 1 - 1.1e-16, within TOL_NORM: both candidates hold its bytes, as the
        # QuantumState holds them, not a copy renormalized one rounding away
        h = 1 / np.sqrt(2.0)
        given = QuantumState([h, -h]) if form == "state" else np.array([h, -h], dtype=complex)
        rep = bound_report(pauli_x(), pauli_z(), equatorial_state(0.0), user_xi_perp=given)
        raw = given.vector if form == "state" else given
        assert raw.tobytes() == np.array([h, -h], dtype=complex).tobytes()
        for cand in (rep.l1_candidate, rep.l2_candidate):
            assert cand.vector.vector.tobytes() == raw.tobytes()
        if form == "array":
            # the caller's array is neither frozen nor shared by the read-only candidate
            assert given.flags.writeable
            assert not np.shares_memory(given, rep.l1_candidate.vector.vector)

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
                # every (bound, sign) row, not only the maximizing one
                by_sign = getattr(rep, f"{which}_by_sign")
                for i, sign in enumerate((1, -1)):
                    assert optimal_xi_perp(a, b, state, which, sign).bound_value == by_sign[i]


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


class TestTrivialityRegime:
    """The paper's triviality regime: at an eigenvector of one observable HRSUR says nothing, t1 = t2 = 0,
    and Maccone-Pati still bounds the sum, l1 = Var(other)/2 and l2 = sum_var = Var(other) > 0.

    GUE pairs, at the lowest and the highest eigenvector of A and then of B, with the operands scaled by
    2^-30, 1 and 2^30. Degree-2 values hold within 4 eps (|A|_F^2 + |B|_F^2), the forward-error rule
    measured for analytic values, and the degree-4 t1 and prod_var within its square.
    """

    @pytest.mark.parametrize("dim", [2, 3, 4, 8, 16, 32, 64])
    def test_values_at_an_eigenvector_of_either_operand(self, dim):
        for seed in range(4):
            rng = np.random.default_rng([151, dim, seed])
            a0, b0 = random_observable(dim, rng), random_observable(dim, rng)
            for sharp, other_index in ((a0, 1), (b0, 0)):
                vectors = hermitian_eigensystem(sharp)[1]
                for state in (QuantumState(vectors[:, 0]), QuantumState(vectors[:, -1])):
                    for scale in (2.0**-30, 1.0, 2.0**30):
                        a, b = Observable(scale * a0.matrix), Observable(scale * b0.matrix)
                        rep = bound_report(a, b, state)
                        tol = 4 * np.finfo(float).eps * (a.frobenius_norm() ** 2 + b.frobenius_norm() ** 2)
                        var_other = variance((a, b)[other_index], state)
                        assert rep.t1 <= tol**2 and rep.prod_var <= tol**2
                        assert rep.t2 <= tol
                        assert abs(rep.l1 - var_other / 2) <= tol
                        assert abs(rep.l2 - var_other) <= tol and abs(rep.sum_var - var_other) <= tol
                        assert abs(rep.saturation_gap) <= tol
                        assert rep.mpur > 0


class TestKernelHalves:
    """bound_report's moments and HRSUR bounds are the kernel record's and its `_value_rows` row's, bit for bit."""

    @pytest.mark.parametrize("dim", [2, 3, 8, 64])
    def test_shared_fields_equal_by_hex(self, dim):
        rng = np.random.default_rng([47, dim])
        for _ in range(4):
            state, a, b = random_instance(rng, dim)
            # bound_report is the one-row view: the record keeps one float per row, and the HRSUR bounds
            # do not depend on xi_perp, so the analytic row holds them for both branches
            k = _kernel(a, b, state.vector[None])
            (row,) = _value_rows(k)
            for xi_perp in (None, random_unit_in_complement(state, rng)):
                rep = bound_report(a, b, state, user_xi_perp=xi_perp)
                for name in ("var_a", "var_b", "covq"):
                    (value,) = getattr(k, name)
                    assert getattr(rep, name).hex() == value.hex(), name
                for name in ("prod_var", "t1", "t2"):
                    assert getattr(rep, name).hex() == getattr(row, name).hex(), name
                assert rep.comm_mean_abs.hex() == row.t2.hex()


def assert_rows_equal_reports(a, b, states, perps=None):
    """Each row of one stacked `_value_rows` call equals the one-row `bound_report` on that row's state,
    field by field by `repr`, and each row of one `(n, 2)` projection pass equals its candidate vectors
    byte for byte; with `perps` the rows are the checked user vectors. Returns the reports."""
    k = _kernel(a, b, np.stack([state.vector for state in states]))
    if perps is None:
        rows = _value_rows(k)
        vectors = _unit_projections(k, _COEFFS[np.array([(row.l1_column, 2 + row.l2_column) for row in rows])])
        reports = [bound_report(a, b, state) for state in states]
    else:
        checked = np.stack([_checked_perp(state, perp) for state, perp in zip(states, perps)])
        rows, vectors = _value_rows(k, checked), np.stack((checked, checked), axis=1)
        reports = [bound_report(a, b, state, user_xi_perp=perp) for state, perp in zip(states, perps)]
    assert len(rows) == len(vectors) == len(states)
    for row, candidates, rep in zip(rows, vectors, reports):
        for name, value in row._asdict().items():
            if name.endswith("_column"):
                assert value == (1 - getattr(rep, name.replace("column", "candidate")).sign) // 2, name
            else:
                # repr is exact for floats and bools, and tells -0.0 from 0.0
                assert repr(value) == repr(getattr(rep, name)), name
        for vector, cand in zip(candidates, (rep.l1_candidate, rep.l2_candidate)):
            assert vector.tobytes() == cand.vector.vector.tobytes()
    return reports


class TestStackedKernel:
    """Each row of a stacked kernel call is, bit for bit, the one-row call on that row's state."""

    @pytest.mark.parametrize("dim", [2, 3, 8, 64])
    def test_rows_equal_single_reports(self, dim):
        rng = np.random.default_rng([89, dim])
        a, b = random_observable(dim, rng), random_observable(dim, rng)
        states = [random_state(dim, rng) for _ in range(5)]
        assert_rows_equal_reports(a, b, states)
        kernel = _kernel(a, b, np.stack([state.vector for state in states]))
        for row, state in enumerate(states):
            assert kernel.psi[row].tobytes() == deviation_vector(a, state).tobytes()
            assert kernel.phi[row].tobytes() == deviation_vector(b, state).tobytes()

    @pytest.mark.parametrize("dim", [2, 3, 8, 64])
    def test_user_xi_perp_rows(self, dim):
        rng = np.random.default_rng([97, dim])
        a, b = random_observable(dim, rng), random_observable(dim, rng)
        states = [random_state(dim, rng) for _ in range(5)]
        assert_rows_equal_reports(a, b, states, [random_unit_in_complement(state, rng) for state in states])

    def test_null_fallback_rows_among_ordinary_rows(self):
        # X/Z on the equatorial states: at alpha = pi/2 the l2(+) direction psi - i phi vanishes
        # and at alpha = 0 (an X eigenstate) both l2 directions do
        alphas = [0.3, np.pi / 2, 2.0, 0.0, 3 * np.pi / 2, np.pi / 2]
        states = [equatorial_state(alpha) for alpha in alphas]
        reports = assert_rows_equal_reports(pauli_x(), pauli_z(), states)
        # the null row's candidate is the normalized complement projection of e_k,
        # k the first index other than that of the largest |xi_k|
        xi = states[1].vector
        e_k = np.eye(2, dtype=complex)[int(np.abs(xi).argmax() == 0)]
        expected = e_k - np.vdot(xi, e_k) * xi
        fallback = reports[1].l2_candidate
        assert fallback.sign == 1
        np.testing.assert_allclose(fallback.vector.vector, expected / np.linalg.norm(expected), atol=1e-15)

    @pytest.mark.parametrize("dim", [2, 4, 64])
    def test_common_eigenvector_rows_among_random_rows(self, dim):
        # a common eigenvector: every projection is null there, so that row is all fallback
        rng = np.random.default_rng([101, dim])
        a = Observable(np.diag(np.arange(1.0, dim + 1.0)).astype(complex))
        b = Observable(np.diag(np.linspace(-1.0, 2.0, dim)).astype(complex))
        states = [random_state(dim, rng), basis_state(dim, dim - 1), random_state(dim, rng), basis_state(dim, 0)]
        reports = assert_rows_equal_reports(a, b, states)
        assert [rep.common_eigenvector for rep in reports] == [False, True, False, True]

    def test_sweep_rows(self):
        # the 241 states of the qubit sweep, which reads them from one stacked call
        alphas = [2.0 * np.pi * k / 241 for k in range(241)]
        states = [QuantumState(row) for row in _equatorial_vectors(alphas)]
        assert_rows_equal_reports(pauli_x(), pauli_z(), states)
        assert_rows_equal_reports(pauli_x(), pauli_z(), states, [equatorial_state(x + np.pi) for x in alphas])

    def test_stack_of_rows_user_xi_perp_rejected_as_before(self):
        # each row is a valid xi_perp, but the candidate is one state
        state = equatorial_state(0.3)
        rows = np.stack([perp_of(0.3).vector, perp_of(0.3).vector])
        with pytest.raises(ValueError, match=re.escape("xi_perp must be a 1-D array, got shape (2, 2)")) as info:
            bound_report(pauli_x(), pauli_z(), state, user_xi_perp=rows)
        assert type(info.value) is ValueError


class TestValuesFirst:
    """The values rows and the suite's one projection pass each equal, bit for bit, what the
    routes they replace compute."""

    @pytest.mark.parametrize("dim", [2, 3, 8, 64])
    def test_values_record_holds_the_reports_values(self, dim):
        # a values row has the report's fields in order, each candidate replaced by its sign's column
        names = [name.replace("candidate", "column") for name in BoundReport.__dataclass_fields__]
        assert list(_Values._fields) == names
        rng = np.random.default_rng([109, dim])
        a, b = random_observable(dim, rng), random_observable(dim, rng)
        states = [random_state(dim, rng) for _ in range(5)]
        assert_rows_equal_reports(a, b, states)
        assert_rows_equal_reports(a, b, states, [random_unit_in_complement(state, rng) for state in states])

    @pytest.mark.parametrize("dim", range(2, 65))
    def test_projection_pass_is_the_complement_rules(self, dim):
        # the pass writes out `_project` and `_norms`: each unit row is the projected direction over its norm
        rng = np.random.default_rng([127, dim])
        a, b = random_observable(dim, rng), random_observable(dim, rng)
        k = _kernel(a, b, np.stack([random_state(dim, rng).vector for _ in range(3)]))
        directions = rng.integers(0, 4, size=(3, 4))
        projected = _project(k.xi[:, None], k.psi[:, None] + _COEFFS[directions] * k.phi[:, None])
        expected = projected / _norms(projected)[..., None]
        assert _unit_projections(k, _COEFFS[directions]).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dim", range(2, 65))
    def test_one_projection_pass_over_four_directions(self, dim):
        # per row: the maximizing directions (l1 at column c, l2 at column c2), then the other signs
        rng = np.random.default_rng([113, dim])
        a, b = random_observable(dim, rng), random_observable(dim, rng)
        instances = [(a, b, np.stack([random_state(dim, rng).vector for _ in range(4)]))]
        if dim == 2:
            # X/Z on equatorial states, where the l2 projections are null and take the fallback
            alphas = [0.0, np.pi / 2, 0.3, np.pi, 3 * np.pi / 2]
            instances.append((pauli_x(), pauli_z(), np.stack([equatorial_state(x).vector for x in alphas])))
        for a, b, xi in instances:
            k = _kernel(a, b, xi)
            columns = rng.integers(0, 2, size=(len(k.xi), 2))
            best = columns + (0, 2)
            other = best ^ 1
            both = _unit_projections(k, _COEFFS[np.concatenate((best, other), axis=1)])
            split = np.concatenate((_unit_projections(k, _COEFFS[best]), _unit_projections(k, _COEFFS[other])), axis=1)
            assert both.tobytes() == split.tobytes()
            # the suite's pass: row 0 of one row's (1, 4) directions over both rows of its (state, phased
            # state) record is the one-row record's pass
            for row, directions in zip(xi, np.concatenate((best, other), axis=1)):
                phased = _kernel(a, b, np.array((row, np.exp(2j * np.pi * rng.random()) * row)))
                pair = _unit_projections(phased, _COEFFS[directions[None]])
                single = _unit_projections(_kernel(a, b, row[None]), _COEFFS[directions[None]])
                assert pair.shape == (2, 4, dim) and pair[0].tobytes() == single[0].tobytes()


class TestDispatchFloor:
    """A report costs a handful of matrix-vector products plus its Python dispatch; these counts hold the
    dispatch where it is. Only frames of the package's own functions are counted: numpy's C calls
    vary with the numpy version."""

    # frames of package functions per report: analytic, with a QuantumState xi_perp and with an array
    # xi_perp; lower is fine
    ANALYTIC_FRAMES = 9
    STATE_FRAMES = 8
    ARRAY_FRAMES = 10

    @staticmethod
    def _frames(call):
        package = os.path.dirname(purbounds.__file__) + os.sep
        names = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename.startswith(package):
                names.append(frame.f_code.co_name)

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            call()
        finally:
            sys.setprofile(previous)
        return names

    @pytest.mark.parametrize("dim", [2, 8, 64])
    def test_frames_per_report(self, dim):
        rng = np.random.default_rng([131, dim])
        state, a, b = random_instance(rng, dim)
        perp = random_unit_in_complement(state, rng)
        analytic = self._frames(lambda: bound_report(a, b, state))
        assert len(analytic) <= self.ANALYTIC_FRAMES, analytic
        # a QuantumState is unit by construction: it is read as is, with no norm and no unit-vector rule
        user = self._frames(lambda: bound_report(a, b, state, user_xi_perp=perp))
        assert len(user) <= self.STATE_FRAMES, user
        assert not {"_norms", "_unit_rows"} & set(user), user
        user = self._frames(lambda: bound_report(a, b, state, user_xi_perp=perp.vector.copy()))
        assert len(user) <= self.ARRAY_FRAMES, user


class TestPackageBuiltValues:
    """A report's candidates and the report itself are built without re-validation; each equals, bit for
    bit and field for field, what the public constructors make of the same values, and stays frozen."""

    @pytest.mark.parametrize("dim", [2, 3, 8, 64])
    def test_package_built_values_equal_public_ones(self, dim):
        rng = np.random.default_rng([113, dim])
        state, a, b = random_instance(rng, dim)
        for xi_perp in (None, random_unit_in_complement(state, rng)):
            rep = bound_report(a, b, state, user_xi_perp=xi_perp)
            cands = [
                OrthogonalCandidate(QuantumState(cand.vector.vector), cand.bound_value, cand.sign, cand.kind)
                for cand in (rep.l1_candidate, rep.l2_candidate)
            ]
            for built, public in zip((rep.l1_candidate, rep.l2_candidate), cands):
                assert type(built) is OrthogonalCandidate and type(built.sign) is int
                assert list(vars(built)) == list(vars(public))
                assert built.vector.vector.tobytes() == public.vector.vector.tobytes()
                assert (built.bound_value.hex(), built.sign, built.kind) == (public.bound_value.hex(), public.sign, public.kind)
            fields = {field.name: getattr(rep, field.name) for field in dataclasses.fields(BoundReport)}
            public = BoundReport(**{**fields, "l1_candidate": cands[0], "l2_candidate": cands[1]})
            assert type(rep) is BoundReport and list(vars(rep)) == list(vars(public))
            assert report_bits(rep) == report_bits(public)
            for name in ("sum_var", "hrsur_trivial"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(rep, name, getattr(rep, name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                rep.l1_candidate.sign = 1


class TestPublicCandidate:
    """The candidates `optimal_xi_perp` builds equal the public ones, and the public constructor still
    checks what the package-built path skips."""

    def test_optimal_xi_perp_equals_the_public_candidate(self):
        rng = np.random.default_rng(127)
        state, a, b = random_instance(rng, 5)
        for which in ("l1", "l2"):
            for sign in (1, -1):
                cand = optimal_xi_perp(a, b, state, which, sign)
                public = OrthogonalCandidate(QuantumState(cand.vector.vector), cand.bound_value, sign, "analytic_optimum")
                assert type(cand) is OrthogonalCandidate and list(vars(cand)) == list(vars(public))
                assert cand.vector.vector.tobytes() == public.vector.vector.tobytes()
                assert (cand.bound_value.hex(), cand.sign, cand.kind) == (public.bound_value.hex(), sign, public.kind)

    @pytest.mark.parametrize("sign", [2, 1.0, True], ids=["two", "float", "bool"])
    def test_public_candidate_still_checks_its_sign(self, sign):
        with pytest.raises(ValueError, match="sign must be"):
            OrthogonalCandidate(basis_state(2, 1), 1.0, sign, "user_supplied")

    def test_public_candidate_still_checks_its_kind(self):
        with pytest.raises(ValueError, match="unknown candidate kind 'search_optimum'"):
            OrthogonalCandidate(basis_state(2, 1), 1.0, 1, "search_optimum")


class TestOperandScale:
    """Past the operand scale where Var(A) Var(B) leaves the double range,
    bound_report raises ValueError; below it every float is finite."""

    @pytest.mark.parametrize("scale", [1e70, 1e80, 1e100, 1e150])
    def test_finite_report_or_value_error(self, scale):
        rng = np.random.default_rng([53, 4])
        state, a, b = random_instance(rng, 4)
        big_a, big_b = Observable(scale * a.matrix), Observable(scale * b.matrix)
        for xi_perp in (None, random_unit_in_complement(state, rng)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    rep = bound_report(big_a, big_b, state, user_xi_perp=xi_perp)
                except ValueError as exc:
                    assert type(exc) is ValueError
                    assert "operand scale" in str(exc)
                    continue
            assert all(np.isfinite(v) for v in report_floats(rep).values())

    @pytest.mark.parametrize("scale", [1e70, 1e80, 1e100, 1e150])
    def test_degree_two_entry_points_stay_finite(self, scale):
        # none of these reads Var(A) Var(B), so none goes through the report's scale limit
        rng = np.random.default_rng([59, 4])
        state, a, b = random_instance(rng, 4)
        big_a, big_b = Observable(scale * a.matrix), Observable(scale * b.matrix)
        perp = random_unit_in_complement(state, rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [l1_bound(big_a, big_b, state, perp, s) for s in (1, -1)]
            values += [l2_bound(big_a, big_b, state, perp, s) for s in (1, -1)]
            for which in ("l1", "l2"):
                for sign in (1, -1):
                    values.append(optimal_xi_perp(big_a, big_b, state, which, sign).bound_value)
                    search = search_optimal_xi_perp(big_a, big_b, state, which, sign, samples=16, seed=5)
                    values += [search.best_value, search.analytic_value]
        assert all(isinstance(v, float) and np.isfinite(v) for v in values)

    def test_both_sides_of_the_limit(self):
        rng = np.random.default_rng([53, 4])
        state, a, b = random_instance(rng, 4)
        rep = bound_report(Observable(1e70 * a.matrix), Observable(1e70 * b.matrix), state)
        assert rep.t1 > 0.0 and np.isfinite(rep.prod_var)
        with pytest.raises(ValueError, match=r"operand scale too large: Var\(A\) Var\(B\) = .* \(\|A\|_F = "):
            bound_report(Observable(1e80 * a.matrix), Observable(1e80 * b.matrix), state)
        # the edge itself: s X and s Y at |0> have Var(A) Var(B) = s^4, at max/10 and max/6 on either side of
        # max/8, so a limit at max/4 lets max/6 through
        x, y = pauli_x().matrix, np.array([[0, -1j], [1j, 0]])
        s = (np.finfo(float).max / 10) ** 0.25
        assert np.isfinite(bound_report(Observable(s * x), Observable(s * y), basis_state(2, 0)).t1)
        s = (np.finfo(float).max / 6) ** 0.25
        with pytest.raises(ValueError, match=r"^operand scale too large: "):
            bound_report(Observable(s * x), Observable(s * y), basis_state(2, 0))

    @pytest.mark.parametrize("user", [False, True])
    def test_every_row_is_scaled_before_any_value(self, monkeypatch, user):
        # s X and s Y on |+> and |0>: row 0's Var(A) Var(B) is rounding residue, far below max/8, and row 1's is
        # s^4 = max/6, above it. The error names row 1's product, and no Maccone-Pati value of either row is
        # formed first
        s = (np.finfo(float).max / 6) ** 0.25
        a, b = Observable(s * pauli_x().matrix), Observable(s * np.array([[0, -1j], [1j, 0]]))
        k = _kernel(a, b, np.array([[1, 1], [np.sqrt(2), 0]]) / np.sqrt(2))
        assert k.var_a[0] * k.var_b[0] < 1e-20 * bounds._MAX_VAR_PRODUCT
        formed = []
        for name in ("_signs", "_optimum_values"):
            monkeypatch.setattr(bounds, name, lambda *args, name=name: formed.append(name))
        message = f"operand scale too large: Var(A) Var(B) = {k.var_a[1] * k.var_b[1]:.3e} exceeds "
        with warnings.catch_warnings(), pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            warnings.simplefilter("error")
            _value_rows(k, np.array([[1, -1], [0, np.sqrt(2)]]) / np.sqrt(2) if user else None)
        assert formed == []

    def test_user_xi_perp_is_checked_before_the_limit(self):
        # the kernel record reads no degree-4 quantity, so a bad xi_perp is named first
        rng = np.random.default_rng([53, 4])
        state, a, b = random_instance(rng, 4)
        with pytest.raises(OrthogonalityError):
            bound_report(Observable(1e80 * a.matrix), Observable(1e80 * b.matrix), state, user_xi_perp=state)
