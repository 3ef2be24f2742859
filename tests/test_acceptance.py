"""Acceptance criteria, one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import json
import math
import time

import numpy as np
import pytest

from purbounds.bounds import bound_report, optimal_xi_perp
from purbounds.cli import main
from purbounds.montecarlo import statistical_bound_check
from purbounds.quantum import Observable, basis_state, equatorial_state, pauli_x, pauli_z
from purbounds.verify import (
    DEFECT_CHECKS,
    SLACK_CHECKS,
    random_observable,
    random_state,
    run_invariant_suite,
    search_optimal_xi_perp,
)

SUITE_COUNT = 1000
SUITE_DIMS = (2, 3, 4, 6, 8)
SUITE_SEED = 42
SUITE_TOL = 1e-9
PERP_SAMPLES = 100

MC_SEED = 42
MC_SAMPLES = 100_000
MC_ALPHAS = (0.0, math.pi / 4, math.pi / 2)


@pytest.fixture(scope="module")
def suite_run():
    start = time.perf_counter()
    report = run_invariant_suite(
        count=SUITE_COUNT, dims=SUITE_DIMS, seed=SUITE_SEED, tol=SUITE_TOL, perp_samples=PERP_SAMPLES
    )
    elapsed = time.perf_counter() - start
    return report, elapsed


@pytest.fixture(scope="module")
def montecarlo_run():
    a, b = pauli_x(), pauli_z()
    start = time.perf_counter()
    reports = {
        alpha: statistical_bound_check(a, b, equatorial_state(alpha), n=MC_SAMPLES, seed=MC_SEED)
        for alpha in MC_ALPHAS
    }
    elapsed = time.perf_counter() - start
    return reports, elapsed


def test_criterion_1_qubit_sweep_closed_forms(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--points", "241", "--out", str(out)]) == 0
    elapsed = time.perf_counter() - start

    lines = out.read_text().splitlines()
    assert lines[0] == "alpha,var_a,var_b,sum_var,prod_var,t1,t2,l1,l2"
    assert len(lines) == 242
    worst = 0.0
    for line in lines[1:]:
        alpha, _, _, _, _, t1, t2, l1, l2 = map(float, line.split(","))
        s2 = math.sin(alpha) ** 2
        worst = max(
            worst,
            abs(t1 - s2),
            abs(t2 - 2.0 * abs(math.sin(alpha))),
            abs(l1 - (1.0 + s2) / 2.0),
            abs(l2 - (1.0 + s2)),
        )
    assert worst <= 1e-10
    assert elapsed < 1.0
    print(f"PASS criterion 1: sweep --points 241 matches closed forms (worst dev {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_2_triviality_demonstration():
    worst = 0.0
    for alpha in (0.0, math.pi):
        rep = bound_report(pauli_x(), pauli_z(), equatorial_state(alpha))
        worst = max(worst, abs(rep.t1), abs(rep.t2), abs(rep.l1 - 0.5), abs(rep.l2 - 1.0), abs(rep.var_b - 1.0))
        assert rep.t1 <= 1e-12
        assert rep.t2 <= 1e-12
        assert rep.l1 == pytest.approx(0.5, abs=1e-12)
        assert rep.l2 == pytest.approx(1.0, abs=1e-12)
        assert rep.l2 > 0.0
        assert rep.var_b == pytest.approx(1.0, abs=1e-12)
    print(f"PASS criterion 2: at alpha in {{0, pi}} the HRSUR bounds vanish while l1=0.5, l2=1 (worst dev {worst:.2e})")


def test_criterion_3_random_invariant_suite(suite_run):
    report, elapsed = suite_run
    assert report.count == SUITE_COUNT
    assert report.violations == []
    assert tuple(report.min_slacks) == SLACK_CHECKS
    assert tuple(report.max_defects) == DEFECT_CHECKS
    assert min(report.min_slacks.values()) >= -SUITE_TOL
    assert elapsed < 30.0
    print(
        f"PASS criterion 3: 1000 instances over dims {SUITE_DIMS}, seed {SUITE_SEED}: "
        f"0 violations at tol {SUITE_TOL} ({elapsed:.2f}s)"
    )


def test_criterion_4_l2_tightness(suite_run):
    report, _ = suite_run
    assert report.max_defects["tightness_l2"] <= 1e-9
    # independent d = 2 check: the brute-force search attains the same value
    rng = np.random.default_rng(101)
    worst_gap = 0.0
    for _ in range(25):
        state = random_state(2, rng)
        a = random_observable(2, rng)
        b = random_observable(2, rng)
        for sign in (1, -1):
            res = search_optimal_xi_perp(a, b, state, "l2", sign, samples=50, seed=11)
            worst_gap = max(worst_gap, abs(res.gap))
    assert worst_gap <= 1e-9
    print(
        f"PASS criterion 4: optimized l2 = Var(A)+Var(B) "
        f"(suite defect {report.max_defects['tightness_l2']:.2e}, d=2 search gap {worst_gap:.2e})"
    )


def test_criterion_5_l1_identity(suite_run):
    report, _ = suite_run
    assert report.max_defects["l1_identity"] <= 1e-9
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(25):
        state = random_state(2, rng)
        a = random_observable(2, rng)
        b = random_observable(2, rng)
        for sign in (1, -1):
            cand = optimal_xi_perp(a, b, state, "l1", sign)
            res = search_optimal_xi_perp(a, b, state, "l1", sign, samples=50, seed=13)
            worst = max(worst, abs(res.best_value - cand.bound_value))
    assert worst <= 1e-9
    print(
        f"PASS criterion 5: optimized l1 = (Var(A)+Var(B))/2 + |CovQ| "
        f"(suite defect {report.max_defects['l1_identity']:.2e}, d=2 search match {worst:.2e})"
    )


def test_criterion_6_nontriviality(suite_run):
    report, _ = suite_run
    assert not any(v["check"].startswith("nontriviality") for v in report.violations)
    # non-commuting pair sharing exactly the first eigenvector
    a = Observable(np.array([[1, 0, 0], [0, 2, 1], [0, 1, 3]], dtype=complex))
    b = Observable(np.array([[2, 0, 0], [0, 1, 1j], [0, -1j, 4]], dtype=complex))
    assert np.max(np.abs(a.matrix @ b.matrix - b.matrix @ a.matrix)) > 0.5
    rep = bound_report(a, b, basis_state(3, 0))
    assert rep.common_eigenvector
    assert max(abs(rep.t1), abs(rep.t2), abs(rep.l1), abs(rep.l2), rep.mpur) <= 1e-12
    print("PASS criterion 6: zero bounds only at common eigenvectors; constructed instance yields all bounds 0")


def test_criterion_7_montecarlo_consistency(montecarlo_run):
    reports, elapsed = montecarlo_run
    for alpha, rep in reports.items():
        expected = 1.0 + math.sin(alpha) ** 2
        assert not rep.violation
        assert rep.analytic_sum == pytest.approx(expected, abs=1e-12)
        assert abs(rep.empirical_sum - expected) <= 5.0 * rep.combined_stderr
        assert rep.empirical_sum + 5.0 * rep.combined_stderr >= rep.mpur
    assert elapsed < 5.0
    print(
        f"PASS criterion 7: empirical Var(X)+Var(Z) within 5 stderr of 1+sin^2(alpha) "
        f"at alpha in {{0, pi/4, pi/2}}, n=1e5 ({elapsed:.2f}s)"
    )


def test_criterion_8_determinism(suite_run, montecarlo_run):
    suite_report, _ = suite_run
    second_suite = run_invariant_suite(
        count=SUITE_COUNT, dims=SUITE_DIMS, seed=SUITE_SEED, tol=SUITE_TOL, perp_samples=PERP_SAMPLES
    )
    suite_bytes_1 = json.dumps(suite_report.to_dict(), sort_keys=True).encode()
    suite_bytes_2 = json.dumps(second_suite.to_dict(), sort_keys=True).encode()
    assert suite_bytes_1 == suite_bytes_2

    mc_reports, _ = montecarlo_run
    a, b = pauli_x(), pauli_z()
    for alpha, rep in mc_reports.items():
        again = statistical_bound_check(a, b, equatorial_state(alpha), n=MC_SAMPLES, seed=MC_SEED)
        assert json.dumps(rep.to_dict(), sort_keys=True).encode() == json.dumps(again.to_dict(), sort_keys=True).encode()
    print("PASS criterion 8: repeated runs of criteria 3 and 7 with identical seeds are byte-identical")
