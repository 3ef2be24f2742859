"""Run tier-1 against one-line mutants of src/purbounds and print which the tests kill.

Each row of MUTANTS is (file, old, new, reason): `old` must occur exactly
once in the file, and the mutant replaces it with `new`. For each row, `src`,
`tests`, `pyproject.toml` and the README (which tests read) are copied to a
temporary directory, the edit is applied there, and tier-1 runs there with `-x -q`. The checkout is never
edited. A mutant is killed when tier-1 fails on it and survives when it
passes; the reason says which test kills it, or why it survives. A row whose
`old` does not occur exactly once reads STALE and is not run.

The unmutated copy runs first. If it does not pass, every mutant would read
killed, so the script says so and stops.

    python ci/mutants.py    # from the repository root, ~10 s per row

The table is informational: the script always exits 0.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the tolerance edges of ROADMAP item 20 and the live survivors of item 22's survey, each as (file, old, new, reason)
MUTANTS = (
    ("src/purbounds/quantum.py", "if drift > RENORM_WINDOW:", "if drift > 10 * RENORM_WINDOW:",
     "RENORM_WINDOW x10 in _unit_rows: TestUserXiPerpShape's norm_outside_window row"),
    ("src/purbounds/quantum.py", "if drift > TOL_NORM else", "if drift > 10 * TOL_NORM else",
     "TOL_NORM x10 in _unit_rows: TestOneComplementRule.test_unit_vector_rule_at_tol_norm's outside_tol_norm rows"),
    ("src/purbounds/bounds.py", "if overlap > TOL_EIG:", "if overlap > 10 * TOL_EIG:",
     "the overlap test's TOL_EIG x10: TestUserXiPerpShape's overlap_outside row"),
    ("src/purbounds/quantum.py", "if residual > TOL_EIG * (1.0", "if residual > 10 * TOL_EIG * (1.0",
     "the eigensystem residual x10: TestEigensystem.test_residual_on_both_sides_of_the_tolerance's 2x row"),
    ("src/purbounds/quantum.py", "if not peak <= _MAX_ENTRY:", "if not peak <= 2 * _MAX_ENTRY:",
     "_MAX_ENTRY's guard x2: TestValidationErrors.test_observable_error_class_and_message's above_max_entry row"),
    ("src/purbounds/bounds.py", "tol = TOL_NULL * (1.0 + k.norms[0] + k.norms[1])", "tol = TOL_NULL",
     "the null tolerance left unscaled: pinned with item 4's scale rule"),
    ("src/purbounds/montecarlo.py", "allowance = 4.0 * _EPS", "allowance = 8.0 * _EPS",
     "the undercut allowance x2: waits for item 19's statistic"),
    ("src/purbounds/montecarlo.py", "_PROB_FLOOR = 1e-14", "_PROB_FLOOR = 0.0",
     "_PROB_FLOOR -> 0: TestBornDistribution.test_outcome_probability_floor's below_floor row"),
    ("src/purbounds/verify.py", "if candidate_l2 <= tol and", "if candidate_l2 <= tol / 2 and",
     "nontriviality at tol / 2: TestReroutedChecksFire.test_l2_candidate_just_below_tol_fires_nontriviality"),
    ("src/purbounds/bounds.py", "float(np.finfo(float).max) / 8", "float(np.finfo(float).max) / 4",
     "_MAX_VAR_PRODUCT at max/4: TestOperandScale.test_both_sides_of_the_limit's max/6 pair"),
    ("src/purbounds/bounds.py", "if l1_by_sign[0] >= l1_by_sign[1]", "if l1_by_sign[0] > l1_by_sign[1]",
     "the l1 tie >= -> >: nearly equivalent, the two differ only at a gap of exactly TOL_EIG"),
    ("src/purbounds/quantum.py", "nrm[np.abs(nrm - 1.0) >", "nrm[np.abs(nrm + 1.0) >",
     "_unit_rows' message names row 0: TestUserXiPerpShape's second_row_off_norm row"),
    ("src/purbounds/instances.py", "if len(shape) == 1 else", "if len(shape) != 1 else",
     "_decode's size wordings swapped: TestParseInstance's wrong_length and wrong_row_count rows"),
    ("src/purbounds/montecarlo.py", "None) / total", "None) * total",
     "BornDistribution's total multiplied in: TestBornDistribution.test_total_renormalized_to_one"),
)

TIER1 = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]


def _tier1(edit=None) -> tuple[bool | None, float]:
    """(passed, seconds) of tier-1 on a temporary copy, with `edit` (file, old, new) applied to it;
    passed is None when `old` does not occur exactly once in the file."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, Path(tmp, name), ignore=shutil.ignore_patterns("__pycache__"))
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / name, tmp)
        if edit is not None:
            file, old, new = edit
            path = Path(tmp, file)
            text = path.read_text()
            if text.count(old) != 1:
                return None, 0.0
            path.write_text(text.replace(old, new))
        env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
        start = time.perf_counter()
        proc = subprocess.run(TIER1, cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return proc.returncode == 0, time.perf_counter() - start


def main() -> None:
    passed, seconds = _tier1()
    print(f"unmutated  {'passed' if passed else 'FAILED'}  {seconds:5.1f} s")
    if not passed:
        print("tier-1 fails without a mutant, so no row can be read")
        return
    for file, old, new, reason in MUTANTS:
        survived, seconds = _tier1((file, old, new))
        if survived is None:
            print(f"STALE     {file}: {old!r} does not occur exactly once; the row needs updating")
            continue
        print(f"{'survived' if survived else 'killed':8s}  {seconds:5.1f} s  {file}: {reason}")


if __name__ == "__main__":
    main()
