#!/usr/bin/env bash
# Checks of the installed `purbounds` console script, which no test runs: it must print
# what `python -m purbounds` prints, and its reports must be byte-identical on rerun.
# Run from anywhere after `pip install -e .`; it works in a fresh temporary directory.
set -euo pipefail
# numpy's RuntimeWarnings are errors, as in the tests (pyproject's filterwarnings)
export PYTHONWARNINGS=error::RuntimeWarning
cd "$(mktemp -d)"

cat > readme_d2.json <<'JSON'
{
  "dim": 2,
  "state": [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]],
  "A": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
  "B": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
  "xi_perp": [[0.7071067811865476, 0.0], [-0.7071067811865476, 0.0]]
}
JSON
purbounds bounds readme_d2.json > script.out
python -m purbounds bounds readme_d2.json > module.out
cmp script.out module.out
# without xi_perp the report takes the analytic branch, where l2 equals Var(A) + Var(B)
python -c "import json; d = json.load(open('readme_d2.json')); del d['xi_perp']; json.dump(d, open('readme_d2_analytic.json', 'w'))"
purbounds bounds readme_d2_analytic.json > script_analytic.out
python -m purbounds bounds readme_d2_analytic.json > module_analytic.out
cmp script_analytic.out module_analytic.out
# an xi_perp within TOL_NORM of unit norm is read as given: (1, -1)/sqrt(2) written as 1 / np.sqrt(2.0)
# prints, 0.7071067811865475, is both candidates' vector, not renormalized to 0.7071067811865476
python -c "import json; d = json.load(open('readme_d2.json')); d['xi_perp'] = [[0.7071067811865475, 0.0], [-0.7071067811865475, 0.0]]; json.dump(d, open('readme_d2_unit.json', 'w'))"
purbounds bounds readme_d2_unit.json > unit.out
python -c "import json; f = json.load(open('readme_d2_unit.json'))['xi_perp']; r = json.load(open('unit.out')); assert r['l1']['xi_perp'] == r['l2']['xi_perp'] == f, r"
# both l2 signs tie at the optimum, so l2 reports +1; the optimized l1 is sum_var/2 + |covq|
python -c "import json; r = json.load(open('script_analytic.out')); assert r['l2']['kind'] == 'analytic_optimum'; assert abs(r['l2']['value'] - r['sum_var']) <= 1e-12; assert r['l2']['sign'] == 1; assert abs(r['l1']['value'] - (r['sum_var'] / 2 + abs(r['covq']))) <= 1e-12"
purbounds sweep --points 241 --out sweep.csv
test "$(wc -l < sweep.csv)" -eq 242
# the console script loads only what each subcommand runs: neither `bounds` nor `sweep` imports verify or
# montecarlo. Each import log must list purbounds.bounds, so that an empty log cannot pass
PYTHONPROFILEIMPORTTIME=1 purbounds bounds readme_d2.json 2> bounds_imports.log > /dev/null
PYTHONPROFILEIMPORTTIME=1 purbounds sweep --points 241 --out sweep_imports.csv 2> sweep_imports.log
for log in bounds_imports.log sweep_imports.log; do
  grep -Eq '\| +purbounds\.bounds$' "$log"
  if grep -E '\| +purbounds\.(verify|montecarlo)$' "$log"; then
    echo "$log: a module the subcommand does not run was imported" >&2
    exit 1
  fi
done
purbounds random --count 20 > random.json
# a violation exits 3 and names the failing checks
status=0
purbounds random --count 5 --tol 1e-30 > violations.json || status=$?
test "$status" -eq 3
python -c "import json; assert json.load(open('violations.json'))['violations']"
# the README instance passes the 5-sigma sampling check
purbounds montecarlo --file readme_d2.json --samples 2000 > montecarlo.json
python -c "import json; assert json.load(open('montecarlo.json'))['violation'] is False"
# two runs with the same seed sample the same outcomes, byte for byte
purbounds montecarlo --file readme_d2.json --samples 2000 > montecarlo_rerun.json
cmp montecarlo.json montecarlo_rerun.json
# the README operands scaled: at 1e150 Var(A) Var(B) leaves the double range, a validation error of one
# line; at 1e-160 the values underflow toward zero, and both commands still report
for scale in 1e150 1e-160; do
  python -c "import json; d = json.load(open('readme_d2.json')); d['A'], d['B'] = ([[[x * $scale for x in z] for z in row] for row in d[k]] for k in ('A', 'B')); json.dump(d, open('scaled.json', 'w'))"
  for argv in "bounds scaled.json" "montecarlo --file scaled.json --samples 2000"; do
    status=0
    purbounds $argv > scaled.out 2> scaled.err || status=$?
    if [ "$scale" = 1e150 ]; then
      test "$status" -eq 2
      test "$(wc -l < scaled.err)" -eq 1
      grep -q "operand scale too large" scaled.err
    else
      test "$status" -eq 0
    fi
  done
done
# a negative seed is a validation error, one line that names the argument, before any work
for argv in "random --seed -1" "montecarlo --file readme_d2.json --seed -1"; do
  status=0
  purbounds $argv > negative_seed.out 2> negative_seed.err || status=$?
  test "$status" -eq 2
  test ! -s negative_seed.out
  test "$(cat negative_seed.err)" = "error: seed must be at least 0, got -1"
done
# a count or a point number below its lower bound is the same one-line validation error
for argv in "random --count 0" "sweep --points 1 --out x.csv"; do
  status=0
  purbounds $argv > low.out 2> low.err || status=$?
  test "$status" -eq 2
  test ! -s low.out
  test "$(wc -l < low.err)" -eq 1
  grep -Eq '^error: [a-z_]+ must be at least -?[0-9]+, got -?[0-9]+$' low.err
done
# a tol that is not a positive finite real number is the suite's one tol error, one line that shows the value
# (the option as given, then as the message shows it)
for case in "0 0.0" "nan nan"; do
  read -r tol shown <<< "$case"
  status=0
  purbounds random --tol "$tol" > tol.out 2> tol.err || status=$?
  test "$status" -eq 2
  test ! -s tol.out
  test "$(cat tol.err)" = "error: tol must be a positive finite real number, got $shown"
done
# the one supported range, 2 <= d <= 64: a d = 1 file and a well-formed d = 65 file (|0>, A = B = I) are
# validation errors of one line that names it
python -c "import json; d = json.load(open('readme_d2.json')); d['dim'] = 1; json.dump(d, open('dim1.json', 'w'))"
python -c "import json; e = [[[float(i == j), 0.0] for j in range(65)] for i in range(65)]; json.dump({'dim': 65, 'state': e[0], 'A': e, 'B': e}, open('dim65.json', 'w'))"
for file in dim1.json dim65.json; do
  for argv in "bounds $file" "montecarlo --file $file --samples 2000"; do
    status=0
    purbounds $argv > range.out 2> range.err || status=$?
    test "$status" -eq 2
    test ! -s range.out
    test "$(wc -l < range.err)" -eq 1
    grep -q '^error: .*outside supported range \[2, 64\]$' range.err
  done
done
# a state whose squared norm overflows to inf is outside the renormalization window: one error line, and no
# RuntimeWarning, which PYTHONWARNINGS above would turn into a traceback
python -c "import json; d = json.load(open('readme_d2.json')); d['state'] = [[1e200, 0.0], [0.0, 0.0]]; del d['xi_perp']; json.dump(d, open('state_overflow.json', 'w'))"
status=0
purbounds bounds state_overflow.json > overflow.out 2> overflow.err || status=$?
test "$status" -eq 2
test ! -s overflow.out
test "$(wc -l < overflow.err)" -eq 1
grep -q '^error: .*state norm inf differs from 1 by more than 1e-06$' overflow.err
# the xi_perp boundary: an xi_perp equal to the state, and one whose squared norm overflows to inf, are each
# one validation error line, with no RuntimeWarning; the file's xi_perp is a QuantumState, so its norm is
# named as a state's
python -c "import json; d = json.load(open('readme_d2.json')); d['xi_perp'] = d['state']; json.dump(d, open('par.json', 'w'))"
python -c "import json; d = json.load(open('readme_d2.json')); d['xi_perp'] = [[1e200, 0.0], [0.0, 0.0]]; json.dump(d, open('xov.json', 'w'))"
for case in "par.json |<state|xi_perp>| = 1.000e+00 exceeds 1.0e-10" \
            "xov.json xi_perp: state norm inf differs from 1 by more than 1e-06"; do
  read -r file message <<< "$case"
  status=0
  purbounds bounds "$file" > perp.out 2> perp.err || status=$?
  test "$status" -eq 2
  test ! -s perp.out
  test "$(cat perp.err)" = "error: invalid instance $file: $message"
done
# both observables are sharp on |0>: every outcome is 0.1, though the sample mean is not, and the
# check reads no violation
cat > sharp.json <<'JSON'
{
  "dim": 2,
  "state": [[1.0, 0.0], [0.0, 0.0]],
  "A": [[[0.1, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.3, 0.0]]],
  "B": [[[0.1, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.7, 0.0]]]
}
JSON
purbounds montecarlo --file sharp.json --samples 1000 --seed 0 > sharp_montecarlo.json
python -c "import json; assert json.load(open('sharp_montecarlo.json'))['violation'] is False"
# A = X and B = X + I/2 share the eigenvector |+>, not a basis vector: both samples are constant, and
# mpur is only rounding residue, within the analytic allowance 4 eps (|A|_F^2 + |B|_F^2)
cat > common_plus.json <<'JSON'
{
  "dim": 2,
  "state": [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]],
  "A": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
  "B": [[[0.5, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.5, 0.0]]]
}
JSON
purbounds montecarlo --file common_plus.json --samples 1000 --seed 0 > common_plus_montecarlo.json
python -c "import json; assert json.load(open('common_plus_montecarlo.json'))['violation'] is False"
# a zero standard error with the residue inside that allowance reads 0 sigma, not the residue over 1e-300
python -c "import json; r = json.load(open('common_plus_montecarlo.json')); assert r['z_margin'] == r['estimate_a']['z_margin'] == r['estimate_b']['z_margin'] == 0.0"
# the paper's triviality example, A = Z and B = X on |0>: HRSUR reads 0 >= 0, and Maccone-Pati still
# bounds the sum, l2 = Var(A) + Var(B) = 1
cat > triviality.json <<'JSON'
{
  "dim": 2,
  "state": [[1.0, 0.0], [0.0, 0.0]],
  "A": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
  "B": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
}
JSON
purbounds bounds triviality.json > triviality.out
python -c "import json; r = json.load(open('triviality.out')); assert (r['t1'], r['t2'], r['hrsur_trivial']) == (0.0, 0.0, True); assert r['l2']['value'] == r['sum_var'] == r['mpur'] == 1.0"
# the suite at the largest dimensions is byte-identical across reruns
purbounds random --count 24 --dims 16,32,64 > large_1.json
purbounds random --count 24 --dims 16,32,64 > large_2.json
cmp large_1.json large_2.json
# the benchmark's suite dimensions: byte-identical across reruns, and passing
purbounds random --dims 2,3,4,6,8,16,32,64 --count 64 > bench_dims_1.json
purbounds random --dims 2,3,4,6,8,16,32,64 --count 64 > bench_dims_2.json
cmp bench_dims_1.json bench_dims_2.json
python -c "import json; assert json.load(open('bench_dims_1.json'))['passed'] is True"
echo "console checks passed in $PWD"
