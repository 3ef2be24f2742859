"""A fixed corpus of bound reports and the digest of each report's bits.

`tests/test_golden.py` compares the corpus with `report_bits_golden.json`,
so any drift in any bit of any report field fails, whatever the change. The
corpus covers:

- one GUE instance per dimension d = 2..64, with both operands scaled by
  1e-6, 1 and 1e6, each at the analytic optimum and at a sampled xi_perp;
- X/Z on equatorial states where projections are null (the fallback vector);
- common eigenvectors of diagonal pairs at d = 3, 8 and 64;
- the 241 states of the qubit sweep, each as a one-row `bound_report`;
- three `run_invariant_suite` runs: the defaults, the benchmark's dims at
  count 64, and count 50 at tol 1e-30, where every instance records violations.

Each digest is the first 16 hex digits of the SHA-256 of `repr(report_bits(report))`;
a suite run's bits are its minimum slacks and maximum defects by hex and its
violation records.

BLAS kernels and numpy's SIMD loops round differently on different CPUs, so
the digests are stored per `platform_probe()`, a digest of those primitives on
fixed inputs. A platform whose probe has no entry cannot be compared. To add
one, or to re-record after a drift that is stated and explained, run at the
commit whose outputs are pinned:

    PYTHONPATH=src python tests/golden.py

OpenBLAS's `OPENBLAS_CORETYPE` (for example `Zen` or `SkylakeX`) and numpy's
`NPY_DISABLE_CPU_FEATURES` select the kernels of another CPU class. A change
to the corpus makes every recorded class stale, so record them all again.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np

from purbounds.bounds import OrthogonalCandidate, bound_report
from purbounds.quantum import (
    Observable,
    QuantumState,
    _equatorial_vectors,
    basis_state,
    equatorial_state,
    pauli_x,
    pauli_z,
)
from purbounds.verify import SuiteReport, random_observable, random_state, random_unit_in_complement, run_invariant_suite

DIMS = range(2, 65)
SCALES = (1e-6, 1.0, 1e6)
NULL_ALPHAS = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)
EIGEN_DIMS = (3, 8, 64)
SWEEP_POINTS = 241
# the suite runs as (case id, keyword arguments); the second uses the benchmark's dims
SUITE_RUNS = (
    ("suite defaults", {}),
    ("suite dims=2..64 count=64", {"count": 64, "dims": (2, 3, 4, 6, 8, 16, 32, 64)}),
    ("suite count=50 tol=1e-30", {"count": 50, "tol": 1e-30}),
)
# the environment variables that select another CPU class's kernels
KERNEL_VARIABLES = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")


def report_bits(rep):
    """Every field of a report, floats by hex and candidate vectors by their bytes."""
    if isinstance(rep, SuiteReport):
        tables = (rep.min_slacks, rep.max_defects)
        return [[(name, value.hex()) for name, value in table.items()] for table in tables] + [rep.violations]
    bits = []
    for field in dataclasses.fields(rep):
        value = getattr(rep, field.name)
        if isinstance(value, OrthogonalCandidate):
            bits.append((value.vector.vector.tobytes(), value.bound_value.hex(), value.sign, value.kind))
        elif isinstance(value, tuple):
            bits.append(tuple(v.hex() for v in value))
        elif isinstance(value, float):
            bits.append(value.hex())
        else:
            bits.append(value)
    return bits


def digest(rep) -> str:
    return hashlib.sha256(repr(report_bits(rep)).encode()).hexdigest()[:16]


def corpus():
    """(case id, report) for every report of the corpus, in a fixed order."""
    for dim in DIMS:
        rng = np.random.default_rng([2016, dim])
        state, a, b = random_state(dim, rng), random_observable(dim, rng), random_observable(dim, rng)
        perp = random_unit_in_complement(state, rng)
        for scale in SCALES:
            big_a, big_b = Observable(scale * a.matrix), Observable(scale * b.matrix)
            yield f"gue d={dim} scale={scale:g} analytic", bound_report(big_a, big_b, state)
            yield f"gue d={dim} scale={scale:g} user", bound_report(big_a, big_b, state, user_xi_perp=perp)
    x, z = pauli_x(), pauli_z()
    for alpha in NULL_ALPHAS:
        state = equatorial_state(alpha)
        # the orthogonal equatorial state, (1, -e^{i alpha})/sqrt(2)
        perp = equatorial_state(alpha + math.pi)
        yield f"xz alpha={alpha!r} analytic", bound_report(x, z, state)
        yield f"xz alpha={alpha!r} user", bound_report(x, z, state, user_xi_perp=perp)
    for dim in EIGEN_DIMS:
        a = Observable(np.diag(np.arange(1.0, dim + 1.0)).astype(complex))
        b = Observable(np.diag(np.linspace(-1.0, 2.0, dim)).astype(complex))
        for index in (0, dim - 1):
            yield f"eigen d={dim} index={index}", bound_report(a, b, basis_state(dim, index))
            yield f"eigen d={dim} index={index} scale=1e6", bound_report(
                Observable(1e6 * a.matrix), Observable(1e-6 * b.matrix), basis_state(dim, index)
            )
    alphas = [math.tau * k / SWEEP_POINTS for k in range(SWEEP_POINTS)]
    for k, row in enumerate(_equatorial_vectors(alphas)):
        yield f"sweep row={k}", bound_report(x, z, QuantumState(row))
    for case, kwargs in SUITE_RUNS:
        yield case, run_invariant_suite(**kwargs)


def platform_probe() -> str:
    """A digest of the numpy and BLAS primitives that the reports are built from, on fixed inputs.

    BLAS kernels and numpy's SIMD loops differ between CPUs in how they
    round, so a report's bits are fixed only for a given probe.
    """
    rng = np.random.default_rng(1411)
    h = hashlib.sha256()
    for dim in DIMS:
        m = rng.standard_normal((2, dim, dim)) + 1j * rng.standard_normal((2, dim, dim))
        x = rng.standard_normal((4, dim)) + 1j * rng.standard_normal((4, dim))
        r = rng.standard_normal(dim)
        outs = (
            np.matmul(m[0], x[:, :, None]),
            m[1] @ x[0],
            np.vecdot(x, x[::-1]),
            np.vecdot(x, np.stack((x[::-1], 1j * x))),
            np.vecdot(x[:, None], x[:2]),
            np.vdot(x[0], x[1]),
            r.dot(r),
            np.vecdot(x.real, x.imag),
            x * x[::-1],
            r * x,
            x / r,
            np.hypot(x.real, x.imag),
            np.abs(x),
            np.sqrt(np.abs(r)),
            np.exp(1j * r),
            (x.conj() * x).real.sum(axis=-1),
        )
        for out in outs:
            h.update(np.ascontiguousarray(out).tobytes())
    return h.hexdigest()[:16]


GOLDEN = Path(__file__).with_name("report_bits_golden.json")


def recorded_with() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    selected = [f"{name}={os.environ[name]}" for name in KERNEL_VARIABLES if os.environ.get(name)]
    return ", ".join([f"numpy {np.__version__}", f"{blas['name']} {blas['version']}", *selected])


def record() -> None:
    """Write this platform's digests into the golden file, keeping those of other probes."""
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"cases": [], "platforms": {}}
    cases = list(corpus())
    golden["cases"] = [case for case, _ in cases]
    golden["platforms"][platform_probe()] = {
        "recorded_with": recorded_with(),
        "digests": [digest(rep) for _, rep in cases],
    }
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    record()
