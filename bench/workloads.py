"""The four closed-loop workloads and their output gates.

Each workload builds its inputs from the run's seed in ``setup()`` and then
answers ``call(i)``, the i-th request of a single caller who waits for every
reply. ``check(i, out)`` is the output gate: a call whose output fails it
counts as failed. ``digest(i, out)`` gives the bytes of an output that go into
the run's digest, so that a change in the last bit of any output shows.

The gates compare against values the benchmark computes itself in set-up with
plain numpy, never through purbounds, so a traced run records only the calls
the workload makes.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np

from purbounds import bounds, cli, instances, montecarlo, quantum, verify

# Gate tolerance per unit of operand scale 1 + ||A||_F^2 + ||B||_F^2. Rounding
# in the closed forms stays below 1e-15 of that scale at d <= 64, and a
# perturbation of 1e-6 in any bound exceeds it at every dimension used here.
GATE_REL_TOL = 1e-12

# bound_report picks the + sign when the two signs agree within this (its tie rule)
SIGN_TIE_TOL = 1e-10

SWEEP_POINTS = 241
SWEEP_TOL = 1e-10
SUITE_DIMS = (2, 3, 4, 6, 8, 16, 32, 64)
SUITE_TOL = 1e-9
SUITE_PERP_SAMPLES = 100
MC_SAMPLES = 100_000
MC_ALPHAS = (0.0, math.pi / 4, math.pi / 2)

INV_SQRT2 = 1.0 / math.sqrt(2.0)
# the instance file of the README: A = X, B = Z on |+>, xi_perp = |->
README_INSTANCE = {
    "dim": 2,
    "state": [[INV_SQRT2, 0.0], [INV_SQRT2, 0.0]],
    "A": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
    "B": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
    "xi_perp": [[INV_SQRT2, 0.0], [-INV_SQRT2, 0.0]],
}


def derive_seed(seed: int, *keys: int) -> int:
    """Independent integer seed for one call, from the run seed and call keys."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def random_instance(dim: int, rng):
    """Haar state and two GUE observables from the package's own generators."""
    return verify.random_state(dim, rng), verify.random_observable(dim, rng), verify.random_observable(dim, rng)


def _floats(*values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


# -- report-stream --------------------------------------------------------------


class Reference:
    """Bounds of one instance computed directly from the two deviation vectors."""

    def __init__(self, a, b, state, perp=None):
        xi = state.vector
        ax, bx = a.matrix @ xi, b.matrix @ xi
        psi = ax - np.vdot(xi, ax).real * xi
        phi = bx - np.vdot(xi, bx).real * xi
        var_a, var_b = np.vdot(psi, psi).real, np.vdot(phi, phi).real
        overlap = np.vdot(psi, phi)  # Cov(A, B); <[A,B]> = 2i Im(overlap)
        self.sum_var = var_a + var_b
        self.prod_var = var_a * var_b
        self.covq = overlap.real
        self.t1 = overlap.real**2 + overlap.imag**2
        self.t2 = 2.0 * abs(overlap.imag)
        self.scale = 1.0 + np.linalg.norm(a.matrix) ** 2 + np.linalg.norm(b.matrix) ** 2
        self.analytic = perp is None
        if perp is None:
            self.l1_by_sign = tuple(0.5 * self.sum_var + s * self.covq for s in (1, -1))
            self.l2_by_sign = (self.sum_var, self.sum_var)
        else:
            p = perp.vector
            self.l1_by_sign = tuple(0.5 * abs(np.vdot(psi + s * phi, p)) ** 2 for s in (1, -1))
            self.l2_by_sign = tuple(
                -2.0 * s * overlap.imag + abs(np.vdot(psi - s * 1j * phi, p)) ** 2 for s in (1, -1)
            )


def report_ok(rep, ref: Reference) -> bool:
    """Gate for one BoundReport against the reference of its instance.

    Always: sum_var, t1 and t2 match the reference and t1 <= prod_var. At the
    analytic optimum l2 == sum_var and l1 == sum_var/2 + |covq|; at a
    user-supplied xi_perp both bounds match the reference at that vector and
    stay below their optima. Tolerances scale with the operand norms.
    """
    tol = GATE_REL_TOL * ref.scale
    close = lambda x, y: abs(x - y) <= tol  # noqa: E731
    ok = (
        close(rep.sum_var, ref.sum_var)
        and close(rep.t1, ref.t1)
        and close(rep.t2, ref.t2)
        and rep.t1 <= rep.prod_var + tol * ref.scale
        and all(map(close, rep.l1_by_sign, ref.l1_by_sign))
        and all(map(close, rep.l2_by_sign, ref.l2_by_sign))
    )
    for value, by_sign in ((rep.l1, rep.l1_by_sign), (rep.l2, rep.l2_by_sign)):
        ok = ok and value in by_sign and value >= max(by_sign) - SIGN_TIE_TOL
    if ref.analytic:
        ok = ok and close(rep.l2, rep.sum_var) and close(rep.l1, 0.5 * rep.sum_var + abs(rep.covq))
    else:
        ok = ok and rep.l1 <= 0.5 * rep.sum_var + abs(rep.covq) + tol and rep.l2 <= rep.sum_var + tol
    return bool(ok)


def report_bytes(rep) -> bytes:
    fields = _floats(
        rep.var_a, rep.var_b, rep.sum_var, rep.prod_var, rep.covq, rep.comm_mean_abs, rep.t1, rep.t2,
        rep.l1, rep.l2, *rep.l1_by_sign, *rep.l2_by_sign, rep.mpur, rep.saturation_gap,
    )
    vectors = rep.l1_candidate.vector.vector.tobytes() + rep.l2_candidate.vector.vector.tobytes()
    return fields + vectors + bytes([rep.hrsur_trivial, rep.common_eigenvector])


class Workload:
    """Common shape: `rotation` calls make one pass over the inputs."""

    name = ""
    items_per_call = 1
    trace_calls = 1
    # whose peak resident set the run reports: this process or its children
    rss_of = "self"
    # the calibration kernel whose speed tracks this workload's (see run.slowness)
    calibration = "interpreter"

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root

    def setup(self):
        pass

    @property
    def rotation(self) -> int:
        raise NotImplementedError

    def call(self, i: int):
        raise NotImplementedError

    def traced_call(self, i: int):
        return self.call(i)

    def check(self, i: int, out) -> bool:
        raise NotImplementedError

    def digest(self, i: int, out) -> bytes:
        raise NotImplementedError

    def close(self):
        pass


class ReportStream(Workload):
    """bound_report on a pool of Haar/GUE instances at d = 2, 8, 64 in equal shares.

    Every fourth call passes a user-supplied xi_perp, the instance-file path;
    the rest use the analytic optimum.
    """

    name = "report-stream"
    trace_calls = 960
    DIMS = (2, 8, 64)
    PER_DIM = 32
    PERP_EVERY = 4

    def setup(self):
        pool = []
        for k in range(len(self.DIMS) * self.PER_DIM):
            rng = np.random.default_rng([self.seed, k])
            state, a, b = random_instance(self.DIMS[k % len(self.DIMS)], rng)
            perp = verify.random_unit_in_complement(state, rng) if k % self.PERP_EVERY == self.PERP_EVERY - 1 else None
            pool.append((a, b, state, perp, Reference(a, b, state, perp)))
        self.pool = pool

    @property
    def rotation(self):
        return len(self.pool)

    def call(self, i):
        a, b, state, perp, _ = self.pool[i % len(self.pool)]
        return bounds.bound_report(a, b, state, user_xi_perp=perp)

    def check(self, i, rep):
        return report_ok(rep, self.pool[i % len(self.pool)][4])

    def digest(self, i, rep):
        return report_bytes(rep)


# -- suite ----------------------------------------------------------------------


class Suite(Workload):
    """run_invariant_suite at the CLI's tolerance and sample count, dims up to MAX_DIM.

    One call runs one instance per dimension, so every call does the same mix.
    """

    name = "suite"
    items_per_call = len(SUITE_DIMS)
    trace_calls = 16

    @property
    def rotation(self):
        return 1

    def call(self, i):
        return verify.run_invariant_suite(
            count=len(SUITE_DIMS), dims=SUITE_DIMS, seed=derive_seed(self.seed, i), tol=SUITE_TOL,
            perp_samples=SUITE_PERP_SAMPLES,
        )

    def check(self, i, rep):
        return bool(rep.passed and rep.count == len(SUITE_DIMS))

    def digest(self, i, rep):
        slacks = [rep.min_slacks[k] for k in sorted(rep.min_slacks)]
        defects = [rep.max_defects[k] for k in sorted(rep.max_defects)]
        names = ",".join(sorted(rep.min_slacks) + sorted(rep.max_defects)).encode()
        return names + _floats(*slacks, *defects)


# -- montecarlo -----------------------------------------------------------------


class MonteCarlo(Workload):
    """statistical_bound_check at n = 1e5: X/Z on equatorial states and GUE at d = 64.

    The three qubit phases are the acceptance traffic (alpha = 0 is the
    degenerate eigenstate case); one call in four is a d = 64 GUE instance.
    """

    name = "montecarlo"
    trace_calls = 16
    GUE_DIM = 64
    GUE_COUNT = 2

    def setup(self):
        x, z = quantum.pauli_x(), quantum.pauli_z()
        qubits = [(x, z, quantum.equatorial_state(alpha)) for alpha in MC_ALPHAS]
        cases = []
        for k in range(self.GUE_COUNT):
            state, a, b = random_instance(self.GUE_DIM, np.random.default_rng([self.seed, k]))
            cases += qubits + [(a, b, state)]
        self.cases = [(a, b, state, Reference(a, b, state)) for a, b, state in cases]

    @property
    def rotation(self):
        return len(self.cases)

    def call(self, i):
        a, b, state, _ = self.cases[i % len(self.cases)]
        return montecarlo.statistical_bound_check(a, b, state, n=MC_SAMPLES, seed=derive_seed(self.seed, i))

    def check(self, i, rep):
        ref = self.cases[i % len(self.cases)][3]
        return bool(not rep.violation and abs(rep.analytic_sum - ref.sum_var) <= GATE_REL_TOL * ref.scale)

    def digest(self, i, rep):
        ea, eb = rep.estimate_a, rep.estimate_b
        return _floats(
            ea.mean_hat, ea.var_hat, ea.var_stderr, eb.mean_hat, eb.var_hat, eb.var_stderr,
            rep.empirical_sum, rep.combined_stderr, rep.mpur, rep.analytic_sum, rep.z_margin,
        )


# -- cli ------------------------------------------------------------------------


def sweep_csv_ok(text: str, points: int = SWEEP_POINTS) -> bool:
    """The sweep CSV against the closed forms for X/Z on (|0> + e^{i alpha}|1>)/sqrt(2)."""
    lines = text.splitlines()
    if len(lines) != points + 1 or lines[0] != "alpha,var_a,var_b,sum_var,prod_var,t1,t2,l1,l2":
        return False
    for line in lines[1:]:
        alpha, *got = map(float, line.split(","))
        s2 = math.sin(alpha) ** 2
        want = (s2, 1.0, 1.0 + s2, s2, s2, 2.0 * abs(math.sin(alpha)), (1.0 + s2) / 2.0, 1.0 + s2)
        if len(got) != len(want) or any(abs(g - w) > SWEEP_TOL for g, w in zip(got, want)):
            return False
    return True


class Cli(Workload):
    """Cold `python -m purbounds` processes: bounds on the README d = 2 file, bounds
    on a d = 64 file, and a 241-point sweep, in turn.

    Interpreter start, imports and instance parsing are the cost here. The traced
    run calls cli.main in-process instead, since spans cannot cross a process.
    """

    name = "cli"
    trace_calls = 30
    rss_of = "children"
    calibration = "process"

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.work = root / "bench" / "work" / f"cli-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def setup(self):
        self.work.mkdir(parents=True, exist_ok=True)
        state, a, b = random_instance(64, np.random.default_rng([self.seed, 0]))
        files = {
            "readme_d2.json": instances.json_dumps(README_INSTANCE),
            "gue_d64.json": instances.json_dumps(instances.instance_payload(state, a, b)),
        }
        self.argvs, self.expected = [], []
        for fname, text in files.items():
            path = self.work / fname
            path.write_text(text, encoding="utf-8")
            inst = instances.load_instance(path)
            rep = bounds.bound_report(inst.a, inst.b, inst.state, user_xi_perp=inst.xi_perp)
            self.argvs.append(["bounds", str(path)])
            self.expected.append(instances.json_dumps(instances.report_to_dict(rep)) + "\n")
        self.sweep_out = self.work / "sweep.csv"
        self.argvs.append(["sweep", "--points", str(SWEEP_POINTS), "--out", str(self.sweep_out)])
        self.expected.append(None)

    @property
    def rotation(self):
        return len(self.argvs)

    def _argv(self, i):
        argv = self.argvs[i % len(self.argvs)]
        if argv[0] == "sweep":
            self.sweep_out.unlink(missing_ok=True)  # so the gate reads this call's CSV
        return argv

    def _collect(self, i, code, stdout):
        if self.expected[i % len(self.expected)] is None and code == 0:
            return code, self.sweep_out.read_text(encoding="utf-8")
        return code, stdout

    def call(self, i):
        proc = subprocess.run(
            [sys.executable, "-m", "purbounds", *self._argv(i)],
            env=self.env, cwd=self.work, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
        )
        return self._collect(i, proc.returncode, proc.stdout)

    def traced_call(self, i):
        argv = self._argv(i)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return self._collect(i, code, buf.getvalue())

    def check(self, i, out):
        code, text = out
        expected = self.expected[i % len(self.expected)]
        if code != 0:
            return False
        return sweep_csv_ok(text) if expected is None else text == expected

    def digest(self, i, out):
        return out[1].encode("utf-8")

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (ReportStream, Suite, MonteCarlo, Cli)}
