#!/usr/bin/env python3
"""Benchmark for purbounds: one closed-loop workload per run.

    python3 bench/run.py --workload report-stream --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from its
``src/``; it refuses to run (exit 2, no result) when those sources are missing.
One caller in one process makes every call and waits for each reply, as
library and CLI users do. BLAS is pinned to one thread.

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds.
``--trace 1`` runs a fixed number of calls three times: untraced, with spans
around every public function of every module, and untraced again. It reports
per-layer numbers, and its counts repeat exactly at a given seed.

Human-readable lines go first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. A result file
with provenance goes to ``bench/results/`` (and the spans of a traced run
next to it).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SETUP_REPEATS = 5
# throughput is the median over windows of at least this many busy seconds
WINDOW_S = 1.0
# Calibration kernels and the time each takes on the host the benchmark was
# tuned on (a shared 2-vCPU Intel Xeon) at its usual speed: CAL_ITERS loop
# steps in-process, or one cold `python -c pass`; a reading is the median of
# `repeats` runs.
CAL_ITERS = 400
CALIBRATION = {"interpreter": (1.33e-3, 5), "process": (0.050, 3)}
FLOOR_DIMS = (2, 8, 64)
FLOOR_INSTANCES = 8
COLD_REPEATS = 7

# name -> unit; the names BENCHMARK.json lists, in its order
END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "call_ms_p50": "ms",
    "call_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "quantum.calls": "count",
    "quantum.self_s": "s",
    "quantum.share": "%",
    "quantum.errors": "count",
    "quantum.orthonormal_complement_basis.calls": "count",
    "bounds.calls": "count",
    "bounds.self_s": "s",
    "bounds.share": "%",
    "bounds.errors": "count",
    "bounds.floor_ratio_d2": "x",
    "bounds.floor_ratio_d8": "x",
    "bounds.floor_ratio_d64": "x",
    "verify.calls": "count",
    "verify.errors": "count",
    "verify.perp_evals": "count",
    "instances.calls": "count",
    "instances.errors": "count",
    "instances.bytes_in": "bytes",
    "instances.bytes_out": "bytes",
    "cli.calls": "count",
    "cli.errors": "count",
    "cli.interp_s": "s",
    "cli.import_numpy_s": "s",
    "cli.import_purbounds_s": "s",
    "trace.overhead": "x",
}
# units of the per-layer numbers printed and filed but not in the result line:
# their layer is idle on some workloads, where they read 0
EXTRA_UNITS = {"self_s": "s", "share": "%", "parse_s": "s", "serialize_s": "s"}

# each workload's own names for items_per_s and for the latency of one call
ALIASES = {
    "report-stream": ("reports_per_s", "report_ms"),
    "suite": ("suite_instances_per_s", "suite_call_ms"),
    "montecarlo": ("mc_checks_per_s", "mc_check_ms"),
    "cli": ("cli_runs_per_s", "cli_ms"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(ALIASES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured seconds of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_package():
    """Import purbounds from this checkout's src/, or exit without a result."""
    package = SRC / "purbounds"
    if not (package / "__init__.py").is_file():
        print(f"error: no purbounds sources at {package}", file=sys.stderr)
        sys.exit(2)
    os.environ.update(BLAS_PIN)
    sys.path.insert(0, str(SRC))
    import purbounds

    if Path(purbounds.__file__).resolve().parent != package.resolve():
        print(f"error: imported purbounds from {purbounds.__file__}, not {package}", file=sys.stderr)
        sys.exit(2)


# -- running calls ------------------------------------------------------------------


class Outcome:
    """Calls attempted and failed, the first failure, and the digest of the first pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_failure = None
        self.digest = hashlib.sha256()

    def run(self, wl, i, call):
        """Make call i, gate it, and return its duration in seconds."""
        self.attempted += 1
        start = perf_counter()
        try:
            out = call(i)
        except Exception:  # a raising call is a failed call; the loop keeps measuring
            elapsed = perf_counter() - start
            self._fail(f"call {i} raised:\n{traceback.format_exc()}")
            return elapsed
        elapsed = perf_counter() - start
        if self.attempted <= wl.rotation:  # the first pass of the run
            self.digest.update(wl.digest(i, out))
        if not wl.check(i, out):
            self._fail(f"call {i}: output failed its gate")
        return elapsed

    def _fail(self, message):
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = message
            print(f"FAILED {message}", file=sys.stderr)


def slowness(kind):
    """How slow the host runs right now: a calibration kernel's time over its usual time.

    On a shared host the speed drifts, by a quarter within a minute on the
    2-vCPU Xeon this was tuned on (CPU time tracks wall time, so the process
    is not waiting: it runs slower). Neither kernel touches purbounds, so no change to the package can
    move them. "interpreter" is an interpreter-bound loop with small numpy
    calls, like the in-process workloads; "process" is a cold interpreter
    start, like the CLI workload.
    """
    import numpy as np

    usual_s, repeats = CALIBRATION[kind]
    vec, mat = np.arange(8, dtype=complex), np.eye(8, dtype=complex)  # used by "interpreter"
    times = []
    for _ in range(repeats):
        start = perf_counter()
        if kind == "process":
            # capturing output makes the wait end at the child's exit; a bare wait
            # with a timeout polls, and rounds a 45 ms start up to 64 ms
            subprocess.run([sys.executable, "-c", "pass"], check=True, capture_output=True, timeout=60)
        else:
            scratch = {}
            for k in range(CAL_ITERS):
                scratch[k & 63] = float(np.vdot(vec, mat @ vec).real) + k % 7
        times.append(perf_counter() - start)
    return statistics.median(times) / usual_s


def measure_setup(wl, outcome, call):
    """Median of SETUP_REPEATS set-ups, each building the inputs and making one warm pass.

    Returns (scaled median, raw times); each time is scaled by the slowness
    read before and after it.
    """
    raw, scaled = [], []
    before = slowness(wl.calibration)
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        wl.setup()
        for i in range(wl.rotation):
            outcome.run(wl, i, call)
        raw.append(perf_counter() - start)
        after = slowness(wl.calibration)
        scaled.append(raw[-1] / ((before + after) / 2.0))
        before = after
    return statistics.median(scaled), raw


class Window:
    """Calls between two slowness readings; their times are scaled by the mean reading."""

    def __init__(self, slow):
        self.slow = slow
        self.latencies = []
        self.items = 0

    def close(self, slow):
        factor = (self.slow + slow) / 2.0
        busy = sum(self.latencies)
        return self.items / busy * factor, [t / factor for t in self.latencies], self.items / busy


def run_timed(wl, seconds, outcome):
    """Closed loop for `seconds`, and at least one full pass.

    Returns, per window, the scaled latencies, the scaled and raw rates, and
    the slowness readings. A window closes at the end of a pass once it holds
    WINDOW_S busy seconds; a run shorter than that is one window.
    """
    windows, rates, raw_rates = [], [], []
    readings = [slowness(wl.calibration)]
    win = Window(readings[0])
    deadline = perf_counter() + seconds
    i = 0
    while True:
        for _ in range(wl.rotation):
            win.latencies.append(outcome.run(wl, i, wl.call))
            win.items += wl.items_per_call
            i += 1
        done = perf_counter() >= deadline
        full = sum(win.latencies) >= WINDOW_S
        if full or (done and not windows):  # a short last window is dropped
            readings.append(slowness(wl.calibration))
            rate, scaled, raw_rate = win.close(readings[-1])
            windows.append(scaled)
            rates.append(rate)
            raw_rates.append(raw_rate)
            win = Window(readings[-1])
        if done:
            break
    return windows, rates, raw_rates, readings


def run_fixed(wl, outcome, tracer=None):
    """wl.trace_calls calls in-process; returns their wall time."""
    start = perf_counter()
    for i in range(wl.trace_calls):
        if tracer is not None:
            tracer.run_id = i
        outcome.run(wl, i, wl.traced_call)
    return perf_counter() - start


def peak_rss_mb(wl):
    who = resource.RUSAGE_CHILDREN if wl.rss_of == "children" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- traced-run probes ----------------------------------------------------------------


def _per_call(fn, items, repeats):
    times = []
    for _ in range(repeats):
        start = perf_counter()
        for item in items:
            fn(item)
        times.append((perf_counter() - start) / len(items))
    return statistics.median(times)


def floor_ratios(seed):
    """bound_report time over the time of A@xi plus B@xi at the same d (both untraced)."""
    import numpy as np
    from purbounds import bounds
    from workloads import random_instance

    ratios = {}
    for d in FLOOR_DIMS:
        items = [random_instance(d, np.random.default_rng([seed, d, k])) for k in range(FLOOR_INSTANCES)]
        report = _per_call(lambda it: bounds.bound_report(it[1], it[2], it[0]), items, 25)
        matvecs = _per_call(lambda it: (it[1].matrix @ it[0].vector, it[2].matrix @ it[0].vector), items, 400)
        ratios[f"bounds.floor_ratio_d{d}"] = report / matvecs
    return ratios


def cold_start():
    """Cold interpreter start, and the extra cost of importing numpy and then purbounds."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    codes = {"pass": "pass", "numpy": "import numpy", "purbounds": "import purbounds"}
    times = {name: [] for name in codes}
    for _ in range(COLD_REPEATS):
        for name, code in codes.items():
            start = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True, capture_output=True, timeout=60)
            times[name].append(perf_counter() - start)
    med = {name: statistics.median(t) for name, t in times.items()}
    return {
        "cli.interp_s": med["pass"],
        "cli.import_numpy_s": med["numpy"] - med["pass"],
        "cli.import_purbounds_s": med["purbounds"] - med["numpy"],
    }


# -- provenance and output --------------------------------------------------------------


def provenance(args):
    import numpy

    try:
        rev = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True, text=True, timeout=30,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    src = hashlib.sha256()
    for path in sorted((SRC / "purbounds").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_revision": rev,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_PIN},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def reference_digest(workload, seed):
    refs = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
    return refs.get(workload, {}).get(str(seed))


def traced_run(wl, seed, outcome, record):
    """Per-layer metrics from a fixed number of calls: untraced, traced, untraced."""
    import tracing

    per_layer = {**floor_ratios(seed), **cold_start()}
    before_s = run_fixed(wl, outcome)
    tracer = tracing.Tracer()
    with tracer:
        traced_s = run_fixed(wl, outcome, tracer)
    untraced_s = (before_s + run_fixed(wl, outcome)) / 2.0
    per_layer.update(tracer.layer_metrics(traced_s))
    per_layer["trace.overhead"] = traced_s / untraced_s
    RESULTS.mkdir(parents=True, exist_ok=True)
    spans_path = RESULTS / f"spans-{wl.name}-seed{seed}.json"
    tracer.write_spans(spans_path)
    functions = tracer.function_table()
    record["traced"] = {
        "calls": wl.trace_calls,
        "untraced_wall_s": untraced_s,
        "traced_wall_s": traced_s,
        "per_layer": per_layer,
        "functions": functions,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    lines = [f"  {wl.trace_calls} calls: {traced_s:.4f} s traced, {untraced_s:.4f} s untraced "
             "(mean of the runs before and after)"]
    for name in sorted(per_layer):
        unit = PER_LAYER.get(name) or EXTRA_UNITS.get(name.rsplit(".", 1)[-1], "count")
        lines.append(f"  {name:<46} {per_layer[name]!r:>24} {unit}")
    lines.append("  slowest functions by self time (calls, self_s):")
    lines += [f"    {n:<44} {c:>8} {s:.6f}" for n, c, s in functions[:15]]
    return {name: per_layer[name] for name in PER_LAYER}, PER_LAYER, lines


def timed_run(wl, seconds, setup, outcome, record):
    """End-to-end metrics from a closed loop of `seconds` seconds."""
    import numpy as np

    setup_s, setup_times = setup
    windows, rates, raw_rates, readings = run_timed(wl, seconds, outcome)
    lat_ms = np.concatenate(windows) * 1e3

    def percentile(q):
        # median over windows of each window's percentile: a window's times share
        # one scale factor, so an error in that factor cannot widen the spread
        return statistics.median(float(np.percentile(w, q)) * 1e3 for w in windows)

    metrics = {
        "setup_s": setup_s,
        "items_per_s": statistics.median(rates),
        "call_ms_p50": percentile(50),
        # p90 held steady across runs where p95 and p99 did not
        "call_ms_p90": percentile(90),
        "peak_rss_mb": peak_rss_mb(wl),
    }
    beyond = len(lat_ms) // 10
    samples = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "items_per_s": f"median of {len(rates)} windows, {wl.items_per_call} item(s) per call",
        "call_ms_p50": f"median of {len(windows)} windows, n={len(lat_ms)}",
        "call_ms_p90": f"median of {len(windows)} windows, n={len(lat_ms)}, {beyond} beyond"
        + ("" if beyond >= 10 else " (fewer than 10: not a reliable percentile)"),
        "peak_rss_mb": "this process" if wl.rss_of == "self" else "largest child process",
    }
    record["samples"] = samples
    record["pooled_call_ms_percentiles"] = {p: float(np.percentile(lat_ms, p)) for p in (10, 25, 50, 75, 90, 95, 99)}
    record["unscaled"] = {"setup_times_s": setup_times, "window_items_per_s": raw_rates}
    record["slowness_readings"] = readings
    lines = [f"  times scaled by machine slowness: median {statistics.median(readings):.3f}, "
             f"range {min(readings):.3f}-{max(readings):.3f} over {len(readings)} readings; "
             f"unscaled items_per_s {statistics.median(raw_rates)!r}"]
    items_name, call_name = ALIASES[wl.name]
    aliases = {"items_per_s": items_name, "call_ms_p50": f"{call_name}_p50", "call_ms_p90": f"{call_name}_p90"}
    for name, value in metrics.items():
        label = f"{name} ({aliases[name]})" if name in aliases else name
        lines.append(f"  {label:<44} {value!r:>24} {END_TO_END[name]:<4} {samples[name]}")
    return metrics, END_TO_END, lines


def main(argv=None):
    args = parse_args(argv)
    load_package()
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    outcome = Outcome()
    record = {"provenance": provenance(args)}
    try:
        setup = measure_setup(wl, outcome, wl.traced_call if args.trace else wl.call)
        if args.trace:
            metrics, units, lines = traced_run(wl, args.seed, outcome, record)
        else:
            metrics, units, lines = timed_run(wl, args.seconds, setup, outcome, record)
    finally:
        wl.close()

    digest = outcome.digest.hexdigest()
    ref = reference_digest(args.workload, args.seed)
    drift = "no reference at this seed" if ref is None else ("matches reference" if ref == digest else "DRIFT from reference")
    correct = outcome.failed == 0
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record.update(result, digest=digest, digest_reference=ref, first_failure=outcome.first_failure)
    RESULTS.mkdir(parents=True, exist_ok=True)
    result_path = RESULTS / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"calls {outcome.attempted}  failed {outcome.failed}  failed_ratio {outcome.failed / outcome.attempted!r}")
    print("\n".join(lines))
    print(f"  output digest {digest} ({drift})")
    print(f"  result file {result_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
