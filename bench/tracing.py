"""Spans around the public functions of each purbounds module.

The tracer replaces every public function of a layer (a function named in the
module's ``__all__`` and defined there) with a wrapper that records a span,
and rebinds that name in every purbounds module that holds it: ``bounds`` does
``from .quantum import variance``, so patching ``quantum`` alone would miss
the calls that matter. ``QuantumState`` and ``Observable`` construction is
timed by wrapping ``__post_init__``; replacing the classes would break
``isinstance`` checks. Nothing under ``src/`` is edited.

Spans are kept in memory as ``[name, start, end, parent, run_id, error]`` and
written out once, after the traced batch.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("quantum", "bounds", "verify", "montecarlo", "instances", "cli")

# constructors timed as spans of the quantum layer
TRACED_CONSTRUCTORS = ("QuantumState", "Observable")

# instances functions that read files; every other instances function serializes
PARSE_FUNCTIONS = ("instances.load_instance", "instances.parse_instance")

# per suite instance: l1 and l2, each at both signs, over the sampled complement vectors
SUITE_PERP_EVALS_PER_SAMPLE = 4

NAME, START, END, PARENT, RUN_ID, ERROR = range(6)


def _package_modules():
    return [mod for name, mod in list(sys.modules.items()) if mod is not None and (name == "purbounds" or name.startswith("purbounds."))]


class Tracer:
    """Installs span-recording wrappers and turns the spans into per-layer numbers."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.run_id = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self):
        modules = _package_modules()
        replacements = {}
        for layer in LAYERS:
            mod = sys.modules[f"purbounds.{layer}"]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    replacements[id(fn)] = self._wrap(f"{layer}.{attr}", fn, _COUNTERS.get(f"{layer}.{attr}"))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._rebind(mod, attr, wrapper)
        quantum = sys.modules["purbounds.quantum"]
        for cls_name in TRACED_CONSTRUCTORS:
            cls = getattr(quantum, cls_name)
            self._rebind(cls, "__post_init__", self._wrap(f"quantum.{cls_name}", cls.__post_init__, None))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _rebind(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if counter is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, False]
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[ERROR] = True
                raise
            finally:
                record[END] = perf_counter()
                stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self.counts, bound.arguments, result)
            return result

        return traced

    # -- aggregation ----------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, self seconds); self time excludes child spans."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for k, rec in enumerate(self.spans):
            entry = out[rec[NAME]]
            entry[0] += 1
            entry[1] += rec[END] - rec[START] - child[k]
        return {name: (calls, self_s) for name, (calls, self_s) in out.items()}

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer calls, self time, share of `wall_s`, errors and counters."""
        by_name = self.self_times()
        metrics: dict[str, float] = {}
        for layer in LAYERS:
            rows = [v for k, v in by_name.items() if k.split(".", 1)[0] == layer]
            self_s = sum((s for _, s in rows), 0.0)
            metrics[f"{layer}.calls"] = sum(c for c, _ in rows)
            metrics[f"{layer}.self_s"] = self_s
            metrics[f"{layer}.share"] = 100.0 * self_s / wall_s
            metrics[f"{layer}.errors"] = 0
        for rec in self.spans:
            # an error counts once, at the outermost span of the layer it escaped from
            if rec[ERROR]:
                layer = rec[NAME].split(".", 1)[0]
                parent = rec[PARENT]
                if parent < 0 or self.spans[parent][NAME].split(".", 1)[0] != layer:
                    metrics[f"{layer}.errors"] += 1
        top = sum(rec[END] - rec[START] for rec in self.spans if rec[PARENT] < 0)
        metrics["bench.self_s"] = wall_s - top
        for fn in ("quantum.orthonormal_complement_basis", "quantum.hermitian_eigensystem"):
            calls, self_s = by_name.get(fn, (0, 0.0))
            metrics[f"{fn}.calls"] = calls
            metrics[f"{fn}.self_s"] = self_s
        instance_rows = {k: v for k, v in by_name.items() if k.startswith("instances.")}
        metrics["instances.parse_s"] = sum((v[1] for k, v in instance_rows.items() if k in PARSE_FUNCTIONS), 0.0)
        metrics["instances.serialize_s"] = sum((v[1] for k, v in instance_rows.items() if k not in PARSE_FUNCTIONS), 0.0)
        for counter in ("verify.perp_evals", "montecarlo.samples_drawn", "instances.bytes_in", "instances.bytes_out"):
            metrics[counter] = self.counts[counter]
        return metrics

    def function_table(self) -> list[tuple[str, int, float]]:
        """(name, calls, self seconds), slowest first."""
        return sorted(((k, c, s) for k, (c, s) in self.self_times().items()), key=lambda row: -row[2])

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run_id", "error"], "spans": self.spans}, fh)


def _count_suite(counts, args, report):
    counts["verify.perp_evals"] += args["count"] * args["perp_samples"] * SUITE_PERP_EVALS_PER_SAMPLE


def _count_search(counts, args, result):
    counts["verify.perp_evals"] += args["samples"]


def _count_samples(counts, args, outcomes):
    counts["montecarlo.samples_drawn"] += args["n"]


def _count_bytes_in(counts, args, instance):
    counts["instances.bytes_in"] += os.path.getsize(args["path"])


def _count_bytes_out(counts, args, text):
    counts["instances.bytes_out"] += len(text.encode("utf-8"))


# counters read at the same public boundaries the spans are recorded at
_COUNTERS = {
    "verify.run_invariant_suite": _count_suite,
    "verify.search_optimal_xi_perp": _count_search,
    "montecarlo.sample_outcomes": _count_samples,
    "instances.load_instance": _count_bytes_in,
    "instances.json_dumps": _count_bytes_out,
}
