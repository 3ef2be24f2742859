"""Tests of the benchmark itself: tiny runs, metric names, gates, determinism.

    python -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LISTED = [w["name"] for w in SPEC["workloads"]]


def bench(workload, seed, trace, seconds=0, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_metric_tables_match_benchmark_json():
    assert units("end_to_end") == run.END_TO_END
    assert units("per_layer") == run.PER_LAYER
    assert set(LISTED) <= set(run.ALIASES) == set(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("workload", LISTED)
def test_tiny_run_passes_its_gates_and_emits_every_end_to_end_metric(workload):
    proc = bench(workload, seed=3, trace=0)
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_tiny_montecarlo_run_emits_every_end_to_end_metric():
    # not asserted correct: see the montecarlo section of bench/README.md
    proc = bench("montecarlo", seed=3, trace=0)
    result = result_of(proc)
    assert proc.returncode == (0 if result["correct"] else 1)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END


@pytest.mark.parametrize("workload", ["report-stream", "cli"])
def test_traced_runs_repeat_their_counts_and_digest(workload):
    first, second = (bench(workload, seed=4, trace=1) for _ in range(2))
    assert first.returncode == 0 and second.returncode == 0, first.stderr + second.stderr
    a, b = result_of(first), result_of(second)
    assert {k: v["unit"] for k, v in a["metrics"].items()} == run.PER_LAYER
    counted = [k for k, unit in run.PER_LAYER.items() if unit in ("count", "bytes")]
    assert {k: a["metrics"][k]["value"] for k in counted} == {k: b["metrics"][k]["value"] for k in counted}
    assert a["metrics"]["bounds.calls"]["value"] > 0
    digest = lambda proc: proc.stdout.split("output digest ")[1].split()[0]  # noqa: E731
    untraced = bench(workload, seed=4, trace=0)
    assert digest(first) == digest(second) == digest(untraced)


@pytest.fixture(scope="module")
def stream():
    wl = workloads.ReportStream(5, ROOT)
    wl.setup()
    return wl


def test_report_gate_accepts_every_pool_report(stream):
    for i in range(stream.rotation):
        assert stream.check(i, stream.call(i)), i


@pytest.mark.parametrize("index", [0, 1, 2, 3, 7, 11])  # d = 2, 8, 64; 3, 7, 11 carry a user xi_perp
def test_report_gate_fires_on_tampered_report(stream, index):
    rep = stream.call(index)
    assert stream.check(index, rep)
    bump = 1e-6
    tampered = [
        dataclasses.replace(rep, l2=rep.l2 + bump),
        dataclasses.replace(rep, l2=rep.l2 + bump, l2_by_sign=tuple(v + bump for v in rep.l2_by_sign)),
        dataclasses.replace(rep, l1=rep.l1 + bump, l1_by_sign=tuple(v + bump for v in rep.l1_by_sign)),
        dataclasses.replace(rep, sum_var=rep.sum_var + bump),
        dataclasses.replace(rep, t1=rep.t1 + bump),
    ]
    for bad in tampered:
        assert not stream.check(index, bad)


def _tamper(text, is_csv):
    if not is_csv:
        return text.replace("1", "2", 1)
    *head, last = text.splitlines(keepends=True)
    fields = last.rstrip("\n").split(",")
    fields[-1] = repr(float(fields[-1]) + 1e-9)
    return "".join(head) + ",".join(fields) + "\n"


def test_cli_gates_fire_on_tampered_output(tmp_path):
    wl = workloads.Cli(6, tmp_path)
    wl.setup()
    try:
        for i in range(wl.rotation):
            code, text = wl.traced_call(i)
            assert wl.check(i, (code, text))
            assert not wl.check(i, (1, text))
            assert not wl.check(i, (code, _tamper(text, wl.argvs[i][0] == "sweep")))
    finally:
        wl.close()


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    proc = bench("report-stream", seed=1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
