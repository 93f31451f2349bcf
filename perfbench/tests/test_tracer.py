"""Self-tests of the benchmark's tracer and layer wrappers.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
from tracer import Tracer, load_records  # noqa: E402


class FakeClock:
    """A clock that reads the next scripted time on every call (the last
    one once the script runs out)."""

    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0) if len(self.times) > 1 else self.times[0]


def test_nested_self_time(tmp_path):
    # harness: 0 -> 10, with children trace: 1 -> 3 and analyze: 4 -> 4.5,
    # and a leaf of 0.25 s of trace decoding accounted inside analyze.
    clock = FakeClock([0.0, 0.0, 1.0, 3.0, 4.0, 4.5, 10.0])
    tracer = Tracer(str(tmp_path), hooks=False, clock=clock)
    tracer.begin("experiments.harness")
    tracer.begin("workloads.trace")
    tracer.end()
    tracer.begin("simpoint.analyze")
    tracer.account("trace.io", 0.25)
    tracer.end()
    tracer.end()
    assert tracer.spans["experiments.harness"] == [1, 10.0, 7.5]
    assert tracer.spans["workloads.trace"] == [1, 2.0, 2.0]
    assert tracer.spans["simpoint.analyze"] == [1, 0.5, 0.25]
    assert tracer.spans["trace.io"] == [1, 0.25, 0.25]
    tracer.close()
    (record,) = load_records(str(tmp_path))
    metrics = layers.layer_metrics([record])
    total_self = 7.5 + 2.0 + 0.25 + 0.25
    assert metrics["tracing.coverage_frac"][0] == pytest.approx(
        total_self / (record["ended"] - record["started"]))


def _pipeline_counts(tmp_path, drive):
    from repro.memory.configs import TABLE1_CONFIGS
    from repro.sim.batch import BatchRunner
    from repro.sim.config import R10_64
    from repro.sim.runner import simulate
    from repro.workloads import get_workload

    workload = get_workload("mcf")
    trace = workload.trace(600)
    memory = TABLE1_CONFIGS["MEM-400"]
    tracer = Tracer(str(tmp_path / ("drive" if drive else "run")), hooks=False)
    uninstall = layers.install(tracer)
    try:
        if drive:
            runner = BatchRunner(round_budget=64)
            runner.add_simulation("cell", R10_64, trace, memory=memory,
                                  regions=workload.regions)
            ((outcome, stats),) = runner.run().values()
            assert outcome == "ok"
        else:
            stats = simulate(R10_64, trace, memory=memory, regions=workload.regions)
    finally:
        uninstall()
    tracer.close()
    metrics = layers.layer_metrics(load_records(tracer.directory))
    return stats, metrics, tracer.spans["pipeline.run"][0]


def test_drive_and_run_land_in_pipeline_alike(tmp_path):
    run_stats, run_metrics, run_spans = _pipeline_counts(tmp_path, drive=False)
    drive_stats, drive_metrics, drive_spans = _pipeline_counts(tmp_path, drive=True)
    assert drive_stats.to_dict() == run_stats.to_dict()
    for name in ("pipeline.cells", "pipeline.sim_kcycles"):
        assert drive_metrics[name] == run_metrics[name]
    assert run_metrics["pipeline.cells"][0] == 1
    assert run_metrics["pipeline.sim_kcycles"][0] == run_stats.cycles / 1e3
    assert run_spans == 1 and drive_spans > 1


def test_forked_worker_spans_reach_the_merge(tmp_path):
    trace_dir = tmp_path / "trace"
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(REPRO_JOBS="2", PYTHONPATH=str(ROOT / "src"))
    started = time.monotonic()
    subprocess.run(
        [sys.executable, str(BENCH / "shim.py"), "--mark", str(tmp_path / "mark"),
         "--launched", repr(started), "--trace-dir", str(trace_dir), "--",
         "sweep", "--machines", "r10(rob=32)", "--workloads", "mcf,swim",
         "--scale", "quick", "--instructions", "500", "--no-store"],
        cwd=ROOT, env=env, check=True, capture_output=True, timeout=120,
    )
    records = load_records(str(trace_dir))
    workers = [r for r in records if r["forked_under"] == "resilience.run"]
    assert workers and all("pipeline.run" in r["spans"] for r in workers)
    metrics = layers.layer_metrics(records)
    assert metrics["pipeline.cells"][0] == 2
    assert metrics["resilience.busy_frac"][0] > 0


def test_benchmark_lists_every_layer_metric():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    listed = {metric["name"]: metric["unit"] for metric in benchmark["per_layer"]}
    reported = {name: unit for name, (_value, unit) in layers.layer_metrics([]).items()}
    reported["tracing.overhead_frac"] = "ratio"
    assert listed == reported
