"""Differential suite for the quiescence-aware cycle-skipping engine.

The fast-forward run loop must be a pure simulator speedup: every
statistic a run produces — cycles, committed, IPC, and all the per-cycle
stall counters — must be bit-identical to the tick-every-cycle reference
mode, for every core type and memory system.  These tests enforce that,
plus the reworked deadlock detection: a machine that goes quiescent with
no pending completion events must raise immediately instead of ticking to
the ``max_cycles`` bound.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.branch import make_predictor
from repro.machines import parse_machine
from repro.memory import MemoryHierarchy, warm_caches
from repro.memory.configs import TABLE1_CONFIGS
from repro.pipeline.core import DeadlockError
from repro.sim.config import DKIP_2048, KILO_1024, R10_64, RunaheadConfig
from repro.sim.runner import build_core
from repro.sim.stats import SimStats
from repro.workloads import get_workload

#: Kept small enough for CI but long enough that every machine enters —
#: and leaves — memory-bound quiescent phases on the slow configurations.
NUM_INSTRUCTIONS = 1200

CORES = {
    "r10": R10_64,
    "r10-ino": parse_machine("r10(rob=32,sched=ino)"),
    "kilo": KILO_1024,
    "runahead": RunaheadConfig(),
    "dkip": DKIP_2048,
    # An in-order CP queue and an out-of-order MP queue: the select paths
    # the defaults (OOO CP, INO MPs) leave unexercised.
    "dkip-cp-ino-mp-ooo": parse_machine("dkip(llib=512,cp=INO,mp=OOO-40)"),
    # Predictor-axis OoO: misprediction-stall accounting must replay
    # bit-exactly through the skip hooks.
    "ooo-bp": parse_machine("ooo-bp(bp=gshare-12,rob=32)"),
    # Dual-core with a co-runner: L2-arbitration interleavings must be
    # identical with and without cycle skipping.
    "dual": parse_machine("dual(rob=32,co=synth(chase=8),bp=gshare-10)"),
}

MEMORIES = ("MEM-100", "MEM-400", "L2-11")

WORKLOADS = ("mcf", "swim")  # one SpecINT pointer-chaser, one SpecFP streamer


def run_once(config, workload_name: str, memory_name: str, fast_forward: bool):
    workload = get_workload(workload_name)
    trace = workload.trace(NUM_INSTRUCTIONS)
    hierarchy = MemoryHierarchy(TABLE1_CONFIGS[memory_name])
    warm_caches(hierarchy, workload.regions)
    predictor = make_predictor(getattr(config, "predictor", None) or "perceptron")
    core = build_core(config, iter(trace), hierarchy, predictor, SimStats(config="diff"))
    stats = core.run(len(trace), fast_forward=fast_forward)
    return stats, core


@pytest.mark.parametrize("workload_name", WORKLOADS)
@pytest.mark.parametrize("memory_name", MEMORIES)
@pytest.mark.parametrize("core_name", sorted(CORES))
def test_fast_forward_is_bit_identical(core_name, memory_name, workload_name):
    config = CORES[core_name]
    reference, _ = run_once(config, workload_name, memory_name, fast_forward=False)
    fast, _ = run_once(config, workload_name, memory_name, fast_forward=True)
    assert fast.cycles == reference.cycles
    assert fast.committed == reference.committed
    assert fast.ipc == reference.ipc
    # The strong form: every stall counter, cache statistic and locality
    # split must match too (the skip hooks replay per-cycle accounting).
    mismatches = {
        f.name: (getattr(reference, f.name), getattr(fast, f.name))
        for f in dataclasses.fields(SimStats)
        if getattr(reference, f.name) != getattr(fast, f.name)
    }
    assert not mismatches, f"stats diverged under fast-forward: {mismatches}"


def test_fast_forward_actually_skips_cycles():
    """Guard against the differential suite passing vacuously: on a
    pointer-chasing workload with 400-cycle memory the machine must be
    quiescent most of the time."""
    stats, core = run_once(R10_64, "mcf", "MEM-400", fast_forward=True)
    assert core.cycles_fast_forwarded > stats.cycles // 2


def test_fast_forward_defaults_on():
    workload = get_workload("mcf")
    trace = workload.trace(400)
    hierarchy = MemoryHierarchy(TABLE1_CONFIGS["MEM-400"])
    core = build_core(
        R10_64, iter(trace), hierarchy, make_predictor("perceptron"), SimStats()
    )
    core.run(len(trace))
    assert core.cycles_fast_forwarded > 0


# ----------------------------------------------------------------------
# Deadlock detection
# ----------------------------------------------------------------------


def _stuck_core():
    """An R10 core whose completions are swallowed — a modelling-bug stand-in
    that stalls with no events pending."""
    from repro.baselines.ooo import R10Core

    class NoCompletionCore(R10Core):
        def schedule_completion(self, entry, done_cycle):
            entry.done_cycle = done_cycle  # never enqueued: never completes

    workload = get_workload("mcf")
    trace = workload.trace(64)
    hierarchy = MemoryHierarchy(TABLE1_CONFIGS["MEM-400"])
    return NoCompletionCore(
        iter(trace), R10_64, hierarchy, make_predictor("perceptron"), SimStats()
    )


def test_eventless_stall_raises_deadlock_immediately():
    core = _stuck_core()
    with pytest.raises(DeadlockError) as excinfo:
        # An enormous bound: only true no-event deadlock detection can
        # terminate this run in reasonable time.
        core.run(64, max_cycles=10**9, fast_forward=True)
    assert core.now < 10_000  # detected at quiescence, not at the bound
    assert "quiescent" in str(excinfo.value)


def test_reference_mode_still_bounds_deadlocks():
    core = _stuck_core()
    with pytest.raises(DeadlockError):
        core.run(64, max_cycles=5_000, fast_forward=False)
