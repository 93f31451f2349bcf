"""Differential + failure-isolation suite for :class:`repro.sim.batch.BatchRunner`.

Interleaving N independent cells inside one process must leave every
cell's whole :class:`SimStats` record bit-identical to serial execution,
for every registered machine kind, and a cell that fails inside a batch
must fail alone while its siblings complete.
"""

from __future__ import annotations

import pytest

from repro.machines import parse_machine
from repro.memory.configs import TABLE1_CONFIGS
from repro.pipeline.core import DeadlockError
from repro.sim.batch import BatchRunner
from repro.sim.config import DKIP_2048, KILO_1024, R10_64, RunaheadConfig
from repro.sim.runner import simulate
from repro.workloads import get_workload

NUM_INSTRUCTIONS = 800

#: Every machine kind the sweep layer can dispatch, including the limit
#: core (no cooperative driver: exercises the one-shot fallback).
CORES = {
    "r10": R10_64,
    "kilo": KILO_1024,
    "runahead": RunaheadConfig(),
    "dkip": DKIP_2048,
    "ooo-bp": parse_machine("ooo-bp(bp=gshare-12,rob=32)"),
    "dual": parse_machine("dual(rob=32,co=synth(chase=8),bp=gshare-10)"),
    "limit": parse_machine("limit"),
}

MEMORY = TABLE1_CONFIGS["MEM-400"]


@pytest.fixture(scope="module")
def workload():
    return get_workload("mcf")


@pytest.fixture(scope="module")
def batched_vs_serial(workload):
    """One batch interleaving every machine kind, plus serial references.

    A small round budget forces many generator suspensions per cell, so
    the interleaving is as aggressive as the batching layer allows.
    """
    trace = workload.trace(NUM_INSTRUCTIONS)
    serial = {
        tag: simulate(config, trace, memory=MEMORY, regions=workload.regions)
        for tag, config in CORES.items()
    }
    runner = BatchRunner(round_budget=256)
    for tag, config in CORES.items():
        runner.add_simulation(tag, config, trace, memory=MEMORY,
                              regions=workload.regions)
    return serial, runner.run()


@pytest.mark.parametrize("tag", list(CORES))
def test_batched_stats_bit_identical(batched_vs_serial, tag):
    serial, batched = batched_vs_serial
    outcome, stats = batched[tag]
    assert outcome == "ok"
    assert stats.to_dict() == serial[tag].to_dict()


def test_reference_mode_cell(workload):
    """``fast_forward=False`` cells drive the tick-every-cycle loop."""
    trace = workload.trace(400)
    reference = simulate(DKIP_2048, trace, memory=MEMORY,
                         regions=workload.regions, fast_forward=False)
    runner = BatchRunner(round_budget=64)
    runner.add_simulation("ref", DKIP_2048, trace, memory=MEMORY,
                          regions=workload.regions, fast_forward=False)
    outcome, stats = runner.run()["ref"]
    assert outcome == "ok"
    assert stats.to_dict() == reference.to_dict()
    assert stats.cycles == reference.cycles


def test_batch_of_one(workload):
    trace = workload.trace(NUM_INSTRUCTIONS)
    expected = simulate(R10_64, trace, memory=MEMORY, regions=workload.regions)
    runner = BatchRunner()
    runner.add_simulation("only", R10_64, trace, memory=MEMORY,
                          regions=workload.regions)
    outcome, stats = runner.run()["only"]
    assert outcome == "ok"
    assert stats.to_dict() == expected.to_dict()


def test_deadlock_mid_batch_fails_alone(workload):
    """A cell hitting its cycle bound errors without touching siblings."""
    trace = workload.trace(600)
    runner = BatchRunner(round_budget=128)
    runner.add_simulation("good1", R10_64, trace, regions=workload.regions)
    runner.add_simulation("bad", R10_64, trace, regions=workload.regions,
                          max_cycles=50)
    runner.add_simulation("good2", R10_64, trace, regions=workload.regions)
    out = runner.run()
    assert out["bad"][0] == "error"
    assert isinstance(out["bad"][1], DeadlockError)
    for tag in ("good1", "good2"):
        outcome, stats = out[tag]
        assert outcome == "ok"
        assert stats.committed == 600
