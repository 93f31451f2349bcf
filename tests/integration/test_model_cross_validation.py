"""Cross-validation between the two independent timing models.

The limit simulator (one-pass timestamp computation) and the cycle-level
R10 core were written independently; on traces where their differing
assumptions don't bite (no structural hazards beyond the ROB, predictable
branches), they must agree closely.  Divergence on such traces would mean
a timing bug in one of them — this is the strongest internal consistency
check the repository has.
"""

import pytest

from repro.branch import AlwaysTakenPredictor
from repro.baselines.limit import simulate_limit
from repro.baselines.ooo import R10Core
from repro.memory import DEFAULT_MEMORY, MemoryHierarchy, TABLE1_CONFIGS
from repro.sim.config import CoreConfig

from tests.conftest import make_alu_chain, make_load_chain, make_loop

#: A cycle core with resources so large only the ROB can stall — the
#: machine the limit simulator models.
UNCONSTRAINED = CoreConfig(
    name="xcheck",
    rob_size=64,
    iq_int=512,
    iq_fp=512,
    fetch_buffer=64,
)


def limit_cycles(trace, rob=64, memory=TABLE1_CONFIGS["L1-2"]):
    result = simulate_limit(
        iter(trace), MemoryHierarchy(memory), rob, "always-taken"
    )
    return result.cycles


def core_cycles(trace, memory=TABLE1_CONFIGS["L1-2"], config=UNCONSTRAINED):
    import dataclasses

    config = dataclasses.replace(
        config,
        fus=dataclasses.replace(config.fus, int_alu=64, mem_ports=64),
    )
    core = R10Core(
        iter(trace), config, MemoryHierarchy(memory), AlwaysTakenPredictor()
    )
    return core.run(len(trace)).cycles


@pytest.mark.slow
def test_models_agree_on_independent_alu():
    trace = make_alu_chain(2_000, dep=False)
    a, b = limit_cycles(trace), core_cycles(trace)
    assert abs(a - b) <= max(a, b) * 0.1 + 10


@pytest.mark.slow
def test_models_agree_on_serial_alu_chain():
    trace = make_alu_chain(1_000, dep=True)
    a, b = limit_cycles(trace), core_cycles(trace)
    assert abs(a - b) <= max(a, b) * 0.1 + 10


@pytest.mark.slow
def test_models_agree_on_taken_loops():
    trace = make_loop(iterations=300, body_alu=3, taken=True)
    a, b = limit_cycles(trace), core_cycles(trace)
    assert abs(a - b) <= max(a, b) * 0.15 + 10


@pytest.mark.slow
def test_models_agree_on_serial_miss_chain():
    """A pure pointer chase is dominated by memory latency in both models;
    they must agree to within a small per-hop pipeline offset."""
    trace = make_load_chain(20, stride=1 << 14)
    a = limit_cycles(trace, memory=DEFAULT_MEMORY)
    b = core_cycles(trace, memory=DEFAULT_MEMORY)
    assert abs(a - b) <= 20 * 20  # <= ~20 cycles of skew per hop


@pytest.mark.slow
def test_models_agree_on_rob_limited_misses():
    """Independent misses spaced wider than the ROB: both models must
    serialize them the same way."""
    from repro.isa import InstructionBuilder

    b = InstructionBuilder()
    trace = []
    for i in range(12):
        trace.append(b.load(1, 30, addr=0x100_0000 + i * (1 << 14)))
        trace.extend(b.alu(2 + (j % 4), 29, 30) for j in range(100))
    lim = limit_cycles(trace, rob=64, memory=DEFAULT_MEMORY)
    cyc = core_cycles(trace, memory=DEFAULT_MEMORY)
    assert abs(lim - cyc) <= max(lim, cyc) * 0.15
