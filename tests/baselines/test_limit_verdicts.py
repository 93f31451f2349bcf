"""The limit core's branch-verdict memo is exact.

``simulate_limit`` trains a fresh predictor over the trace's
conditional-branch stream and keeps the verdicts in a one-entry
per-process memo keyed on the predictor spec and the whole stream.  Every
cell below runs three ways — on an empty memo, as a memo hit right after
a different window on the same trace, and through a reference pass that
trains the runner's predictor inline, as the pass meets each branch — and
the three must agree field for field, the branch counters on the stats
and on the runner's predictor included.  The miss cases check that a
changed trace, a prefix of the trace, and another predictor of the same
class each retrain.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import deque

import pytest

from repro.baselines import limit
from repro.isa import DEFAULT_LATENCIES, InstructionBuilder, OpClass
from repro.isa.registers import NUM_REGS
from repro.memory import TABLE1_CONFIGS
from repro.sim.config import LimitMachine
from repro.sim.runner import prepare
from repro.sim.stats import Histogram
from repro.workloads import get_workload

N = 2_000
MEMORY = TABLE1_CONFIGS["MEM-400"]
PREDICTORS = ("perceptron", "gshare-10", "gshare-14", "bimodal", "oracle", "always-taken")
WORKLOADS = ("gcc", "swim")


@pytest.fixture(autouse=True)
def empty_memo(monkeypatch):
    monkeypatch.setattr(limit, "_VERDICTS", None)


@functools.cache
def workload(name: str):
    built = get_workload(name)
    return built.trace(N), tuple(built.regions)


def run(config: LimitMachine, trace, regions):
    """One cell through the runner's construction path, before
    ``finalize``: the stats and the runner's predictor."""
    core, predictor = prepare(config, trace, MEMORY, regions)
    return core.run(len(trace)), predictor


def live(config: LimitMachine, trace, regions):
    """The reference pass: the limit core's timing with the runner's
    predictor trained inline, in trace order."""
    core, predictor = prepare(config, trace, MEMORY, regions)
    hierarchy, stats, width = core.hierarchy, core.stats, config.width
    histogram = Histogram(bin_width=25, max_value=4000)
    reg_time = [0] * NUM_REGS
    rob_commits: deque[int] = deque()
    recent_commits = deque([0] * width, maxlen=width)
    last_commit = fetch_cycle = resume_cycle = 0
    slots_left = width
    for instr in trace:
        if slots_left == 0:
            fetch_cycle, slots_left = fetch_cycle + 1, width
        if fetch_cycle < resume_cycle:
            fetch_cycle, slots_left = resume_cycle, width
        slots_left -= 1
        stats.fetched += 1
        dispatch = fetch_cycle
        if config.rob_size is not None and len(rob_commits) >= config.rob_size:
            oldest_commit = rob_commits.popleft()
            if oldest_commit + 1 > dispatch:
                dispatch = fetch_cycle = oldest_commit + 1
                slots_left = width - 1
        issue = max([dispatch + 1, *(reg_time[src] for src in instr.live_srcs())])
        if config.record_histogram:
            histogram.add(issue - (dispatch + 1))
        latency = DEFAULT_LATENCIES.latency_of(instr.op)
        if instr.is_mem:
            mem_latency, _level = hierarchy.access(
                instr.addr, write=instr.is_store, now=issue
            )
            if instr.is_load:
                latency += mem_latency
        complete = issue + latency
        if instr.dest is not None:
            reg_time[instr.dest] = complete
        if instr.op == OpClass.BRANCH:
            stats.branch_predictions += 1
            if not predictor.update(instr.pc, bool(instr.taken)):
                stats.branch_mispredictions += 1
                resume_cycle = complete + config.redirect_penalty
                slots_left = 0
        elif instr.taken:
            slots_left = 0
        last_commit = max(complete, last_commit, recent_commits[0] + 1)
        recent_commits.append(last_commit)
        if config.rob_size is not None:
            rob_commits.append(last_commit)
    stats.committed = len(trace)
    stats.cycles = last_commit
    stats.issue_distance = histogram
    stats.l1_hits, stats.l1_misses = hierarchy.l1.hits, hierarchy.l1.misses
    stats.l2_hits, stats.l2_misses = hierarchy.l2.hits, hierarchy.l2.misses
    stats.memory_accesses = hierarchy.memory.accesses
    return stats, predictor


def assert_agree(outcomes, reference):
    for stats, predictor in outcomes:
        assert stats.to_dict() == reference.to_dict()
        assert predictor.predictions == stats.branch_predictions
        assert predictor.mispredictions == stats.branch_mispredictions


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("spec", PREDICTORS)
def test_memo_agrees_with_live_predictor(spec, name, monkeypatch):
    trace, regions = workload(name)
    for histogram in (True, False):
        for rob in (32, None):
            config = LimitMachine(rob_size=rob, predictor=spec, record_histogram=histogram)
            monkeypatch.setattr(limit, "_VERDICTS", None)
            fresh = run(config, trace, regions)
            run(dataclasses.replace(config, rob_size=64), trace, regions)
            entry = limit._VERDICTS
            hit = run(config, trace, regions)
            assert limit._VERDICTS is entry
            reference = live(config, trace, regions)
            assert_agree([fresh, hit, reference], reference[0])


def test_flipped_branch_retrains():
    trace, regions = workload("gcc")
    k = [i for i, instr in enumerate(trace) if instr.op == OpClass.BRANCH][40]
    flip = dataclasses.replace(trace[k], taken=not trace[k].taken)
    flipped = [*trace[:k], flip, *trace[k + 1:]]
    config = LimitMachine(rob_size=32)
    run(config, trace, regions)
    before = limit._VERDICTS
    outcome = run(config, flipped, regions)
    assert limit._VERDICTS is not before
    # The flipped branch's verdict flips, so a stale hit would show.
    assert limit._VERDICTS[2] != before[2]
    assert_agree([outcome], live(config, flipped, regions)[0])


def test_prefix_of_the_trace_retrains():
    trace, regions = workload("gcc")
    prefix = trace[: len(trace) // 2]
    config = LimitMachine(rob_size=32)
    for first, second in ((trace, prefix), (prefix, trace)):
        run(config, first, regions)
        before = limit._VERDICTS
        outcome = run(config, second, regions)
        assert limit._VERDICTS is not before
        branches = sum(instr.op == OpClass.BRANCH for instr in second)
        assert len(limit._VERDICTS[2]) == branches
        assert_agree([outcome], live(config, second, regions)[0])


def test_same_class_other_spec_retrains():
    trace, regions = workload("gcc")
    run(LimitMachine(rob_size=32, predictor="gshare-10"), trace, regions)
    ten = limit._VERDICTS
    config = LimitMachine(rob_size=32, predictor="gshare-14")
    outcome = run(config, trace, regions)
    assert limit._VERDICTS is not ten
    # The two gshares disagree on this trace, so a stale hit would show.
    assert limit._VERDICTS[2] != ten[2]
    assert_agree([outcome], live(config, trace, regions)[0])


def test_jumps_take_no_verdict():
    """Only conditional branches consume verdicts.  No workload emits an
    unconditional jump, so a hand-built loop checks it."""
    b = InstructionBuilder()
    trace = []
    for i in range(300):
        trace.append(b.alu(1 + i % 4, 30, 29))
        trace.append(b.emit(OpClass.BRANCH, srcs=(1 + i % 4,), taken=i % 3 > 0, pc=0x9000))
        trace.append(b.emit(OpClass.JUMP, taken=True))
    config = LimitMachine(rob_size=32, predictor="bimodal")
    outcome = run(config, trace, None)
    assert 0 < outcome[0].branch_mispredictions < 300
    assert_agree([outcome], live(config, trace, None)[0])
