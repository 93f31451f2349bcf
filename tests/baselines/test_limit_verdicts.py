"""The limit core's memos and its window shortcut are exact.

``simulate_limit`` trains a fresh predictor over the trace's
conditional-branch stream, and classifies the trace's line stream
through the hierarchy with no timing; a one-entry per-process memo keeps
the last verdicts (keyed on the predictor spec and the branch stream),
and another the last (trace, memory) pair: its verdicts and access plan,
keyed on the trace itself, the predictor spec, the latency table and the
hierarchy's geometry and LRU contents.  The pair entry also keeps the
smallest window whose pass never delayed a dispatch, which every larger
window of the pair takes without running.  Every cell of the grid, on
every Table-1 memory, runs three ways: on empty memos, as memo hits
after other windows on the same trace, and through a reference pass
that calls ``MemoryHierarchy.access`` and trains the runner's predictor
inline, as the pass meets each access and branch.  The three must agree
field for field, the branch counters on the stats and on the runner's
predictor included, and must leave their hierarchies in the same state:
LRU contents, counters and fill tables.  The miss cases check that a
changed trace, a prefix of the trace, another predictor, another
memory, other warm-up regions, a hierarchy touched after warm-up, other
starting fill tables or another pass parameter each recompute, and that
a hierarchy passed to two passes in a row gives the reference pass's
results both times.
"""

from __future__ import annotations

import dataclasses
import functools
import random
from collections import deque

import pytest

from repro.baselines import limit
from repro.isa import DEFAULT_LATENCIES, InstructionBuilder, OpClass
from repro.isa.registers import NUM_REGS
from repro.experiments.fig01_02_window import FULL_WINDOWS
from repro.memory import TABLE1_CONFIGS, MemoryHierarchy, cache, warm_caches
from repro.memory.hierarchy import L1_PENDING, L2_PENDING
from repro.sim.config import LimitMachine
from repro.sim.runner import prepare
from repro.sim.stats import Histogram
from repro.workloads import get_workload

N = 2_000
MEMORY = TABLE1_CONFIGS["MEM-400"]
PREDICTORS = ("perceptron", "gshare-10", "gshare-14", "bimodal", "oracle", "always-taken")
WORKLOADS = ("gcc", "swim")


def clear_memos(monkeypatch):
    """Empty every limit memo (restored when the test ends)."""
    monkeypatch.setattr(limit, "_VERDICTS", None)
    monkeypatch.setattr(limit, "_PAIR", None)


@pytest.fixture(autouse=True)
def empty_memo(monkeypatch):
    clear_memos(monkeypatch)


@pytest.fixture
def timed(monkeypatch):
    """The windows of the passes that ran the timing loop, in order; a
    cell the window shortcut serves adds nothing."""
    windows = []
    time = limit._time

    def counting(trace, pair, hierarchy, rob_size, *args):
        windows.append(rob_size)
        return time(trace, pair, hierarchy, rob_size, *args)

    monkeypatch.setattr(limit, "_time", counting)
    return windows


@functools.cache
def workload(name: str):
    built = get_workload(name)
    return built.trace(N), tuple(built.regions)


def warmed(memory, regions) -> MemoryHierarchy:
    hierarchy = MemoryHierarchy(memory)
    warm_caches(hierarchy, regions)
    return hierarchy


def run(config: LimitMachine, trace, regions, memory=MEMORY, hierarchy=None):
    """One cell through the runner's construction path, before
    ``finalize``: the stats, the runner's predictor and the hierarchy."""
    core, predictor = prepare(config, trace, memory, regions, hierarchy=hierarchy)
    return core.run(len(trace)), predictor, core.hierarchy


def live(config: LimitMachine, trace, regions, memory=MEMORY, hierarchy=None):
    """The reference pass: the limit core's timing with every access
    through ``MemoryHierarchy.access`` and the runner's predictor trained
    inline, in trace order."""
    core, predictor = prepare(config, trace, memory, regions, hierarchy=hierarchy)
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
    if hierarchy.l2 is not None:
        stats.l2_hits, stats.l2_misses = hierarchy.l2.hits, hierarchy.l2.misses
    if hierarchy.memory is not None:
        stats.memory_accesses = hierarchy.memory.accesses
    return stats, predictor, hierarchy


def state(hierarchy: MemoryHierarchy):
    """LRU contents in order, counters and fill tables."""
    levels = [hierarchy.l1] if hierarchy.l2 is None else [hierarchy.l1, hierarchy.l2]
    return [
        (
            [list(s) for s in level._sets],
            sorted(level._infinite_lines),
            level.hits,
            level.misses,
            dict(level.fills),
        )
        for level in levels
    ], None if hierarchy.memory is None else hierarchy.memory.accesses


def assert_agree(outcomes, reference):
    stats, _, hierarchy = reference
    for outcome_stats, predictor, outcome_hierarchy in outcomes:
        assert outcome_stats.to_dict() == stats.to_dict()
        assert predictor.predictions == outcome_stats.branch_predictions
        assert predictor.mispredictions == outcome_stats.branch_mispredictions
        assert state(outcome_hierarchy) == state(hierarchy)


@pytest.mark.parametrize("memory", TABLE1_CONFIGS)
@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("spec", PREDICTORS)
def test_memo_agrees_with_live_predictor(spec, name, memory, monkeypatch):
    trace, regions = workload(name)
    memory = TABLE1_CONFIGS[memory]
    for histogram in (True, False):
        for rob in (32, None):
            config = LimitMachine(rob_size=rob, predictor=spec, record_histogram=histogram)
            clear_memos(monkeypatch)
            fresh = run(config, trace, regions, memory)
            run(dataclasses.replace(config, rob_size=64), trace, regions, memory)
            entries = limit._VERDICTS, limit._PAIR
            hit = run(config, trace, regions, memory)
            assert limit._VERDICTS is entries[0] and limit._PAIR is entries[1]
            reference = live(config, trace, regions, memory)
            assert_agree([fresh, hit], reference)


@pytest.mark.parametrize("memory", ("L2-11", "MEM-400"))
@pytest.mark.parametrize("name", ("mcf", "swim"))
def test_windows_below_the_fetch_width_agree(name, memory, monkeypatch):
    """Windows of 1 to 8 entries at fetch widths 1 to 8, many of them
    below the width, where the window bound reads a commit fewer
    instructions back than the bandwidth bound, on a stall-bound and a
    busy trace: every cell, on cleared memos and as a pair-memo hit,
    equals the reference pass."""
    trace, regions = workload(name)
    memory = TABLE1_CONFIGS[memory]
    for width in (1, 2, 4, 8):
        for rob in (1, 2, 3, 4, 5, 8):
            config = LimitMachine(rob_size=rob, width=width)
            clear_memos(monkeypatch)
            fresh = run(config, trace, regions, memory)
            run(dataclasses.replace(config, rob_size=64), trace, regions, memory)
            pair = limit._PAIR
            hit = run(config, trace, regions, memory)
            assert limit._PAIR is pair
            assert_agree([fresh, hit], live(config, trace, regions, memory))


@pytest.mark.parametrize(
    "change, message",
    [
        ({"rob_size": 0}, "rob_size must be None or at least 1, got 0"),
        ({"rob_size": -3}, "rob_size must be None or at least 1, got -3"),
        ({"width": 0}, "width must be at least 1, got 0"),
        ({"width": -1}, "width must be at least 1, got -1"),
    ],
    ids=["rob-0", "rob-negative", "width-0", "width-negative"],
)
def test_an_impossible_window_or_width_is_rejected(change, message):
    trace, regions = workload("gcc")
    kwargs = {"rob_size": 32, **change}
    with pytest.raises(ValueError, match=message):
        limit.simulate_limit(
            trace[:500], warmed(MEMORY, regions), predictor="perceptron", **kwargs
        )
    with pytest.raises(ValueError, match=message):
        run(LimitMachine(**kwargs), trace[:500], regions)


def test_flipped_branch_retrains():
    trace, regions = workload("gcc")
    k = [i for i, instr in enumerate(trace) if instr.op == OpClass.BRANCH][40]
    flip = dataclasses.replace(trace[k], taken=not trace[k].taken)
    flipped = [*trace[:k], flip, *trace[k + 1:]]
    config = LimitMachine(rob_size=32)
    run(config, trace, regions)
    before, pair = limit._VERDICTS, limit._PAIR
    outcome = run(config, flipped, regions)
    assert limit._VERDICTS is not before and limit._PAIR is not pair
    # The flipped branch's verdict flips, so a stale hit would show.
    assert limit._VERDICTS[2] != before[2]
    # The line stream is the same, so the plan is.
    assert limit._PAIR.plan.codes == pair.plan.codes
    assert_agree([outcome], live(config, flipped, regions))


def test_prefix_of_the_trace_retrains(timed):
    """At a window longer than the trace every pass is free, so a stale
    entry would serve the second trace the first one's outcome."""
    trace, regions = workload("gcc")
    other, other_regions = workload("swim")
    prefix = trace[: len(trace) // 2]
    config = LimitMachine(rob_size=4096)
    for (first, first_regions), (second, second_regions) in (
        ((trace, regions), (prefix, regions)),
        ((prefix, regions), (trace, regions)),
        ((trace, regions), (other, other_regions)),
    ):
        run(config, first, first_regions)
        before, pair = limit._VERDICTS, limit._PAIR
        assert pair.free is not None
        ran = len(timed)
        outcome = run(config, second, second_regions)
        assert len(timed) == ran + 1
        assert limit._VERDICTS is not before and limit._PAIR is not pair
        branches = sum(instr.op == OpClass.BRANCH for instr in second)
        assert len(limit._VERDICTS[2]) == branches
        assert len(limit._PAIR.plan.codes) == sum(instr.is_mem for instr in second)
        assert_agree([outcome], live(config, second, second_regions))


def test_same_class_other_spec_retrains():
    trace, regions = workload("gcc")
    run(LimitMachine(rob_size=32, predictor="gshare-10"), trace, regions)
    ten = limit._VERDICTS
    config = LimitMachine(rob_size=32, predictor="gshare-14")
    outcome = run(config, trace, regions)
    assert limit._VERDICTS is not ten
    # The two gshares disagree on this trace, so a stale hit would show.
    assert limit._VERDICTS[2] != ten[2]
    assert_agree([outcome], live(config, trace, regions))


def test_another_memory_or_other_regions_reclassify():
    trace, regions = workload("gcc")
    config = LimitMachine(rob_size=32)
    for memory, second_regions in (
        (TABLE1_CONFIGS["MEM-100"], regions),
        (MEMORY, regions[:1]),
        (MEMORY, None),
    ):
        run(config, trace, regions)
        pair = limit._PAIR
        outcome = run(config, trace, second_regions, memory)
        assert limit._PAIR is not pair
        assert_agree([outcome], live(config, trace, second_regions, memory))


def test_a_touched_hierarchy_reclassifies():
    """An access after warm-up moves LRU contents and leaves a fill in
    flight: the plan recomputes, and the in-flight fill times the pass."""
    trace, regions = workload("swim")
    config = LimitMachine(rob_size=64)
    line_addr = next(instr.addr for instr in trace if instr.is_load)
    run(config, trace, regions)
    pair = limit._PAIR
    touched = []
    for _ in range(2):
        hierarchy = warmed(MEMORY, regions)
        hierarchy.access(line_addr + (1 << 20), now=0)
        hierarchy.access(line_addr, now=5)
        touched.append(hierarchy)
    outcome = run(config, trace, regions, hierarchy=touched[0])
    assert limit._PAIR is not pair
    assert_agree([outcome], live(config, trace, regions, hierarchy=touched[1]))


def test_each_level_times_from_its_own_fill_table():
    """Line Y is in both levels with a fill in flight only in the L2's
    table; line Z is only in the L2, with a fill only in the L1's.  The
    L1 hits on Y and the one L2 hit on Z must each read their own
    level's table, so none pays the foreign fill."""
    y, z = 0x10_0000, 0x20_0000
    b = InstructionBuilder()
    trace = [b.load(1 + k, 30, addr=addr) for k, addr in enumerate((y, z, y, y))]
    config = LimitMachine(rob_size=32)
    outcomes = []
    for _ in range(2):
        hierarchy = MemoryHierarchy(MEMORY)
        hierarchy.touch(y)
        hierarchy.l2.fill(z >> 6)
        hierarchy.l2.record_fill(y >> 6, 10_000)
        hierarchy.l1.record_fill(z >> 6, 10_000)
        outcomes.append(hierarchy)
    outcome = run(config, trace, None, hierarchy=outcomes[0])
    assert outcome[0].cycles < 100
    assert_agree([outcome], live(config, trace, None, hierarchy=outcomes[1]))


def test_moved_counters_still_hit():
    """Counters are not part of the plan's key: a hit moves them as far
    as the stream does, from wherever they start."""
    trace, regions = workload("gcc")
    config = LimitMachine(rob_size=32)
    run(config, trace, regions)
    pair = limit._PAIR
    moved = []
    for _ in range(2):
        hierarchy = warmed(MEMORY, regions)
        hierarchy.l1.hits += 7
        hierarchy.l2.misses += 3
        hierarchy.memory.accesses += 11
        moved.append(hierarchy)
    outcome = run(config, trace, regions, hierarchy=moved[0])
    assert limit._PAIR is pair
    assert_agree([outcome], live(config, trace, regions, hierarchy=moved[1]))


def test_a_hit_hands_out_no_state_of_the_memo(timed):
    """A hit that then ran on, its hierarchy, fill tables and histogram
    included, does not change what the next hit installs: at 32 the pass
    delays dispatches and runs, at 4096 the window shortcut serves it."""
    trace, regions = workload("gcc")
    for window in (32, 4096):
        config = LimitMachine(rob_size=window)
        run(config, trace, regions)
        pair = limit._PAIR
        stats, _, first = run(config, trace, regions)
        for instr in trace:
            if instr.is_mem:
                first.touch(instr.addr + (1 << 22))
                first.l1.record_fill(instr.addr >> 6, 1 << 30)
                first.l2.record_fill(instr.addr >> 6, 1 << 30)
        stats.issue_distance.add(7)
        outcome = run(config, trace, regions)
        assert limit._PAIR is pair
        assert_agree([outcome], live(config, trace, regions))
    assert timed == [32, 32, 32, 4096]


@pytest.mark.parametrize("memory", ("L1-2", "L2-11", "MEM-400"))
def test_one_hierarchy_through_two_passes(memory, timed):
    """The first pass on the hierarchy is a plan hit that the window
    shortcut serves, installing the recorded fill tables; the second
    starts from where the first left it, those tables included, as the
    reference's second pass does."""
    trace, regions = workload("swim")
    memory = TABLE1_CONFIGS[memory]
    config = LimitMachine(rob_size=4096)
    run(dataclasses.replace(config, rob_size=2048), trace, regions, memory)
    pair = limit._PAIR
    reused, reference = warmed(memory, regions), warmed(memory, regions)
    first = run(config, trace, regions, hierarchy=reused)
    assert limit._PAIR is pair and timed == [2048]
    assert_agree([first], live(config, trace, regions, hierarchy=reference))
    second = run(config, trace, regions, hierarchy=reused)
    assert_agree([second], live(config, trace, regions, hierarchy=reference))


def sweep_sensitive_trace():
    """A trace whose timing the sweep moves: a late miss sweeps out the
    fill of line A, and a younger load of A that issues early then pays
    no remaining fill time, which starts a chain of misses earlier."""
    b = InstructionBuilder()
    trace = [
        b.load(1, 30, addr=0x10_0000),  # A misses at cycle 1
        b.load(2, 30, addr=0x20_0000),
        b.load(3, 30, addr=0x30_0000),
        b.load(4, 1, addr=0x40_0000),  # misses once A arrives: sweeps
        b.load(5, 30, addr=0x10_0008),  # A again, issuing at cycle 2
    ]
    for k in range(5):
        trace.append(b.load(6 + k, 5 + k, addr=0x50_0000 + k * 0x1040))
    return trace


def test_fill_sweep_matches_live(monkeypatch, timed):
    """With a small sweep threshold, a miss-heavy trace sweeps its fill
    tables often; on the hand-built trace the sweep moves the timing.
    The threshold is part of what a free pass's outcome holds for, so
    the passes before the change serve none after it."""
    memory = TABLE1_CONFIGS["MEM-1000"]
    config = LimitMachine(rob_size=4096, record_histogram=False)
    swim, regions = workload("swim")
    cases = ((swim, regions), (sweep_sensitive_trace(), None))
    unswept = [run(config, trace, regions, memory)[0].cycles for trace, regions in cases]
    monkeypatch.setattr(cache, "FILL_SWEEP_THRESHOLD", 2)
    sweeps = []
    sweep = cache.Cache.sweep_fills
    monkeypatch.setattr(
        cache.Cache, "sweep_fills", lambda c, now: sweeps.append(now) or sweep(c, now)
    )
    cycles = []
    for trace, regions in cases:
        sweeps.clear()
        fresh = run(config, trace, regions, memory)
        assert sweeps and timed[-1] == 4096
        pair, ran = limit._PAIR, len(timed)
        hit = run(config, trace, regions, memory)
        assert limit._PAIR is pair and len(timed) == ran
        reference = live(config, trace, regions, memory)
        assert_agree([fresh, hit], reference)
        cycles.append(reference[0].cycles)
    assert cycles[1] < unswept[1]


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
    assert_agree([outcome], live(config, trace, None))


# ----------------------------------------------------------------------
# The window shortcut: a pass that never delays a dispatch serves every
# larger window of its (trace, memory) pair
# ----------------------------------------------------------------------


def outcome_of(result):
    """A run's stats, the runner's predictor counts and the hierarchy's
    state, as one comparable value."""
    stats, predictor, hierarchy = result
    return (
        stats.to_dict(),
        predictor.predictions,
        predictor.mispredictions,
        state(hierarchy),
    )


@functools.cache
def live_outcome(name: str, memory: str, window: int):
    trace, regions = workload(name)
    config = LimitMachine(rob_size=window, record_histogram=False)
    return outcome_of(live(config, trace, regions, TABLE1_CONFIGS[memory]))


@pytest.mark.parametrize("memory", TABLE1_CONFIGS)
def test_every_window_order_agrees(memory, monkeypatch, timed):
    """Figure 1's windows on one memory, in ascending, descending and
    shuffled order: every cell equals a pass on cleared memos and the
    reference pass, and some cell is served."""
    orders = [list(FULL_WINDOWS), list(reversed(FULL_WINDOWS))]
    orders.append(random.Random(memory).sample(FULL_WINDOWS, len(FULL_WINDOWS)))
    served = 0
    for name in WORKLOADS:
        trace, regions = workload(name)
        for windows in orders:
            clear_memos(monkeypatch)
            for window in windows:
                config = LimitMachine(rob_size=window, record_histogram=False)
                ran = len(timed)
                cell = outcome_of(run(config, trace, regions, TABLE1_CONFIGS[memory]))
                served += len(timed) == ran
                memos = limit._VERDICTS, limit._PAIR
                clear_memos(monkeypatch)
                fresh = outcome_of(run(config, trace, regions, TABLE1_CONFIGS[memory]))
                limit._VERDICTS, limit._PAIR = memos
                assert cell == fresh == live_outcome(name, memory, window)
    assert served


def test_unlimited_window_after_a_free_finite_one_hits(timed):
    trace, regions = workload("gcc")
    free = LimitMachine(rob_size=256, record_histogram=False)
    unlimited = dataclasses.replace(free, rob_size=None)
    run(free, trace, regions)
    assert limit._PAIR.free.window == 256
    outcome = run(unlimited, trace, regions)
    assert timed == [256]
    assert_agree([outcome], live(unlimited, trace, regions))


def test_finite_window_after_an_unlimited_one_runs(timed):
    """An unlimited pass serves only unlimited ones; the free finite pass
    that follows it serves more windows, so it takes the record."""
    trace, regions = workload("gcc")
    unlimited = LimitMachine(rob_size=None, record_histogram=False)
    config = dataclasses.replace(unlimited, rob_size=4096)
    run(unlimited, trace, regions)
    assert limit._PAIR.free.window is None
    outcome = run(config, trace, regions)
    assert timed == [None, 4096] and limit._PAIR.free.window == 4096
    assert_agree([outcome], live(config, trace, regions))


def test_histogram_and_swept_fills_are_served(monkeypatch, timed):
    """With the histogram recorded and a low sweep threshold, a served
    cell takes the recorded histogram and the swept fill tables."""
    monkeypatch.setattr(cache, "FILL_SWEEP_THRESHOLD", 8)
    sweeps = []
    sweep = cache.Cache.sweep_fills
    monkeypatch.setattr(
        cache.Cache, "sweep_fills", lambda c, now: sweeps.append(now) or sweep(c, now)
    )
    memory = TABLE1_CONFIGS["MEM-1000"]
    trace, regions = workload("swim")
    config = LimitMachine(rob_size=2048)
    run(config, trace, regions, memory)
    assert sweeps
    bigger = dataclasses.replace(config, rob_size=4096)
    outcome = run(bigger, trace, regions, memory)
    assert timed == [2048]
    assert outcome[0].issue_distance.count == len(trace)
    assert_agree([outcome], live(bigger, trace, regions, memory))


def test_a_delayed_pass_records_nothing(timed):
    trace, regions = workload("gcc")
    config = LimitMachine(rob_size=32, record_histogram=False)
    run(config, trace, regions)
    assert limit._PAIR.free is None
    bigger = dataclasses.replace(config, rob_size=48)
    outcome = run(bigger, trace, regions)
    assert timed == [32, 48]
    assert_agree([outcome], live(bigger, trace, regions))


def test_a_smaller_window_runs_and_takes_the_record(timed):
    """On gcc × MEM-400, 128 delays a dispatch and 256 does not: 4096
    stays recorded until 256 runs free, which then serves 512."""
    trace, regions = workload("gcc")
    for window in (4096, 128, 256, 512):
        config = LimitMachine(rob_size=window, record_histogram=False)
        outcome = run(config, trace, regions)
        assert_agree([outcome], live(config, trace, regions))
    assert timed == [4096, 128, 256]
    assert limit._PAIR.free.window == 256


def test_other_starting_fill_tables_run(timed):
    """A fill in flight before the pass, on a line whose first access is
    a load that hits in a cache, delays that load: the recorded pass
    started from empty tables."""
    trace, regions = workload("gcc")
    config = LimitMachine(rob_size=4096, record_histogram=False)
    base = run(config, trace, regions)[0]
    first_access = {}
    for instr, (kind, _) in zip([i for i in trace if i.is_mem], limit._PAIR.plan.codes):
        first_access.setdefault(instr.addr >> 6, (kind, instr.is_load))
    line = next(
        line
        for line, (kind, load) in first_access.items()
        if load and kind in (L1_PENDING, L2_PENDING)
    )
    pending = []
    for _ in range(2):
        hierarchy = warmed(MEMORY, regions)
        hierarchy.l1.record_fill(line, 10_000)
        hierarchy.l2.record_fill(line, 10_000)
        pending.append(hierarchy)
    outcome = run(config, trace, regions, hierarchy=pending[0])
    assert timed == [4096, 4096]
    assert outcome[0].cycles > 10_000 > base.cycles
    assert_agree([outcome], live(config, trace, regions, hierarchy=pending[1]))


@pytest.mark.parametrize("change", [{"width": 2}, {"redirect_penalty": 9}])
def test_other_pass_parameters_run(change, monkeypatch, timed):
    trace, regions = workload("gcc")

    def limit_pass(**kwargs):
        hierarchy = warmed(MEMORY, regions)
        result = limit.simulate_limit(trace, hierarchy, predictor="perceptron", **kwargs)
        stats = result.stats.to_dict()
        del stats["config"]
        return stats, state(hierarchy)

    default = limit_pass(rob_size=2048)
    changed = limit_pass(rob_size=4096, **change)
    assert timed == [2048, 4096]
    # The recorded outcome is not this pass's, so a stale hit would show.
    assert changed != default
    clear_memos(monkeypatch)
    assert changed == limit_pass(rob_size=4096, **change)


def with_tail(trace, tail):
    """*trace* followed by a load that misses to memory and *tail*, which
    reads the load's register."""
    b = InstructionBuilder(start_pc=0x7_0000)
    return [*trace, b.load(20, 30, addr=0x7F0_0000), tail(b)]


@pytest.mark.parametrize(
    "tail",
    [
        lambda b: b.alu(21, 22, 23),  # the same op, other sources
        lambda b: b.emit(OpClass.INT_MUL, dest=21, srcs=(20, 23)),  # another op
    ],
    ids=["sources", "op"],
)
def test_a_changed_source_or_op_is_not_served(tail, timed):
    """Both streams stay unchanged, so an entry keyed on them would hit
    and serve the first trace's outcome."""
    trace, regions = workload("gcc")
    base_trace = with_tail(trace, lambda b: b.alu(21, 20, 23))
    changed_trace = with_tail(trace, tail)
    config = LimitMachine(rob_size=4096, record_histogram=False)
    base = run(config, base_trace, regions)[0]
    pair = limit._PAIR
    outcome = run(config, changed_trace, regions)
    assert limit._PAIR is not pair and limit._PAIR.plan.codes == pair.plan.codes
    assert limit._VERDICTS[1] == [
        instr.pc << 1 | bool(instr.taken) for instr in base_trace if instr.is_cond_branch
    ]
    assert timed == [4096, 4096]
    assert outcome[0].cycles != base.cycles
    assert_agree([outcome], live(config, changed_trace, regions))


def synth_case(rng: random.Random):
    """A random synth workload, memory and predictor."""
    spec = (
        f"synth(footprint={rng.choice(['64K', '1M', '16M'])},"
        f"chase={rng.choice([0, 2, 8])},br={rng.choice([0.02, 0.1, 0.25])},"
        f"ilp={rng.randint(1, 8)},mlp={rng.randint(1, 6)})"
    )
    built = get_workload(spec, seed=rng.randrange(1000))
    trace = built.trace(1500)
    memory = TABLE1_CONFIGS[rng.choice(list(TABLE1_CONFIGS))]
    return trace, tuple(built.regions), memory, rng.choice(PREDICTORS)


def test_a_free_window_is_every_larger_window(monkeypatch):
    """The premise itself, on cleared memos: for every W < W' (the
    unlimited window last), a pass at W that delays no dispatch equals
    the pass at W', stats, predictor counts and hierarchy state alike."""
    windows = (*FULL_WINDOWS, None)
    shorter_than_the_trace = 0
    for seed in range(8):
        trace, regions, memory, predictor = synth_case(random.Random(seed))
        outcomes = []
        for window in windows:
            clear_memos(monkeypatch)
            config = LimitMachine(rob_size=window, predictor=predictor)
            outcome = outcome_of(run(config, trace, regions, memory))
            del outcome[0]["config"]
            outcomes.append((limit._PAIR.free is not None, outcome))
        for k, (free, outcome) in enumerate(outcomes[:-1]):
            if free:
                shorter_than_the_trace += windows[k] < len(trace)
                for _, larger in outcomes[k + 1:]:
                    assert larger == outcome
    assert shorter_than_the_trace
