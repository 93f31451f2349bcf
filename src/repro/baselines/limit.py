"""Idealized ROB-only processor for the Section-2 characterization.

The paper's memory-wall study (Figures 1 and 2) uses 4-way out-of-order
cores whose "resources are sized such that stalls can only occur due to
shortage of entries in the ROB": unlimited issue queues, registers and
functional units.  Such a machine needs no per-cycle structural
arbitration, so instead of the cycle-level models we compute each dynamic
instruction's timing directly in one O(n) pass:

* fetch advances 4 instructions per cycle, breaks at taken branches, and
  stalls at mispredicted branches until they resolve;
* dispatch waits for a ROB slot (instruction ``i - rob_size`` must have
  committed);
* issue waits for the source operands;
* commit is in-order, 4 wide.

The same pass records the decode→issue distance of every instruction,
which is Figure 3's histogram and the empirical basis of the paper's
*execution locality* concept.

The predictor is trained strictly in trace order, so its verdicts depend
only on the predictor spec and the trace's conditional-branch stream, not
on the window or the memory system.  :func:`branch_verdicts` keeps the
last stream's verdicts in a one-entry per-process memo, so a window sweep
trains one predictor per trace instead of one per cell.  The cache
hierarchy is called in trace order too, so which level serves each access
depends only on the hierarchy's starting contents and the trace's line
stream.  A one-entry per-process memo keyed by the trace itself holds a
(trace, memory) pair's verdicts and access plan
(:meth:`~repro.memory.hierarchy.MemoryHierarchy.classify`), so each
window's pass replays only the timing, and builds neither stream.  The
same entry keeps the smallest window whose pass never delayed a
dispatch: that pass is the pass of every larger window of the pair, so
those windows take its outcome without running (see
:func:`simulate_limit`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from repro.branch import make_predictor
from repro.branch.base import BranchPredictor
from repro.branch.spec import canonical_predictor
from repro.isa import DEFAULT_LATENCIES, Instruction, LatencyTable
from repro.isa.registers import NUM_REGS
from repro.memory import cache
from repro.memory.hierarchy import (
    L1_PENDING,
    L2_PENDING,
    RECORD,
    AccessPlan,
    MemoryHierarchy,
)
from repro.sim.config import LimitMachine
from repro.sim.stats import Histogram, SimStats


@dataclass
class LimitResult:
    """Outcome of one limit-simulation run."""

    committed: int
    cycles: int
    stats: SimStats
    issue_distance: Histogram

    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0


#: The last ``(canonical predictor spec, branch stream, verdicts)`` this
#: process computed.  Cells reach every process grouped by workload, so
#: one entry serves a trace's whole window × memory sweep; it holds
#: packed ints and bytes, never an instruction or a trace.
_VERDICTS: tuple[str, list[int], bytes] | None = None


def branch_verdicts(spec: str, stream: list[int]) -> bytes:
    """Per-branch outcomes of a fresh *spec* predictor over *stream*.

    *stream* packs each conditional branch as ``pc << 1 | taken``, in
    trace order; byte ``k`` of the result is 1 when branch ``k`` was
    predicted correctly.  The one-entry memo is keyed on *spec* (pass
    the canonical spelling, so equivalent ones share the entry) and the
    whole stream, compared element for element, so a different trace,
    a prefix of one or another predictor always retrains.  It trains
    only a predictor it built, never one a caller may already have
    trained.
    """
    global _VERDICTS
    memo = _VERDICTS
    if memo is None or memo[0] != spec or memo[1] != stream:
        update = make_predictor(spec).update
        verdicts = bytes([update(packed >> 1, bool(packed & 1)) for packed in stream])
        memo = _VERDICTS = (spec, stream, verdicts)
    return memo[2]


class _Free(NamedTuple):
    """The outcome of a pass that never delayed a dispatch."""

    #: The pass's ROB size; ``None`` for an unlimited window.
    window: int | None
    #: What else the outcome depends on: the fill tables the pass started
    #: from, ``width``, ``redirect_penalty``, ``record_histogram`` and
    #: the fill-sweep threshold.
    conditions: tuple
    last_commit: int
    branches: int
    mispredictions: int
    histogram: Histogram
    #: Per cache level, the fill table the pass left.
    fills: tuple[dict[int, int], ...]

    def serves(self, rob_size: int | None, conditions: tuple) -> bool:
        """True when a pass at *rob_size* under *conditions* is this one.

        An unlimited pass serves only unlimited ones; a finite one
        serves every larger window and the unlimited one.
        """
        if conditions != self.conditions:
            return False
        if rob_size is None:
            return True
        return self.window is not None and rob_size >= self.window


@dataclass(slots=True)
class _Pair:
    """What a (trace, memory) pair computes once, whatever the window."""

    #: The trace, compared element for element, the canonical predictor
    #: spec and the latency table.
    key: tuple
    verdicts: bytes
    plan: AccessPlan
    #: The smallest window whose pass delayed no dispatch, if one ran.
    free: _Free | None = None


#: The last (trace, memory) pair this process ran.  Cells reach every
#: process grouped by (workload, memory), windows ascending, so one entry
#: serves a pair's whole window sweep.
_PAIR: _Pair | None = None


def _pair(
    trace: list[Instruction], spec: str, latencies: LatencyTable, hierarchy: MemoryHierarchy
) -> _Pair:
    """The memo entry for *trace* on *hierarchy*, which the call leaves
    as classifying the trace's line stream would.

    The entry hits when *trace*, *spec* and *latencies* equal its key,
    the trace element for element (a cell's trace is a fresh slice of
    its workload's memoized list, so this compares pointers), and the
    hierarchy :meth:`~repro.memory.hierarchy.MemoryHierarchy.replays`
    its plan (same geometry, same LRU contents); a hit then applies the
    plan, installing the contents and counters the stream leaves.  The
    key is the trace, not its branch and line streams: the timing also
    reads every instruction's sources, destination, op and unconditional
    ``taken``.  A miss drops the old entry first, so the memo never
    keeps a previous trace alive beside the new one, and builds the two
    streams for :func:`branch_verdicts` and ``classify``.
    """
    global _PAIR
    key = (trace, spec, latencies)
    pair = _PAIR
    if pair is not None and pair.key == key and hierarchy.replays(pair.plan):
        hierarchy.apply(pair.plan)
        return pair
    _PAIR = None
    verdicts = branch_verdicts(
        spec, [instr.pc << 1 | bool(instr.taken) for instr in trace if instr.is_cond_branch]
    )
    line_bits = hierarchy.line_size.bit_length() - 1
    plan = hierarchy.classify([instr.addr >> line_bits for instr in trace if instr.is_mem])
    pair = _PAIR = _Pair(key, verdicts, plan)
    return pair


def _copy(histogram: Histogram) -> Histogram:
    return Histogram.from_dict(histogram.to_dict())


def simulate_limit(
    trace: Iterable[Instruction],
    hierarchy: MemoryHierarchy,
    rob_size: int | None,
    predictor: str,
    width: int = 4,
    redirect_penalty: int = 5,
    latencies: LatencyTable = DEFAULT_LATENCIES,
    record_histogram: bool = True,
    stats: SimStats | None = None,
) -> LimitResult:
    """Run the idealized core over *trace*.

    The memory work splits in two: the pair memo (:func:`_pair`) decides,
    with no timing, which level serves each load and store, and the pass
    replays only the timing of that plan, with
    :meth:`~repro.memory.hierarchy.MemoryHierarchy.access`'s fill rule
    inlined: a hit on a line whose fill is still in flight pays the
    remaining fill time on top of the level's latency, and a miss
    records its fill in both levels through ``record_fill``.  The
    hierarchy ends as a pass of ``access`` calls would leave it.

    The window enters the pass in one place: instruction *i* dispatches
    no earlier than one cycle after instruction *i - rob_size* commits.
    Commit times never decrease, so a larger window's bound is never
    later.  A pass whose bound never delayed a dispatch is therefore,
    by induction over the trace, the pass of every larger window and of
    the unlimited one: the same dispatches, issues, fills (the sweep
    included) and commits.  The pair memo keeps the smallest such window
    with its cycles, branch counts, histogram and the fill tables it
    left; a later pass of the pair at a window at least that large, from
    the same fill tables and with the same ``width``,
    ``redirect_penalty`` and ``record_histogram``, installs copies of those tables and takes the outcome without
    running.  A change to the timing model must keep commit times
    nondecreasing, or drop this shortcut.

    Args:
        rob_size: ROB capacity, at least 1; ``None`` means unlimited (the
            configuration of the Figure-3 analysis).
        width: Fetch and commit width, at least 1.  A value out of range
            for either raises ``ValueError``.
        predictor: Branch-predictor spec (:mod:`repro.branch.spec`); a
            fresh one is trained over the trace's conditional branches,
            through :func:`branch_verdicts`.
        record_histogram: Set False to skip the per-instruction
            decode→issue histogram (25-cycle bins, samples capped at 4000
            cycles); the window sweeps of Figures 1/2 only consume IPC,
            and the histogram is the hottest non-essential work in the
            pass.
        stats: Record into this (pre-named) stats object instead of a
            fresh one — how :class:`LimitCore` threads the runner-created
            stats through.
    """
    if rob_size is not None and rob_size < 1:
        raise ValueError(f"rob_size must be None or at least 1, got {rob_size!r}")
    if width < 1:
        raise ValueError(f"width must be at least 1, got {width!r}")
    if stats is None:
        stats = SimStats(config=f"limit-{rob_size or 'inf'}")
    trace = list(trace)  # the memo's key; a miss also reads its two streams
    pair = _pair(trace, canonical_predictor(predictor), latencies, hierarchy)
    levels = [hierarchy.l1] if hierarchy.l2 is None else [hierarchy.l1, hierarchy.l2]
    conditions = (
        tuple(dict(level.fills) for level in levels),
        width,
        redirect_penalty,
        record_histogram,
        cache.FILL_SWEEP_THRESHOLD,
    )
    free = pair.free
    if free is not None and free.serves(rob_size, conditions):
        for level, fills in zip(levels, free.fills):
            table = level.fills
            table.clear()
            table.update(fills)
        last_commit, branches, mispredictions = (
            free.last_commit, free.branches, free.mispredictions
        )
        histogram = _copy(free.histogram)
    else:
        histogram = Histogram(bin_width=25, max_value=4000)
        last_commit, branches, mispredictions, delayed = _time(
            trace,
            pair,
            hierarchy,
            rob_size,
            width,
            redirect_penalty,
            latencies,
            histogram.add if record_histogram else None,
        )
        if not delayed:
            pair.free = _Free(
                rob_size,
                conditions,
                last_commit,
                branches,
                mispredictions,
                _copy(histogram),
                tuple(dict(level.fills) for level in levels),
            )

    committed = len(trace)
    cycles = last_commit if committed else 0
    stats.fetched += committed
    stats.branch_predictions += branches
    stats.branch_mispredictions += mispredictions
    stats.committed = committed
    stats.cycles = cycles
    stats.issue_distance = histogram
    hierarchy.stamp_counters(stats)
    return LimitResult(
        committed=committed, cycles=cycles, stats=stats, issue_distance=histogram
    )


def _time(
    trace: list[Instruction],
    pair: _Pair,
    hierarchy: MemoryHierarchy,
    rob_size: int | None,
    width: int,
    redirect_penalty: int,
    latencies: LatencyTable,
    histogram_add,
) -> tuple[int, int, int, bool]:
    """One timing pass of :func:`simulate_limit` over *pair*'s verdicts
    and plan.  Returns the last commit cycle, the branch and
    misprediction counts, and whether the ROB ever delayed a dispatch.

    One list, ``commits``, holds *width* zeros and then every commit
    cycle in trace order, so instruction *i*'s commit is
    ``commits[i + width]``.  Both bounds read it by index: the window
    bound the commit *rob_size* instructions back, from instruction
    *rob_size* on, and the bandwidth bound the commit *width*
    instructions back (a zero before the first *width*).  Each
    instruction's live sources are read from the slot
    :meth:`~repro.isa.Instruction.live_srcs` returns.
    """
    next_verdict = iter(pair.verdicts).__next__
    line_bits = hierarchy.line_size.bit_length() - 1
    next_access = iter(pair.plan.codes).__next__
    l1_ready = hierarchy.l1.fills.get
    if hierarchy.l2 is not None:  # else no access is L2_PENDING or RECORD
        l2_ready = hierarchy.l2.fills.get
        l1_record = hierarchy.l1.record_fill
        l2_record = hierarchy.l2.record_fill
    by_op = latencies.by_op

    reg_time = [0] * NUM_REGS
    commits = [0] * width
    record_commit = commits.append
    # The first instruction the window bounds (none past the trace when
    # it is unlimited), and how far below an instruction's own index its
    # bound sits in `commits`.
    bounded = len(trace) if rob_size is None else rob_size
    back = bounded - width
    last_commit = 0
    fetch_cycle = 0
    slots_left = width          # fetch slots remaining in the current cycle
    resume_cycle = 0            # earliest fetch cycle after a misprediction
    branches = mispredictions = 0
    delayed = False

    for i, instr in enumerate(trace):
        # ---- fetch -----------------------------------------------------
        if slots_left == 0:
            fetch_cycle += 1
            slots_left = width
        if fetch_cycle < resume_cycle:
            fetch_cycle = resume_cycle
            slots_left = width
        slots_left -= 1

        # ---- dispatch (ROB capacity) ------------------------------------
        dispatch = fetch_cycle
        if i >= bounded:
            oldest_commit = commits[i - back]
            if oldest_commit + 1 > dispatch:
                dispatch = oldest_commit + 1
                # The back-pressure propagates to the front end.
                fetch_cycle = dispatch
                slots_left = width - 1
                delayed = True

        # ---- issue -----------------------------------------------------
        ready = dispatch + 1
        for src in instr._live_srcs:
            t = reg_time[src]
            if t > ready:
                ready = t
        issue = ready
        if histogram_add is not None:
            histogram_add(issue - (dispatch + 1))

        # ---- execute ---------------------------------------------------
        latency = by_op[instr.op]
        if instr.is_mem:
            fills, mem_latency = next_access()
            if fills == L1_PENDING:
                t = l1_ready(instr.addr >> line_bits)
                if t is not None and t > issue:
                    mem_latency += t - issue
            elif fills == L2_PENDING:
                t = l2_ready(instr.addr >> line_bits)
                if t is not None and t > issue:
                    mem_latency += t - issue
            elif fills == RECORD:
                line = instr.addr >> line_bits
                l2_record(line, issue + mem_latency, issue)
                l1_record(line, issue + mem_latency, issue)
            if instr.is_load:
                latency += mem_latency
        complete = issue + latency
        dest = instr.dest
        if dest is not None:
            reg_time[dest] = complete

        # ---- control flow ----------------------------------------------
        if instr.is_cond_branch:
            branches += 1
            if not next_verdict():
                mispredictions += 1
                resume_cycle = complete + redirect_penalty
                slots_left = 0
        elif instr.taken:
            # Taken jump ends the fetch group.
            slots_left = 0

        # ---- commit ----------------------------------------------------
        commit = complete
        if last_commit > commit:
            commit = last_commit
        t = commits[i] + 1
        if t > commit:
            commit = t
        last_commit = commit
        record_commit(commit)

    return last_commit, branches, mispredictions, delayed


def issue_distance_histogram(
    trace: Iterable[Instruction],
    hierarchy: MemoryHierarchy,
    predictor: str,
) -> Histogram:
    """Figure-3 measurement: unlimited window, decode→issue distances."""
    result = simulate_limit(trace, hierarchy, rob_size=None, predictor=predictor)
    return result.issue_distance


class LimitCore:
    """Registry adapter giving the one-pass limit study the ``run()`` and
    ``drive()`` surface of the cycle-level machines."""

    def __init__(
        self,
        trace: Iterable[Instruction],
        config: LimitMachine,
        hierarchy: MemoryHierarchy,
        predictor: BranchPredictor,
        stats: SimStats | None = None,
    ) -> None:
        self.trace = trace
        self.config = config
        self.hierarchy = hierarchy
        self.predictor = predictor
        self.stats = stats if stats is not None else SimStats(config=config.name)

    def run(
        self,
        num_instructions: int,
        max_cycles: int | None = None,
        fast_forward: bool | None = None,
    ) -> SimStats:
        """Consume the trace through :func:`simulate_limit` in one pass.

        The pass computes every instruction's timing directly, cannot
        deadlock and is already O(n), so ``max_cycles`` and
        ``fast_forward`` are accepted for interface compatibility and
        ignored.  The pass trains its own predictor from the config's
        spec (see :func:`branch_verdicts`); ``self.predictor``, whose
        counters the runner stamps on the stats, receives its counts.
        """
        result = simulate_limit(
            self.trace,
            self.hierarchy,
            rob_size=self.config.rob_size,
            predictor=self.config.predictor,
            width=self.config.width,
            redirect_penalty=self.config.redirect_penalty,
            record_histogram=self.config.record_histogram,
            stats=self.stats,
        )
        stats = result.stats
        self.predictor.predictions += stats.branch_predictions
        self.predictor.mispredictions += stats.branch_mispredictions
        return stats

    def drive(
        self,
        num_instructions: int,
        max_cycles: int | None = None,
        fast_forward: bool | None = None,
        round_budget: int = 0,
    ):
        """:meth:`run` as a generator that never pauses: the one pass
        runs whole on the first resumption and returns the stats."""
        return self.run(num_instructions, max_cycles, fast_forward)
        yield  # unreachable: makes this a generator like CycleCore.drive
