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
stream: :func:`access_plan` classifies that stream once per (trace,
memory) pair, and each window's pass replays only the timing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from repro.branch import make_predictor
from repro.branch.base import BranchPredictor
from repro.branch.spec import canonical_predictor
from repro.isa import DEFAULT_LATENCIES, Instruction, LatencyTable
from repro.isa.registers import NUM_REGS
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


#: The last ``(line stream, access plan)`` this process classified.
#: Like :data:`_VERDICTS`, one entry serves the windows of one (trace,
#: memory) pair, which reach a process in a row.
_PLAN: tuple[list[int], AccessPlan] | None = None


def access_plan(hierarchy: MemoryHierarchy, lines: list[int]) -> AccessPlan:
    """*hierarchy*'s classification of the line stream *lines*
    (:meth:`~repro.memory.hierarchy.MemoryHierarchy.classify`), which
    leaves the hierarchy as the classification does.

    The pass calls the hierarchy in trace order, so which level serves
    each access is the same for every window; only the fill arithmetic
    depends on timing.  The one-entry memo hits when *lines* equals the
    entry's stream element for element and the hierarchy
    :meth:`~repro.memory.hierarchy.MemoryHierarchy.replays` the entry's
    plan (same geometry, same LRU contents); a hit then applies the
    plan, installing the contents and counters the stream leaves.
    """
    global _PLAN
    memo = _PLAN
    if memo is not None and memo[0] == lines and hierarchy.replays(memo[1]):
        hierarchy.apply(memo[1])
        return memo[1]
    plan = hierarchy.classify(lines)
    _PLAN = (lines, plan)
    return plan


def simulate_limit(
    trace: Iterable[Instruction],
    hierarchy: MemoryHierarchy,
    rob_size: int | None,
    predictor: str,
    width: int = 4,
    redirect_penalty: int = 5,
    latencies: LatencyTable = DEFAULT_LATENCIES,
    histogram_bin: int = 25,
    record_histogram: bool = True,
    stats: SimStats | None = None,
) -> LimitResult:
    """Run the idealized core over *trace*.

    The memory work splits in two: :func:`access_plan` decides, with no
    timing, which level serves each load and store, and the pass below
    replays only the timing of that plan, with
    :meth:`~repro.memory.hierarchy.MemoryHierarchy.access`'s fill rule
    inlined: a hit on a line whose fill is still in flight pays the
    remaining fill time on top of the level's latency, and a miss
    records its fill in both levels through ``record_fill``.  The
    hierarchy ends as a pass of ``access`` calls would leave it.

    Args:
        rob_size: ROB capacity; ``None`` means unlimited (the configuration
            of the Figure-3 analysis).
        predictor: Branch-predictor spec (:mod:`repro.branch.spec`); a
            fresh one is trained over the trace's conditional branches,
            through :func:`branch_verdicts`.
        histogram_bin: Bin width (cycles) for the decode→issue histogram.
        record_histogram: Set False to skip the per-instruction histogram
            accounting; the window sweeps of Figures 1/2 only consume IPC,
            and the histogram is the hottest non-essential work in the
            pass.
        stats: Record into this (pre-named) stats object instead of a
            fresh one — how :class:`LimitCore` threads the runner-created
            stats through.
    """
    if stats is None:
        stats = SimStats(config=f"limit-{rob_size or 'inf'}")
    trace = list(trace)  # the branch and line streams are read ahead of the pass
    verdicts = branch_verdicts(
        canonical_predictor(predictor),
        [instr.pc << 1 | bool(instr.taken) for instr in trace if instr.is_cond_branch],
    )
    next_verdict = iter(verdicts).__next__
    line_bits = hierarchy.line_size.bit_length() - 1
    plan = access_plan(
        hierarchy, [instr.addr >> line_bits for instr in trace if instr.is_mem]
    )
    next_access = iter(plan.codes).__next__
    l1_ready = hierarchy.l1.fills.get
    if hierarchy.l2 is not None:  # else no access is L2_PENDING or RECORD
        l2_ready = hierarchy.l2.fills.get
        l1_record = hierarchy.l1.record_fill
        l2_record = hierarchy.l2.record_fill
    histogram = Histogram(bin_width=histogram_bin, max_value=4000)
    histogram_add = histogram.add if record_histogram else None
    by_op = latencies.by_op

    reg_time = [0] * NUM_REGS
    # Commit times of the ROB-resident window (for the capacity constraint)
    rob_commits: deque[int] = deque()
    # Commit times of the last `width` instructions (commit bandwidth)
    recent_commits: deque[int] = deque([0] * width, maxlen=width)
    last_commit = 0
    fetch_cycle = 0
    slots_left = width          # fetch slots remaining in the current cycle
    resume_cycle = 0            # earliest fetch cycle after a misprediction
    branches = mispredictions = 0

    for instr in trace:
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
        if rob_size is not None and len(rob_commits) >= rob_size:
            oldest_commit = rob_commits.popleft()
            if oldest_commit + 1 > dispatch:
                dispatch = oldest_commit + 1
                # The back-pressure propagates to the front end.
                fetch_cycle = dispatch
                slots_left = width - 1

        # ---- issue -----------------------------------------------------
        ready = dispatch + 1
        for src in instr.live_srcs():
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
        if recent_commits[0] + 1 > commit:
            commit = recent_commits[0] + 1
        last_commit = commit
        recent_commits.append(commit)
        if rob_size is not None:
            rob_commits.append(commit)

    committed = len(trace)
    cycles = last_commit if committed else 0
    stats.fetched += committed
    stats.branch_predictions += branches
    stats.branch_mispredictions += mispredictions
    stats.committed = committed
    stats.cycles = cycles
    stats.issue_distance = histogram
    stats.l1_hits = hierarchy.l1.hits
    stats.l1_misses = hierarchy.l1.misses
    if hierarchy.l2 is not None:
        stats.l2_hits = hierarchy.l2.hits
        stats.l2_misses = hierarchy.l2.misses
    if hierarchy.memory is not None:
        stats.memory_accesses = hierarchy.memory.accesses
    return LimitResult(
        committed=committed, cycles=cycles, stats=stats, issue_distance=histogram
    )


def issue_distance_histogram(
    trace: Iterable[Instruction],
    hierarchy: MemoryHierarchy,
    predictor: str,
    histogram_bin: int = 25,
) -> Histogram:
    """Figure-3 measurement: unlimited window, decode→issue distances."""
    result = simulate_limit(
        trace,
        hierarchy,
        rob_size=None,
        predictor=predictor,
        histogram_bin=histogram_bin,
    )
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
