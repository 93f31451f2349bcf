"""KILO-1024: pseudo-ROB + out-of-order Slow Lane Instruction Queue.

Models the traditional KILO-instruction processor of Cristal et al.
(reference [9] of the paper, "out-of-order commit processors") that
Figure 9 compares the D-KIP against:

* a small (64-entry) *pseudo-ROB* whose head is inspected after a fixed
  aging delay, like the D-KIP's Analyze stage;
* instructions that reach the head *without having executed* move to the
  *SLIQ*, a large (1024-entry) secondary window with full out-of-order
  wakeup and select — the costly CAM structure the D-KIP's FIFO LLIB
  replaces;
* commit is out of order under multicheckpointing, so the pseudo-ROB never
  stalls waiting for a long-latency instruction (this is what
  distinguishes it from a simple small-ROB machine on compute-bound code).

Because the SLIQ wakes any ready instruction regardless of position,
serial pointer-chasing slices re-issue the moment their operands arrive;
this is why the paper finds KILO-1024 ahead of the D-KIP on SpecINT
(Section 4.2) — at the cost of a 1024-entry CAM and "a very complex
mechanism for register storage" (ephemeral registers, reference [19]).
"""

from __future__ import annotations

from typing import Iterable

from repro.branch.base import BranchPredictor
from repro.isa import Instruction
from repro.isa.registers import NUM_REGS
from repro.memory.cache import AccessLevel
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.entry import InFlight
from repro.pipeline.queues import IssueQueue
from repro.sim.config import KiloConfig, SchedulerPolicy
from repro.sim.stats import SimStats
from repro.baselines.ooo import R10Core


class KiloCore(R10Core):
    """Two-level KILO-instruction processor (pseudo-ROB + SLIQ)."""

    def __init__(
        self,
        trace: Iterable[Instruction],
        config: KiloConfig,
        hierarchy: MemoryHierarchy,
        predictor: BranchPredictor,
        stats: SimStats | None = None,
    ) -> None:
        stats = stats or SimStats(config=config.name)
        super().__init__(trace, config.core, hierarchy, predictor, stats)
        self.name = config.name
        self.kilo_config = config
        self.sliq = IssueQueue("sliq", config.sliq_size, SchedulerPolicy.OUT_OF_ORDER)
        # llbv[r] is the in-flight long-latency producer of register r.
        self.llbv: list[InFlight | None] = [None] * NUM_REGS
        # Re-dispatch pipeline: entries inserted ready (or woken) become
        # issue-eligible only after the slow lane's re-issue delay, and
        # re-insertions share the dispatch ports with the front end.
        self._reissue_wheel: dict[int, list[InFlight]] = {}
        self._reissue_backlog: list[InFlight] = []
        self._reissued_this_cycle = 0
        # The SLIQ joins the inherited issue stage as the oldest
        # scheduling window, ahead of the parity-alternating pair.
        self._queues_even = (self.sliq, self.iq_int, self.iq_fp)
        self._queues_odd = (self.sliq, self.iq_fp, self.iq_int)

    # ------------------------------------------------------------------

    def step(self) -> None:
        self.process_completions()
        self._release_reissued()
        self._analyze()
        self._issue()
        # Front-end dispatch, narrowed by the slots this cycle's slow-lane
        # re-insertions took.
        width = self.config.decode_width - self._reissued_this_cycle
        if width > 0:
            self._dispatch(width)
        self.fetch.cycle(self.now)

    def _release_reissued(self) -> None:
        """Re-insert slow-lane entries whose re-dispatch delay elapsed.

        At most ``sliq_reissue_width`` entries per cycle re-enter the issue
        queues, and each consumes one of the shared dispatch slots (see
        :meth:`step`); the remainder queue up in the backlog.
        """
        due = self._reissue_wheel.pop(self.now, None)
        if due:
            self._reissue_backlog.extend(due)
        width = self.kilo_config.sliq_reissue_width
        released = 0
        while self._reissue_backlog and released < width:
            entry = self._reissue_backlog.pop(0)
            entry.unready -= 1
            released += 1
            if entry.unready == 0 and entry.owner is self.sliq:
                self.sliq.wake(entry)
        self._reissued_this_cycle = released

    # ------------------------------------------------------------------
    # Analyze stage (replaces in-order commit)
    # ------------------------------------------------------------------

    def _analyze(self) -> None:
        """Pseudo-ROB head processing: out-of-order commit + SLIQ routing.

        Multicheckpointing lets instructions leave the pseudo-ROB before
        executing; those that depend on a long-latency register (LLBV) are
        moved from their issue queue into the SLIQ to free IQ entries, the
        rest simply stay in their issue queue and commit at completion.
        """
        rob = self.rob
        width = self.config.commit_width
        timer = self.kilo_config.rob_timer
        analyzed = 0
        while analyzed < width and rob:
            entry = rob[0]
            if self.now - entry.dispatch_cycle < timer:
                break
            instr = entry.instr
            if entry.executed:
                # Executed in time: retire in order from the pseudo-ROB.
                rob.popleft()
                if instr.is_mem:
                    if instr.is_store:
                        self.hierarchy.access(instr.addr, write=True, now=self.now)
                        self.lsq.store_committed(entry)
                    self.lsq.release()
                if instr.dest is not None and self.llbv[instr.dest] is not entry:
                    self.llbv[instr.dest] = None  # short redefinition clears
                self.committed += 1
                self.stats.committed_cp += 1
                analyzed += 1
                continue
            if entry.issued:
                # Executing (typically a load waiting on memory): commits
                # out of order under a checkpoint when it completes.
                rob.popleft()
                entry.where = "ap"
                entry.long_latency = True
                if (
                    instr.is_load
                    and entry.mem_level == AccessLevel.MEMORY
                    and instr.dest is not None
                ):
                    self.llbv[instr.dest] = entry
                analyzed += 1
                continue
            if self._blocked_on_llbv(entry):
                # Miss-dependent: move from the issue queue to the SLIQ.
                if not self.sliq.has_space:
                    self.stats.analyze_stall_cycles += 1
                    self.stats.llib_full_stall_cycles += 1
                    break
                rob.popleft()
                owner = entry.owner
                if isinstance(owner, IssueQueue):
                    owner.remove(entry)
                entry.where = "sliq"
                entry.long_latency = True
                if instr.dest is not None:
                    self.llbv[instr.dest] = entry
                # Hold a re-dispatch token: the entry cannot issue until the
                # slow lane's re-issue pipeline delivers it back through the
                # shared dispatch ports.
                entry.unready += 1
                self.sliq.add(entry)
                # Release strictly in a later cycle: this cycle's wheel slot
                # has already been processed.
                release = self.now + max(1, self.kilo_config.sliq_reissue_delay)
                self._reissue_wheel.setdefault(release, []).append(entry)
                self.stats.llib_insertions += 1
                if self.sliq.occupancy > self.stats.llib_max_instructions_int:
                    self.stats.llib_max_instructions_int = self.sliq.occupancy
                analyzed += 1
                continue
            # Short latency, merely waiting in its issue queue: commit out
            # of order under the checkpoint; the entry keeps its IQ slot.
            rob.popleft()
            entry.where = "iq"
            analyzed += 1

    def _blocked_on_llbv(self, entry: InFlight) -> bool:
        """True when a source register is marked long latency (LLBV).

        Bits clear lazily: the KILO writes slow-lane results back into its
        merged register file, so an executed producer means the register
        holds an architected value again.
        """
        llbv = self.llbv
        for src in entry.instr.live_srcs():
            producer = llbv[src]
            if producer is not None:
                if producer.executed:
                    llbv[src] = None
                else:
                    return True
        return False

    # ------------------------------------------------------------------
    # Quiescence protocol
    # ------------------------------------------------------------------

    def next_work_cycle(self) -> int | None:
        now = self.now
        if self._reissue_backlog:
            return now  # slow-lane re-dispatch tokens release every cycle
        if self._analyze_progress_possible():
            return now
        if (
            self.sliq.next_issuable(now) is not None
            or self.iq_int.next_issuable(now) is not None
            or self.iq_fp.next_issuable(now) is not None
        ):
            return now
        if self._dispatch_possible():
            return now
        wake = self.fetch.next_fetch_cycle(now)
        if self._reissue_wheel:
            due = min(self._reissue_wheel)
            wake = due if wake is None else min(wake, due)
        rob = self.rob
        if rob:
            maturity = rob[0].dispatch_cycle + self.kilo_config.rob_timer
            if maturity > now:
                wake = maturity if wake is None else min(wake, maturity)
        return wake

    def _analyze_progress_possible(self) -> bool:
        """Mirror of the first iteration of :meth:`_analyze`'s loop."""
        rob = self.rob
        if not rob:
            return False
        entry = rob[0]
        if self.now - entry.dispatch_cycle < self.kilo_config.rob_timer:
            return False
        if entry.executed or entry.issued:
            return True
        if self._blocked_on_llbv(entry):
            return self.sliq.has_space
        return True

    def on_cycles_skipped(self, start: int, end: int) -> None:
        self.fetch.account_skipped(start, end)
        rob = self.rob
        if not rob:
            return
        entry = rob[0]
        if start - entry.dispatch_cycle < self.kilo_config.rob_timer:
            return  # head immature throughout the skipped range
        if (
            not entry.executed
            and not entry.issued
            and self._blocked_on_llbv(entry)
            and not self.sliq.has_space
        ):
            skipped = end - start
            self.stats.analyze_stall_cycles += skipped
            self.stats.llib_full_stall_cycles += skipped

    def describe_stall(self) -> str:
        return (
            f"sliq={self.sliq.occupancy}, backlog={len(self._reissue_backlog)}, "
            f"wheel={len(self._reissue_wheel)}, {super().describe_stall()}"
        )

    # ------------------------------------------------------------------

    def on_complete(self, entry: InFlight) -> None:
        instr = entry.instr
        if entry.where in ("ap", "sliq", "iq"):
            # Retired out of order: account the commit at completion.
            if instr.is_mem:
                if instr.is_store:
                    self.hierarchy.access(instr.addr, write=True, now=self.now)
                    self.lsq.store_committed(entry)
                self.lsq.release()
            self.committed += 1
            if entry.where == "sliq":
                self.stats.committed_mp += 1
            else:
                self.stats.committed_cp += 1
        if instr.is_branch:
            penalty = 0
            if entry.mispredicted and entry.long_latency:
                # Resolved from the slow lane: checkpoint recovery.
                penalty = self.kilo_config.recovery_penalty
                self.stats.checkpoint_recoveries += 1
                if self.now - entry.dispatch_cycle > 64:
                    self.stats.long_latency_branch_mispredictions += 1
            self.fetch.on_branch_resolved(entry.seq, self.now + penalty)
