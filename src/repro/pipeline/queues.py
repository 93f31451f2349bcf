"""Bounded issue queues: out-of-order (CAM-like) or in-order (FIFO).

The out-of-order flavour keeps a ready min-heap ordered by sequence number,
so issue selection is oldest-first among ready instructions — the usual
select policy.  Waiting instructions cost nothing until their wakeup.

The in-order flavour only ever inspects its head, which is how the paper's
INO configurations (Figure 10) and the Memory Processor's Future-File
reservation stations behave.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Callable

from repro.pipeline.entry import InFlight
from repro.pipeline.fu import FU_OF_OP, FuKind
from repro.sim.config import SchedulerPolicy


#: Detached entries tolerated in the internal containers before a compaction
#: pass rebuilds them (only reached when the stale entries also outnumber the
#: live ones; see :meth:`IssueQueue.remove`).
COMPACT_THRESHOLD = 32


class IssueQueue:
    """One scheduling window of bounded capacity."""

    def __init__(self, name: str, size: int, policy: SchedulerPolicy) -> None:
        self.name = name
        self.size = size
        self.policy = policy
        self.occupancy = 0
        self._in_order = policy == SchedulerPolicy.IN_ORDER
        self._fifo: deque[InFlight] = deque()
        self._ready_heap: list[tuple[int, InFlight]] = []
        # Entries detached via remove() stay in the containers until their
        # lazy drop at the head; this counts them so low-issue-rate runs
        # (where detached entries rarely reach the head) cannot accumulate
        # unbounded garbage.
        self._stale = 0
        self.compactions = 0

    # ------------------------------------------------------------------

    @property
    def has_space(self) -> bool:
        return self.occupancy < self.size

    def add(self, entry: InFlight) -> None:
        """Dispatch *entry* into the queue (caller checked ``has_space``)."""
        if self.occupancy >= self.size:
            raise RuntimeError(f"issue queue {self.name} overflow")
        self.occupancy += 1
        entry.owner = self
        if self._in_order:
            self._fifo.append(entry)
        elif entry.unready == 0:
            heappush(self._ready_heap, (entry.instr.seq, entry))

    def remove(self, entry: InFlight) -> None:
        """Detach a waiting entry (Analyze moved it to the LLIB/SLIQ).

        The entry is dropped lazily from the internal containers; only the
        occupancy accounting is updated here.  The caller re-owns the entry.
        When stale entries come to dominate the containers (more than half,
        past a small floor), they are compacted away so long runs with low
        issue rates cannot accumulate unbounded garbage.
        """
        self.occupancy -= 1
        if entry.owner is self:
            entry.owner = None
        self._stale += 1
        if self._stale >= COMPACT_THRESHOLD and self._stale * 2 > (
            len(self._fifo) + len(self._ready_heap)
        ):
            # More removals than surviving container entries: most of the
            # counted removals were never lazily dropped.  (The counter may
            # overestimate — an OOO entry that was never ready lives in no
            # container — which only makes compaction a little eager.)
            self._compact()

    def _compact(self) -> None:
        """Rebuild the containers without issued/detached entries."""
        if self._in_order:
            self._fifo = deque(
                e for e in self._fifo if not e.issued and e.owner is self
            )
        else:
            live = [
                (seq, e)
                for seq, e in self._ready_heap
                if not e.issued and e.owner is self
            ]
            heapify(live)
            self._ready_heap = live
        self._stale = 0
        self.compactions += 1

    def wake(self, entry: InFlight) -> None:
        """Called when *entry*'s last outstanding source completed."""
        if not self._in_order and not entry.issued:
            heappush(self._ready_heap, (entry.instr.seq, entry))

    # ------------------------------------------------------------------

    def next_issuable(self, now: int) -> InFlight | None:
        """Oldest instruction that could issue this cycle, or None.

        Does not remove the instruction (the quiescence protocol asks this
        without issuing); :meth:`issue` is the select stage itself.
        """
        if self._in_order:
            # Lazily drop heads that issued or were detached (an entry the
            # D-KIP's Analyze stage moved to the LLIB changes owner).
            while self._fifo and (
                self._fifo[0].issued or self._fifo[0].owner is not self
            ):
                self._fifo.popleft()
                if self._stale:
                    self._stale -= 1
            if self._fifo and self._fifo[0].unready == 0:
                return self._fifo[0]
            return None
        while self._ready_heap:
            entry = self._ready_heap[0][1]
            if entry.issued or entry.owner is not self:
                heappop(self._ready_heap)
                if self._stale:
                    self._stale -= 1
                continue
            return entry
        return None

    def issue(
        self,
        budget: int,
        take_fu: Callable[[FuKind], bool],
        execute: Callable[[InFlight], None],
    ) -> int:
        """Select and issue up to *budget* entries this cycle.

        Oldest ready entry first; an in-order queue only ever offers its
        head.  Each candidate must claim a functional-unit slot through
        *take_fu*; an issued entry frees its slot and goes to *execute*.
        An out-of-order queue steps past an entry whose unit is busy and
        re-arms it once the pass ends, so it competes again next cycle; an
        in-order queue stops at a busy unit or an unready head.  Entries
        that issued or were detached by :meth:`remove` drop lazily as they
        surface.  Returns the budget left over.
        """
        if self._in_order:
            fifo = self._fifo
            while budget > 0 and fifo:
                entry = fifo[0]
                if entry.issued or entry.owner is not self:
                    fifo.popleft()
                    if self._stale:
                        self._stale -= 1
                    continue
                if entry.unready or not take_fu(FU_OF_OP[entry.instr.op]):
                    break
                fifo.popleft()
                self.occupancy -= 1
                entry.issued = True
                execute(entry)
                budget -= 1
            return budget
        heap = self._ready_heap
        blocked = []
        while budget > 0 and heap:
            entry = heappop(heap)[1]
            if entry.issued or entry.owner is not self:
                if self._stale:
                    self._stale -= 1
            elif take_fu(FU_OF_OP[entry.instr.op]):
                self.occupancy -= 1
                entry.issued = True
                execute(entry)
                budget -= 1
            else:
                blocked.append(entry)
        for entry in blocked:
            heappush(heap, (entry.instr.seq, entry))
        return budget

    def drain(self) -> list[InFlight]:
        """Remove and return all entries (checkpoint recovery)."""
        out = []
        if self._in_order:
            out.extend(e for e in self._fifo if not e.issued)
            self._fifo.clear()
        else:
            out.extend(e for _, e in self._ready_heap if not e.issued)
            self._ready_heap.clear()
        self.occupancy = 0
        self._stale = 0
        return out
