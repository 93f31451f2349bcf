"""Cycle-driver base class shared by every core model.

The driver owns simulated time, the completion event queue and the wakeup
protocol.  Subclasses implement :meth:`CycleCore.step` (one cycle of their
pipeline) and may override :meth:`CycleCore.on_complete` (called for every
instruction the cycle it produces its value).

Fast-forwarding
---------------

Tolerating 100-1000-cycle memory latencies means most simulated cycles do
*nothing*: every in-flight instruction sits in the event queue waiting for
a distant completion.  Instead of ticking through those cycles one at a
time, the run loop implements a **quiescence protocol**: after each
simulated cycle the core is asked, via :meth:`CycleCore.next_work_cycle`,
for the earliest future cycle at which its pipeline could make progress
that is *not* driven by a completion event (fetch resuming, an aging timer
expiring, a ready issue-queue head, ...).  When no such cycle is earlier
than the next scheduled completion, the run loop (:meth:`CycleCore.drive`)
jumps ``now`` straight to the next interesting cycle.

The contract subclasses must uphold for the jump to be semantics
preserving (the differential suite in ``tests/pipeline/test_fastforward``
enforces it):

* ``next_work_cycle()`` must return ``self.now`` whenever ``step()`` at
  ``self.now`` could change any machine state other than lazily dropping
  stale bookkeeping — err on the side of returning ``now``; a false
  "work possible" only costs one ticked cycle, a false "quiescent" changes
  results;
* every *time*-dependent wake-up source (fetch redirect resume, Aging-ROB
  maturity, slow-lane re-dispatch wheels) must be reported as a future
  wake cycle so the jump never hops over it;
* per-cycle statistics that accumulate while stalled must be replayed for
  skipped cycles in :meth:`CycleCore.on_cycles_skipped`.

The base class implementation of ``next_work_cycle`` returns ``self.now``
(never quiescent), so subclasses that have not audited their ``step()``
run exactly as before.
"""

from __future__ import annotations

import heapq

from repro.isa import DEFAULT_LATENCIES, LatencyTable
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.entry import InFlight
from repro.sim.stats import SimStats


class DeadlockError(RuntimeError):
    """The machine stopped making progress — a modelling bug, not a result."""


class CycleCore:
    """Base class: event queue, wakeup, fast-forwarding run loop, stats."""

    #: Class-level default for the run loop; ``run(fast_forward=False)``
    #: (or setting this to False on an instance) selects the
    #: tick-every-cycle reference mode the differential tests compare
    #: against.
    fast_forward = True

    def __init__(
        self,
        name: str,
        hierarchy: MemoryHierarchy,
        stats: SimStats,
        latencies: LatencyTable = DEFAULT_LATENCIES,
    ) -> None:
        self.name = name
        self.hierarchy = hierarchy
        self.stats = stats
        self.latencies = latencies
        self.now = 0
        self.committed = 0
        #: Cycles the fast-forward loop skipped (observability only; the
        #: simulated ``stats.cycles`` always counts them as elapsed).
        self.cycles_fast_forwarded = 0
        self._events: dict[int, list[InFlight]] = {}
        # Lazy min-heap over the event dict's keys: pushed when a new
        # completion cycle appears, popped (and ignored) once its bucket
        # has been processed.
        self._event_heap: list[int] = []

    # ------------------------------------------------------------------
    # Event queue
    # ------------------------------------------------------------------

    def schedule_completion(self, entry: InFlight, done_cycle: int) -> None:
        """Arrange for *entry* to complete (write back) at *done_cycle*."""
        entry.done_cycle = done_cycle
        bucket = self._events.get(done_cycle)
        if bucket is None:
            self._events[done_cycle] = [entry]
            heapq.heappush(self._event_heap, done_cycle)
        else:
            bucket.append(entry)

    def next_event_cycle(self) -> int | None:
        """Earliest cycle with a scheduled completion, or None when idle."""
        heap = self._event_heap
        events = self._events
        while heap and heap[0] not in events:
            heapq.heappop(heap)
        return heap[0] if heap else None

    def process_completions(self) -> None:
        """Retire this cycle's completion events and wake dependents."""
        entries = self._events.pop(self.now, None)
        if not entries:
            return
        for entry in entries:
            entry.executed = True
            self.on_complete(entry)
            waiters = entry.waiters
            if waiters:
                entry.waiters = None
                for waiter in waiters:
                    waiter.unready -= 1
                    if waiter.unready == 0 and waiter.owner is not None:
                        waiter.owner.wake(waiter)

    def on_complete(self, entry: InFlight) -> None:
        """Hook invoked when *entry* completes (default: nothing)."""

    # ------------------------------------------------------------------
    # Quiescence protocol
    # ------------------------------------------------------------------

    def next_work_cycle(self) -> int | None:
        """Earliest cycle >= ``now`` at which ``step()`` could make
        progress that is not driven by a completion event.

        Returns ``self.now`` when the next cycle may do work (no skipping),
        a future cycle when progress becomes possible at a known time (a
        timer or redirect expiring), or ``None`` when only a completion
        event can unblock the machine.  The base implementation is the
        conservative "always busy" answer.
        """
        return self.now

    def on_cycles_skipped(self, start: int, end: int) -> None:
        """Replay per-cycle stall accounting for skipped cycles
        ``[start, end)``.  Default: nothing."""

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------

    def step(self) -> None:
        """Simulate one cycle.  Subclasses implement the pipeline here."""
        raise NotImplementedError

    def run(
        self,
        num_instructions: int,
        max_cycles: int | None = None,
        fast_forward: bool | None = None,
    ) -> SimStats:
        """Simulate until *num_instructions* have committed: :meth:`drive`
        run to exhaustion, for callers that step one machine alone."""
        driver = self.drive(num_instructions, max_cycles, fast_forward)
        while True:
            try:
                next(driver)
            except StopIteration as stop:
                return stop.value

    def drive(
        self,
        num_instructions: int,
        max_cycles: int | None = None,
        fast_forward: bool | None = None,
        round_budget: int = 4096,
    ):
        """The run loop, as a generator that simulates until
        *num_instructions* have committed.

        It yields ``self.now`` at pause points — after every fast-forward
        jump, and after at most *round_budget* consecutively ticked cycles.
        :meth:`run` resumes it straight through, which is how every sweep
        cell runs; :class:`repro.sim.batch.BatchRunner`, which is off the
        sweep path, uses the pauses to step several independent machines
        round-robin in one process.  The final :class:`SimStats` record
        is the generator's return value (``StopIteration.value``).

        Args:
            max_cycles: Upper bound on simulated time (deadlock guard).
            fast_forward: Override the class default; ``False`` forces the
                tick-every-cycle reference mode.
        """
        if fast_forward is None:
            fast_forward = self.fast_forward
        if max_cycles is None:
            # Generous bound: even a fully serialized miss chain at
            # 1000-cycle memory stays well under this.
            max_cycles = 20_000 + num_instructions * 2_000
        target = num_instructions
        events = self._events
        step = self.step
        next_work_cycle = self.next_work_cycle
        next_event_cycle = self.next_event_cycle
        ticked = 0
        if not fast_forward:
            # Tick-every-cycle reference mode: no quiescence checks at all.
            while self.committed < target:
                step()
                self.now += 1
                if self.now > max_cycles:
                    raise DeadlockError(
                        f"{self.name}: no forward progress — committed "
                        f"{self.committed}/{target} after {self.now} cycles"
                    )
                ticked += 1
                if ticked >= round_budget:
                    ticked = 0
                    yield self.now
            self.stats.committed = self.committed
            self.stats.cycles = self.now
            self._copy_memory_stats()
            return self.stats
        while self.committed < target:
            step()
            self.now += 1
            if self.now > max_cycles:
                raise DeadlockError(
                    f"{self.name}: no forward progress — committed "
                    f"{self.committed}/{target} after {self.now} cycles"
                )
            if self.committed >= target:
                continue
            ticked += 1
            if self.now in events or (
                (wake := next_work_cycle()) is not None and wake <= self.now
            ):
                # Busy next cycle (completions due or pipeline work
                # possible): keep ticking, pausing only on budget.
                if ticked >= round_budget:
                    ticked = 0
                    yield self.now
                continue
            event = next_event_cycle()
            if event is None and wake is None:
                raise DeadlockError(
                    f"{self.name}: machine is quiescent with no pending "
                    f"events — committed {self.committed}/{target} at cycle "
                    f"{self.now}; {self.describe_stall()}"
                )
            jump = event if wake is None else (wake if event is None else min(wake, event))
            if jump > max_cycles:
                # The reference loop would have hit the bound while ticking
                # through these empty cycles; fail identically.
                raise DeadlockError(
                    f"{self.name}: no forward progress — committed "
                    f"{self.committed}/{target}; next activity at cycle "
                    f"{jump} exceeds the {max_cycles}-cycle bound"
                )
            if jump > self.now:
                self.on_cycles_skipped(self.now, jump)
                self.cycles_fast_forwarded += jump - self.now
                self.now = jump
            ticked = 0
            yield self.now
        self.stats.committed = self.committed
        self.stats.cycles = self.now
        self._copy_memory_stats()
        return self.stats

    def describe_stall(self) -> str:
        """One-line description of what the machine is waiting on, used in
        deadlock diagnostics.  Subclasses may extend."""
        return f"{len(self._events)} event cycle(s) pending"

    def _copy_memory_stats(self) -> None:
        self.hierarchy.stamp_counters(self.stats)
