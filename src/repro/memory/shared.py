"""Shared-L2 plumbing for the dual-core machine kind.

Two cores with private L1s contend for one L2: every L1 miss must win an
L2 port before its lookup proceeds.  :class:`L2Arbiter` is that
arbitration point — a bank of ports, each busy for a fixed occupancy
after serving a request, granting in arrival order (which, because both
cores are stepped deterministically within one :class:`DualCore` cycle,
is itself deterministic).  :class:`SharedL2View` gives each core its own
private-L1 view of a common hierarchy, routing L1 misses through the
arbiter and adding the queueing delay to the returned latency.

The contention this models is the co-runner axis of the ``dual`` kind:
a cache-hostile co-runner keeps the arbiter busy and dirties the shared
L2, lengthening the primary core's effective memory latency — the same
knob the paper turns explicitly via Table 1's MEM-100/400/1000 configs.
"""

from __future__ import annotations

from repro.memory.cache import AccessLevel, Cache
from repro.memory.hierarchy import MemoryHierarchy


class L2Arbiter:
    """Port arbitration in front of a shared L2 cache.

    Args:
        ports: Number of L2 access ports (requests served concurrently).
        busy_cycles: Cycles a port stays occupied per granted request.

    ``acquire(now)`` returns the queueing delay (0 when a port is free)
    and advances the port state; counters feed the ``l2_arb_*`` fields
    of :class:`~repro.sim.stats.SimStats`.
    """

    def __init__(self, ports: int = 1, busy_cycles: int = 1) -> None:
        if ports <= 0:
            raise ValueError(f"arbiter needs at least one port: {ports}")
        if busy_cycles <= 0:
            raise ValueError(f"port occupancy must be positive: {busy_cycles}")
        self.ports = ports
        self.busy_cycles = busy_cycles
        self._free_at = [0] * ports
        self.accesses = 0
        self.conflicts = 0
        self.delay_cycles = 0

    def acquire(self, now: int) -> int:
        """Grant an L2 port at or after *now*; return the wait in cycles."""
        self.accesses += 1
        free_at = self._free_at
        port = min(range(self.ports), key=free_at.__getitem__)
        start = max(now, free_at[port])
        free_at[port] = start + self.busy_cycles
        wait = start - now
        if wait:
            self.conflicts += 1
            self.delay_cycles += wait
        return wait

    def snapshot(self) -> dict:
        return {
            "free_at": list(self._free_at),
            "accesses": self.accesses,
            "conflicts": self.conflicts,
            "delay_cycles": self.delay_cycles,
        }

    def restore(self, state: dict) -> None:
        self._free_at = list(state["free_at"])
        self.accesses = state["accesses"]
        self.conflicts = state["conflicts"]
        self.delay_cycles = state["delay_cycles"]


class SharedL2View(MemoryHierarchy):
    """One core's view of a hierarchy whose L2 is shared.

    Wraps a base :class:`MemoryHierarchy` (which owns the L2 and main
    memory) with an optional private L1 — each core of a dual-core
    machine gets its own view over the same base, so L2 contents and
    outstanding fills are genuinely shared while L1s stay private.  All
    L1 misses pass through the :class:`L2Arbiter`; the queueing delay is
    added to the reported latency and the fill timestamps, so a line
    fetched under contention also *arrives* later.
    """

    def __init__(
        self,
        base: MemoryHierarchy,
        arbiter: L2Arbiter,
        l1: Cache | None = None,
    ) -> None:
        # Deliberately no super().__init__: this view shares the base's
        # L2/memory objects instead of building fresh ones.
        self.config = base.config
        self.line_size = base.line_size
        self._line_bits = base._line_bits
        self.base = base
        self.arbiter = arbiter
        self.l1 = l1 if l1 is not None else base.l1
        self.l2 = base.l2
        self.memory = base.memory

    def access(self, addr: int, write: bool = False, now: int = 0) -> tuple[int, AccessLevel]:
        """Mirror :meth:`MemoryHierarchy.access`, arbitrating L1 misses.

        The arbiter wait is paid before the L2 lookup: a hit under
        contention costs ``wait + l2.latency``, and a miss's fill
        timestamps are based at ``now + wait`` so overlap behaviour stays
        consistent with when the request actually reached the L2.
        """
        line = addr >> self._line_bits
        if self.l1.lookup(line):
            pending = self.l1.pending_fill(line, now)
            if pending is None:
                return self.l1.latency, AccessLevel.L1
            return self.l1.latency + pending, AccessLevel.MEMORY

        if self.l2 is None:
            self.l1.fill(line)
            return self.l1.latency, AccessLevel.L1

        wait = self.arbiter.acquire(now)
        at_l2 = now + wait

        if self.l2.lookup(line):
            self.l1.fill(line)
            pending = self.l2.pending_fill(line, at_l2)
            if pending is None:
                return wait + self.l2.latency, AccessLevel.L2
            return wait + self.l2.latency + pending, AccessLevel.MEMORY

        if self.memory is None:
            self.l2.fill(line)
            self.l1.fill(line)
            return wait + self.l2.latency, AccessLevel.L2

        latency = self.memory.access()
        self.l2.fill(line)
        self.l1.fill(line)
        ready = at_l2 + latency
        self.l2.record_fill(line, ready, at_l2)
        self.l1.record_fill(line, ready, at_l2)
        return wait + latency, AccessLevel.MEMORY

    def classify(self, lines: list[int]):
        """Not available: an L2 access waits for the arbiter, which
        depends on when it happens, so no untimed pass can classify it."""
        raise TypeError("a shared-L2 view's accesses depend on their timing")

    def touch(self, addr: int, write: bool = False) -> None:
        line = addr >> self._line_bits
        if self.l1.probe(line):
            self.l1.fill(line)
            return
        if self.l2 is not None:
            self.l2.fill(line)
        self.l1.fill(line)

    def snapshot(self) -> dict:
        state = {"l1": self.l1.snapshot(), "arbiter": self.arbiter.snapshot()}
        if self.l2 is not None:
            state["l2"] = self.l2.snapshot()
        if self.memory is not None:
            state["memory_accesses"] = self.memory.accesses
        return state

    def restore(self, state: dict) -> None:
        self.l1.restore(state["l1"])
        self.arbiter.restore(state["arbiter"])
        if self.l2 is not None:
            self.l2.restore(state["l2"])
        if self.memory is not None:
            self.memory.accesses = state.get("memory_accesses", 0)

    def reset_stats(self) -> None:
        self.l1.reset_stats()
        if self.l2 is not None:
            self.l2.reset_stats()
        if self.memory is not None:
            self.memory.accesses = 0
