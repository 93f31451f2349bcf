"""Shared-L2 plumbing for the dual-core machine kind.

Two cores with private L1s contend for one L2: every L1 miss must win an
L2 port before its lookup proceeds.  :class:`L2Arbiter` is that
arbitration point — a bank of ports, each busy for a fixed occupancy
after serving a request, granting in arrival order (which, because both
cores are stepped deterministically within one :class:`DualCore` cycle,
is itself deterministic).  :class:`SharedL2View` gives each core its own
private-L1 view of a common hierarchy whose L1 misses go through the
arbiter; :meth:`MemoryHierarchy.access` adds the queueing delay to the
returned latency.

The contention this models is the co-runner axis of the ``dual`` kind:
a cache-hostile co-runner keeps the arbiter busy and dirties the shared
L2, lengthening the primary core's effective memory latency — the same
knob the paper turns explicitly via Table 1's MEM-100/400/1000 configs.
"""

from __future__ import annotations

from repro.memory.cache import Cache
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
    outstanding fills are genuinely shared while L1s stay private.  The
    view's :attr:`arbiter` is the one its L1 misses wait for in
    :meth:`MemoryHierarchy.access`, so the view adds no access rule of
    its own; its snapshot carries the arbiter's state too.
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

    def classify(self, lines: list[int]):
        """Not available: an L2 access waits for the arbiter, which
        depends on when it happens, so no untimed pass can classify it."""
        raise TypeError("a shared-L2 view's accesses depend on their timing")

    def snapshot(self) -> dict:
        state = super().snapshot()
        state["arbiter"] = self.arbiter.snapshot()
        return state

    def restore(self, state: dict) -> None:
        super().restore(state)
        self.arbiter.restore(state["arbiter"])
