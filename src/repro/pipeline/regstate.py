"""Architectural-register → producer tracking (the rename-table analogue).

Because our simulators are trace driven there is no need for physical
registers: each definition simply supersedes the previous producer of the
architectural register.  A consumer links to whatever entry currently
produces each of its live sources; if that producer has not executed yet
the consumer registers itself as a waiter.
"""

from __future__ import annotations

from repro.isa.registers import NUM_REGS
from repro.pipeline.entry import InFlight


class RegisterTracker:
    """Tracks the in-flight producer of every architectural register."""

    __slots__ = ("_producers",)

    def __init__(self) -> None:
        self._producers: list[InFlight | None] = [None] * NUM_REGS

    def producer_of(self, reg: int) -> InFlight | None:
        """Current producer of *reg*, or None when the value is in the ARF."""
        producer = self._producers[reg]
        if producer is not None and producer.executed:
            # Value has been written back; treat as architecturally ready.
            return None
        return producer

    def raw_producer(self, reg: int) -> InFlight | None:
        """Producer entry even if already executed (LLBV bookkeeping)."""
        return self._producers[reg]

    def rename(self, entry: InFlight) -> None:
        """Wire *entry* to its producers, then make it the producer of its
        destination (the dispatch-time rename step).

        Each live source whose producer has not executed counts as
        unready, and *entry* joins that producer's waiters.  Those
        producers are also recorded in ``entry.sources`` so the D-KIP's
        LLIB head check can tell which of them are Address-Processor loads
        (Section 3.2: extraction waits for the long-latency load value, not
        for ordinary MP producers).  Sources link before the destination
        is defined, so an instruction that reads its own destination
        register waits on the previous producer.
        """
        producers = self._producers
        instr = entry.instr
        sources: list[InFlight] | None = None
        for src in instr.live_srcs():
            producer = producers[src]
            if producer is not None and not producer.executed:
                entry.unready += 1
                waiters = producer.waiters
                if waiters is None:
                    producer.waiters = [entry]
                else:
                    waiters.append(entry)
                if sources is None:
                    sources = [producer]
                else:
                    sources.append(producer)
        if sources:
            entry.sources = tuple(sources)
        dest = instr.dest
        if dest is not None:
            producers[dest] = entry

    def clear(self) -> None:
        """Forget all producers (checkpoint recovery restores the ARF)."""
        for i in range(NUM_REGS):
            self._producers[i] = None
