"""Assembled cache hierarchy used by every core model.

One :class:`MemoryHierarchy` exists per simulated machine.  Its single hot
method, :meth:`MemoryHierarchy.access`, resolves an address to the
(latency, level) pair the pipeline needs:

* latency — cycles until the loaded value is usable;
* level — which level satisfied it, used by the D-KIP's Analyze stage to
  classify loads as short latency (L1/L2) or long latency (memory), and by
  the statistics that split execution locality.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.memory.cache import AccessLevel, Cache, MainMemory
from repro.memory.configs import MemoryConfig

#: How a classified access meets the outstanding-fill tables
#: (:meth:`MemoryHierarchy.classify`): it pays its base latency as is
#: (``FIXED``), plus what remains of an in-flight fill of its line in the
#: L1's or the L2's table (``L1_PENDING``, ``L2_PENDING``), or it misses
#: to memory and records a fill of its line in both (``RECORD``).
FIXED, L1_PENDING, L2_PENDING, RECORD = range(4)


class AccessPlan(NamedTuple):
    """The untimed outcome of one line stream through a hierarchy."""

    #: ``(fill kind, base latency)`` per access, in stream order.
    codes: list[tuple[int, int]]
    #: The hierarchy's class, line size, and each level's size,
    #: associativity and latency.
    geometry: tuple
    #: The stream's distinct lines.
    lines: frozenset[int]
    #: Per cache level, the contents the stream read, and what it left.
    before: tuple
    after: tuple
    #: How far the stream moved each hit, miss and memory counter.
    counts: tuple[int, ...]


class MemoryHierarchy:
    """L1 + optional L2 + main memory, built from a :class:`MemoryConfig`."""

    def __init__(self, config: MemoryConfig) -> None:
        self.config = config
        self.line_size = config.line_size
        self._line_bits = config.line_size.bit_length() - 1
        self.l1 = Cache(
            "L1", config.l1_size, config.l1_assoc, config.line_size, config.l1_latency
        )
        if config.l2_latency is None:
            self.l2: Cache | None = None
        else:
            self.l2 = Cache(
                "L2",
                config.l2_size,
                config.l2_assoc,
                config.line_size,
                config.l2_latency,
            )
        self.memory = (
            MainMemory(config.mem_latency) if config.mem_latency is not None else None
        )
        if self.l2 is None and self.memory is not None:
            raise ValueError("a hierarchy with main memory requires an L2 cache")
        #: The L2 port arbiter (:class:`repro.memory.shared.L2Arbiter`);
        #: a private L2 has none.
        self.arbiter = None

    # ------------------------------------------------------------------

    def access(self, addr: int, write: bool = False, now: int = 0) -> tuple[int, AccessLevel]:
        """Access *addr*; return ``(latency, level)``.

        Writes allocate like reads (write-allocate policy); their latency is
        reported identically, and it is up to the pipeline model to decide
        whether store latency is visible (stores retire from the LSQ without
        stalling commit in all our cores).

        An L1 miss waits for :attr:`arbiter` to grant an L2 port, if there
        is an arbiter, before its L2 lookup: a hit under contention costs
        ``wait + l2.latency``, and a miss's fill timestamps are based at
        ``now + wait``, so a line fetched under contention also *arrives*
        later and overlap stays consistent with when the request actually
        reached the L2.
        """
        line = addr >> self._line_bits
        if self.l1.lookup(line):
            # Present, but possibly still being filled from memory: a
            # second load to a missing line overlaps with the outstanding
            # fill instead of paying a fresh full latency (MSHR behaviour —
            # the source of memory-level parallelism on streaming code).
            pending = self.l1.pending_fill(line, now)
            if pending is None:
                return self.l1.latency, AccessLevel.L1
            return self.l1.latency + pending, AccessLevel.MEMORY

        if self.l2 is None:
            # Infinite L1 configuration: first touch costs an L1 fill only.
            self.l1.fill(line)
            return self.l1.latency, AccessLevel.L1

        wait = 0 if self.arbiter is None else self.arbiter.acquire(now)
        at_l2 = now + wait

        if self.l2.lookup(line):
            self.l1.fill(line)
            pending = self.l2.pending_fill(line, at_l2)
            if pending is None:
                return wait + self.l2.latency, AccessLevel.L2
            return wait + self.l2.latency + pending, AccessLevel.MEMORY

        if self.memory is None:
            # Infinite L2 configuration (L2-11 / L2-21 in Table 1).
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

    def classify(self, lines: list[int]) -> AccessPlan:
        """The untimed half of :meth:`access`, over a stream of lines.

        Takes the lookups and fills :meth:`access` takes for each line of
        *lines*, in order, and moves the same counters, but reads and
        writes no fill table: which level serves an access, and what it
        evicts, never depends on when the access happens.  Each code
        tells what :meth:`access` at cycle ``now`` returns as the
        latency: the base latency, plus, for ``L1_PENDING`` and
        ``L2_PENDING``, whatever remains at ``now`` of an in-flight fill
        of the line in that level's table; a ``RECORD`` access records a
        fill of the line, ready at ``now`` plus its base latency, in both
        tables.  The plan keeps the contents the stream read and left, so
        :meth:`apply` can repeat it on a hierarchy that :meth:`replays` it.
        """
        levels = self._levels()
        distinct = frozenset(lines)
        before = tuple(level.contents(distinct) for level in levels)
        start = self._counts()
        l1, l2, memory = self.l1, self.l2, self.memory
        l1_hit = (L1_PENDING, l1.latency)
        first_touch = (FIXED, l1.latency)
        if l2 is not None:
            l2_hit = (L2_PENDING, l2.latency)
            l2_fill = (FIXED, l2.latency)
        if memory is not None:
            miss = (RECORD, memory.latency)
        codes = []
        append = codes.append
        for line in lines:
            if l1.lookup(line):
                append(l1_hit)
            elif l2 is None:
                l1.fill(line)
                append(first_touch)
            elif l2.lookup(line):
                l1.fill(line)
                append(l2_hit)
            elif memory is None:
                l2.fill(line)
                l1.fill(line)
                append(l2_fill)
            else:
                memory.access()
                l2.fill(line)
                l1.fill(line)
                append(miss)
        after = tuple(level.contents_after(distinct) for level in levels)
        counts = tuple(end - begin for begin, end in zip(start, self._counts()))
        return AccessPlan(codes, self._geometry(), distinct, before, after, counts)

    def replays(self, plan: AccessPlan) -> bool:
        """True when *plan*'s stream, classified from this hierarchy's
        current state, would come out as *plan*: the same geometry and
        the same contents of every set the stream reads.  Counters and
        fill tables do not count; classification reads neither."""
        return plan.geometry == self._geometry() and plan.before == tuple(
            level.contents(plan.lines) for level in self._levels()
        )

    def apply(self, plan: AccessPlan) -> None:
        """Leave this hierarchy, which :meth:`replays` *plan*, as
        classifying the plan's stream would: the contents the stream
        left, and every counter moved as far as the stream moved it."""
        for level, after in zip(self._levels(), plan.after):
            level.install(after)
        l1_hits, l1_misses, l2_hits, l2_misses, memory_accesses = plan.counts
        self.l1.hits += l1_hits
        self.l1.misses += l1_misses
        if self.l2 is not None:
            self.l2.hits += l2_hits
            self.l2.misses += l2_misses
        if self.memory is not None:
            self.memory.accesses += memory_accesses

    def _levels(self) -> list[Cache]:
        return [self.l1] if self.l2 is None else [self.l1, self.l2]

    def _counts(self) -> tuple[int, ...]:
        l1, l2 = self.l1, self.l2
        return (
            l1.hits,
            l1.misses,
            0 if l2 is None else l2.hits,
            0 if l2 is None else l2.misses,
            0 if self.memory is None else self.memory.accesses,
        )

    def _geometry(self) -> tuple:
        return (
            type(self),
            self._line_bits,
            *((level.size, level.assoc, level.latency) for level in self._levels()),
            None if self.memory is None else self.memory.latency,
        )

    # ------------------------------------------------------------------

    def touch(self, addr: int, write: bool = False) -> None:
        """Functional (untimed) access, used for cache warm-up."""
        line = addr >> self._line_bits
        if self.l1.probe(line):
            self.l1.fill(line)  # refresh LRU position
            return
        if self.l2 is not None:
            self.l2.fill(line)
        self.l1.fill(line)

    def snapshot(self) -> dict:
        """Copy of the whole hierarchy's state (cache contents + stats).

        Together with :meth:`restore` this lets expensive functional
        warm-up run once per (memory config, workload) and be reinstated
        for every simulated machine/window, instead of re-streaming the
        working set for each run.
        """
        state = {"l1": self.l1.snapshot()}
        if self.l2 is not None:
            state["l2"] = self.l2.snapshot()
        if self.memory is not None:
            state["memory_accesses"] = self.memory.accesses
        return state

    def restore(self, state: dict) -> None:
        """Reinstate a :meth:`snapshot` taken from an identically
        configured hierarchy; the snapshot stays reusable."""
        self.l1.restore(state["l1"])
        if self.l2 is not None:
            self.l2.restore(state["l2"])
        if self.memory is not None:
            self.memory.accesses = state.get("memory_accesses", 0)

    def stamp_counters(self, stats) -> None:
        """Copy the hit, miss and memory-access counters onto *stats*
        (a :class:`~repro.sim.stats.SimStats`) at the end of a run."""
        stats.l1_hits = self.l1.hits
        stats.l1_misses = self.l1.misses
        if self.l2 is not None:
            stats.l2_hits = self.l2.hits
            stats.l2_misses = self.l2.misses
        if self.memory is not None:
            stats.memory_accesses = self.memory.accesses

    def is_long_latency(self, level: AccessLevel) -> bool:
        """The D-KIP classification: off-chip accesses are long latency."""
        return level == AccessLevel.MEMORY

    def reset_stats(self) -> None:
        self.l1.reset_stats()
        if self.l2 is not None:
            self.l2.reset_stats()
        if self.memory is not None:
            self.memory.accesses = 0

    def describe(self) -> str:
        """One-line description matching Table 1's row format."""
        parts = [f"L1 {self._fmt_size(self.l1.size)}@{self.l1.latency}cy"]
        if self.l2 is not None:
            parts.append(f"L2 {self._fmt_size(self.l2.size)}@{self.l2.latency}cy")
        if self.memory is not None:
            parts.append(f"MEM@{self.memory.latency}cy")
        return " / ".join(parts)

    @staticmethod
    def _fmt_size(size: int | None) -> str:
        if size is None:
            return "inf"
        if size >= 1 << 20:
            return f"{size >> 20}MB"
        return f"{size >> 10}KB"
