"""Set-associative LRU cache and main-memory models.

These models answer one question per access — "how many cycles until the
value is usable?" — and keep hit/miss statistics.  Replacement is true LRU
within each set.  A set is a plain ``dict`` of its lines in insertion
order, least recently used first: a hit or a re-fill moves its line to the
end by deleting and re-inserting it, and an eviction deletes the first
line.  A cache with ``size=None`` is infinite (every line hits
after the first touch), which Table 1 of the paper uses for its perfect-L1
and perfect-L2 configurations.
"""

from __future__ import annotations

import enum


#: Outstanding-fill table size that triggers an expiry sweep on the next
#: recorded fill.  Entries expire within one memory latency of creation, so
#: the table stays bounded by the access rate times the round-trip time;
#: the sweep only exists to reclaim the memory of long-dead records.
FILL_SWEEP_THRESHOLD = 1024


class AccessLevel(enum.IntEnum):
    """Hierarchy level that satisfied an access."""

    L1 = 1
    L2 = 2
    MEMORY = 3


class MainMemory:
    """Flat main memory with a fixed access latency."""

    def __init__(self, latency: int) -> None:
        if latency <= 0:
            raise ValueError(f"memory latency must be positive: {latency}")
        self.latency = latency
        self.accesses = 0

    def access(self) -> int:
        self.accesses += 1
        return self.latency


class Cache:
    """One level of set-associative, LRU, write-allocate cache.

    Args:
        name: Label used in statistics output (``"L1"``, ``"L2"``).
        size: Capacity in bytes, or ``None`` for an infinite cache.
        assoc: Associativity (ignored for infinite caches).
        line_size: Line size in bytes (power of two).
        latency: Total load-to-use latency when the access hits here.

    The cache tracks *outstanding fills*: when a miss is initiated at cycle
    ``c`` with total latency ``m``, the line is recorded as arriving at
    ``c + m``.  A later access to the same line before it arrives pays only
    the remaining time.  This gives correct overlap behaviour for streaming
    access patterns (several words per line) and for simultaneous misses to
    the same line from the two D-KIP processors.
    """

    def __init__(
        self,
        name: str,
        size: int | None,
        assoc: int,
        line_size: int,
        latency: int,
    ) -> None:
        if line_size <= 0 or line_size & (line_size - 1):
            raise ValueError(f"line size must be a power of two: {line_size}")
        if latency <= 0:
            raise ValueError(f"cache latency must be positive: {latency}")
        if size is not None:
            if size <= 0 or size % (line_size * assoc):
                raise ValueError(
                    f"cache size {size} not divisible into {assoc}-way sets "
                    f"of {line_size}-byte lines"
                )
        self.name = name
        self.size = size
        self.assoc = assoc
        self.line_size = line_size
        self.latency = latency
        self._line_bits = line_size.bit_length() - 1
        if size is None:
            self._num_sets = 1
            self._infinite_lines: set[int] = set()
            self._sets: list[dict[int, None]] = []
        else:
            self._num_sets = size // (line_size * assoc)
            self._infinite_lines = set()
            self._sets = [{} for _ in range(self._num_sets)]
        self._fills: dict[int, int] = {}
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def line_of(self, addr: int) -> int:
        return addr >> self._line_bits

    # ------------------------------------------------------------------

    def lookup(self, line: int) -> bool:
        """Check presence and update LRU state; counts as an access."""
        if self.size is None:
            if line in self._infinite_lines:
                self.hits += 1
                return True
            self.misses += 1
            return False
        s = self._sets[line % self._num_sets]
        if line in s:
            del s[line]
            s[line] = None
            self.hits += 1
            return True
        self.misses += 1
        return False

    def probe(self, line: int) -> bool:
        """Presence check without statistics or LRU update."""
        if self.size is None:
            return line in self._infinite_lines
        return line in self._sets[line % self._num_sets]

    def fill(self, line: int) -> None:
        """Install *line*, evicting the LRU line of its set if needed."""
        if self.size is None:
            self._infinite_lines.add(line)
            return
        s = self._sets[line % self._num_sets]
        if line in s:
            del s[line]
        elif len(s) >= self.assoc:
            del s[next(iter(s))]
        s[line] = None

    # ------------------------------------------------------------------
    # Outstanding-fill bookkeeping (MSHR-like overlap behaviour)
    # ------------------------------------------------------------------

    def pending_fill(self, line: int, now: int) -> int | None:
        """Cycles remaining until an in-flight fill of *line* completes.

        Returns ``None`` when no fill for the line is outstanding.  This is
        a pure probe: expired entries are left in place (they no longer
        affect any result) and reclaimed by :meth:`record_fill`'s periodic
        sweep, so two probes of the same line at the same cycle are
        guaranteed to agree and read paths never mutate fill state.
        """
        ready = self._fills.get(line)
        if ready is None or ready <= now:
            return None
        return ready - now

    def record_fill(self, line: int, ready_cycle: int, now: int | None = None) -> None:
        """Record that *line* is being filled, arriving at *ready_cycle*.

        Passing *now* (the cycle the miss was initiated) lets the table
        sweep out expired entries once it grows past
        ``FILL_SWEEP_THRESHOLD``, bounding it to the fills genuinely
        outstanding inside one memory round-trip regardless of run length.
        """
        fills = self._fills
        fills[line] = ready_cycle
        if now is not None and len(fills) > FILL_SWEEP_THRESHOLD:
            self.sweep_fills(now)

    def sweep_fills(self, now: int) -> int:
        """Drop fill records that completed at or before *now*.

        Returns the number of entries removed.  Outstanding (future)
        fills are never dropped — forgetting one would turn an overlapped
        miss into a free hit and change simulated timing.
        """
        fills = self._fills
        expired = [line for line, ready in fills.items() if ready <= now]
        for line in expired:
            del fills[line]
        return len(expired)

    @property
    def outstanding_fills(self) -> int:
        return len(self._fills)

    @property
    def fills(self) -> dict[int, int]:
        """The live outstanding-fill table, line -> ready cycle.

        For a caller that inlines :meth:`pending_fill`'s arithmetic
        (the limit core's timing pass); record fills only through
        :meth:`record_fill`, or replace the whole table with one an
        identical pass left (the limit core's window shortcut).
        """
        return self._fills

    # ------------------------------------------------------------------
    # Untimed contents (see MemoryHierarchy.classify)
    # ------------------------------------------------------------------

    def contents(self, lines: frozenset[int]) -> tuple | set[int]:
        """What a lookup/fill stream over *lines* reads of this cache,
        as a comparable copy: every set's lines in LRU order, or which of
        *lines* an infinite cache holds."""
        if self.size is None:
            return self._infinite_lines.intersection(lines)
        return tuple(map(tuple, self._sets))

    def contents_after(self, lines: frozenset[int]) -> list | frozenset[int]:
        """What :meth:`install` needs to repeat a stream over *lines* that
        ended here: a copy of every set, or which of *lines* an infinite
        cache holds, which covers every line the stream added to it."""
        if self.size is None:
            return frozenset(self._infinite_lines.intersection(lines))
        return [s.copy() for s in self._sets]

    def install(self, after: list | frozenset[int]) -> None:
        """Leave this cache as the stream :meth:`contents_after` captured
        left it, given it now holds that stream's starting contents."""
        if self.size is None:
            self._infinite_lines.update(after)
        else:
            self._sets = list(map(dict.copy, after))

    # ------------------------------------------------------------------
    # Bulk warm-up (see repro.memory.warmup)
    # ------------------------------------------------------------------

    def is_pristine(self) -> bool:
        """True when the cache holds no lines, fills, or statistics —
        i.e. it is indistinguishable from a freshly constructed one."""
        if self._infinite_lines or self._fills or self.hits or self.misses:
            return False
        return all(not s for s in self._sets)

    def warm_tail(self, lines: list[int]) -> None:
        """Install the state a single read pass over *lines* would leave.

        *lines* must be all distinct and the cache pristine: then every
        line is filled exactly once, in stream order, so the final content
        of each set is the last ``assoc`` of its lines — installable
        directly, without simulating the evictions.  The caller
        (:func:`repro.memory.warmup.warm_caches`) checks the
        preconditions and falls back to streaming otherwise.
        """
        if self.size is None:
            self._infinite_lines.update(lines)
            return
        num_sets = self._num_sets
        assoc = self.assoc
        survivors: dict[int, list[int]] = {}
        full = 0
        for line in reversed(lines):
            bucket = survivors.get(line % num_sets)
            if bucket is None:
                survivors[line % num_sets] = [line]
                if assoc == 1:
                    full += 1
                    if full == num_sets:
                        break
            elif len(bucket) < assoc:
                bucket.append(line)
                if len(bucket) == assoc:
                    full += 1
                    if full == num_sets:
                        break
        sets = self._sets
        for index, bucket in survivors.items():
            target = sets[index]
            for line in reversed(bucket):
                target[line] = None

    # ------------------------------------------------------------------

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # State snapshot (warm-up reuse across runs)
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Copy of the full cache state (contents, fills, statistics)."""
        return {
            "sets": [dict(s) for s in self._sets],
            "infinite_lines": set(self._infinite_lines),
            "fills": dict(self._fills),
            "hits": self.hits,
            "misses": self.misses,
        }

    def restore(self, state: dict) -> None:
        """Reinstate a :meth:`snapshot`; the snapshot stays reusable.

        ``dict.copy`` keeps each set's LRU order.
        """
        self._sets = [s.copy() for s in state["sets"]]
        self._infinite_lines = set(state["infinite_lines"])
        self._fills = dict(state["fills"])
        self.hits = state["hits"]
        self.misses = state["misses"]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        size = "inf" if self.size is None else f"{self.size // 1024}KB"
        return f"Cache({self.name}, {size}, {self.assoc}-way, lat={self.latency})"
