"""Functional cache warm-up.

The paper simulates 200M-instruction SimPoint samples, long enough for the
caches to reach steady state.  Our timed runs are orders of magnitude
shorter, so without preparation every run would be dominated by cold
misses and the L2-capacity sweeps of Figures 11/12 would show nothing.

The fix is the standard sampling-simulator technique: before timing starts,
the workload's data regions are streamed through the hierarchy functionally
(no timing, no pipeline).  Afterwards the caches hold the most recently
touched fraction of the working set, exactly as they would in steady state,
so a 4 MB L2 retains working sets a 64 KB L2 cannot.

Warm-up used to dominate short timed runs (profiles showed ~half of every
benchmark cell spent streaming the working set), so :func:`warm_caches`
now has two layers of speedup, both state-identical to the reference
stream:

* **Closed-form LRU tail.**  A single read pass over all-distinct lines
  through a pristine hierarchy misses every L1 probe, so the final state
  of each cache level is simply the last ``assoc`` lines mapped to each
  set, in stream order — installable directly (:meth:`Cache.warm_tail`)
  without simulating the evictions.
* **Snapshot memoization.**  The post-warm-up state only depends on the
  cache geometry, the regions, and the pass count; a module-level memo
  of the last warm-up restores it for repeat warm-ups of pristine
  hierarchies in the same process (restoring is the same proven
  machinery as ``MemoryHierarchy.snapshot``/``restore``).

Plans with duplicate lines, multiple passes, or a non-pristine hierarchy
fall back to an exact (but still tightened) replay of the reference
stream.  ``tests/memory/test_warmup.py`` asserts snapshot equality of the
fast paths against the reference loop.
"""

from __future__ import annotations

from typing import Iterable

from repro.memory.hierarchy import MemoryHierarchy
from repro.trace.layout import strided_touch_plan

#: Entries kept in the module-level memo tables; oldest entries are evicted
#: first.  Warm-up state is per (geometry, regions, passes), and the sweep
#: layer hands every process its cells grouped by (workload, memory), so
#: one entry serves a whole group while holding a single snapshot.
_MEMO_LIMIT = 1

#: (regions, line_size) -> (line list, has duplicate lines)
_PLAN_MEMO: dict[tuple, tuple[list[int], bool]] = {}

#: (geometry, regions, passes) -> (hierarchy snapshot, touched count)
_WARM_MEMO: dict[tuple, tuple[dict, int]] = {}


def clear_warmup_memo() -> None:
    """Drop all memoized plans and snapshots (tests use this)."""
    _PLAN_MEMO.clear()
    _WARM_MEMO.clear()


def _remember(memo: dict, key, value) -> None:
    if len(memo) >= _MEMO_LIMIT:
        memo.pop(next(iter(memo)))
    memo[key] = value


def _plan_lines(regions: tuple[tuple[int, int], ...], line_size: int):
    """The line-number stream :func:`strided_touch_plan` would touch."""
    key = (regions, line_size)
    cached = _PLAN_MEMO.get(key)
    if cached is None:
        shift = line_size.bit_length() - 1
        lines = [
            (base + offset) >> shift
            for base, size in regions
            for offset in range(0, size, line_size)
        ]
        cached = (lines, len(set(lines)) != len(lines))
        _remember(_PLAN_MEMO, key, cached)
    return cached


def _geometry_key(hierarchy: MemoryHierarchy) -> tuple:
    l1 = hierarchy.l1
    l2 = hierarchy.l2
    return (
        hierarchy.line_size,
        (l1.size, l1.assoc),
        None if l2 is None else (l2.size, l2.assoc),
        hierarchy.memory is not None,
    )


def _is_pristine(hierarchy: MemoryHierarchy) -> bool:
    if not hierarchy.l1.is_pristine():
        return False
    if hierarchy.l2 is not None and not hierarchy.l2.is_pristine():
        return False
    return hierarchy.memory is None or hierarchy.memory.accesses == 0


def _stream(hierarchy: MemoryHierarchy, lines: list[int], passes: int) -> None:
    """Exact replay of the reference warm-up stream (``hierarchy.touch``
    per line), with the per-level calls bound outside the loop."""
    l1 = hierarchy.l1
    l2 = hierarchy.l2
    l1_probe = l1.probe
    l1_fill = l1.fill
    for _ in range(passes):
        if l2 is None:
            # Both the probe-hit and probe-miss arms of ``touch`` reduce to
            # an L1 fill when there is no L2.
            for line in lines:
                l1_fill(line)
            continue
        l2_fill = l2.fill
        for line in lines:
            if l1_probe(line):
                l1_fill(line)
            else:
                l2_fill(line)
                l1_fill(line)


def warm_caches(
    hierarchy: MemoryHierarchy,
    regions: Iterable[tuple[int, int]],
    passes: int = 1,
) -> int:
    """Touch every cache line of *regions* through *hierarchy*.

    Args:
        hierarchy: The machine's memory hierarchy (mutated in place).
        regions: ``(base, size)`` pairs, typically
            ``workload.address_space.regions``.
        passes: Number of sweeps; one pass is enough to establish recency
            order, a second pass makes the LRU state of cyclic traversals
            exact.

    Returns:
        The number of lines touched (per pass).
    """
    regions = tuple(regions)
    passes = max(1, passes)
    lines, duplicates = _plan_lines(regions, hierarchy.line_size)
    touched = len(lines)
    pristine = _is_pristine(hierarchy)
    key = None
    if pristine:
        key = (_geometry_key(hierarchy), regions, passes)
        cached = _WARM_MEMO.get(key)
        if cached is not None:
            snapshot, touched = cached
            hierarchy.restore(snapshot)
            return touched
    if pristine and passes == 1 and not duplicates:
        # All-distinct lines into empty caches: every L1 probe misses, so
        # both levels see the full stream and their final LRU state is the
        # per-set tail of it.
        if hierarchy.l2 is not None:
            hierarchy.l2.warm_tail(lines)
        hierarchy.l1.warm_tail(lines)
    else:
        _stream(hierarchy, lines, passes)
    hierarchy.reset_stats()
    if key is not None:
        _remember(_WARM_MEMO, key, (hierarchy.snapshot(), touched))
    return touched


def warm_caches_reference(
    hierarchy: MemoryHierarchy,
    regions: Iterable[tuple[int, int]],
    passes: int = 1,
) -> int:
    """The original one-``touch``-per-line warm-up loop.

    Kept as the oracle the fast paths are differenced against in
    ``tests/memory/test_warmup.py``.
    """
    regions = list(regions)
    touched = 0
    for _ in range(max(1, passes)):
        touched = 0
        for addr, is_write in strided_touch_plan(regions, hierarchy.line_size):
            hierarchy.touch(addr, is_write)
            touched += 1
    hierarchy.reset_stats()
    return touched
