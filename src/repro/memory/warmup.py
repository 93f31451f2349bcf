"""Functional cache warm-up.

The paper simulates 200M-instruction SimPoint samples, long enough for the
caches to reach steady state.  Our timed runs are orders of magnitude
shorter, so without preparation every run would be dominated by cold
misses and the L2-capacity sweeps of Figures 11/12 would show nothing.

The fix is the standard sampling-simulator technique: before timing starts,
the workload's data regions are streamed through the hierarchy functionally
(no timing, no pipeline), one read per line in one pass.  Afterwards the
caches hold the most recently touched fraction of the working set, exactly
as they would in steady state, so a 4 MB L2 retains working sets a 64 KB
L2 cannot.

:func:`warm_caches_reference` is that pass, one ``touch`` per line.
:func:`warm_caches` leaves the same state by the first of three routes
that applies:

* **Snapshot memo.**  The post-warm-up state only depends on the cache
  geometry and the regions, so the last warm-up of a pristine hierarchy
  in the process is kept as a snapshot and restored for a repeat of it
  (the same machinery as ``MemoryHierarchy.snapshot``/``restore``).  The
  sweep layer hands every process its cells grouped by (workload,
  memory), so one entry serves a whole group.
* **Closed-form LRU tail.**  A pass over all-distinct lines through a
  pristine hierarchy misses every L1 probe, so the final state of each
  cache level is simply the last ``assoc`` lines mapped to each set, in
  stream order — installable directly (:meth:`Cache.warm_tail`) without
  simulating the evictions.  Every built-in workload takes this route.
* **The reference loop**, for regions that repeat a line (only a capture
  with overlapping region headers has them) or a hierarchy that has
  already seen traffic.

``tests/memory/test_warmup.py`` asserts snapshot equality of the first
two routes against the reference loop.
"""

from __future__ import annotations

from typing import Iterable

from repro.memory.hierarchy import MemoryHierarchy
from repro.trace.layout import strided_touch_plan

#: The last plan: ``(regions, line_size)``, its line stream, and whether
#: the stream repeats a line.
_PLAN_MEMO: tuple | None = None

#: The last warm-up of a pristine hierarchy: ``(geometry, regions)``, the
#: hierarchy's snapshot after it, and the touched count.
_WARM_MEMO: tuple | None = None


def clear_warmup_memo() -> None:
    """Drop the memoized plan and snapshot (tests use this)."""
    global _PLAN_MEMO, _WARM_MEMO
    _PLAN_MEMO = _WARM_MEMO = None


def _plan_lines(regions: tuple[tuple[int, int], ...], line_size: int):
    """The line-number stream :func:`strided_touch_plan` would touch, and
    whether it repeats a line."""
    global _PLAN_MEMO
    key = (regions, line_size)
    if _PLAN_MEMO is None or _PLAN_MEMO[0] != key:
        shift = line_size.bit_length() - 1
        lines = [
            (base + offset) >> shift
            for base, size in regions
            for offset in range(0, size, line_size)
        ]
        _PLAN_MEMO = (key, lines, len(set(lines)) != len(lines))
    return _PLAN_MEMO[1:]


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


def warm_caches(
    hierarchy: MemoryHierarchy,
    regions: Iterable[tuple[int, int]],
) -> int:
    """Touch every cache line of *regions* through *hierarchy*, once.

    Args:
        hierarchy: The machine's memory hierarchy (mutated in place).
        regions: ``(base, size)`` pairs, typically
            ``workload.address_space.regions``.

    Returns:
        The number of lines touched.
    """
    global _WARM_MEMO
    regions = tuple(regions)
    if not _is_pristine(hierarchy):
        return warm_caches_reference(hierarchy, regions)
    key = (_geometry_key(hierarchy), regions)
    if _WARM_MEMO is not None and _WARM_MEMO[0] == key:
        _, snapshot, touched = _WARM_MEMO
        hierarchy.restore(snapshot)
        return touched
    lines, duplicates = _plan_lines(regions, hierarchy.line_size)
    if duplicates:
        touched = warm_caches_reference(hierarchy, regions)
    else:
        # All-distinct lines into empty caches: every L1 probe misses, so
        # both levels see the full stream and their final LRU state is the
        # per-set tail of it.
        if hierarchy.l2 is not None:
            hierarchy.l2.warm_tail(lines)
        hierarchy.l1.warm_tail(lines)
        hierarchy.reset_stats()
        touched = len(lines)
    _WARM_MEMO = (key, hierarchy.snapshot(), touched)
    return touched


def warm_caches_reference(
    hierarchy: MemoryHierarchy,
    regions: Iterable[tuple[int, int]],
) -> int:
    """The one-``touch``-per-line warm-up pass.

    :func:`warm_caches` runs it where no shortcut applies, and
    ``tests/memory/test_warmup.py`` differences the shortcuts against it.
    """
    touched = 0
    for addr, is_write in strided_touch_plan(list(regions), hierarchy.line_size):
        hierarchy.touch(addr, is_write)
        touched += 1
    hierarchy.reset_stats()
    return touched
