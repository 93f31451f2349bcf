"""Unit tests for functional cache warm-up."""

import pytest

from repro.memory import DEFAULT_MEMORY, MemoryHierarchy, warm_caches
from repro.memory.cache import AccessLevel
from repro.memory.configs import TABLE1_CONFIGS
from repro.memory.warmup import clear_warmup_memo, warm_caches_reference


def test_warmup_touches_every_line():
    h = MemoryHierarchy(DEFAULT_MEMORY)
    touched = warm_caches(h, [(0, 4096)])
    assert touched == 64
    lat, level = h.access(0x0, now=0)
    assert level == AccessLevel.L1


def test_warmup_resets_statistics():
    h = MemoryHierarchy(DEFAULT_MEMORY)
    warm_caches(h, [(0, 65536)])
    assert h.l1.accesses == 0
    assert h.memory.accesses == 0


def test_warmup_respects_capacity():
    """After warming a region larger than the L2, its tail is resident and
    its head is not — the recency order a real run would leave."""
    h = MemoryHierarchy(DEFAULT_MEMORY)
    region = 2 * 1024 * 1024
    warm_caches(h, [(0, region)])
    head_lat, head_level = h.access(0, now=0)
    tail_lat, tail_level = h.access(region - 64, now=0)
    assert head_level == AccessLevel.MEMORY
    assert tail_level in (AccessLevel.L1, AccessLevel.L2)


def test_empty_regions():
    h = MemoryHierarchy(DEFAULT_MEMORY)
    assert warm_caches(h, []) == 0


# ----------------------------------------------------------------------
# Differential suite: every fast path vs the reference touch loop.
# ----------------------------------------------------------------------

CONFIGS = ("L1-2", "L2-11", "MEM-400")

REGION_SETS = {
    "distinct": [(0, 8192), (1 << 20, 4096)],
    # Overlapping regions produce duplicate lines in the touch plan,
    # forcing the reference loop instead of the tail install.
    "overlapping": [(0, 8192), (4096, 8192)],
    "larger-than-l2": [(0, 2 * 1024 * 1024)],
}


@pytest.mark.parametrize("config_name", CONFIGS)
@pytest.mark.parametrize("regions", list(REGION_SETS), ids=list(REGION_SETS))
def test_fast_warmup_matches_reference(config_name, regions):
    clear_warmup_memo()
    fast = MemoryHierarchy(TABLE1_CONFIGS[config_name])
    touched_fast = warm_caches(fast, REGION_SETS[regions])
    reference = MemoryHierarchy(TABLE1_CONFIGS[config_name])
    touched_ref = warm_caches_reference(reference, REGION_SETS[regions])
    assert (touched_fast, fast.snapshot()) == (touched_ref, reference.snapshot())


def test_memo_hit_restores_identical_state():
    """The second warm-up of the same (geometry, regions) comes
    from the snapshot memo and must equal both the first fast warm-up
    and the reference."""
    regions = REGION_SETS["distinct"]
    clear_warmup_memo()
    first = MemoryHierarchy(TABLE1_CONFIGS["L2-11"])
    warm_caches(first, regions)
    memoized = MemoryHierarchy(TABLE1_CONFIGS["L2-11"])
    warm_caches(memoized, regions)
    reference = MemoryHierarchy(TABLE1_CONFIGS["L2-11"])
    warm_caches_reference(reference, regions)
    assert memoized.snapshot() == first.snapshot() == reference.snapshot()


def test_non_pristine_hierarchy_falls_back_to_replay():
    """A hierarchy that has already seen traffic must not take the
    tail-install shortcut; the reference loop keeps it reference-equal."""
    clear_warmup_memo()
    regions = REGION_SETS["distinct"]
    fast = MemoryHierarchy(TABLE1_CONFIGS["L2-11"])
    fast.touch(0xDEAD000)
    warm_caches(fast, regions)
    reference = MemoryHierarchy(TABLE1_CONFIGS["L2-11"])
    reference.touch(0xDEAD000)
    warm_caches_reference(reference, regions)
    assert fast.snapshot() == reference.snapshot()
