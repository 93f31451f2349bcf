"""Unit and property tests for the cache model."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.cache import AccessLevel, Cache, MainMemory


def make_cache(size=1024, assoc=2, line=64, latency=2):
    return Cache("L1", size, assoc, line, latency)


def test_miss_then_hit():
    c = make_cache()
    line = c.line_of(0x1234)
    assert not c.lookup(line)
    c.fill(line)
    assert c.lookup(line)
    assert c.hits == 1 and c.misses == 1
    assert c.miss_rate == pytest.approx(0.5)


def test_lru_eviction_order():
    c = make_cache(size=256, assoc=2, line=64)  # 2 sets, 2 ways
    s = c._num_sets
    lines = [i * s for i in range(3)]  # all map to set 0
    c.fill(lines[0])
    c.fill(lines[1])
    c.lookup(lines[0])        # refresh line 0 -> line 1 is LRU
    c.fill(lines[2])          # evicts line 1
    assert c.probe(lines[0])
    assert not c.probe(lines[1])
    assert c.probe(lines[2])


def _lru_lookup(sets, line):
    """Reference LRU: a hit moves *line* to the end of its set's list."""
    s = sets[line % len(sets)]
    if line in s:
        s.remove(line)
        s.append(line)
        return True
    return False


def _lru_fill(sets, line, assoc):
    """Reference LRU: install *line* at the end, evicting the head when full."""
    s = sets[line % len(sets)]
    if line in s:
        s.remove(line)
    elif len(s) >= assoc:
        s.pop(0)
    s.append(line)


def test_restore_keeps_lru_order():
    """A cache restored from a snapshot taken partway through a seeded
    lookup/fill stream goes on exactly like the cache it came from: the
    same hit/miss outcomes, and every set in the same LRU order as a
    list-based reference model."""
    rng = random.Random(7)
    stream = [(rng.random() < 0.6, rng.randrange(48)) for _ in range(3000)]
    original = Cache("L1", 512, 4, 64, 1)  # 2 sets x 4 ways
    reference = [[] for _ in range(original._num_sets)]

    def step(caches, is_lookup, line):
        if is_lookup:
            outcomes = {cache.lookup(line) for cache in caches}
            outcomes.add(_lru_lookup(reference, line))
            assert len(outcomes) == 1
        else:
            for cache in caches:
                cache.fill(line)
            _lru_fill(reference, line, original.assoc)
        for cache in caches:
            assert [list(s) for s in cache._sets] == reference

    for is_lookup, line in stream[:1500]:
        step([original], is_lookup, line)
    restored = Cache("L1", 512, 4, 64, 1)
    restored.restore(original.snapshot())
    for is_lookup, line in stream[1500:]:
        step([original, restored], is_lookup, line)
    assert restored.hits > 0 and restored.misses > 0
    assert (restored.hits, restored.misses) == (original.hits, original.misses)


def test_probe_has_no_side_effects():
    c = make_cache()
    c.fill(1)
    hits, misses = c.hits, c.misses
    assert c.probe(1) and not c.probe(2)
    assert (c.hits, c.misses) == (hits, misses)


def test_infinite_cache_never_evicts():
    c = Cache("L2", None, 8, 64, 11)
    for i in range(10_000):
        c.fill(i)
    assert all(c.probe(i) for i in range(0, 10_000, 997))


def test_fill_is_idempotent():
    c = make_cache(size=256, assoc=2, line=64)
    c.fill(0)
    c.fill(0)
    c.fill(c._num_sets)       # same set, second way
    assert c.probe(0)


def test_pending_fill_countdown():
    c = make_cache()
    c.record_fill(5, ready_cycle=100)
    assert c.pending_fill(5, now=60) == 40
    assert c.pending_fill(5, now=100) is None
    # probing is pure: the earlier answer is reproducible, regardless of
    # any probes that happened in between
    assert c.pending_fill(5, now=60) == 40
    # an explicit sweep reclaims expired entries without touching live ones
    c.record_fill(7, ready_cycle=300)
    assert c.sweep_fills(now=100) == 1
    assert c.outstanding_fills == 1
    assert c.pending_fill(5, now=60) is None
    assert c.pending_fill(7, now=100) == 200


def test_pending_fill_unknown_line():
    assert make_cache().pending_fill(42, now=0) is None


def test_constructor_validation():
    with pytest.raises(ValueError):
        Cache("x", 1000, 3, 64, 2)   # size not divisible
    with pytest.raises(ValueError):
        Cache("x", 1024, 2, 60, 2)   # line not power of two
    with pytest.raises(ValueError):
        Cache("x", 1024, 2, 64, 0)   # zero latency


def test_reset_stats():
    c = make_cache()
    c.lookup(1)
    c.reset_stats()
    assert c.accesses == 0


def test_main_memory():
    mem = MainMemory(400)
    assert mem.access() == 400
    assert mem.accesses == 1
    with pytest.raises(ValueError):
        MainMemory(0)


def test_access_levels_are_ordered():
    assert AccessLevel.L1 < AccessLevel.L2 < AccessLevel.MEMORY


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=300))
def test_property_capacity_never_exceeded(lines):
    """LRU invariant: a set never holds more than `assoc` lines, and the
    most recently touched line is always resident."""
    c = Cache("p", 512, 2, 64, 1)  # 4 sets x 2 ways
    for line in lines:
        if not c.lookup(line):
            c.fill(line)
        for s in c._sets:
            assert len(s) <= c.assoc
        assert c.probe(line)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=100),
    st.integers(min_value=1, max_value=4),
)
def test_property_small_working_sets_always_hit(lines, assoc):
    """A working set no larger than one set's associativity never misses
    after the first touch."""
    c = Cache("p", 64 * assoc, assoc, 64, 1)  # one set
    distinct = sorted(set(lines))[:assoc]
    for line in distinct:
        c.lookup(line)
        c.fill(line)
    c.reset_stats()
    for line in distinct * 3:
        assert c.lookup(line)
    assert c.misses == 0
