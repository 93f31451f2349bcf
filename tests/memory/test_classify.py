"""``MemoryHierarchy.classify`` is the untimed half of ``access``.

Over a stream of lines, ``classify`` takes the lookups and fills that
``access`` takes and moves the same counters, without reading or writing
a fill table.  Each test runs one stream both ways from the same
starting state: ``access`` at a random, non-monotonic cycle per access,
and the plan with the fill rule ``classify`` documents, applied at the
same cycles.  Latencies, LRU contents, counters and fill tables must all
agree.  Lines crowd three sets of every geometry and the fill-sweep
threshold is small, so evictions, overlapped fills and sweeps are
common.
"""

from __future__ import annotations

import random

import pytest

from repro.memory import TABLE1_CONFIGS, MemoryConfig, MemoryHierarchy
from repro.memory import cache
from repro.memory.hierarchy import L1_PENDING, L2_PENDING, RECORD
from repro.memory.shared import L2Arbiter, SharedL2View

#: Two L1 sets and four L2 sets of 64-byte lines.
TINY = MemoryConfig(
    name="tiny", l1_size=256, l2_size=1024, l2_assoc=4, mem_latency=50
)
MEMORIES = {**TABLE1_CONFIGS, "tiny": TINY}


def some_line(rng: random.Random) -> int:
    """One of 36 lines that share three sets of every geometry here."""
    return rng.randrange(12) * 1024 + rng.randrange(3)


def accesses(seed: int, n: int = 600) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    return [(some_line(rng), rng.randrange(400)) for _ in range(n)]


def start(config: MemoryConfig, seed: int) -> MemoryHierarchy:
    """A hierarchy with warm contents, and fills in flight in both
    tables (if it has memory) and in each level's table alone."""
    rng = random.Random(seed + 100)
    h = MemoryHierarchy(config)
    for _ in range(20):
        h.touch(some_line(rng) << 6)
    if h.memory is not None:
        h.access(some_line(rng) << 6, now=rng.randrange(100))
    for level in levels(h):
        for _ in range(4):
            level.record_fill(some_line(rng), rng.randrange(400))
    return h


def levels(h: MemoryHierarchy):
    return [h.l1] if h.l2 is None else [h.l1, h.l2]


def untimed(h: MemoryHierarchy):
    """LRU contents in order, and every counter."""
    return (
        [
            ([list(s) for s in level._sets], sorted(level._infinite_lines),
             level.hits, level.misses)
            for level in levels(h)
        ],
        None if h.memory is None else h.memory.accesses,
    )


def fills(h: MemoryHierarchy) -> list[dict[int, int]]:
    return [dict(level.fills) for level in levels(h)]


def replay(h: MemoryHierarchy, plan, stream) -> list[int]:
    """The latencies of *plan* at each access's cycle, by the fill rule
    that ``classify`` documents."""
    latencies = []
    for (kind, latency), (line, now) in zip(plan.codes, stream):
        if kind in (L1_PENDING, L2_PENDING):
            level = h.l1 if kind == L1_PENDING else h.l2
            latency += level.pending_fill(line, now) or 0
        elif kind == RECORD:
            h.l2.record_fill(line, now + latency, now)
            h.l1.record_fill(line, now + latency, now)
        latencies.append(latency)
    return latencies


@pytest.mark.parametrize("name", MEMORIES)
@pytest.mark.parametrize("seed", range(3))
def test_classify_matches_access(name, seed, monkeypatch):
    monkeypatch.setattr(cache, "FILL_SWEEP_THRESHOLD", 6)
    sweeps = []
    sweep = cache.Cache.sweep_fills
    monkeypatch.setattr(
        cache.Cache, "sweep_fills", lambda c, now: sweeps.append(now) or sweep(c, now)
    )
    stream = accesses(seed)
    reference, classified, applied = (start(MEMORIES[name], seed) for _ in range(3))
    expected = [reference.access(line << 6, now=now)[0] for line, now in stream]
    swept = len(sweeps)
    assert swept or reference.memory is None

    plan = classified.classify([line for line, _ in stream])
    assert len(plan.codes) == len(stream)
    assert replay(classified, plan, stream) == expected
    assert untimed(classified) == untimed(reference)
    assert fills(classified) == fills(reference)
    assert len(sweeps) == 2 * swept

    # A hierarchy in the same state replays the plan without classifying.
    assert applied.replays(plan)
    applied.apply(plan)
    assert replay(applied, plan, stream) == expected
    assert untimed(applied) == untimed(reference)
    assert fills(applied) == fills(reference)


def test_replays_reads_contents_not_counters_or_fills():
    stream = [line for line, _ in accesses(0)]
    plan = start(TINY, 0).classify(stream)
    h = start(TINY, 0)
    h.l1.hits += 3
    h.l2.reset_stats()
    h.l1.record_fill(7, 10_000)
    assert h.replays(plan)
    h.touch(3 << 6)  # installs line 3, which no stream touches
    assert not h.replays(plan)
    assert not start(MEMORIES["MEM-100"], 0).replays(
        start(MEMORIES["MEM-400"], 0).classify(stream)
    )


def test_infinite_levels_compare_only_the_streams_lines():
    h = start(TABLE1_CONFIGS["L2-11"], 0)
    stream = [line for line, _ in accesses(0)]
    plan = start(TABLE1_CONFIGS["L2-11"], 0).classify(stream)
    h.l2.fill(12 * 1024)  # a line the stream never touches
    assert h.replays(plan)
    h.l2.fill(next(line for line in stream if not h.l2.probe(line)))
    assert not h.replays(plan)


def test_a_shared_view_is_never_classified():
    base = MemoryHierarchy(TABLE1_CONFIGS["MEM-400"])
    view = SharedL2View(base, L2Arbiter())
    with pytest.raises(TypeError):
        view.classify([1, 2, 3])
    assert not view.replays(MemoryHierarchy(TABLE1_CONFIGS["MEM-400"]).classify([1]))
