"""Shared-L2 plumbing: the arbiter and the per-core hierarchy views.

The contention model of the ``dual`` machine kind rests on two pieces:
:class:`L2Arbiter` (ports + occupancy, deterministic grant order) and
:class:`SharedL2View` (private L1 over a shared L2/memory).  These tests
pin their semantics directly, below the machine level.
"""

import random

import pytest

from repro.machines import parse_machine
from repro.memory import MemoryHierarchy
from repro.memory.cache import AccessLevel, Cache
from repro.memory.configs import TABLE1_CONFIGS
from repro.memory.shared import L2Arbiter, SharedL2View
from repro.sim.runner import simulate
from repro.workloads import get_workload

MEM = TABLE1_CONFIGS["MEM-100"]


# ----------------------------------------------------------------------
# L2Arbiter
# ----------------------------------------------------------------------


def test_arbiter_free_port_grants_immediately():
    arbiter = L2Arbiter(ports=1, busy_cycles=2)
    assert arbiter.acquire(now=10) == 0
    assert arbiter.accesses == 1
    assert arbiter.conflicts == 0
    assert arbiter.delay_cycles == 0


def test_arbiter_same_cycle_requests_queue():
    """Two same-cycle requests on one port: the second waits one occupancy."""
    arbiter = L2Arbiter(ports=1, busy_cycles=3)
    assert arbiter.acquire(now=5) == 0
    assert arbiter.acquire(now=5) == 3
    assert (arbiter.accesses, arbiter.conflicts, arbiter.delay_cycles) == (2, 1, 3)


def test_arbiter_port_frees_after_occupancy():
    arbiter = L2Arbiter(ports=1, busy_cycles=3)
    arbiter.acquire(now=0)
    assert arbiter.acquire(now=3) == 0  # exactly when the port frees
    arbiter2 = L2Arbiter(ports=1, busy_cycles=3)
    arbiter2.acquire(now=0)
    assert arbiter2.acquire(now=2) == 1  # one cycle early: one cycle wait


def test_arbiter_second_port_absorbs_conflict():
    arbiter = L2Arbiter(ports=2, busy_cycles=3)
    assert arbiter.acquire(now=0) == 0
    assert arbiter.acquire(now=0) == 0  # second port
    assert arbiter.acquire(now=0) == 3  # both busy: queue behind one
    assert arbiter.conflicts == 1


def test_arbiter_waits_accumulate_in_order():
    """Back-to-back same-cycle requests serialize: k-th waits k occupancies."""
    arbiter = L2Arbiter(ports=1, busy_cycles=2)
    waits = [arbiter.acquire(now=0) for _ in range(4)]
    assert waits == [0, 2, 4, 6]
    assert arbiter.delay_cycles == 12


def test_arbiter_validates_arguments():
    with pytest.raises(ValueError):
        L2Arbiter(ports=0)
    with pytest.raises(ValueError):
        L2Arbiter(busy_cycles=0)


def test_arbiter_snapshot_restore_round_trip():
    arbiter = L2Arbiter(ports=2, busy_cycles=2)
    for now in (0, 0, 1, 5):
        arbiter.acquire(now)
    state = arbiter.snapshot()
    twin = L2Arbiter(ports=2, busy_cycles=2)
    twin.restore(state)
    assert twin.acquire(6) == arbiter.acquire(6)
    assert (twin.accesses, twin.conflicts, twin.delay_cycles) == (
        arbiter.accesses, arbiter.conflicts, arbiter.delay_cycles,
    )


# ----------------------------------------------------------------------
# SharedL2View
# ----------------------------------------------------------------------


def _private_l1() -> Cache:
    return Cache("L1-co", MEM.l1_size, MEM.l1_assoc, MEM.line_size, MEM.l1_latency)


def test_views_share_l2_contents():
    """A line one view fetches from memory is an L2 hit for the other."""
    base = MemoryHierarchy(MEM)
    arbiter = L2Arbiter()
    a = SharedL2View(base, arbiter)
    b = SharedL2View(base, arbiter, l1=_private_l1())

    latency_a, level_a = a.access(0x1000, now=0)
    assert level_a is AccessLevel.MEMORY
    # Much later (the fill has landed): B misses its private L1 but hits
    # the shared L2 — cross-core reuse through the shared level.
    latency_b, level_b = b.access(0x1000, now=10_000)
    assert level_b is AccessLevel.L2
    assert latency_b < latency_a


def test_views_keep_l1_private():
    """An L1 fill on one view must not appear in the other's L1."""
    base = MemoryHierarchy(MEM)
    arbiter = L2Arbiter()
    a = SharedL2View(base, arbiter)
    b = SharedL2View(base, arbiter, l1=_private_l1())
    a.access(0x2000, now=0)
    line = 0x2000 >> a._line_bits
    assert a.l1.probe(line)
    assert not b.l1.probe(line)


def test_contended_access_pays_arbiter_wait():
    """Same-cycle L1 misses from two views: the loser's latency includes
    the queueing delay, and its fill lands later."""
    base = MemoryHierarchy(MEM)
    arbiter = L2Arbiter(ports=1, busy_cycles=4)
    a = SharedL2View(base, arbiter)
    b = SharedL2View(base, arbiter, l1=_private_l1())

    latency_a, _ = a.access(0x4000, now=0)
    latency_b, _ = b.access(0x8000, now=0)
    assert latency_b == latency_a + 4
    assert arbiter.conflicts == 1 and arbiter.delay_cycles == 4


def test_solo_view_matches_plain_hierarchy_latency():
    """With no contention (and 1-cycle occupancy), a shared view reports
    the same latencies as an unwrapped hierarchy."""
    plain = MemoryHierarchy(MEM)
    base = MemoryHierarchy(MEM)
    view = SharedL2View(base, L2Arbiter())
    for now, addr in enumerate((0x100, 0x100, 0x4100, 0x100, 0x8100)):
        expected = plain.access(addr, now=now * 1000)
        got = view.access(addr, now=now * 1000)
        assert got == expected, hex(addr)


#: ``(ports, busy_cycles)``: one port that stays busy long enough for
#: requests to queue, and four ports that never make one wait.
ARBITERS = {"contended": (1, 3), "uncontended": (4, 1)}


def _crowded_addresses(config, rng: random.Random, n: int = 400) -> list[int]:
    """Six lines per L1 set over three sets, plus random lines: the L1
    evicts lines whose fills are still in flight."""
    num_sets = 1 if config.l1_size is None else config.l1_size // (
        config.l1_assoc * config.line_size
    )
    crowded = [s + k * num_sets for s in (0, 1, 7) for k in range(6)]
    addresses = []
    for _ in range(n):
        line = rng.choice(crowded) if rng.random() < 0.8 else rng.randrange(1 << 16)
        addresses.append(line * config.line_size + rng.randrange(config.line_size))
    return addresses


@pytest.mark.parametrize("arbiter", list(ARBITERS), ids=list(ARBITERS))
@pytest.mark.parametrize("memory", list(TABLE1_CONFIGS))
def test_view_is_the_plain_rule_at_the_granted_cycle(memory, arbiter):
    """A shared view is a plain hierarchy of the same config whose L1
    misses reach the L2 when the arbiter grants them: an L1 hit (or an
    L1 with no L2 behind it) returns what the plain hierarchy returns at
    ``now``; an L1 miss returns the arbiter's wait plus what the plain
    hierarchy returns at ``now + wait``, and its fills are timed from
    there.  Counters and both fill tables agree after every access."""
    config = TABLE1_CONFIGS[memory]
    ports, busy = ARBITERS[arbiter]
    rng = random.Random(f"{memory}/{arbiter}")
    view = SharedL2View(MemoryHierarchy(config), L2Arbiter(ports, busy))
    plain = MemoryHierarchy(config)
    twin = L2Arbiter(ports, busy)
    levels = [("l1", view.l1, plain.l1)]
    if plain.l2 is not None:
        levels.append(("l2", view.l2, plain.l2))
    now = 1_000
    for addr in _crowded_addresses(config, rng):
        now = max(0, now + rng.randint(-20, 60))
        line = addr >> plain._line_bits
        if plain.l1.probe(line) or plain.l2 is None:
            expected = plain.access(addr, now=now)
        else:
            wait = twin.acquire(now)
            latency, level = plain.access(addr, now=now + wait)
            expected = (wait + latency, level)
        assert view.access(addr, now=now) == expected, (hex(addr), now)
        for name, mine, theirs in levels:
            assert (mine.hits, mine.misses, mine.fills) == (
                theirs.hits, theirs.misses, theirs.fills,
            ), (name, hex(addr), now)
        if plain.memory is not None:
            assert view.memory.accesses == plain.memory.accesses
    assert view.arbiter.snapshot() == twin.snapshot()


def test_view_snapshot_restore_round_trip():
    base = MemoryHierarchy(MEM)
    arbiter = L2Arbiter(ports=1, busy_cycles=2)
    view = SharedL2View(base, arbiter)
    view.access(0x100, now=0)
    view.access(0x4100, now=0)
    state = view.snapshot()

    base2 = MemoryHierarchy(MEM)
    arbiter2 = L2Arbiter(ports=1, busy_cycles=2)
    twin = SharedL2View(base2, arbiter2)
    twin.restore(state)
    line = 0x100 >> view._line_bits
    assert twin.l1.probe(line)
    assert twin.access(0x100, now=10_000) == view.access(0x100, now=10_000)
    assert arbiter2.accesses == arbiter.accesses


# ----------------------------------------------------------------------
# End to end: contention must cost cycles at the machine level
# ----------------------------------------------------------------------


def _cycles(spec: str) -> tuple[int, int]:
    workload = get_workload("mcf")
    trace = workload.trace(600)
    stats = simulate(parse_machine(spec), trace, memory=TABLE1_CONFIGS["MEM-400"],
                     regions=workload.regions)
    return stats.cycles, stats.l2_arb_conflicts


def test_co_runner_costs_cycles_never_saves_them():
    solo_cycles, solo_conflicts = _cycles("dual(rob=32,l2busy=2)")
    loaded_cycles, loaded_conflicts = _cycles(
        "dual(rob=32,l2busy=2,co=synth(chase=0,mlp=6,footprint=8M))"
    )
    assert loaded_cycles >= solo_cycles
    assert loaded_conflicts > solo_conflicts
