"""Unit and property tests for issue queues (OOO and in-order)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import Instruction, OpClass
from repro.pipeline.entry import InFlight
from repro.pipeline.fu import FuKind
from repro.pipeline.queues import IssueQueue
from repro.sim.config import SchedulerPolicy


def make_entry(seq, unready=0, op=OpClass.INT_ALU):
    instr = Instruction(seq=seq, pc=seq * 4, op=op, dest=1, srcs=())
    entry = InFlight(instr, fetch_cycle=0)
    entry.unready = unready
    return entry


class Units:
    """A unit claim that grants every kind except those in *busy*, and
    logs each claim it is asked for."""

    def __init__(self, busy=()):
        self.busy = set(busy)
        self.claims = []

    def __call__(self, kind):
        self.claims.append(kind)
        return kind not in self.busy


def issue(q, budget=8, busy=()):
    """One select pass; returns the issued seqs and the budget left."""
    issued = []
    left = q.issue(budget, Units(busy), lambda e: issued.append(e.seq))
    return issued, left


def ooo(size=8):
    return IssueQueue("q", size, SchedulerPolicy.OUT_OF_ORDER)


def ino(size=8):
    return IssueQueue("q", size, SchedulerPolicy.IN_ORDER)


def test_ooo_issues_ready_oldest_first():
    q = ooo()
    entries = [make_entry(2), make_entry(0), make_entry(1)]
    for e in entries:
        q.add(e)
    order, _ = issue(q)
    assert order == [0, 1, 2]


def test_issue_takes_the_oldest_ready_entries_up_to_the_budget():
    q = ooo()
    for seq in (3, 0, 5, 2, 1, 4):
        q.add(make_entry(seq, unready=1 if seq == 1 else 0))
    assert issue(q, budget=3) == ([0, 2, 3], 0)
    # The rest stay armed for the next cycle; the unready entry waits.
    assert issue(q, budget=8) == ([4, 5], 6)
    assert q.occupancy == 1


def test_busy_unit_lets_a_younger_entry_issue_and_is_ready_next_cycle():
    q = ooo()
    multiply = make_entry(0, op=OpClass.INT_MUL)
    add = make_entry(1)
    q.add(multiply)
    q.add(add)
    assert q.next_issuable(0) is multiply
    units = Units(busy={FuKind.IMUL})
    issued = []
    assert q.issue(4, units, issued.append) == 3
    assert issued == [add]
    assert units.claims == [FuKind.IMUL, FuKind.ALU]
    assert not multiply.issued and q.occupancy == 1
    # Re-armed after the pass: the next cycle offers it first.
    assert q.next_issuable(1) is multiply
    assert issue(q) == ([0], 7)


def test_ooo_waiting_entries_need_wake():
    q = ooo()
    waiting = make_entry(0, unready=1)
    q.add(waiting)
    assert q.next_issuable(0) is None
    waiting.unready = 0
    q.wake(waiting)
    assert q.next_issuable(0) is waiting


def test_ino_head_blocks_queue():
    q = ino()
    head = make_entry(0, unready=1)
    ready = make_entry(1)
    q.add(head)
    q.add(ready)
    assert q.next_issuable(0) is None     # head not ready => nothing issues
    head.unready = 0
    assert q.next_issuable(0) is head


def test_in_order_issue_stops_at_an_unready_head_or_a_busy_unit():
    q = ino()
    head = make_entry(0, unready=1, op=OpClass.INT_MUL)
    younger = make_entry(1)
    q.add(head)
    q.add(younger)
    units = Units()
    assert q.issue(4, units, pytest.fail) == 4
    assert units.claims == []             # an unready head claims no unit
    head.unready = 0
    units = Units(busy={FuKind.IMUL})
    assert q.issue(4, units, pytest.fail) == 4
    assert units.claims == [FuKind.IMUL]  # the ready ALU op behind it waits
    assert issue(q) == ([0, 1], 6)


def test_capacity_tracking():
    q = ooo(size=2)
    q.add(make_entry(0))
    q.add(make_entry(1))
    assert not q.has_space
    with pytest.raises(RuntimeError):
        q.add(make_entry(2))
    issue(q, budget=1)
    assert q.has_space


def test_issue_marks_issued_and_frees_slot():
    q = ooo(size=1)
    e = make_entry(0)
    q.add(e)
    issue(q, budget=1)
    assert e.issued
    assert q.occupancy == 0
    assert q.next_issuable(0) is None


def test_remove_detaches_waiting_entry():
    q = ooo(size=2)
    e = make_entry(0, unready=1)
    q.add(e)
    q.remove(e)
    assert q.occupancy == 1 - 1
    assert e.owner is None


def test_ino_skips_detached_entries():
    q = ino()
    first = make_entry(0, unready=1)
    second = make_entry(1)
    q.add(first)
    q.add(second)
    q.remove(first)           # Analyze moved it to the LLIB
    assert q.next_issuable(0) is second


def test_issued_and_removed_entries_drop_lazily():
    q = ooo()
    issued_twice = make_entry(0)
    removed = make_entry(1)
    kept = make_entry(2)
    for e in (issued_twice, removed, kept):
        q.add(e)
    q.wake(issued_twice)      # a second heap copy of a ready entry
    q.remove(removed)         # Analyze moved it to the LLIB
    assert q._stale == 1 and len(q._ready_heap) == 4
    assert issue(q) == ([0, 2], 6)
    assert q._ready_heap == [] and q._stale == 0
    assert q.occupancy == 0


def test_in_order_removed_head_drops_lazily():
    q = ino()
    removed = make_entry(0, unready=1)
    kept = make_entry(1)
    q.add(removed)
    q.add(kept)
    q.remove(removed)
    assert q._stale == 1
    assert issue(q) == ([1], 7)
    assert len(q._fifo) == 0 and q._stale == 0


@pytest.mark.parametrize("make_queue", [ooo, ino])
def test_zero_budget_touches_nothing(make_queue):
    q = make_queue()
    removed = make_entry(0, unready=1)
    ready = make_entry(1)
    q.add(removed)
    q.add(ready)
    q.remove(removed)
    containers = (list(q._ready_heap), list(q._fifo))
    units = Units()
    assert q.issue(0, units, pytest.fail) == 0
    assert units.claims == []
    assert (list(q._ready_heap), list(q._fifo)) == containers
    assert q._stale == 1 and q.occupancy == 1 and not ready.issued


def test_add_sets_owner():
    q = ooo()
    e = make_entry(0)
    q.add(e)
    assert e.owner is q


def test_drain_returns_unissued():
    q = ooo()
    a, b = make_entry(0), make_entry(1)
    q.add(a)
    q.add(b)
    issue(q, budget=1)
    drained = q.drain()
    assert drained == [b]
    assert q.occupancy == 0


@settings(max_examples=40, deadline=None)
@given(st.permutations(list(range(10))))
def test_property_ooo_select_is_age_ordered(order):
    """Whatever the insertion order, ready instructions issue oldest first."""
    q = ooo(size=16)
    for seq in order:
        q.add(make_entry(seq))
    issued, _ = issue(q, budget=16)
    assert issued == sorted(issued)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=30))
def test_property_ino_is_fifo(ready_flags):
    """In-order queues only ever issue the current head, in FIFO order."""
    q = ino(size=64)
    entries = [make_entry(i, unready=0 if flag else 1) for i, flag in enumerate(ready_flags)]
    for e in entries:
        q.add(e)
    issued, _ = issue(q, budget=64)
    assert issued == list(range(len(issued)))
    expected = 0
    for flag in ready_flags:
        if not flag:
            break
        expected += 1
    assert len(issued) == expected


# ----------------------------------------------------------------------
# Lazy-removal garbage compaction
# ----------------------------------------------------------------------


def test_ooo_compacts_when_stale_entries_dominate():
    q = ooo(size=256)
    entries = [make_entry(i) for i in range(80)]
    for e in entries:
        q.add(e)
    # Detach most entries without ever touching the head (the D-KIP's
    # Analyze stage does this when it moves instructions to the LLIB on a
    # low-issue-rate run): the lazy drops at the head never fire.
    for e in entries[10:]:
        q.remove(e)
    assert q.compactions >= 1
    # Garbage is bounded: at most the compaction threshold of stale entries
    # can outlive their removal (compaction fires as soon as they dominate).
    from repro.pipeline.queues import COMPACT_THRESHOLD

    assert len(q._ready_heap) <= 10 + COMPACT_THRESHOLD
    # The survivors still issue in seq order.
    order, _ = issue(q, budget=256)
    assert order == list(range(10))


def test_ino_compacts_when_stale_entries_dominate():
    q = ino(size=256)
    entries = [make_entry(i, unready=1) for i in range(80)]
    for e in entries:
        q.add(e)
    for e in entries[1:74]:
        q.remove(e)
        e.owner = None
    assert q.compactions >= 1
    assert len(q._fifo) == 80 - 73
    assert q.occupancy == 80 - 73


def test_compaction_preserves_waiting_entries():
    q = ooo(size=256)
    keeper = make_entry(999, unready=1)
    q.add(keeper)  # not ready: lives outside the ready heap
    entries = [make_entry(i) for i in range(64)]
    for e in entries:
        q.add(e)
    for e in entries:
        q.remove(e)
    assert q.compactions >= 1
    assert q.occupancy == 1
    # Wakeup still lands the keeper in the (rebuilt) ready heap.
    keeper.unready = 0
    q.wake(keeper)
    assert q.next_issuable(0) is keeper
