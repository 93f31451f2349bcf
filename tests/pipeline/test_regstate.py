"""Unit tests for register→producer tracking."""

from repro.isa import Instruction, InstructionBuilder, OpClass
from repro.pipeline.entry import InFlight
from repro.pipeline.regstate import RegisterTracker


def entry_for(instr):
    e = InFlight(instr, fetch_cycle=0)
    return e


def test_rename_defines_and_lookup():
    t = RegisterTracker()
    b = InstructionBuilder()
    producer = entry_for(b.alu(1, 2, 3))
    t.rename(producer)
    assert t.producer_of(1) is producer


def test_executed_producer_reads_as_architectural():
    t = RegisterTracker()
    b = InstructionBuilder()
    producer = entry_for(b.alu(1, 2, 3))
    t.rename(producer)
    producer.executed = True
    assert t.producer_of(1) is None
    assert t.raw_producer(1) is producer


def test_rename_counts_unready():
    t = RegisterTracker()
    b = InstructionBuilder()
    p1 = entry_for(b.alu(1, 30, 30))
    p2 = entry_for(b.alu(2, 30, 30))
    t.rename(p1)
    t.rename(p2)
    consumer = entry_for(b.alu(3, 1, 2))
    t.rename(consumer)
    assert consumer.unready == 2
    assert set(consumer.sources) == {p1, p2}
    assert consumer in (p1.waiters or [])
    assert consumer in (p2.waiters or [])


def test_rename_skips_executed_producers():
    t = RegisterTracker()
    b = InstructionBuilder()
    p = entry_for(b.alu(1, 30, 30))
    t.rename(p)
    p.executed = True
    consumer = entry_for(b.alu(3, 1, 1))
    t.rename(consumer)
    assert consumer.unready == 0
    assert consumer.sources == ()


def test_zero_registers_never_linked():
    t = RegisterTracker()
    b = InstructionBuilder()
    consumer = entry_for(
        Instruction(seq=9, pc=0, op=OpClass.INT_ALU, dest=1, srcs=(31,))
    )
    t.rename(consumer)
    assert consumer.unready == 0


def test_redefinition_supersedes_producer():
    t = RegisterTracker()
    b = InstructionBuilder()
    old = entry_for(b.alu(1, 30, 30))
    new = entry_for(b.alu(1, 30, 30))
    t.rename(old)
    t.rename(new)
    consumer = entry_for(b.alu(2, 1, 1))
    t.rename(consumer)
    # The same producer feeds both sources: linked (and woken) twice.
    assert consumer.sources == (new, new)
    assert consumer.unready == 2


def test_rename_links_sources_before_defining_the_destination():
    t = RegisterTracker()
    b = InstructionBuilder()
    old = entry_for(b.alu(1, 30, 30))
    t.rename(old)
    increment = entry_for(b.alu(1, 1, 30))   # r1 <- r1 + r30
    t.rename(increment)
    assert increment.sources == (old,)
    assert increment.unready == 1
    assert old.waiters == [increment]
    assert t.producer_of(1) is increment


def test_clear_forgets_everything():
    t = RegisterTracker()
    b = InstructionBuilder()
    t.rename(entry_for(b.alu(1, 2, 3)))
    t.clear()
    assert t.producer_of(1) is None
