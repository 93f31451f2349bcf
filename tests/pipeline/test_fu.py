"""Unit tests for functional-unit arbitration."""

from repro.isa import OpClass
from repro.pipeline.fu import FU_OF_OP, FuKind, FuPool
from repro.sim.config import FuConfig


def test_op_to_kind_mapping():
    assert FU_OF_OP[OpClass.INT_ALU] == FuKind.ALU
    assert FU_OF_OP[OpClass.BRANCH] == FuKind.ALU
    assert FU_OF_OP[OpClass.INT_MUL] == FuKind.IMUL
    assert FU_OF_OP[OpClass.FP_ADD] == FuKind.FPADD
    assert FU_OF_OP[OpClass.FP_DIV] == FuKind.FPMUL
    assert FU_OF_OP[OpClass.LOAD] == FuKind.MEM
    assert FU_OF_OP[OpClass.FP_STORE] == FuKind.MEM


def test_every_op_class_has_a_unit():
    assert len(FU_OF_OP) == len(OpClass)
    for op in OpClass:
        assert isinstance(FU_OF_OP[op], FuKind)


def test_limits_enforced_per_cycle():
    pool = FuPool(FuConfig(int_alu=2, int_mul=1))
    assert pool.try_take(FuKind.ALU)
    assert pool.try_take(FuKind.ALU)
    assert not pool.try_take(FuKind.ALU)
    assert pool.try_take(FuKind.IMUL)
    assert not pool.try_take(FuKind.IMUL)


def test_new_cycle_resets_slots():
    pool = FuPool(FuConfig(int_alu=1))
    assert pool.try_take(FuKind.ALU)
    assert not pool.try_take(FuKind.ALU)
    pool.new_cycle()
    assert pool.try_take(FuKind.ALU)


def test_kinds_are_independent():
    pool = FuPool(FuConfig(int_alu=1, fp_add=1))
    assert pool.try_take(FuKind.ALU)
    assert pool.try_take(FuKind.FPADD)


def test_available_counts():
    pool = FuPool(FuConfig(mem_ports=2))
    assert pool.available(FuKind.MEM) == 2
    pool.try_take(FuKind.MEM)
    assert pool.available(FuKind.MEM) == 1


def test_table2_default_unit_mix():
    pool = FuPool(FuConfig())
    assert pool.available(FuKind.ALU) == 4
    assert pool.available(FuKind.IMUL) == 1
    assert pool.available(FuKind.FPADD) == 4
    assert pool.available(FuKind.FPMUL) == 1
    assert pool.available(FuKind.MEM) == 2
