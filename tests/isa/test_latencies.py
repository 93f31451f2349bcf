"""Unit tests for the latency table."""

import dataclasses

import pytest

from repro.isa import DEFAULT_LATENCIES, LatencyTable, OpClass


def test_defaults_are_positive():
    for op in OpClass:
        assert DEFAULT_LATENCIES.latency_of(op) >= 1


def test_relative_latencies_are_sane():
    lat = DEFAULT_LATENCIES
    assert lat.latency_of(OpClass.INT_ALU) < lat.latency_of(OpClass.INT_MUL)
    assert lat.latency_of(OpClass.FP_ADD) < lat.latency_of(OpClass.FP_MUL)
    assert lat.latency_of(OpClass.FP_MUL) < lat.latency_of(OpClass.FP_DIV)


def test_memory_ops_report_agen_only():
    lat = DEFAULT_LATENCIES
    for op in (OpClass.LOAD, OpClass.STORE, OpClass.FP_LOAD, OpClass.FP_STORE):
        assert lat.latency_of(op) == lat.agen


def test_custom_table():
    table = LatencyTable(int_alu=2, fp_div=40)
    assert table.latency_of(OpClass.INT_ALU) == 2
    assert table.latency_of(OpClass.FP_DIV) == 40
    # untouched entries keep their defaults
    assert table.latency_of(OpClass.FP_MUL) == DEFAULT_LATENCIES.fp_mul


def test_table_is_frozen():
    with pytest.raises(AttributeError):
        DEFAULT_LATENCIES.int_alu = 5  # type: ignore[misc]


#: The field that answers for each operation class; NOP is a fixed cycle.
FIELD_OF = {
    OpClass.INT_ALU: "int_alu",
    OpClass.INT_MUL: "int_mul",
    OpClass.FP_ADD: "fp_add",
    OpClass.FP_MUL: "fp_mul",
    OpClass.FP_DIV: "fp_div",
    OpClass.BRANCH: "branch",
    OpClass.JUMP: "branch",
    OpClass.LOAD: "agen",
    OpClass.STORE: "agen",
    OpClass.FP_LOAD: "agen",
    OpClass.FP_STORE: "agen",
}


@pytest.mark.parametrize(
    "table",
    [DEFAULT_LATENCIES, LatencyTable(fp_div=20, agen=2)],
    ids=["default", "fp_div=20,agen=2"],
)
def test_latency_of_returns_each_fields_value(table):
    for op in OpClass:
        expected = 1 if op == OpClass.NOP else getattr(table, FIELD_OF[op])
        assert table.latency_of(op) == expected


def test_tables_with_different_fields_do_not_share_a_table():
    slow = LatencyTable(fp_div=20, agen=2)
    faster = dataclasses.replace(slow, fp_div=6)
    tables = (DEFAULT_LATENCIES, slow, faster)
    assert [table.latency_of(OpClass.FP_DIV) for table in tables] == [12, 20, 6]
    assert [table.latency_of(OpClass.LOAD) for table in tables] == [1, 2, 2]
