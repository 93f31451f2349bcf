"""The Instruction constructor against a reference model of the record.

``reference_slots`` is the original frozen-dataclass ``__post_init__``
restated as a plain function: the same checks in the same order, the
same messages, and the seven derived flags computed by frozenset
membership.  Every record built by any workload kind, and every
invalid input, must agree with it slot for slot and message for
message.
"""

import copy
import dataclasses
import pickle

import pytest

from repro.isa import Instruction, OpClass
from repro.isa.opcodes import BRANCH_OPS, FP_OPS, LOAD_OPS, MEM_OPS, STORE_OPS
from repro.isa.registers import NUM_REGS, is_fp_reg, is_zero_reg
from repro.trace.io import save_trace
from repro.workloads import get_workload
from repro.workloads.kinds import workload_kinds

FIELDS = ("seq", "pc", "op", "dest", "srcs", "addr", "size", "taken", "target")
DERIVED = (
    "is_load",
    "is_store",
    "is_mem",
    "is_branch",
    "is_cond_branch",
    "is_fp",
    "_live_srcs",
)


def reference_slots(
    seq, pc, op, dest=None, srcs=(), addr=None, size=8, taken=None, target=None
):
    """All sixteen slot values of the record, or the error it raises."""
    values = dict(zip(FIELDS, (seq, pc, op, dest, srcs, addr, size, taken, target)))
    text = "Instruction(" + ", ".join(f"{k}={v!r}" for k, v in values.items()) + ")"
    if dest is not None and not 0 <= dest < NUM_REGS:
        raise ValueError(f"dest register out of range: {dest}")
    if len(srcs) > 2:
        raise ValueError("Alpha-like ISA allows at most 2 source registers")
    for src in srcs:
        if not 0 <= src < NUM_REGS:
            raise ValueError(f"source register out of range: {src}")
    if op in MEM_OPS and addr is None:
        raise ValueError(f"memory instruction without address: {text}")
    if op in BRANCH_OPS and taken is None:
        raise ValueError(f"branch instruction without outcome: {text}")
    values.update(
        is_load=op in LOAD_OPS,
        is_store=op in STORE_OPS,
        is_mem=op in MEM_OPS,
        is_branch=op in BRANCH_OPS,
        is_cond_branch=op == OpClass.BRANCH,
        is_fp=(dest is not None and is_fp_reg(dest)) or op in FP_OPS,
        _live_srcs=tuple(s for s in srcs if not is_zero_reg(s)),
    )
    return values


def slots_of(instr: Instruction) -> dict:
    return {name: getattr(instr, name) for name in FIELDS + DERIVED}


def assert_matches_reference(trace):
    for instr in trace:
        expected = reference_slots(*(getattr(instr, name) for name in FIELDS))
        actual = slots_of(instr)
        assert actual == expected, instr
        # The flags are bools, not merely truthy: cores store and compare them.
        for name in DERIVED[:-1]:
            assert type(actual[name]) is bool, (name, instr)
        assert type(actual["_live_srcs"]) is tuple


@pytest.fixture(scope="module")
def capture(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("capture") / "mcf.trc.gz")
    save_trace(get_workload("mcf"), path, 3000)
    return path


def workload_specs(capture):
    """One or more specs per registered workload kind."""
    return {
        "bench": ["mcf", "swim", "gcc", "applu", "eon"],
        "synth": ["synth(chase=4,mlp=2)", "synth(fp=on,mlp=4,ilp=4,br=0.3)"],
        "trace": [f"trace(file={capture})"],
        "phases": [
            f"phases(file={capture},interval=1000,index=0)",
            f"phases(file={capture},interval=1000,index=2)",
        ],
    }


def test_every_workload_kind_is_covered(capture):
    assert set(workload_specs(capture)) == set(workload_kinds())


@pytest.mark.parametrize("kind", ["bench", "synth", "trace", "phases"])
def test_generated_and_decoded_records_match_reference(kind, capture):
    for spec in workload_specs(capture)[kind]:
        n = 1000 if kind == "phases" else 3000
        assert_matches_reference(get_workload(spec).trace(n))


def test_every_op_class_and_register_class_matches_reference():
    """Hand-built records over the whole op x register space, zero
    registers included."""
    registers = (None, 0, 5, 30, 31, 32, 40, 62, 63)
    records = []
    for op in OpClass:
        for dest in registers:
            for srcs in ((), (31,), (63, 2), (31, 63), (33, 1)):
                records.append(
                    Instruction(
                        seq=len(records),
                        pc=4 * len(records),
                        op=op,
                        dest=dest,
                        srcs=srcs,
                        addr=0x40 if op in MEM_OPS else None,
                        taken=(dest or 0) % 2 == 0 if op in BRANCH_OPS else None,
                        target=0x80 if op in BRANCH_OPS else None,
                    )
                )
    assert_matches_reference(records)


INVALID = {
    "dest-out-of-range": dict(op=OpClass.INT_ALU, dest=64),
    "negative-dest": dict(op=OpClass.INT_ALU, dest=-1),
    "three-sources": dict(op=OpClass.INT_ALU, dest=1, srcs=(2, 3, 4)),
    "source-out-of-range": dict(op=OpClass.INT_ALU, dest=1, srcs=(2, 64)),
    "negative-source": dict(op=OpClass.INT_ALU, srcs=(-1,)),
    "load-without-address": dict(op=OpClass.LOAD, dest=1, srcs=(2,)),
    "store-without-address": dict(op=OpClass.FP_STORE, srcs=(33, 2)),
    "branch-without-outcome": dict(op=OpClass.BRANCH, srcs=(1,)),
    "jump-without-outcome": dict(op=OpClass.JUMP, target=0x40),
    # Precedence: the register checks come before the op checks.
    "bad-dest-and-no-address": dict(op=OpClass.LOAD, dest=99),
    "bad-source-and-no-outcome": dict(op=OpClass.BRANCH, srcs=(70,)),
}


@pytest.mark.parametrize("case", sorted(INVALID))
def test_invalid_records_raise_like_reference(case):
    kwargs = dict(seq=3, pc=0x100, **INVALID[case])
    with pytest.raises(ValueError) as expected:
        reference_slots(**kwargs)
    with pytest.raises(ValueError) as actual:
        Instruction(**kwargs)
    assert type(actual.value) is type(expected.value)
    assert str(actual.value) == str(expected.value)


def test_invalid_records_are_rejected_every_time():
    """A rejected source tuple is never remembered as valid."""
    for _ in range(3):
        with pytest.raises(ValueError, match="out of range: 64"):
            Instruction(seq=0, pc=0, op=OpClass.INT_ALU, srcs=(64,))


@pytest.mark.parametrize("op", [99, -1, 5, "LOAD", None, 1.0, [5]])
def test_op_outside_opclass_is_a_value_error(op):
    with pytest.raises(ValueError, match="not an operation class"):
        Instruction(seq=0, pc=0, op=op, addr=0, taken=True)


def test_sources_given_as_a_list_still_validate():
    instr = Instruction(seq=0, pc=0, op=OpClass.INT_ALU, dest=1, srcs=[31, 2])
    assert instr.live_srcs() == (2,)
    with pytest.raises(ValueError, match="out of range: 64"):
        Instruction(seq=0, pc=0, op=OpClass.INT_ALU, srcs=[64])


@pytest.fixture
def record():
    return Instruction(
        seq=7, pc=0x1234, op=OpClass.FP_LOAD, dest=40, srcs=(31, 5), addr=0x800
    )


def test_record_is_immutable(record):
    for name in FIELDS + DERIVED:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
    assert type(record) is Instruction
    assert not hasattr(record, "__dict__")


def test_record_is_still_a_dataclass(record):
    assert dataclasses.is_dataclass(record)
    assert tuple(f.name for f in dataclasses.fields(record)) == FIELDS + DERIVED
    moved = dataclasses.replace(record, seq=8, addr=0x900)
    assert (moved.seq, moved.addr, moved.is_fp) == (8, 0x900, True)
    assert slots_of(moved) == reference_slots(
        *(getattr(moved, name) for name in FIELDS)
    )
    with pytest.raises(ValueError, match="without address"):
        dataclasses.replace(record, addr=None)


def test_repr_is_the_dataclass_repr(record):
    assert repr(record) == (
        "Instruction(seq=7, pc=4660, op=<OpClass.FP_LOAD: 7>, dest=40, "
        "srcs=(31, 5), addr=2048, size=8, taken=None, target=None)"
    )


@pytest.mark.parametrize(
    "clone",
    [
        lambda r: pickle.loads(pickle.dumps(r)),
        lambda r: pickle.loads(pickle.dumps(r, protocol=0)),
        copy.copy,
        copy.deepcopy,
    ],
)
def test_pickle_and_copy_round_trip(record, clone):
    twin = clone(record)
    assert type(twin) is Instruction
    assert twin == record and hash(twin) == hash(record)
    assert slots_of(twin) == slots_of(record)


def test_equality_and_hash_cover_the_nine_fields_only(record):
    same = Instruction(
        seq=7, pc=0x1234, op=OpClass.FP_LOAD, dest=40, srcs=(31, 5), addr=0x800
    )
    assert same == record and hash(same) == hash(record)
    assert hash(record) == hash(tuple(getattr(record, name) for name in FIELDS))
    for name, value in (("seq", 8), ("pc", 0), ("dest", 41), ("srcs", (5, 31)),
                        ("addr", 0x808), ("size", 4)):
        assert dataclasses.replace(record, **{name: value}) != record


def test_source_memo_holds_only_validated_tuples():
    from repro.isa.instructions import _LIVE_SRCS

    for bad in ((64,), (1, 2, 3), (-1, 2), (1.5,)):
        with pytest.raises(ValueError):
            Instruction(seq=0, pc=0, op=OpClass.INT_ALU, srcs=bad + (99,))
    Instruction(seq=0, pc=0, op=OpClass.INT_ALU, srcs=(1.5,))
    assert (1.5,) not in _LIVE_SRCS
    assert _LIVE_SRCS
    for srcs, live in _LIVE_SRCS.items():
        assert type(srcs) is tuple and len(srcs) <= 2
        assert all(type(s) is int and 0 <= s < NUM_REGS for s in srcs)
        assert live == tuple(s for s in srcs if not is_zero_reg(s))
    assert len(_LIVE_SRCS) <= 1 + NUM_REGS + NUM_REGS**2
