"""The dynamic instruction record flowing through every simulator.

An :class:`Instruction` is one *dynamic* instruction of a trace: it carries
its sequence number, program counter, operation class, architectural
registers, and — because our simulators are trace driven — the resolved
memory address and branch outcome.  Timing models never mutate instructions;
all per-core state lives in the cores' own in-flight records.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.opcodes import BRANCH_OPS, FP_OPS, LOAD_OPS, MEM_OPS, OpClass, STORE_OPS
from repro.isa.registers import (
    FP_BASE,
    NUM_REGS,
    RegisterName,
    is_zero_reg,
    reg_name,
)


@dataclass(slots=True, frozen=True, init=False)
class Instruction:
    """One dynamic instruction.

    Attributes:
        seq: Position in the dynamic instruction stream (0-based).
        pc: Program counter of the static instruction (byte address).
        op: Operation class (decides functional unit and latency).
        dest: Destination register id, or ``None`` when the instruction does
            not produce a register value (stores, branches, nops).
        srcs: Source register ids (0, 1 or 2 entries; zero registers are
            allowed and treated as always ready).
        addr: Effective memory address for loads/stores, else ``None``.
        size: Memory access size in bytes (loads/stores only).
        taken: Branch outcome for control-flow instructions, else ``None``.
        target: Branch/jump target pc, else ``None``.

    Every trace is built of these records, so construction is the cost
    trace generation and decoding pay per instruction.  :meth:`__new__`
    validates the nine fields, fills all sixteen slots with plain stores
    on a :class:`_Draft` (same layout, ordinary ``__setattr__``) and then
    retypes the draft as an ``Instruction``; from there on assignment and
    deletion raise ``FrozenInstanceError`` as on any frozen dataclass.
    """

    seq: int
    pc: int
    op: OpClass
    dest: RegisterName | None = None
    srcs: tuple[RegisterName, ...] = ()
    addr: int | None = None
    size: int = 8
    taken: bool | None = None
    target: int | None = None

    # -- classification flags (hot paths read these constantly) -----------
    # Precomputed once at construction; excluded from comparison/hash/repr
    # so equality semantics match the nine architectural fields above.
    is_load: bool = field(init=False, compare=False, repr=False)
    is_store: bool = field(init=False, compare=False, repr=False)
    is_mem: bool = field(init=False, compare=False, repr=False)
    is_branch: bool = field(init=False, compare=False, repr=False)
    is_cond_branch: bool = field(init=False, compare=False, repr=False)
    #: True when the instruction executes on the FP cluster.  The D-KIP
    #: routes instructions to the integer or floating-point LLIB based on
    #: this flag (Section 3.2: "There is one LLIB for floating point and
    #: another LLIB for integer instructions").
    is_fp: bool = field(init=False, compare=False, repr=False)
    _live_srcs: tuple[RegisterName, ...] = field(init=False, compare=False, repr=False)

    def __new__(
        cls,
        seq: int,
        pc: int,
        op: OpClass,
        dest: RegisterName | None = None,
        srcs: tuple[RegisterName, ...] = (),
        addr: int | None = None,
        size: int = 8,
        taken: bool | None = None,
        target: int | None = None,
    ) -> Instruction:
        if dest is not None and not 0 <= dest < NUM_REGS:
            raise ValueError(f"dest register out of range: {dest}")
        try:
            live_srcs = _LIVE_SRCS[srcs]
        except (KeyError, TypeError):  # not seen yet, or unhashable (a list)
            live_srcs = _checked_live_srcs(srcs)
        if type(op) is not OpClass:
            raise ValueError(f"not an operation class: {op!r}")
        is_load, is_store, is_mem, is_branch, is_cond_branch, fp_op = _OP_FLAGS[op]
        self = object.__new__(_Draft)
        self.seq = seq
        self.pc = pc
        self.op = op
        self.dest = dest
        self.srcs = srcs
        self.addr = addr
        self.size = size
        self.taken = taken
        self.target = target
        self.is_load = is_load
        self.is_store = is_store
        self.is_mem = is_mem
        self.is_branch = is_branch
        self.is_cond_branch = is_cond_branch
        self.is_fp = fp_op or (dest is not None and dest >= FP_BASE)
        self._live_srcs = live_srcs
        self.__class__ = cls
        if is_mem and addr is None:
            raise ValueError(f"memory instruction without address: {self}")
        if is_branch and taken is None:
            raise ValueError(f"branch instruction without outcome: {self}")
        return self

    def __reduce__(self):
        # Pickle and copy rebuild through the constructor, checks included.
        return (
            type(self),
            (
                self.seq,
                self.pc,
                self.op,
                self.dest,
                self.srcs,
                self.addr,
                self.size,
                self.taken,
                self.target,
            ),
        )

    def live_srcs(self) -> tuple[RegisterName, ...]:
        """Source registers excluding the hardwired zero registers."""
        return self._live_srcs

    def disassemble(self) -> str:
        """Render a human-readable one-line disassembly."""
        parts = [f"{self.seq:>8d}", f"0x{self.pc:08x}", f"{self.op.short_name:<5s}"]
        operands = []
        if self.dest is not None:
            operands.append(reg_name(self.dest))
        operands.extend(reg_name(s) for s in self.srcs)
        parts.append(", ".join(operands))
        if self.addr is not None:
            parts.append(f"[0x{self.addr:x}]")
        if self.taken is not None:
            parts.append("T" if self.taken else "NT")
        return " ".join(p for p in parts if p)


class _Draft(Instruction):
    """An :class:`Instruction` under construction: the same slots, but
    plain attribute stores, so :meth:`Instruction.__new__` fills them at
    slot-store speed before retyping the object."""

    __slots__ = ()
    # Both hooks must be object's own for the stores to take the fast path.
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__


#: Per operation class: is_load, is_store, is_mem, is_branch,
#: is_cond_branch, and whether the class itself runs on the FP cluster.
_OP_FLAGS = {
    op: (
        op in LOAD_OPS,
        op in STORE_OPS,
        op in MEM_OPS,
        op in BRANCH_OPS,
        op == OpClass.BRANCH,
        op in FP_OPS,
    )
    for op in OpClass
}

#: Validated source tuple -> its live sources, shared by every record
#: with those sources.  Only tuples of int register ids that passed the
#: checks are inserted, so it never holds more than 1 + 64 + 64**2 keys.
_LIVE_SRCS: dict[tuple[RegisterName, ...], tuple[RegisterName, ...]] = {}


def _checked_live_srcs(srcs) -> tuple[RegisterName, ...]:
    """Validate *srcs* and return it without the hardwired zero registers."""
    if len(srcs) > 2:
        raise ValueError("Alpha-like ISA allows at most 2 source registers")
    for src in srcs:
        if not 0 <= src < NUM_REGS:
            raise ValueError(f"source register out of range: {src}")
    live = tuple(s for s in srcs if not is_zero_reg(s))
    if type(srcs) is tuple and all(type(s) is int for s in srcs):
        _LIVE_SRCS[srcs] = live
    return live


class InstructionBuilder:
    """Incremental builder assigning sequence numbers and pcs.

    Convenience for tests and small hand-written traces; the workload DSL in
    :mod:`repro.trace.kernel` builds on richer machinery.
    """

    def __init__(self, start_pc: int = 0x1000) -> None:
        self._seq = 0
        self._pc = start_pc

    @property
    def next_seq(self) -> int:
        return self._seq

    def emit(
        self,
        op: OpClass,
        dest: RegisterName | None = None,
        srcs: tuple[RegisterName, ...] = (),
        addr: int | None = None,
        size: int = 8,
        taken: bool | None = None,
        target: int | None = None,
        pc: int | None = None,
    ) -> Instruction:
        """Create the next instruction in sequence."""
        if pc is None:
            pc = self._pc
        instr = Instruction(
            seq=self._seq,
            pc=pc,
            op=op,
            dest=dest,
            srcs=srcs,
            addr=addr,
            size=size,
            taken=taken,
            target=target,
        )
        self._seq += 1
        self._pc = pc + 4
        return instr

    def alu(self, dest: RegisterName, *srcs: RegisterName) -> Instruction:
        return self.emit(OpClass.INT_ALU, dest=dest, srcs=tuple(srcs))

    def load(self, dest: RegisterName, base: RegisterName, addr: int) -> Instruction:
        return self.emit(OpClass.LOAD, dest=dest, srcs=(base,), addr=addr)

    def store(self, src: RegisterName, base: RegisterName, addr: int) -> Instruction:
        return self.emit(OpClass.STORE, srcs=(src, base), addr=addr)

    def branch(self, src: RegisterName, taken: bool, target: int = 0) -> Instruction:
        return self.emit(OpClass.BRANCH, srcs=(src,), taken=taken, target=target)
