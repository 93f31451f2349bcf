"""Kernel DSL: the "assembler" with which synthetic workloads are written.

A :class:`Kernel` hands out architectural registers, assigns stable program
counters to named static sites (so branch predictors can learn each branch),
tracks the dynamic sequence number, and exposes one emit method per
operation class.  A workload is then an ordinary Python generator that calls
these methods and yields the resulting :class:`~repro.isa.Instruction`
records::

    def _run(self, k: Kernel):
        a = ArrayRef.alloc(k.space, 4096)
        acc, tmp = k.fregs(2)
        for i in itertools.count():
            yield k.load(tmp, addr=a.addr(i), fp=True)
            yield k.fadd(acc, acc, tmp)
            yield k.branch("loop", srcs=(k.zero,), taken=True)
"""

from __future__ import annotations

import random

from repro.isa import Instruction, OpClass
from repro.isa.registers import (
    FP_BASE,
    FP_ZERO,
    INT_ZERO,
    NUM_FP_REGS,
    NUM_INT_REGS,
    RegisterName,
)
from repro.trace.layout import AddressSpace


class Kernel:
    """Emission context for one workload instance.

    Attributes:
        rng: Seeded random source; the only source of randomness a workload
            may use, which keeps traces deterministic per seed.
        space: The workload's virtual address space.
        zero: The integer zero register (always READY; useful as a dummy
            source for unconditional loop branches).
    """

    def __init__(self, seed: int = 0, code_base: int = 0x0001_0000) -> None:
        self.rng = random.Random(seed)
        self.space = AddressSpace()
        self.zero: RegisterName = INT_ZERO
        self.fzero: RegisterName = FP_ZERO
        self._seq = 0
        self._code_base = code_base
        self._sites: dict[str, int] = {}
        self._next_site = code_base
        self._anon_pc = code_base + 0x0010_0000
        self._int_cursor = 1   # r0 reserved as a long-lived accumulator base
        self._fp_cursor = 0

    # ------------------------------------------------------------------
    # Register allocation
    # ------------------------------------------------------------------

    def iregs(self, count: int) -> list[RegisterName]:
        """Allocate *count* distinct integer registers (excluding r31)."""
        if self._int_cursor + count > NUM_INT_REGS - 1:
            raise ValueError(
                f"out of integer registers: wanted {count}, "
                f"only {NUM_INT_REGS - 1 - self._int_cursor} free"
            )
        regs = list(range(self._int_cursor, self._int_cursor + count))
        self._int_cursor += count
        return regs

    def fregs(self, count: int) -> list[RegisterName]:
        """Allocate *count* distinct floating-point registers (excluding f31)."""
        if self._fp_cursor + count > NUM_FP_REGS - 1:
            raise ValueError(
                f"out of fp registers: wanted {count}, "
                f"only {NUM_FP_REGS - 1 - self._fp_cursor} free"
            )
        regs = [FP_BASE + i for i in range(self._fp_cursor, self._fp_cursor + count)]
        self._fp_cursor += count
        return regs

    # ------------------------------------------------------------------
    # Program counters
    # ------------------------------------------------------------------

    def site(self, name: str) -> int:
        """Return a stable pc for the named static instruction site."""
        pc = self._sites.get(name)
        if pc is None:
            pc = self._next_site
            self._sites[name] = pc
            self._next_site += 4
        return pc

    def _pc(self, site: str | None) -> int:
        if site is not None:
            return self.site(site)
        pc = self._anon_pc
        # Rotate anonymous pcs through a 4 KiB window; non-branch pcs only
        # need to be plausible, nothing keys off them.
        self._anon_pc = self._code_base + 0x0010_0000 + ((pc + 4) & 0xFFF)
        return pc

    def _emit(
        self,
        op: OpClass,
        dest: RegisterName | None = None,
        srcs: tuple[RegisterName, ...] = (),
        addr: int | None = None,
        size: int = 8,
        taken: bool | None = None,
        target: int | None = None,
        site: str | None = None,
    ) -> Instruction:
        # Positional: a keyword call to a class builds a dict per record.
        instr = Instruction(
            self._seq, self._pc(site), op, dest, srcs, addr, size, taken, target
        )
        self._seq += 1
        return instr

    # ------------------------------------------------------------------
    # Integer operations
    # ------------------------------------------------------------------

    def alu(self, dest: RegisterName, *srcs: RegisterName) -> Instruction:
        """Integer ALU operation (add/sub/logic/shift — 1 cycle)."""
        return self._emit(OpClass.INT_ALU, dest=dest, srcs=tuple(srcs))

    def mul(self, dest: RegisterName, *srcs: RegisterName) -> Instruction:
        """Integer multiply."""
        return self._emit(OpClass.INT_MUL, dest=dest, srcs=tuple(srcs))

    # ------------------------------------------------------------------
    # Floating-point operations
    # ------------------------------------------------------------------

    def fadd(self, dest: RegisterName, *srcs: RegisterName) -> Instruction:
        return self._emit(OpClass.FP_ADD, dest=dest, srcs=tuple(srcs))

    def fmul(self, dest: RegisterName, *srcs: RegisterName) -> Instruction:
        return self._emit(OpClass.FP_MUL, dest=dest, srcs=tuple(srcs))

    def fdiv(self, dest: RegisterName, *srcs: RegisterName) -> Instruction:
        return self._emit(OpClass.FP_DIV, dest=dest, srcs=tuple(srcs))

    # ------------------------------------------------------------------
    # Memory operations
    # ------------------------------------------------------------------

    def load(
        self,
        dest: RegisterName,
        addr: int,
        base: RegisterName | None = None,
        size: int = 8,
        fp: bool = False,
    ) -> Instruction:
        """Load into *dest* from *addr*; *base* is the address register.

        When *base* is omitted the zero register is used, modelling an
        absolute/global access whose address is available immediately.
        Pointer-chasing workloads pass the register holding the previous
        load's result as *base*, creating the serial dependence the paper's
        SpecINT analysis hinges on.
        """
        op = OpClass.FP_LOAD if fp else OpClass.LOAD
        srcs = (base if base is not None else self.zero,)
        return self._emit(op, dest=dest, srcs=srcs, addr=addr, size=size)

    def store(
        self,
        value: RegisterName,
        addr: int,
        base: RegisterName | None = None,
        size: int = 8,
        fp: bool = False,
    ) -> Instruction:
        """Store register *value* to *addr*."""
        op = OpClass.FP_STORE if fp else OpClass.STORE
        srcs = (value, base if base is not None else self.zero)
        return self._emit(op, srcs=srcs, addr=addr, size=size)

    # ------------------------------------------------------------------
    # Control flow
    # ------------------------------------------------------------------

    def branch(
        self,
        site: str,
        srcs: tuple[RegisterName, ...],
        taken: bool,
        target: int = 0,
    ) -> Instruction:
        """Conditional branch at the named static site.

        The branch resolves when its *srcs* are ready; a branch whose source
        is a missed load therefore resolves a full memory latency after
        fetch — the low-locality branch of Section 2.
        """
        return self._emit(
            OpClass.BRANCH, srcs=srcs, taken=taken, target=target, site=site
        )

    def loop_branch(self, site: str, taken: bool = True) -> Instruction:
        """Loop back-edge branch depending only on a ready counter.

        Modelled as sourcing the zero register: loop trip counters are
        short-latency and effectively always ready.
        """
        return self.branch(site, srcs=(self.zero,), taken=taken)

    def jump(self, site: str, target: int = 0) -> Instruction:
        """Unconditional jump (always taken, trivially predicted)."""
        return self._emit(OpClass.JUMP, taken=True, target=target, site=site)

    def nop(self) -> Instruction:
        return self._emit(OpClass.NOP)
