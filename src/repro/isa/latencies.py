"""Execution latencies per operation class.

Memory operations are *not* covered here: their latency is produced by the
cache hierarchy (:mod:`repro.memory`) at access time.  The values below
mirror the classic SimpleScalar/R10000-era latencies implied by the paper's
functional-unit mix (Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.opcodes import OpClass


@dataclass(frozen=True)
class LatencyTable:
    """Fixed execution latency (cycles) per non-memory operation class.

    Attributes:
        int_alu: Simple integer ops (1 cycle).
        int_mul: Integer multiply.
        fp_add: FP add/sub/compare/convert.
        fp_mul: FP multiply.
        fp_div: FP divide (unpipelined in the FU model).
        branch: Condition evaluation.
        agen: Address-generation component added to every memory access.
    """

    int_alu: int = 1
    int_mul: int = 3
    fp_add: int = 2
    fp_mul: int = 4
    fp_div: int = 12
    branch: int = 1
    agen: int = 1

    def __post_init__(self) -> None:
        # The cores read a latency for every issued instruction; the fields
        # are frozen, so the per-class tuple is built once, here.
        table = {
            OpClass.INT_ALU: self.int_alu,
            OpClass.INT_MUL: self.int_mul,
            OpClass.FP_ADD: self.fp_add,
            OpClass.FP_MUL: self.fp_mul,
            OpClass.FP_DIV: self.fp_div,
            OpClass.BRANCH: self.branch,
            OpClass.JUMP: self.branch,
            OpClass.NOP: 1,
            OpClass.LOAD: self.agen,
            OpClass.STORE: self.agen,
            OpClass.FP_LOAD: self.agen,
            OpClass.FP_STORE: self.agen,
        }
        #: Latency per operation class, indexed by the ``OpClass`` value.
        object.__setattr__(self, "by_op", tuple(
            table[OpClass(value)] for value in range(len(OpClass))
        ))

    def latency_of(self, op: OpClass) -> int:
        """Return the fixed latency of *op*.

        For loads/stores this is only the address-generation part; callers
        add the memory-system latency on top.
        """
        return self.by_op[op]


#: Default latencies used across the evaluation.
DEFAULT_LATENCIES = LatencyTable()
