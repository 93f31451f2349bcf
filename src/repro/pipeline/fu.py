"""Per-cycle functional-unit arbitration.

Functional units are modelled as per-cycle issue slots: an ``FuPool`` holds
the unit counts of Table 2 and hands out at most that many issues of each
kind per cycle.  Units are fully pipelined (a unit accepts a new operation
every cycle regardless of latency), matching the classic SimpleScalar
model for everything except FP divide, whose longer latency already
throttles throughput in practice.
"""

from __future__ import annotations

import enum

from repro.isa import OpClass
from repro.sim.config import FuConfig


class FuKind(enum.IntEnum):
    ALU = 0       # integer ALUs (also resolve branches)
    IMUL = 1      # integer multiplier
    FPADD = 2     # FP adders
    FPMUL = 3     # FP multiplier / divider
    MEM = 4       # memory ports (shared read/write)


_KIND_OF_OP = {
    OpClass.INT_ALU: FuKind.ALU,
    OpClass.BRANCH: FuKind.ALU,
    OpClass.JUMP: FuKind.ALU,
    OpClass.NOP: FuKind.ALU,
    OpClass.INT_MUL: FuKind.IMUL,
    OpClass.FP_ADD: FuKind.FPADD,
    OpClass.FP_MUL: FuKind.FPMUL,
    OpClass.FP_DIV: FuKind.FPMUL,
    OpClass.LOAD: FuKind.MEM,
    OpClass.STORE: FuKind.MEM,
    OpClass.FP_LOAD: FuKind.MEM,
    OpClass.FP_STORE: FuKind.MEM,
}


#: Functional-unit kind executing each operation class, indexed by the
#: ``OpClass`` value; the issue stage reads it once per issue attempt.
FU_OF_OP: tuple[FuKind, ...] = tuple(
    _KIND_OF_OP[OpClass(value)] for value in range(len(OpClass))
)


_ZERO_USED = [0, 0, 0, 0, 0]


class FuPool:
    """Issue-slot pool for one cycle; call :meth:`new_cycle` every cycle."""

    __slots__ = ("_limits", "_used")

    def __init__(self, config: FuConfig) -> None:
        self._limits = [
            config.int_alu,
            config.int_mul,
            config.fp_add,
            config.fp_mul,
            config.mem_ports,
        ]
        self._used = [0, 0, 0, 0, 0]

    def new_cycle(self) -> None:
        self._used[:] = _ZERO_USED

    def describe(self) -> str:
        """Slot usage summary for deadlock diagnostics."""
        return "/".join(
            f"{kind.name}:{self._used[kind]}of{self._limits[kind]}"
            for kind in FuKind
        )

    def try_take(self, kind: FuKind) -> bool:
        """Claim an issue slot of *kind*; False when all are taken."""
        used = self._used
        if used[kind] < self._limits[kind]:
            used[kind] += 1
            return True
        return False

    def available(self, kind: FuKind) -> int:
        k = int(kind)
        return self._limits[k] - self._used[k]
