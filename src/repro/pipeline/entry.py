"""The in-flight instruction record shared by all core models."""

from __future__ import annotations

from repro.isa import Instruction
from repro.memory.cache import AccessLevel


class InFlight:
    """One dynamic instruction inside a machine.

    The record carries the dependence-wakeup state (``unready`` counter and
    ``waiters`` list) plus the timing milestones each core fills in.  Cores
    attach themselves via the ``where`` tag so the D-KIP can tell which of
    its structures currently owns the instruction.
    """

    __slots__ = (
        "instr",
        "fetch_cycle",
        "dispatch_cycle",
        "issue_cycle",
        "done_cycle",
        "executed",
        "issued",
        "unready",
        "waiters",
        "sources",
        "where",
        "mem_level",
        "long_latency",
        "ready_operand_bank",
        "mispredicted",
        "owner",
        "checkpoint",
    )

    def __init__(
        self, instr: Instruction, fetch_cycle: int, dispatch_cycle: int = -1
    ) -> None:
        self.instr = instr
        self.fetch_cycle = fetch_cycle
        self.dispatch_cycle = dispatch_cycle
        self.issue_cycle = -1
        self.done_cycle = -1
        self.executed = False          # value produced and visible
        self.issued = False            # sent to a functional unit
        self.unready = 0               # sources still outstanding
        self.waiters: list[InFlight] | None = None
        self.sources: tuple[InFlight, ...] = ()   # producers linked at dispatch
        self.where = ""                # owning structure tag ("cp", "llib", "mp", "sliq")
        self.mem_level: AccessLevel | None = None   # level that served a load
        self.long_latency = False      # D-KIP/KILO classification result
        self.ready_operand_bank = -1   # LLRF bank holding the READY operand
        self.mispredicted = False      # conditional branch whose prediction failed
        self.owner = None              # structure to notify when last source readies
        self.checkpoint = None         # D-KIP checkpoint this instruction writes to

    # ------------------------------------------------------------------

    @property
    def seq(self) -> int:
        return self.instr.seq

    def add_waiter(self, waiter: "InFlight") -> None:
        if self.waiters is None:
            self.waiters = [waiter]
        else:
            self.waiters.append(waiter)

    def take_waiters(self) -> list["InFlight"]:
        waiters = self.waiters or []
        self.waiters = None
        return waiters

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"InFlight(seq={self.seq}, op={self.instr.op.short_name}, "
            f"where={self.where!r}, unready={self.unready}, "
            f"issued={self.issued}, executed={self.executed})"
        )
