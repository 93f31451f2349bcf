"""Machine configurations: Tables 2 and 3 of the paper, plus the named
processor models compared in Figure 9 (R10-64, R10-256, KILO-1024,
D-KIP-2048).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.fingerprint import Fingerprintable


class SchedulerPolicy(str, enum.Enum):
    """Issue-queue scheduling discipline (Figure 10's INO/OOO axis)."""

    IN_ORDER = "ino"
    OUT_OF_ORDER = "ooo"


@dataclass(frozen=True)
class FuConfig(Fingerprintable):
    """Functional-unit counts (Table 2)."""

    int_alu: int = 4
    int_mul: int = 1
    fp_add: int = 4
    fp_mul: int = 1
    mem_ports: int = 2


@dataclass(frozen=True)
class CoreConfig(Fingerprintable):
    """Parameters of one R10000-style out-of-order core.

    Also used for the D-KIP's Cache Processor (with ``rob_size`` acting as
    the Aging-ROB capacity) and, with small queue sizes, for the Memory
    Processors.
    """

    name: str = "core"
    fetch_width: int = 4
    decode_width: int = 4
    issue_width: int = 4
    commit_width: int = 4
    rob_size: int = 64
    iq_int: int = 40
    iq_fp: int = 40
    scheduler: SchedulerPolicy = SchedulerPolicy.OUT_OF_ORDER
    lsq_size: int = 512
    fetch_buffer: int = 16
    mispredict_redirect: int = 5
    fus: FuConfig = field(default_factory=FuConfig)
    predictor: str = "perceptron"

    def with_queues(self, size: int, scheduler: SchedulerPolicy) -> "CoreConfig":
        """Clone with both issue queues resized (Figure 10 sweep)."""
        label = (
            "INO" if scheduler == SchedulerPolicy.IN_ORDER else f"OOO-{size}"
        )
        return replace(
            self, name=label, iq_int=size, iq_fp=size, scheduler=scheduler
        )


@dataclass(frozen=True)
class KiloConfig(Fingerprintable):
    """The KILO-1024 comparator: pseudo-ROB + Slow Lane Instruction Queue.

    Models reference [9] of the paper (Cristal et al., "Out-of-order commit
    processors"): a 64-entry pseudo-ROB whose head streams long-latency
    instructions into a 1024-entry out-of-order SLIQ; issue queues of 72.
    """

    name: str = "KILO-1024"
    core: CoreConfig = field(
        default_factory=lambda: CoreConfig(name="kilo-fe", iq_int=72, iq_fp=72)
    )
    pseudo_rob: int = 64
    rob_timer: int = 16
    sliq_size: int = 1024
    recovery_penalty: int = 16
    #: Cycles between SLIQ insertion and issue eligibility: the slow lane
    #: re-dispatches instructions into the issue queues through extra
    #: pipeline stages (Cristal et al.).  Irrelevant for 400-cycle slices.
    sliq_reissue_delay: int = 4
    #: SLIQ re-insertions per cycle, shared with front-end dispatch: woken
    #: slow-lane instructions re-enter the issue queues through the same
    #: 4-wide rename/dispatch ports as newly fetched instructions, so heavy
    #: slice traffic steals front-end bandwidth.  This is the implementation
    #: cost that keeps the single-queue KILO below the D-KIP on SpecFP in
    #: the paper while leaving SpecINT (few slices) untouched.
    sliq_reissue_width: int = 4

    @property
    def predictor(self) -> str:
        """The front-end core's branch predictor (the runner reads this)."""
        return self.core.predictor


@dataclass(frozen=True)
class MemoryProcessorConfig(Fingerprintable):
    """One Memory Processor (Future File architecture, Table 2)."""

    decode_width: int = 4
    queue_size: int = 20
    scheduler: SchedulerPolicy = SchedulerPolicy.IN_ORDER
    fus: FuConfig = field(default_factory=lambda: FuConfig(mem_ports=1))


@dataclass(frozen=True)
class DkipConfig(Fingerprintable):
    """The full Decoupled KILO-Instruction Processor (Tables 2 and 3).

    Defaults reproduce the paper's baseline D-KIP-2048: an out-of-order
    Cache Processor with 40-entry queues and a 64-entry Aging-ROB (16-cycle
    timer x 4-wide), two 2048-entry LLIBs, an 8-bank LLRF, and two in-order
    Future-File Memory Processors with 20-entry queues.
    """

    name: str = "D-KIP-2048"
    cache_processor: CoreConfig = field(
        default_factory=lambda: CoreConfig(name="cp", rob_size=64, iq_int=40, iq_fp=40)
    )
    rob_timer: int = 16
    memory_processor: MemoryProcessorConfig = field(
        default_factory=MemoryProcessorConfig
    )
    llib_size: int = 2048
    llrf_banks: int = 8
    llrf_bank_size: int = 256
    checkpoint_stack: int = 8
    checkpoint_interval: int = 256
    recovery_penalty: int = 16

    @property
    def predictor(self) -> str:
        """The Cache Processor's branch predictor (the runner reads this)."""
        return self.cache_processor.predictor

    def with_cp(self, size_or_policy: str) -> "DkipConfig":
        """Clone with the CP queue configuration named like the paper
        ("INO", "OOO-20" ... "OOO-80")."""
        policy, size = _parse_queue_config(size_or_policy)
        cp = self.cache_processor.with_queues(size, policy)
        return replace(self, name=f"CP-{size_or_policy}", cache_processor=cp)

    def with_mp(self, size_or_policy: str) -> "DkipConfig":
        """Clone with the MP configuration ("INO", "OOO-20", "OOO-40")."""
        policy, size = _parse_queue_config(size_or_policy)
        mp = replace(self.memory_processor, queue_size=size, scheduler=policy)
        return replace(self, name=f"{self.name}/MP-{size_or_policy}", memory_processor=mp)


def _parse_queue_config(spec: str) -> tuple[SchedulerPolicy, int]:
    """Parse the paper's queue-config notation: "INO" or "OOO-<size>".

    The size must be a strictly positive decimal integer — ``OOO-0``,
    negative sizes and non-numeric tails are rejected with the allowed
    grammar in the message.
    """
    text = spec.upper()
    if text == "INO":
        return SchedulerPolicy.IN_ORDER, 20
    if text.startswith("OOO-"):
        tail = text[len("OOO-"):]
        if not tail.isdigit() or int(tail) <= 0:
            raise ValueError(
                f"bad queue size in {spec!r}; expected OOO-<positive "
                "integer> (e.g. OOO-40) or INO"
            )
        return SchedulerPolicy.OUT_OF_ORDER, int(tail)
    raise ValueError(
        f"bad queue configuration {spec!r}; expected INO or OOO-<positive "
        "integer> (e.g. OOO-40)"
    )


@dataclass(frozen=True)
class RunaheadConfig(Fingerprintable):
    """Runahead-execution comparator (Mutlu et al. — reference [24]).

    Not a paper figure: used by the ablation harness to quantify how much
    of the KILO-class benefit plain prefetch-by-pre-execution captures.
    """

    name: str = "runahead-64"
    core: CoreConfig = field(default_factory=lambda: CoreConfig(name="runahead-fe"))
    exit_penalty: int = 8

    @property
    def predictor(self) -> str:
        """The front-end core's branch predictor (the runner reads this)."""
        return self.core.predictor


@dataclass(frozen=True)
class LimitMachine(Fingerprintable):
    """Descriptor of one idealized ROB-only run (Figures 1-3).

    :func:`repro.baselines.limit.simulate_limit` takes loose arguments
    rather than a config object; this dataclass captures them so limit
    cells fingerprint and replay through the result store exactly like
    the cycle-level machines.
    """

    rob_size: int | None = None
    predictor: str = "perceptron"
    width: int = 4
    redirect_penalty: int = 5
    record_histogram: bool = True

    @property
    def name(self) -> str:
        rob = "inf" if self.rob_size is None else self.rob_size
        return f"limit-rob-{rob}"


# ----------------------------------------------------------------------
# The named machines of Figure 9
# ----------------------------------------------------------------------

#: MIPS R10000-like baseline: 64-entry ROB, 40-entry queues (identical to
#: the default Cache Processor).
R10_64 = CoreConfig(name="R10-64", rob_size=64, iq_int=40, iq_fp=40)

#: "Futuristic" R10000: 256-entry ROB, 160-entry queues.
R10_256 = CoreConfig(name="R10-256", rob_size=256, iq_int=160, iq_fp=160)

#: KILO-1024 (pseudo-ROB 64 + out-of-order 1024-entry SLIQ, 72-entry IQs).
KILO_1024 = KiloConfig()

#: The paper's baseline D-KIP with two 2048-entry LLIBs.
DKIP_2048 = DkipConfig()
