"""The full Decoupled KILO-Instruction Processor.

The machine chains three pipelines (Figure 8 of the paper):

* the **Cache Processor** — an R10000-style out-of-order core whose ROB is
  the Aging-ROB: its head is inspected by the *Analyze* stage a fixed
  number of cycles after dispatch;
* the **LLIBs** — one FIFO per cluster buffering low-locality slices
  together with their captured READY operands (LLRF);
* the **Memory Processors** — simple Future-File cores executing the
  low-locality code, with the **Address Processor** serving all memory
  operations through two global ports.

Execution model (Section 3.2): instructions are fetched and dispatched by
the CP and execute there if they issue before analysis.  At Analyze they
are classified:

* executed               → retire (short latency; LLBV bit of the
                           destination cleared);
* load known to miss L2  → long-latency load: dest marked in the LLBV,
                           the access continues in the Address Processor;
* reads an LLBV register → low-locality: inserted in its cluster's LLIB
                           (with its READY operand captured in the LLRF);
* otherwise              → short latency but still in flight: Analyze
                           stalls until its writeback (keeps checkpoints
                           consistent; the paper measures ~0.7% IPC loss).

Branch mispredictions resolve either in the CP (cheap: ROB/rename-stack
recovery plus fetch redirect) or — when the branch is part of a
low-locality slice — in the MP, where recovery restores a checkpoint,
clears the LLBV and pays ``recovery_penalty`` extra cycles.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterable

from repro.branch.base import BranchPredictor
from repro.branch.spec import canonical_predictor
from repro.isa import Instruction
from repro.machines.params import SpecError, parse_count, reject_unknown
from repro.machines.registry import MachineKind, register_machine
from repro.memory.cache import AccessLevel
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.entry import InFlight
from repro.pipeline.fu import FuKind, FuPool
from repro.pipeline.queues import IssueQueue
from repro.sim.config import DkipConfig
from repro.sim.stats import SimStats
from repro.baselines.ooo import R10Core
from repro.core.aging_rob import AgingRob
from repro.core.address_processor import AddressProcessor
from repro.core.checkpoint import CheckpointStack
from repro.core.llbv import LowLocalityBitVector
from repro.core.llib import LowLocalityInstructionBuffer
from repro.core.llrf import BankedRegisterFile
from repro.core.memory_processor import MemoryProcessor


class DkipProcessor(R10Core):
    """Cache Processor + LLIBs + Memory Processors + Address Processor."""

    def __init__(
        self,
        trace: Iterable[Instruction],
        config: DkipConfig,
        hierarchy: MemoryHierarchy,
        predictor: BranchPredictor,
        stats: SimStats | None = None,
    ) -> None:
        stats = stats or SimStats(config=config.name)
        cp = config.cache_processor
        super().__init__(trace, cp, hierarchy, predictor, stats)
        self.name = config.name
        self.dkip_config = config

        # The CP's ROB is the Aging-ROB; keep `self.rob` (a deque) for the
        # inherited dispatch/capacity logic and wrap it.
        self.aging_rob = AgingRob(cp.rob_size, config.rob_timer)
        self.rob = self.aging_rob._entries  # shared storage, single owner

        self.llbv = LowLocalityBitVector()
        self.ap = AddressProcessor(lsq_size=cp.lsq_size, mem_ports=cp.fus.mem_ports)
        self.lsq = self.ap.lsq  # the AP owns the LSQ (Section 3.3)

        self.llib_int = LowLocalityInstructionBuffer(
            "llib-int",
            config.llib_size,
            BankedRegisterFile(config.llrf_banks, config.llrf_bank_size),
        )
        self.llib_fp = LowLocalityInstructionBuffer(
            "llib-fp",
            config.llib_size,
            BankedRegisterFile(config.llrf_banks, config.llrf_bank_size),
        )
        self.mp_int = MemoryProcessor("mp-int", config.memory_processor)
        self.mp_fp = MemoryProcessor("mp-fp", config.memory_processor)
        self.checkpoints = CheckpointStack(
            config.checkpoint_stack, config.checkpoint_interval
        )
        #: Each LLIB with the Memory Processor it feeds.
        self._llib_to_mp = ((self.llib_int, self.mp_int), (self.llib_fp, self.mp_fp))
        #: Each MP with its unit claim: memory operations take the AP's
        #: global ports, everything else the MP's own units.
        self._mp_issue = tuple(
            (mp, self._mp_fu_claim(mp.fus)) for mp in (self.mp_int, self.mp_fp)
        )

    # ------------------------------------------------------------------
    # Per-cycle pipeline
    # ------------------------------------------------------------------

    def step(self) -> None:
        self.process_completions()
        self._analyze()
        self._extract()
        self.ap.new_cycle()
        self._issue()       # CP issue (inherited loop, AP ports for memory)
        self._issue_mps()   # MP issue
        self._dispatch(self.config.decode_width)  # into Aging-ROB + CP queues + LSQ
        self.fetch.cycle(self.now)

    def _try_take_fu(self, kind: FuKind) -> bool:
        """CP functional units, except memory which uses the AP's ports."""
        if kind == FuKind.MEM:
            return self.ap.try_take_port()
        return self.fus.try_take(kind)

    def _mp_fu_claim(self, fus: FuPool) -> Callable[[FuKind], bool]:
        """An issue-slot claim on an MP's units *fus* that sends memory
        operations to the AP's global ports instead."""
        take = fus.try_take
        take_port = self.ap.try_take_port
        mem = FuKind.MEM

        def take_fu(kind: FuKind) -> bool:
            return take_port() if kind == mem else take(kind)

        return take_fu

    # ------------------------------------------------------------------
    # Analyze stage
    # ------------------------------------------------------------------

    def _analyze(self) -> None:
        rob = self.rob  # the Aging-ROB's FIFO
        if not rob:
            return
        now = self.now
        timer = self.aging_rob.timer
        stats = self.stats
        width = self.config.commit_width
        analyzed = 0
        while analyzed < width and rob:
            entry = rob[0]
            if now - entry.dispatch_cycle < timer:
                break  # the head has not matured yet
            instr = entry.instr
            if entry.executed:
                # Short latency: retire from the CP.
                rob.popleft()
                if instr.is_mem:
                    if instr.is_store:
                        self.hierarchy.access(instr.addr, write=True, now=now)
                        self.lsq.store_committed(entry)
                    self.lsq.release()
                if instr.dest is not None:
                    self.llbv.clear_short_definition(instr.dest)
                self.committed += 1
                stats.committed_cp += 1
                analyzed += 1
                continue
            if (
                entry.issued
                and instr.is_load
                and entry.mem_level == AccessLevel.MEMORY
            ):
                # Long-latency load: the access continues in the AP; the
                # destination register is marked in the LLBV.
                rob.popleft()
                entry.long_latency = True
                self.ap.track_long_latency_load(entry)
                if instr.dest is not None:
                    self.llbv.mark(instr.dest, entry)
                analyzed += 1
                continue
            if not entry.issued and self.llbv.any_long_source(entry):
                # Low-locality slice member: insert into its LLIB.
                if not self._insert_into_llib(entry):
                    stats.analyze_stall_cycles += 1
                    stats.llib_full_stall_cycles += 1
                    break
                analyzed += 1
                continue
            # Short latency but still in flight: stall until writeback so
            # checkpointed state only ever contains architected values.
            stats.analyze_stall_cycles += 1
            break

    def _insert_into_llib(self, entry: InFlight) -> bool:
        """Move the Aging-ROB head into the right LLIB; False on stall."""
        instr = entry.instr
        llib = self.llib_fp if instr.is_fp else self.llib_int
        mp = self.mp_fp if instr.is_fp else self.mp_int
        if not llib.has_space:
            llib.full_stalls += 1
            return False
        has_ready_operand = self._has_ready_operand(entry)
        # Detach from the CP structures before handing over.
        old_owner = entry.owner
        if not llib.insert(entry, has_ready_operand):
            return False
        self.aging_rob.pop_head()
        if isinstance(old_owner, IssueQueue):
            old_owner.remove(entry)
            entry.owner = llib
        entry.long_latency = True
        if instr.dest is not None:
            self.llbv.mark(instr.dest, entry)
        # Checkpointing: slices carry at least one checkpoint, then one
        # every `interval` insertions.
        if self.checkpoints.should_take():
            tracked = tuple(
                reg
                for reg in instr.live_srcs()
                if self.llbv.is_long(reg)
            )
            taken = self.checkpoints.take(entry.seq, self.now, tracked)
            if taken is not None:
                self.stats.checkpoints_taken += 1
        entry.checkpoint = self.checkpoints.assign()
        self.stats.llib_insertions += 1
        self._update_llib_stats()
        return True

    def _has_ready_operand(self, entry: InFlight) -> bool:
        """Does the instruction carry a READY operand into the LLRF?

        An operand is READY when its register is not marked long latency
        and its producer (if any is still in flight) has written back.  The
        Alpha ISA guarantees at most one such operand per LLIB instruction.
        """
        unready_regs = {
            p.instr.dest for p in entry.sources if not p.executed
        }
        for src in entry.instr.live_srcs():
            if self.llbv.is_long(src):
                continue
            if src in unready_regs:
                continue
            return True
        return False

    def _update_llib_stats(self) -> None:
        s = self.stats
        if len(self.llib_int) > s.llib_max_instructions_int:
            s.llib_max_instructions_int = len(self.llib_int)
        if len(self.llib_fp) > s.llib_max_instructions_fp:
            s.llib_max_instructions_fp = len(self.llib_fp)
        if self.llib_int.llrf.max_occupancy > s.llib_max_registers_int:
            s.llib_max_registers_int = self.llib_int.llrf.max_occupancy
        if self.llib_fp.llrf.max_occupancy > s.llib_max_registers_fp:
            s.llib_max_registers_fp = self.llib_fp.llrf.max_occupancy

    # ------------------------------------------------------------------
    # LLIB → MP extraction
    # ------------------------------------------------------------------

    def _extract(self) -> None:
        for llib, mp in self._llib_to_mp:
            if not llib._entries:
                continue
            extracted = 0
            # Table 2: insertion/extraction rate of 4 per cycle per LLIB.
            while extracted < 4 and mp.has_space and llib.head_extractable():
                entry = llib.extract()
                mp.dispatch(entry)
                extracted += 1

    # ------------------------------------------------------------------
    # MP issue
    # ------------------------------------------------------------------

    def _issue_mps(self) -> None:
        execute = self._execute
        for mp, take_fu in self._mp_issue:
            if not mp.queue.occupancy:
                # Nothing dispatched to this MP: skip the per-cycle FU
                # reset and the select pass (state-identical — its unit
                # claims are only made from that pass).
                continue
            mp.fus.new_cycle()
            mp.queue.issue(mp.config.decode_width, take_fu, execute)

    # ------------------------------------------------------------------
    # Quiescence protocol
    # ------------------------------------------------------------------

    def next_work_cycle(self) -> int | None:
        now = self.now
        head = self.aging_rob.head_mature(now)
        if head is not None and self._analyze_progress_possible(head):
            return now
        if self._extract_possible():
            return now
        if (
            self.iq_int.next_issuable(now) is not None
            or self.iq_fp.next_issuable(now) is not None
            or self.mp_int.has_issuable(now)
            or self.mp_fp.has_issuable(now)
        ):
            return now
        if self._dispatch_possible():
            return now
        wake = self.fetch.next_fetch_cycle(now)
        if head is None:
            # An occupied Aging-ROB with an immature head is the one purely
            # time-driven Analyze condition; never jump past its maturity.
            maturity = self.aging_rob.head_maturity_cycle()
            if maturity is not None and maturity > now:
                wake = maturity if wake is None else min(wake, maturity)
        return wake

    def _analyze_progress_possible(self, entry: InFlight) -> bool:
        """Mirror of the first iteration of :meth:`_analyze`'s loop."""
        if entry.executed:
            return True
        instr = entry.instr
        if entry.issued and instr.is_load and entry.mem_level == AccessLevel.MEMORY:
            return True
        if not entry.issued and self.llbv.any_long_source(entry):
            return self._llib_insert_possible(entry)
        # Short latency still in flight: Analyze stalls until writeback.
        return False

    def _llib_insert_possible(self, entry: InFlight) -> bool:
        llib = self.llib_fp if entry.instr.is_fp else self.llib_int
        if not llib.has_space:
            return False
        if self._has_ready_operand(entry) and not llib.llrf.has_space:
            return False
        return True

    def _extract_possible(self) -> bool:
        for llib, mp in self._llib_to_mp:
            if mp.has_space and llib.head_extractable():
                return True
        return False

    def on_cycles_skipped(self, start: int, end: int) -> None:
        self.fetch.account_skipped(start, end)
        entry = self.aging_rob.head_mature(start)
        if entry is None:
            return  # empty or immature throughout the skipped range
        skipped = end - start
        if not entry.issued and self.llbv.any_long_source(entry):
            # Every skipped cycle would have attempted (and failed) an LLIB
            # insertion: replay the per-attempt stall accounting.
            self.stats.analyze_stall_cycles += skipped
            self.stats.llib_full_stall_cycles += skipped
            llib = self.llib_fp if entry.instr.is_fp else self.llib_int
            llib.full_stalls += skipped
            if llib.has_space:
                # The FIFO had room, so the LLRF allocation was what failed.
                llib.llrf.failed_allocations += skipped
        else:
            # Short latency still in flight: per-cycle Analyze stall.
            self.stats.analyze_stall_cycles += skipped

    def describe_stall(self) -> str:
        blockers = []
        for llib in (self.llib_int, self.llib_fp):
            load = llib.head_blocking_load()
            if load is not None:
                blockers.append(f"{llib.name} head waits on load seq={load.seq}")
        blocked = ("; " + ", ".join(blockers)) if blockers else ""
        return (
            f"aging_rob={len(self.aging_rob)}, llib_int={len(self.llib_int)}, "
            f"llib_fp={len(self.llib_fp)}, mp_int={self.mp_int.queue.occupancy}, "
            f"mp_fp={self.mp_fp.queue.occupancy}, {self.ap.describe_pending()}"
            f"{blocked}, {super().describe_stall()}"
        )

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------

    def on_complete(self, entry: InFlight) -> None:
        instr = entry.instr
        where = entry.where
        if where == "ap":
            # Long-latency load: value parked in the AP's FIFO; commits now.
            self.ap.deliver_value(entry)
            self.lsq.release()
            self.committed += 1
            self.stats.committed_cp += 1
        elif where == "mp":
            mp = self.mp_fp if instr.is_fp else self.mp_int
            mp.on_complete(entry)
            if instr.is_mem:
                if instr.is_store:
                    self.hierarchy.access(instr.addr, write=True, now=self.now)
                    self.lsq.store_committed(entry)
                self.lsq.release()
            # Results of low-locality code write into the checkpoint stack
            # (the only back-communication path: MP → CHPT → CP).
            self.checkpoints.writeback(entry.checkpoint)
            self.committed += 1
            self.stats.committed_mp += 1
        if instr.is_branch:
            penalty = 0
            if entry.mispredicted and entry.long_latency:
                # Low-locality misprediction: recover from a checkpoint.
                penalty = self.dkip_config.recovery_penalty
                self.checkpoints.recover(entry.seq)
                self.llbv.clear_all()
                self.stats.checkpoint_recoveries += 1
                if self.now - entry.dispatch_cycle > 64:
                    self.stats.long_latency_branch_mispredictions += 1
            self.fetch.on_branch_resolved(entry.seq, self.now + penalty)


# ----------------------------------------------------------------------
# Machine-kind registration (spec grammar lives in repro.machines)
# ----------------------------------------------------------------------

DKIP_GRAMMAR = (
    "dkip(llib=N, cp=INO|OOO-n, mp=INO|OOO-n, rob=N, iq=N, predictor=NAME, "
    "timer=N, banks=N, bank_size=N, checkpoints=N, interval=N, recovery=N, "
    "name=STR)"
)
_DKIP_KEYS = frozenset(
    {
        "llib", "cp", "mp", "rob", "iq", "predictor", "timer", "banks",
        "bank_size", "checkpoints", "interval", "recovery", "name",
    }
)


def _parse_dkip(params: dict[str, str]) -> DkipConfig:
    """Spec params -> DkipConfig; bare ``dkip`` is exactly D-KIP-2048.

    Scalar parameters apply first (``llib`` also renames to
    ``D-KIP-<llib>``; ``rob``, ``iq`` and ``predictor`` set the Cache
    Processor's fields and rename nothing), then ``cp``/``mp`` reuse
    :meth:`DkipConfig.with_cp` / :meth:`~DkipConfig.with_mp` — including
    their renaming — so a spec and its method-chain twin fingerprint
    identically; an explicit ``name=`` wins over everything.
    """
    reject_unknown("dkip", params, _DKIP_KEYS, DKIP_GRAMMAR)
    config = DkipConfig()
    if "llib" in params:
        llib = parse_count("dkip", "llib", params["llib"])
        config = replace(config, llib_size=llib, name=f"D-KIP-{llib}")
    if "timer" in params:
        config = replace(
            config, rob_timer=parse_count("dkip", "timer", params["timer"])
        )
    if "banks" in params:
        config = replace(
            config, llrf_banks=parse_count("dkip", "banks", params["banks"])
        )
    if "bank_size" in params:
        config = replace(
            config,
            llrf_bank_size=parse_count("dkip", "bank_size", params["bank_size"]),
        )
    if "checkpoints" in params:
        config = replace(
            config,
            checkpoint_stack=parse_count("dkip", "checkpoints", params["checkpoints"]),
        )
    if "interval" in params:
        config = replace(
            config,
            checkpoint_interval=parse_count("dkip", "interval", params["interval"]),
        )
    if "recovery" in params:
        config = replace(
            config, recovery_penalty=parse_count("dkip", "recovery", params["recovery"])
        )
    cp = config.cache_processor
    if "rob" in params:
        cp = replace(cp, rob_size=parse_count("dkip", "rob", params["rob"]))
    if "iq" in params:
        iq = parse_count("dkip", "iq", params["iq"])
        cp = replace(cp, iq_int=iq, iq_fp=iq)
    if "predictor" in params:
        try:
            bp = canonical_predictor(params["predictor"])
        except SpecError as error:
            raise SpecError(f"dkip: {error}; grammar: {DKIP_GRAMMAR}") from None
        cp = replace(cp, predictor=bp)
    if cp is not config.cache_processor:
        config = replace(config, cache_processor=cp)
    if "cp" in params:
        config = config.with_cp(params["cp"].strip().upper())
    if "mp" in params:
        config = config.with_mp(params["mp"].strip().upper())
    if "name" in params:
        config = replace(config, name=params["name"])
    return config


register_machine(
    MachineKind(
        name="dkip",
        config_cls=DkipConfig,
        build=lambda config, trace, hierarchy, predictor, stats=None: DkipProcessor(
            trace, config, hierarchy, predictor, stats
        ),
        parse=_parse_dkip,
        description="Decoupled KILO-Instruction Processor (CP + LLIBs + MPs)",
        grammar=DKIP_GRAMMAR,
    )
)
