"""R10000-style out-of-order core.

This is the conventional superscalar the paper uses both as its baseline
(R10-64, R10-256 in Figure 9) and as the starting point for the D-KIP's
Cache Processor: merged register file, ROB commit, bounded issue queues,
and a load/store queue, fetching four instructions per cycle behind a
perceptron branch predictor.

The per-cycle pipeline, in back-to-front order so a value produced this
cycle can be consumed this cycle but structural slots free up next cycle:

1. completions & wakeup (event wheel)
2. in-order commit from the ROB head
3. issue from the ready heaps / queue heads, limited by FUs and width
4. dispatch from the fetch buffer into ROB + issue queues + LSQ
5. fetch (stalls at mispredicted branches until they resolve)
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Iterable

from repro.branch.base import BranchPredictor
from repro.branch.spec import canonical_predictor
from repro.isa import Instruction
from repro.machines.params import SpecError, parse_count, reject_unknown
from repro.machines.registry import MachineKind, register_machine
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.core import CycleCore
from repro.pipeline.entry import InFlight
from repro.pipeline.fetch import FetchUnit
from repro.pipeline.fu import FuKind, FuPool
from repro.pipeline.lsq import LoadStoreQueue
from repro.pipeline.queues import IssueQueue
from repro.pipeline.regstate import RegisterTracker
from repro.sim.config import CoreConfig, SchedulerPolicy
from repro.sim.stats import SimStats

#: Resolve latencies above this count as long-latency mispredictions.
LONG_MISPREDICT_THRESHOLD = 64


class R10Core(CycleCore):
    """Conventional out-of-order processor parameterized by ``CoreConfig``."""

    def __init__(
        self,
        trace: Iterable[Instruction],
        config: CoreConfig,
        hierarchy: MemoryHierarchy,
        predictor: BranchPredictor,
        stats: SimStats | None = None,
    ) -> None:
        stats = stats or SimStats(config=config.name)
        super().__init__(config.name, hierarchy, stats)
        self.config = config
        self.fetch = FetchUnit(
            trace,
            config.fetch_width,
            config.fetch_buffer,
            predictor,
            config.mispredict_redirect,
            stats,
        )
        self.rob: deque[InFlight] = deque()
        self.iq_int = IssueQueue("iq-int", config.iq_int, config.scheduler)
        self.iq_fp = IssueQueue("iq-fp", config.iq_fp, config.scheduler)
        self.lsq = LoadStoreQueue(config.lsq_size)
        self.regs = RegisterTracker()
        self.fus = FuPool(config.fus)
        self._rob_size = config.rob_size
        self._cache_issue_queues()

    def _cache_issue_queues(self) -> None:
        """(Re)build the per-parity queue orders the issue stage walks;
        they alternate so neither cluster can starve the other at full
        issue bandwidth.  Must be called again by any subclass that
        replaces ``iq_int``/``iq_fp`` mid-run (runahead's checkpoint
        restore)."""
        self._queues_even = (self.iq_int, self.iq_fp)
        self._queues_odd = (self.iq_fp, self.iq_int)

    # ------------------------------------------------------------------

    def step(self) -> None:
        self.process_completions()
        rob = self.rob
        if rob and rob[0].executed:
            self._commit()
        self._issue()
        # Guards mirror the first-iteration exits of the stage loops: a
        # skipped call is one that would have returned without touching
        # any state.
        fetch = self.fetch
        if fetch.buffer and len(rob) < self._rob_size:
            self._dispatch(self.config.decode_width)
        fetch.cycle(self.now)

    def on_complete(self, entry: InFlight) -> None:
        instr = entry.instr
        if instr.is_branch:
            self.fetch.on_branch_resolved(entry.seq, self.now)
            if (
                entry.mispredicted
                and self.now - entry.dispatch_cycle > LONG_MISPREDICT_THRESHOLD
            ):
                self.stats.long_latency_branch_mispredictions += 1

    # ------------------------------------------------------------------
    # Quiescence protocol (see pipeline/core.py)
    # ------------------------------------------------------------------

    def next_work_cycle(self) -> int | None:
        now = self.now
        if self._commit_possible():
            return now
        if (
            self.iq_int.next_issuable(now) is not None
            or self.iq_fp.next_issuable(now) is not None
        ):
            return now
        if self._dispatch_possible():
            return now
        return self.fetch.next_fetch_cycle(now)

    def _commit_possible(self) -> bool:
        """Could the ROB head leave the machine next cycle?"""
        rob = self.rob
        return bool(rob) and rob[0].executed

    def _dispatch_possible(self) -> bool:
        """Mirror of the first iteration of :meth:`_dispatch`'s loop."""
        instr = self.fetch.peek()
        if instr is None or len(self.rob) >= self.config.rob_size:
            return False
        queue = self.iq_fp if instr.is_fp else self.iq_int
        if not queue.has_space:
            return False
        return not instr.is_mem or self.lsq.has_space

    def on_cycles_skipped(self, start: int, end: int) -> None:
        self.fetch.account_skipped(start, end)

    def describe_stall(self) -> str:
        return (
            f"rob={len(self.rob)}, fetch_buffer={len(self.fetch.buffer)}, "
            f"iq_int={self.iq_int.occupancy}, iq_fp={self.iq_fp.occupancy}, "
            f"lsq={self.lsq.occupancy}, {super().describe_stall()}"
        )

    # ------------------------------------------------------------------

    def _commit(self) -> None:
        rob = self.rob
        committed = 0
        width = self.config.commit_width
        now = self.now
        lsq = self.lsq
        while committed < width and rob and rob[0].executed:
            entry = rob.popleft()
            instr = entry.instr
            if instr.is_mem:
                if instr.is_store:
                    # Stores write the cache at commit; the latency is not
                    # on the critical path (retire from the store buffer).
                    self.hierarchy.access(instr.addr, write=True, now=now)
                    lsq.store_committed(entry)
                lsq.release()
            committed += 1
        self.committed += committed

    # ------------------------------------------------------------------

    def _try_take_fu(self, kind: FuKind) -> bool:
        """Claim an issue slot; subclasses reroute memory ports here."""
        return self.fus.try_take(kind)

    def _issue(self) -> None:
        queues = self._queues_even if self.now & 1 == 0 else self._queues_odd
        # Cheap idle guard: most stalled cycles have nothing issuable in
        # any window, so skip the per-cycle FU reset and the issue loop
        # entirely.  Container truthiness over-approximates issuability
        # (an unready in-order head or a stale heap entry passes), which
        # only means the loop below runs and finds nothing — the lazy
        # stale drops it performs then are state-identical either way.
        for queue in queues:
            if queue._ready_heap or queue._fifo:
                break
        else:
            return
        self.fus.new_cycle()
        budget = self.config.issue_width
        take_fu = self._try_take_fu
        execute = self._execute
        for queue in queues:
            budget = queue.issue(budget, take_fu, execute)
            if not budget:
                return

    def _execute(self, entry: InFlight) -> None:
        """Compute *entry*'s latency and schedule its completion."""
        now = self.now
        entry.issue_cycle = now
        instr = entry.instr
        if instr.is_load:
            latency = self.lsq.load_latency_if_forwarded(entry)
            if latency is None:
                mem_latency, level = self.hierarchy.access(
                    instr.addr, write=False, now=now
                )
                entry.mem_level = level
                latency = self.latencies.agen + mem_latency
        elif instr.is_store:
            # Address generation; data is written at commit.
            self.lsq.store_issued(entry)
            latency = self.latencies.agen
        else:
            latency = self.latencies.by_op[instr.op]
        self.schedule_completion(entry, now + latency)

    # ------------------------------------------------------------------

    def _dispatch(self, width: int) -> None:
        """Move up to *width* instructions from the fetch buffer into the
        ROB, their issue queue and (memory operations) the LSQ, renaming
        each on the way."""
        fetch = self.fetch
        buffer = fetch.buffer
        rob = self.rob
        iq_int = self.iq_int
        iq_fp = self.iq_fp
        now = self.now
        rename = self.regs.rename
        lsq = self.lsq
        waiting_seq = fetch.waiting_seq
        # Each pass moves one instruction from the buffer to the ROB; the
        # capacity checks read the queues' counters directly (this loop runs
        # once per dispatched instruction).
        for _ in range(min(width, len(buffer), self._rob_size - len(rob))):
            instr = buffer[0]
            queue = iq_fp if instr.is_fp else iq_int
            if queue.occupancy >= queue.size:
                return
            is_mem = instr.is_mem
            if is_mem and lsq.occupancy >= lsq.size:
                return
            buffer.popleft()
            entry = InFlight(instr, now, now)
            if instr.seq == waiting_seq:
                entry.mispredicted = True
            rename(entry)
            rob.append(entry)
            queue.add(entry)
            if is_mem:
                lsq.allocate()


# ----------------------------------------------------------------------
# Machine-kind registration (spec grammar lives in repro.machines)
# ----------------------------------------------------------------------

R10_GRAMMAR = (
    "r10(rob=N, iq=N, lsq=N, width=N, sched=ino|ooo, predictor=NAME, name=STR)"
)
_R10_KEYS = frozenset({"rob", "iq", "lsq", "width", "sched", "predictor", "name"})


def _parse_r10(params: dict[str, str]) -> CoreConfig:
    """Spec params -> CoreConfig; bare ``r10`` is exactly R10-64."""
    reject_unknown("r10", params, _R10_KEYS, R10_GRAMMAR)
    rob = parse_count("r10", "rob", params.get("rob", "64"))
    iq = parse_count("r10", "iq", params.get("iq", "40"))
    config = CoreConfig(
        name=params.get("name", f"R10-{rob}"), rob_size=rob, iq_int=iq, iq_fp=iq
    )
    if "width" in params:
        width = parse_count("r10", "width", params["width"])
        config = replace(
            config,
            fetch_width=width,
            decode_width=width,
            issue_width=width,
            commit_width=width,
        )
    if "lsq" in params:
        config = replace(config, lsq_size=parse_count("r10", "lsq", params["lsq"]))
    if "sched" in params:
        sched = params["sched"].strip().lower()
        if sched not in ("ino", "ooo"):
            raise SpecError(f"r10: sched={params['sched']!r} must be ino or ooo")
        config = replace(config, scheduler=SchedulerPolicy(sched))
    if "predictor" in params:
        try:
            bp = canonical_predictor(params["predictor"])
        except SpecError as error:
            raise SpecError(f"r10: {error}; grammar: {R10_GRAMMAR}") from None
        config = replace(config, predictor=bp)
    return config


register_machine(
    MachineKind(
        name="r10",
        config_cls=CoreConfig,
        build=lambda config, trace, hierarchy, predictor, stats=None: R10Core(
            trace, config, hierarchy, predictor, stats
        ),
        parse=_parse_r10,
        description="R10000-style out-of-order core (the Figure-9 baselines)",
        grammar=R10_GRAMMAR,
    )
)
