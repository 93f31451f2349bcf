"""Runahead execution baseline (Mutlu et al., HPCA 2003 — reference [24]).

The paper's related-work section positions runahead execution as the main
*alternative* to large instruction windows: when an L2 miss blocks the ROB
head, the processor checkpoints, pseudo-retires the blocking load and
keeps executing *speculatively* — not to make forward progress, but to
turn the loads it encounters into prefetches.  When the miss returns, the
machine rolls back to the checkpoint and re-executes the same
instructions, now hitting in the warmed cache.

Implementing it here lets the harness answer the natural question the
paper leaves to its citations: how much of the KILO-class benefit can a
conventional core get *without* any window scaling?  The expected shape —
which `benchmarks/test_ablation_runahead.py` asserts — is that runahead
lands between R10-64 and the true large-window machines on SpecFP
(prefetching overlaps misses but every runahead episode re-executes its
instructions), and does almost nothing for serial pointer chasing.

Model notes (trace-driven):

* Entering runahead saves the trace position; every instruction consumed
  during the episode is kept in a replay buffer.
* Speculative execution proceeds through the normal pipeline (so memory
  accesses warm the caches and branch outcomes resolve), but
  pseudo-retired instructions do not count as committed.
* When the blocking load completes, the pipeline state (ROB, queues,
  register links, LSQ) is rebuilt from scratch and the replay buffer is
  re-fed in front of the trace — the re-execution cost runahead pays.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Iterable, Iterator

from repro.branch.base import BranchPredictor
from repro.branch.spec import canonical_predictor
from repro.isa import Instruction
from repro.machines.params import SpecError, parse_count, reject_unknown
from repro.machines.registry import MachineKind, register_machine
from repro.memory.cache import AccessLevel
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.entry import InFlight
from repro.pipeline.fetch import FetchUnit
from repro.pipeline.fu import FuPool
from repro.pipeline.lsq import LoadStoreQueue
from repro.pipeline.queues import IssueQueue
from repro.pipeline.regstate import RegisterTracker
from repro.sim.config import CoreConfig, RunaheadConfig
from repro.sim.stats import SimStats
from repro.baselines.ooo import R10Core


class _ReplayingIterator:
    """Trace iterator with a rewindable tail for runahead episodes."""

    def __init__(self, trace: Iterable[Instruction]) -> None:
        self._trace = iter(trace)
        self._pending: deque[Instruction] = deque()
        self._recording: list[Instruction] | None = None

    def __iter__(self) -> Iterator[Instruction]:
        return self

    def __next__(self) -> Instruction:
        if self._pending:
            instr = self._pending.popleft()
        else:
            instr = next(self._trace)
        if self._recording is not None:
            self._recording.append(instr)
        return instr

    def start_recording(self) -> None:
        self._recording = []

    def rewind(self) -> int:
        """Push everything consumed since :meth:`start_recording` back."""
        recorded = self._recording or []
        self._recording = None
        for instr in reversed(recorded):
            self._pending.appendleft(instr)
        return len(recorded)


class RunaheadCore(R10Core):
    """R10000-style core with runahead execution on L2 misses."""

    def __init__(
        self,
        trace: Iterable[Instruction],
        config: CoreConfig,
        hierarchy: MemoryHierarchy,
        predictor: BranchPredictor,
        stats: SimStats | None = None,
        exit_penalty: int = 8,
    ) -> None:
        self._replay = _ReplayingIterator(trace)
        super().__init__(self._replay, config, hierarchy, predictor, stats)
        self.name = f"runahead-{config.rob_size}"
        self.exit_penalty = exit_penalty
        self.in_runahead = False
        self._blocking_load: InFlight | None = None
        self._last_episode_seq = -1
        #: Registers holding INV (poisoned) values during an episode.
        self._inv_regs: set[int] = set()
        self.runahead_episodes = 0
        self.runahead_pseudo_retired = 0

    # ------------------------------------------------------------------

    def step(self) -> None:
        self.process_completions()
        if self.in_runahead:
            self._maybe_exit_runahead()
        # Guards as in R10Core.step: a skipped call is one that would have
        # returned without touching any state.
        rob = self.rob
        if rob:
            self._commit()
        self._issue()
        fetch = self.fetch
        if fetch.buffer and len(rob) < self._rob_size:
            self._dispatch(self.config.decode_width)
        fetch.cycle(self.now)

    # ------------------------------------------------------------------

    def _commit(self) -> None:
        rob = self.rob
        width = self.config.commit_width
        done = 0
        while done < width and rob:
            head = rob[0]
            if head.executed:
                rob.popleft()
                instr = head.instr
                if instr.is_mem:
                    if instr.is_store and not self.in_runahead:
                        self.hierarchy.access(instr.addr, write=True, now=self.now)
                        self.lsq.store_committed(head)
                    elif instr.is_store:
                        self.lsq.store_committed(head)
                    self.lsq.release()
                if self.in_runahead:
                    self.runahead_pseudo_retired += 1
                else:
                    self.committed += 1
                done += 1
                continue
            if self.in_runahead and head.issued and head.instr.is_load:
                # A load missing *during* runahead is the point of the
                # exercise: it has become a prefetch.  Pseudo-retire it
                # with an INV destination so its dependents drain too.
                rob.popleft()
                self.lsq.release()
                dest = head.instr.dest
                if dest is not None:
                    self._inv_regs.add(dest)
                for waiter in head.take_waiters():
                    waiter.unready -= 1
                    if waiter.unready == 0 and waiter.owner is not None:
                        waiter.owner.wake(waiter)
                self.runahead_pseudo_retired += 1
                done += 1
                continue
            if (
                not self.in_runahead
                and head.issued
                and head.instr.is_load
                and head.mem_level == AccessLevel.MEMORY
                and head.seq != self._last_episode_seq
            ):
                # The classic trigger: an L2 miss blocks the ROB head.
                self._enter_runahead(head)
                # Pseudo-retire the blocking load so the window moves on.
                rob.popleft()
                self.lsq.release()
                self.runahead_pseudo_retired += 1
                done += 1
                continue
            break

    # ------------------------------------------------------------------

    def _enter_runahead(self, blocking_load: InFlight) -> None:
        self.in_runahead = True
        self._blocking_load = blocking_load
        # Re-entering on the same load would livelock when speculative
        # traffic evicts its line (the hardware latches the returned value;
        # our guard models that).
        self._last_episode_seq = blocking_load.seq
        self.runahead_episodes += 1
        self._replay.start_recording()
        # Instructions younger than the blocking load are already inside
        # the pipeline (consumed before recording started); they execute
        # speculatively during the episode and must be re-fed on exit,
        # ahead of whatever the recorder captures.
        self._inflight_at_entry = [
            e.instr for e in self.rob if e.seq > blocking_load.seq
        ]
        self._inflight_at_entry += list(self.fetch.buffer)
        # INV poisoning: the blocking load's destination delivers a bogus
        # value *immediately*, so its dependence tree executes (fast and
        # meaninglessly) instead of clogging the window — the mechanism
        # that lets runahead reach the future loads worth prefetching.
        self._inv_regs = set()
        if blocking_load.instr.dest is not None:
            self._inv_regs.add(blocking_load.instr.dest)
        waiters = blocking_load.take_waiters()
        for waiter in waiters:
            waiter.unready -= 1
            if waiter.unready == 0 and waiter.owner is not None:
                waiter.owner.wake(waiter)

    def _maybe_exit_runahead(self) -> None:
        blocking = self._blocking_load
        if blocking is None or not blocking.executed:
            return
        # Miss returned: squash speculative state and re-execute.
        recorded = self._replay.rewind()
        for instr in reversed(self._inflight_at_entry):
            self._replay._pending.appendleft(instr)
        # The returned line is latched by the hardware; keep it resident so
        # dependents hit even if speculation evicted it.
        self.hierarchy.touch(blocking.instr.addr)
        # The blocking load's value has arrived: it commits architecturally
        # at the restore (everything younger re-executes, it does not).
        self.committed += 1
        self.in_runahead = False
        self._blocking_load = None
        # Rebuild the pipeline from scratch (checkpoint restore).  Squashed
        # speculative entries keep their completion events; when one fires,
        # the inherited on_complete names a branch the new fetch unit is not
        # waiting on, so it is inert.
        config = self.config
        self.rob.clear()
        self.iq_int = IssueQueue("iq-int", config.iq_int, config.scheduler)
        self.iq_fp = IssueQueue("iq-fp", config.iq_fp, config.scheduler)
        self._cache_issue_queues()  # the inherited issue loop holds tuples
        self.lsq = LoadStoreQueue(config.lsq_size)
        self.regs = RegisterTracker()
        self.fus = FuPool(config.fus)
        self.fetch = FetchUnit(
            self._replay,
            config.fetch_width,
            config.fetch_buffer,
            self.fetch.predictor,
            config.mispredict_redirect,
            self.stats,
        )
        # Pipeline-refill penalty for the restore.
        self.fetch._resume_cycle = self.now + self.exit_penalty

    def _execute(self, entry: InFlight) -> None:
        if self.in_runahead:
            instr = entry.instr
            if not self._inv_regs.isdisjoint(instr.live_srcs()):
                # INV source: produce INV in one cycle; INV memory ops do
                # not access the cache (no pollution from bogus addresses).
                entry.issue_cycle = self.now
                if instr.dest is not None:
                    self._inv_regs.add(instr.dest)
                self.schedule_completion(entry, self.now + 1)
                return
            if instr.dest is not None:
                self._inv_regs.discard(instr.dest)
        super()._execute(entry)

    # ------------------------------------------------------------------
    # Quiescence protocol
    # ------------------------------------------------------------------

    def next_work_cycle(self) -> int | None:
        if (
            self.in_runahead
            and self._blocking_load is not None
            and self._blocking_load.executed
        ):
            # Defensive: exit processing is pending (normally handled in
            # the same step that completed the blocking load).
            return self.now
        return super().next_work_cycle()

    def _commit_possible(self) -> bool:
        """Runahead pseudo-retirement extends the commit conditions."""
        rob = self.rob
        if not rob:
            return False
        head = rob[0]
        if head.executed:
            return True
        if not head.issued or not head.instr.is_load:
            return False
        if self.in_runahead:
            return True  # an in-episode miss pseudo-retires with INV
        return (
            head.mem_level == AccessLevel.MEMORY
            and head.seq != self._last_episode_seq
        )


# ----------------------------------------------------------------------
# Machine-kind registration (spec grammar lives in repro.machines)
# ----------------------------------------------------------------------

RUNAHEAD_GRAMMAR = "runahead(rob=N, iq=N, exit=N, predictor=NAME, name=STR)"
_RUNAHEAD_KEYS = frozenset({"rob", "iq", "exit", "predictor", "name"})


def _parse_runahead(params: dict[str, str]) -> RunaheadConfig:
    """Spec params -> RunaheadConfig; bare ``runahead`` is runahead-64."""
    reject_unknown("runahead", params, _RUNAHEAD_KEYS, RUNAHEAD_GRAMMAR)
    rob = parse_count("runahead", "rob", params.get("rob", "64"))
    core = CoreConfig(name="runahead-fe", rob_size=rob)
    if "iq" in params:
        iq = parse_count("runahead", "iq", params["iq"])
        core = dataclasses.replace(core, iq_int=iq, iq_fp=iq)
    if "predictor" in params:
        try:
            bp = canonical_predictor(params["predictor"])
        except SpecError as error:
            raise SpecError(f"runahead: {error}; grammar: {RUNAHEAD_GRAMMAR}") from None
        core = dataclasses.replace(core, predictor=bp)
    return RunaheadConfig(
        name=params.get("name", f"runahead-{rob}"),
        core=core,
        exit_penalty=parse_count("runahead", "exit", params.get("exit", "8")),
    )


register_machine(
    MachineKind(
        name="runahead",
        config_cls=RunaheadConfig,
        build=lambda config, trace, hierarchy, predictor, stats=None: RunaheadCore(
            trace,
            config.core,
            hierarchy,
            predictor,
            stats,
            exit_penalty=config.exit_penalty,
        ),
        parse=_parse_runahead,
        description="Runahead-execution comparator (reference [24] ablations)",
        grammar=RUNAHEAD_GRAMMAR,
    )
)
