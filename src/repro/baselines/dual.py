"""Shared-L2 dual-core machine: the ``dual`` machine kind.

Figures 11/12 of the paper vary memory pressure *explicitly* by shrinking
the L2 and stretching memory latency.  This kind produces the same
pressure *endogenously*: a second R10-style core — the co-runner — runs
an arbitrary workload beside the measured (primary) core, with private
L1s but one shared L2 behind an arbitration point
(:mod:`repro.memory.shared`).  The co-runner axis (``co=...``) then sweeps
contention the way Table 1 sweeps latency: a cache-hostile neighbour both
dirties the shared L2 and queues on its ports, lengthening the primary
core's effective memory latency.

Only the primary core's committed instructions count toward the run
target; the co-runner fetches from an unbounded instruction stream so it
never drains early.  Statistics are the primary core's, plus the shared
``l2_*`` counters (both cores), the ``l2_arb_*`` arbitration counters and
``co_committed`` (co-runner progress — the throughput the neighbour
achieved while interfering).
"""

from __future__ import annotations

from dataclasses import replace

from repro.baselines.ooo import R10Core
from repro.branch import make_predictor
from repro.memory.cache import Cache
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.shared import L2Arbiter, SharedL2View
from repro.pipeline.core import CycleCore
from repro.sim.config import DualConfig
from repro.sim.stats import SimStats
from repro.workloads.spec import parse_workload


class DualCore(CycleCore):
    """Two :class:`R10Core` pipelines stepped in lockstep over one L2.

    The dual machine is itself a :class:`CycleCore` so it plugs into the
    standard run loop; its own event queue stays empty and the quiescence
    hooks aggregate over the sub-cores — the machine may fast-forward
    only to the earliest cycle *either* core could make progress, so
    arbitration interleavings are identical with and without skipping.
    """

    def __init__(
        self,
        trace,
        config: DualConfig,
        hierarchy: MemoryHierarchy,
        predictor,
        stats: SimStats | None = None,
    ) -> None:
        stats = stats or SimStats(config=config.name)
        super().__init__(config.name, hierarchy, stats)
        self.config = config
        self.arbiter = L2Arbiter(config.l2_ports, config.l2_busy)
        # The primary core reuses the base hierarchy's L1 (so functional
        # warm-up applies to it), wrapped to arbitrate its L2 traffic.
        primary_view = SharedL2View(hierarchy, self.arbiter)
        self.primary = R10Core(trace, config.core, primary_view, predictor, stats)
        self._cores: list[R10Core] = [self.primary]
        self.co: R10Core | None = None
        if config.co != "none":
            workload = parse_workload(config.co, seed=config.co_seed)
            mem = hierarchy.config
            co_l1 = Cache(
                "L1-co", mem.l1_size, mem.l1_assoc, mem.line_size, mem.l1_latency
            )
            co_view = SharedL2View(hierarchy, self.arbiter, l1=co_l1)
            co_config = replace(config.core, name=config.core.name + "-co")
            self.co = R10Core(
                # Unbounded stream: the co-runner never exhausts its trace.
                workload.instructions(),
                co_config,
                co_view,
                make_predictor(config.core.predictor),
                SimStats(config=co_config.name),
            )
            self._cores.append(self.co)

    # ------------------------------------------------------------------

    def step(self) -> None:
        now = self.now
        # Fixed order (primary first) keeps arbitration deterministic.
        for core in self._cores:
            core.now = now
            core.step()
        self.committed = self.primary.committed

    # ------------------------------------------------------------------
    # Quiescence protocol: aggregate over both sub-cores
    # ------------------------------------------------------------------

    def next_work_cycle(self) -> int | None:
        now = self.now
        wake: int | None = None
        for core in self._cores:
            core.now = now
            w = core.next_work_cycle()
            if w is None:
                continue
            if w <= now:
                return now
            if wake is None or w < wake:
                wake = w
        return wake

    def next_event_cycle(self) -> int | None:
        cycles = [
            c for c in (core.next_event_cycle() for core in self._cores)
            if c is not None
        ]
        return min(cycles) if cycles else None

    def on_cycles_skipped(self, start: int, end: int) -> None:
        for core in self._cores:
            core.on_cycles_skipped(start, end)

    def describe_stall(self) -> str:
        parts = [f"{core.name}: {core.describe_stall()}" for core in self._cores]
        return "; ".join(parts)

    # ------------------------------------------------------------------

    def _copy_memory_stats(self) -> None:
        # L1 counters are the primary core's (it owns the base L1); the
        # L2/memory counters aggregate both cores by construction.
        super()._copy_memory_stats()
        self.stats.l2_arb_accesses = self.arbiter.accesses
        self.stats.l2_arb_conflicts = self.arbiter.conflicts
        self.stats.l2_arb_delay_cycles = self.arbiter.delay_cycles
        if self.co is not None:
            self.stats.co_committed = self.co.committed
