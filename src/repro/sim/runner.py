"""Run orchestration: build a machine, warm its caches, simulate a trace.

The experiment harnesses (and the examples) go through these helpers so
that every run follows the same methodology: deterministic workload trace,
functional cache warm-up over the workload's data regions, fresh predictor
state, one simulator instance per run.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.branch import make_predictor
from repro.isa import Instruction
from repro.machines.registry import MachineDescription, build_machine
from repro.memory import DEFAULT_MEMORY, MemoryConfig, MemoryHierarchy, warm_caches
from repro.sim.stats import SimStats

#: Any machine configuration whose kind is registered with
#: :mod:`repro.machines` — the open-ended replacement for the old closed
#: Union of the four paper models.
MachineConfig = MachineDescription


def build_core(
    config: MachineConfig,
    trace: Iterable[Instruction],
    hierarchy: MemoryHierarchy,
    predictor,
    stats: SimStats | None = None,
):
    """Instantiate the simulator for *config* via the machine-kind
    registry (raises ``TypeError`` for unregistered config types)."""
    return build_machine(config, trace, hierarchy, predictor, stats)


def prepare(
    config: MachineConfig,
    trace: Sequence[Instruction],
    memory: MemoryConfig = DEFAULT_MEMORY,
    regions: Sequence[tuple[int, int]] | None = None,
    hierarchy: MemoryHierarchy | None = None,
):
    """Build one simulation; returns ``(core, predictor)``.

    The construction path :func:`simulate` and
    :class:`repro.sim.batch.BatchRunner` share: a functionally warmed
    hierarchy (unless one is given), a fresh instance of the branch
    predictor the machine config names, and the machine built through the
    kind registry over *trace*.
    """
    if hierarchy is None:
        hierarchy = MemoryHierarchy(memory)
        if regions:
            warm_caches(hierarchy, regions)
    predictor = make_predictor(config.predictor)
    stats = SimStats(config=getattr(config, "name", str(config)))
    return build_core(config, iter(trace), hierarchy, predictor, stats), predictor


def finalize(stats: SimStats, predictor, workload_name: str | None = None) -> SimStats:
    """Stamp the predictor's counters (and the workload name) on a run's stats."""
    stats.branch_predictions = predictor.predictions
    stats.branch_mispredictions = predictor.mispredictions
    if workload_name is not None:
        stats.workload = workload_name
    return stats


def simulate(
    config: MachineConfig,
    trace: Sequence[Instruction],
    memory: MemoryConfig = DEFAULT_MEMORY,
    regions: Sequence[tuple[int, int]] | None = None,
    max_cycles: int | None = None,
    hierarchy: MemoryHierarchy | None = None,
    fast_forward: bool | None = None,
) -> SimStats:
    """Simulate a materialized *trace* on the machine described by *config*.

    Args:
        regions: Workload data regions for functional cache warm-up
            (skipped when None or empty).  A hierarchy with no finite
            cache is warmed too: an infinite L1 then holds every region
            line, so the run's first touches count as L1 hits.
        hierarchy: Pre-built (typically pre-warmed) memory hierarchy; when
            given, *memory* and *regions* are ignored and the
            hierarchy is consumed by this run.
        fast_forward: Override the engine's cycle-skipping default
            (``False`` forces the tick-every-cycle reference mode).
    """
    core, predictor = prepare(config, trace, memory, regions, hierarchy)
    stats = core.run(len(trace), max_cycles=max_cycles, fast_forward=fast_forward)
    return finalize(stats, predictor)


def run_core(
    config: MachineConfig,
    workload,
    num_instructions: int,
    memory: MemoryConfig = DEFAULT_MEMORY,
    max_cycles: int | None = None,
) -> SimStats:
    """Convenience wrapper: materialize a workload trace and simulate it
    on caches warmed over the workload's regions.

    Args:
        max_cycles: Upper bound on simulated time (deadlock guard);
            forwarded to the engine so long-latency sweeps can tighten
            the default bound.
    """
    trace = workload.trace(num_instructions)
    stats = simulate(
        config,
        trace,
        memory=memory,
        regions=workload.regions,
        max_cycles=max_cycles,
    )
    stats.workload = workload.name
    return stats
