"""In-process cell batching: N independent simulations, one sweep loop.

Wide sweep grids pay a fixed Python cost per cell — process dispatch,
trace decode, cache warm-up — that dwarfs the simulation itself at quick
scale.  :class:`BatchRunner` amortizes it: the caller registers N
independent (machine, memory, workload) cells and the runner steps them
round-robin inside one process, always resuming the cell whose local
clock is furthest behind (a min-heap over ``core.now``), so the batch
advances as one event-clock sweep.

Each cell runs through :meth:`repro.pipeline.core.CycleCore.drive`, the
generator form of the run loop (``run()`` is ``drive()`` run to
exhaustion): the cells never share simulator state (each has its own
hierarchy, predictor and trace), so any interleaving produces per-cell
:class:`SimStats` records bit-identical to serial execution —
``tests/sim/test_batch.py`` asserts exactly that for every registered
machine kind.  What they *do* share is the process: one warm-up memo,
one import cost, one dispatch from the sweep layer.

Failure isolation is per cell: a cell that raises (``DeadlockError``,
a broken trace) is reported as its own ``("error", exception)`` outcome
while its batch siblings run to completion.
"""

from __future__ import annotations

import heapq
from typing import Iterator, Sequence

from repro.isa import Instruction
from repro.memory import DEFAULT_MEMORY, MemoryConfig, MemoryHierarchy
from repro.sim.runner import MachineConfig, finalize, prepare

#: Consecutive busy cycles one cell may tick before yielding its turn.
#: Large enough that generator suspension cost is noise (<0.1% of the
#: per-cycle work), small enough that a busy cell cannot starve the rest
#: of the batch for more than a few milliseconds.
DEFAULT_ROUND_BUDGET = 4096


class _BatchCell:
    """One registered simulation: its core, driver and finalization."""

    __slots__ = ("tag", "core", "driver", "predictor", "workload_name")

    def __init__(self, tag, core, driver, predictor, workload_name) -> None:
        self.tag = tag
        self.core = core
        self.driver = driver
        self.predictor = predictor
        self.workload_name = workload_name


class BatchRunner:
    """Step registered cells round-robin until every one finishes.

    Usage::

        runner = BatchRunner()
        for tag, config, trace in cells:
            runner.add_simulation(tag, config, trace, ...)
        for tag, outcome, value in runner.stream():
            ...  # ("ok", SimStats) or ("error", the exception)

    Outcomes arrive in completion order (earliest-finishing local clock
    first), one per registered cell.  :meth:`run` is the collect-all
    convenience wrapper.
    """

    def __init__(self, round_budget: int = DEFAULT_ROUND_BUDGET) -> None:
        self.round_budget = round_budget
        self._cells: list[_BatchCell] = []

    def __len__(self) -> int:
        return len(self._cells)

    def add_simulation(
        self,
        tag,
        config: MachineConfig,
        trace: Sequence[Instruction],
        memory: MemoryConfig = DEFAULT_MEMORY,
        regions: Sequence[tuple[int, int]] | None = None,
        max_cycles: int | None = None,
        hierarchy: MemoryHierarchy | None = None,
        fast_forward: bool | None = None,
        workload_name: str | None = None,
    ) -> None:
        """Register one cell; arguments mirror :func:`repro.sim.runner.simulate`.

        Construction happens here, through the same
        :func:`repro.sim.runner.prepare` path ``simulate()`` takes (trace
        materialized, hierarchy warmed or restored), so a construction-time
        error raises to the caller rather than surfacing mid-stream.
        """
        core, predictor = prepare(config, trace, memory, regions, hierarchy)
        driver = core.drive(
            len(trace),
            max_cycles=max_cycles,
            fast_forward=fast_forward,
            round_budget=self.round_budget,
        )
        self._cells.append(_BatchCell(tag, core, driver, predictor, workload_name))

    def stream(self) -> Iterator[tuple[object, str, object]]:
        """Run the batch, yielding ``(tag, outcome, value)`` per cell.

        ``outcome`` is ``"ok"`` (value: the finalized :class:`SimStats`)
        or ``"error"`` (value: the exception the cell raised).  The heap
        keys on each cell's local clock, so the sweep always advances the
        cell furthest behind in simulated time; registration order breaks
        ties, keeping the schedule deterministic.
        """
        heap: list[tuple[int, int, _BatchCell]] = [
            (getattr(cell.core, "now", 0), index, cell)
            for index, cell in enumerate(self._cells)
        ]
        heapq.heapify(heap)
        while heap:
            _now, index, cell = heapq.heappop(heap)
            try:
                resumed_at = next(cell.driver)
            except StopIteration as stop:
                yield cell.tag, "ok", finalize(
                    stop.value, cell.predictor, cell.workload_name
                )
            except Exception as error:  # noqa: BLE001 - isolated per cell
                yield cell.tag, "error", error
            else:
                heapq.heappush(heap, (resumed_at, index, cell))

    def run(self) -> dict:
        """Collect :meth:`stream` into ``{tag: (outcome, value)}``."""
        return {tag: (outcome, value) for tag, outcome, value in self.stream()}
