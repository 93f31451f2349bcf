"""Shared experiment machinery: scales, the cell runner, result records.

Every simulated cell — figure harnesses, ``sweep``, the report, ``cache
verify`` and the service workers — takes one path:

* every harness, ``sweep`` and the service plan a grid with
  :func:`repro.experiments.sweep.plan_grid`, and
  :func:`repro.experiments.sweep.sweep_grid` calls :func:`run_cells`
  once for the whole grid.  Cached cells come straight from the
  :class:`repro.store.ResultStore` (the ``store=`` argument); the
  missing ones are grouped by (workload, memory) and dispatched one
  cell at a time through one :class:`repro.resilience.ResilientExecutor`
  call — in-process for one job without a deadline, on supervised
  workers (``REPRO_JOBS``) otherwise, where an idle worker takes the
  next cell of the (workload, memory) pair, else of the workload, it ran
  last — and written back as each cell completes, so repeated sweeps
  cost only the delta and an interrupted sweep resumes;
* every cell runs through :func:`run_cell`, the one cell body, which
  simulates it with :func:`repro.sim.runner.run_core`.  The process
  running it keeps the last workload (and so its trace) and the last
  warmed cache snapshot in per-process memos, so a group of cells
  sharing a (workload, memory) pair pays for trace generation and
  warm-up once per process, in a pool worker as in-process.

Planning, keying and serving cells from the store load no simulator:
:func:`run_cells` imports the runner, the executor and the built-in
models only when a cell is pending, just before the executor forks, so
pool workers inherit them and a warm run never loads them.
"""

from __future__ import annotations

import csv
import dataclasses
import enum
import functools
import json
import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.memory import MemoryConfig
from repro.resilience import (
    ExecutionPolicy,
    FailureReport,
    active_policy,
    active_report,
    cell_label,
)
from repro.sim.stats import SimStats
from repro.store import CellKey, ResultStore, cell_key, from_jsonable
from repro.viz.ascii import table
from repro.workloads import get_workload, SPECFP_NAMES, SPECINT_NAMES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.runner import MachineConfig


class Scale(str, enum.Enum):
    """Experiment size presets."""

    QUICK = "quick"      # seconds; benchmark-harness and CI default
    DEFAULT = "default"  # minutes; tightens REPRODUCTION.md's quick match
    FULL = "full"        # longer traces, complete sweeps


#: Committed instructions simulated per benchmark at each scale.
INSTRUCTIONS = {
    Scale.QUICK: 4_000,
    Scale.DEFAULT: 10_000,
    Scale.FULL: 40_000,
}

#: Benchmark subsets used at quick scale (chosen to span the behaviour
#: space: cache-friendly, streaming, chasing, branchy).
QUICK_SUBSET = {
    "int": ("eon", "gcc", "mcf", "twolf", "vpr"),
    "fp": ("swim", "art", "apsi", "galgel", "wupwise"),
}


def scale_of(value: "Scale | str") -> Scale:
    """Coerce a CLI string or :class:`Scale` member to a :class:`Scale`."""
    return Scale(value)


def suite_names(which: str, scale: Scale) -> tuple[str, ...]:
    """Benchmark names of a suite at the given scale."""
    if scale == Scale.QUICK:
        return QUICK_SUBSET[which]
    return SPECINT_NAMES if which == "int" else SPECFP_NAMES


class WorkloadPool:
    """Caches workload instances so each is built once per planning pass.

    Planning only needs a workload's identity (its fingerprint keys the
    store); traces are materialized by the process that runs the cell.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._cache: dict[str, object] = {}

    def get(self, name: str):
        """Return the cached workload named *name*, materializing it once."""
        workload = self._cache.get(name)
        if workload is None:
            workload = get_workload(name, seed=self.seed)
            self._cache[name] = workload
        return workload


# ----------------------------------------------------------------------
# The one execution path: plan, order, dispatch cells to one cell body
# ----------------------------------------------------------------------


def resolve_jobs(jobs: int | None, num_tasks: int) -> int:
    """Worker-count policy: explicit argument > ``REPRO_JOBS`` > CPU count,
    never more workers than tasks."""
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(
                    f"REPRO_JOBS must be an integer worker count, got {env!r}"
                ) from None
        else:
            jobs = os.cpu_count() or 1
    return max(1, min(jobs, num_tasks))


@functools.lru_cache(maxsize=1)
def _workload(name: str, seed: int):
    """Per-process memo of the last workload a cell used.

    Cells reach every process grouped by (workload, memory) — the CLI
    running in-process, a pool worker or a service worker — so one entry
    generates each trace once per group while holding only one trace.
    The warmed-hierarchy snapshot has its own one-entry memo inside
    :func:`repro.memory.warm_caches`.
    """
    return get_workload(name, seed=seed)


def run_cell(cell, num_instructions: int, max_cycles: int | None = None) -> SimStats:
    """The one cell body: simulate one ``(config, workload name, memory,
    seed)`` cell and return its stats.

    An exception it raises (an unknown workload, a ``DeadlockError``)
    fails that cell alone.
    """
    from repro.sim.runner import run_core

    config, name, memory, seed = cell
    return run_core(
        config, _workload(name, seed), num_instructions, memory, max_cycles=max_cycles
    )


def pair_order(indices: Sequence[int], pair) -> list[int]:
    """*indices* regrouped so the cells of each (workload, memory) pair
    run in a row: workloads, then memories, in order of first appearance.

    *pair* maps an index to its hashable ``(workload, memory)`` identity.
    """
    workloads: dict = {}
    memories: dict = {}
    for index in indices:
        workload, memory = pair(index)
        workloads.setdefault(workload, len(workloads))
        memories.setdefault(memory, len(memories))

    def rank(index: int) -> tuple[int, int]:
        workload, memory = pair(index)
        return workloads[workload], memories[memory]

    return sorted(indices, key=rank)


def run_cells(
    cells: Sequence[tuple[MachineConfig, str, MemoryConfig]],
    num_instructions: int,
    pool: WorkloadPool,
    jobs: int | None = None,
    store: ResultStore | None = None,
    force: bool = False,
    max_cycles: int | None = None,
    policy: ExecutionPolicy | None = None,
    report: FailureReport | None = None,
) -> list[SimStats | None]:
    """Run every (config, benchmark, memory) cell, store-first, in order.

    The one way a cell runs — machines of any registered kind (including
    the limit core) and a different memory system per cell.  Cached
    cells never dispatch; the missing ones are ordered by (workload,
    memory) (:func:`pair_order`) and handed one at a time to
    :func:`run_cell` through one :class:`repro.resilience.ResilientExecutor`
    call — in this process, in that order, when one job suffices and no
    deadline is set; otherwise on supervised workers, each cell keyed by
    its (workload, memory) pair so an idle worker takes the next cell of
    the pair or workload it ran last
    (:func:`repro.resilience.executor.affine_key`) and its memos hit as
    they do in-process.  Each cell persists to *store* as it completes; that
    per-cell write-back is what makes a killed sweep resumable, and what
    makes retried cells idempotent (the fingerprint is the ledger).

    *policy* and *report* default to the ambient resilience context
    (:func:`repro.resilience.resilience_context`); without one, the
    strict policy applies — the first permanent failure raises
    :class:`repro.resilience.CellExecutionError` naming the offending
    cell.  Under a tolerant policy, failed cells come back as ``None``
    and their typed failure records land in *report*.
    """
    results: list[SimStats | None] = [None] * len(cells)
    keys: list[CellKey | None] = [None] * len(cells)
    if store is not None:
        for i, (config, name, memory) in enumerate(cells):
            keys[i] = cell_key(config, pool.get(name), num_instructions, memory)
            if not force:
                results[i] = store.get(keys[i])
    pending = [i for i, cached in enumerate(results) if cached is None]
    if not pending:
        return results
    from repro.machines.builtin import load_models
    from repro.resilience.executor import ResilientExecutor

    load_models()
    if policy is None:
        policy = active_policy()
    if report is None:
        report = active_report()
        if report is None:
            report = FailureReport()

    def pair(i: int) -> tuple[str, MemoryConfig]:
        return cells[i][1], cells[i][2]

    tasks = [
        (i, cell_label(*cells[i]), (*cells[i], pool.seed), pair(i))
        for i in pair_order(pending, pair)
    ]

    def on_result(i: int, stats: SimStats) -> None:
        if store is not None:
            store.put(keys[i], stats)
        results[i] = stats

    body = functools.partial(
        run_cell, num_instructions=num_instructions, max_cycles=max_cycles
    )
    executor = ResilientExecutor(body, resolve_jobs(jobs, len(pending)), policy, report)
    executor.run(tasks, on_result)
    return results


def compute_cell(payload: dict, max_cycles: int | None = None) -> SimStats:
    """Re-run one cell from its stored key payload (``cache verify``, the
    service workers).

    Decodes the machine and memory configurations and the workload
    identity, then runs the cell through :func:`run_cell` — the body
    every sweep uses — so the result must match the stored stats bit for
    bit unless simulator behaviour drifted under the fingerprint.  A
    non-null ``predictor`` field (written before the branch predictor
    became a machine-config field) is folded into the machine.
    *max_cycles* is the deadlock-guard bound (not part of the key — it
    cannot change a completed run's stats); service workers forward
    their job's bound.
    """
    machine = from_jsonable(payload["machine"])
    if payload.get("predictor"):
        machine = _with_predictor(machine, payload["predictor"])
    memory = from_jsonable(payload["memory"])
    spec = payload["workload"]
    if _workload(spec["name"], spec["seed"]).fingerprint() != spec["fingerprint"]:
        raise ValueError(
            f"workload {spec['name']!r} fingerprint changed since this "
            "cell was stored (trace generator updated?)"
        )
    cell = (machine, spec["name"], memory, spec["seed"])
    return run_cell(cell, payload["instructions"], max_cycles)


def _with_predictor(machine, predictor: str):
    """*machine* with its front-end core's branch predictor replaced."""
    for attr in ("cache_processor", "core"):
        core = getattr(machine, attr, None)
        if core is not None:
            return dataclasses.replace(
                machine, **{attr: dataclasses.replace(core, predictor=predictor)}
            )
    return dataclasses.replace(machine, predictor=predictor)


def mean_ipc(stats: Sequence[SimStats | None]) -> float:
    """Arithmetic-mean IPC, the aggregation the paper's figures use.

    ``None`` entries — cells that failed under a tolerant execution
    policy — are skipped, so a partial grid still aggregates over its
    surviving cells instead of crashing.
    """
    present = [s for s in stats if s is not None]
    if not present:
        return 0.0
    return sum(s.ipc for s in present) / len(present)


def weighted_mean_ipc(
    stats: Sequence[SimStats | None], weights: Sequence[float]
) -> float:
    """Weighted-mean IPC — the SimPoint whole-program estimator.

    *weights* align positionally with *stats* (one per phase, summing to
    1 for a full selection).  ``None`` entries — cells that failed under
    a tolerant execution policy — are skipped and the surviving weights
    renormalized, mirroring :func:`mean_ipc`'s partial-grid behaviour.
    """
    present = [
        (weight, s) for weight, s in zip(weights, stats) if s is not None
    ]
    total = sum(weight for weight, _ in present)
    if not total:
        return 0.0
    return sum(weight * s.ipc for weight, s in present) / total


@dataclass
class ExperimentResult:
    """Everything one harness produces.

    The single currency between the experiment harnesses and every
    consumer: the CLI renders it as ASCII (:meth:`render`), the CSV/JSON
    exporters serialize it, and the reproduction report extracts chart
    series and verdict metrics from ``headers``/``rows`` through each
    experiment's :class:`repro.report.spec.FigureSpec`.
    """

    name: str
    title: str
    headers: list[str]
    rows: list[list[object]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    charts: list[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    scale: Scale = Scale.DEFAULT

    def render(self) -> str:
        """Return the terminal rendering: table, ASCII charts, notes."""
        parts = [
            table(self.headers, self.rows, title=f"{self.name}: {self.title} "
                  f"[scale={self.scale.value}, {self.elapsed_seconds:.1f}s]")
        ]
        parts.extend(self.charts)
        if self.notes:
            parts.append("notes:")
            parts.extend(f"  - {note}" for note in self.notes)
        return "\n\n".join(parts)

    def write_csv(self, directory: str) -> str:
        """Write headers + rows as ``<directory>/<name>.csv``; return the path."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{self.name}.csv")
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(self.headers)
            writer.writerows(self.rows)
        return path

    def to_dict(self) -> dict:
        """JSON-serializable rendering; :meth:`from_dict` round-trips it."""
        return {
            "name": self.name,
            "title": self.title,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
            "notes": list(self.notes),
            "charts": list(self.charts),
            "elapsed_seconds": self.elapsed_seconds,
            "scale": self.scale.value,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_dict` output (JSON round-trip)."""
        return cls(
            name=data["name"],
            title=data["title"],
            headers=list(data["headers"]),
            rows=[list(row) for row in data["rows"]],
            notes=list(data.get("notes", [])),
            charts=list(data.get("charts", [])),
            elapsed_seconds=data.get("elapsed_seconds", 0.0),
            scale=Scale(data.get("scale", Scale.DEFAULT.value)),
        )

    def write_json(self, directory: str) -> str:
        """Machine-readable export alongside :meth:`write_csv`."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{self.name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2)
            handle.write("\n")
        return path


class Stopwatch:
    """Context manager stamping ``elapsed_seconds`` onto a result."""

    def __init__(self, result: ExperimentResult) -> None:
        self.result = result

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.result.elapsed_seconds = time.perf_counter() - self._start
