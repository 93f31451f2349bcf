"""Generic grid-sweep engine over the declarative machine layer.

A :class:`SweepSpec` describes any (machine × memory × workload) grid as
data — machine and memory *spec strings* (:mod:`repro.machines`),
workload suite tokens or benchmark names, and optional parameter *axes*
crossed into every machine spec.  :func:`sweep_grid` runs the grid
through :func:`repro.experiments.common.run_cells` and the result store;
:func:`run_sweep` adds generic table/chart formatting and an ad-hoc
:class:`~repro.report.spec.FigureSpec` so any scenario renders to ASCII
and SVG with zero new modules.

Every figure harness plans on the same engine: each declares its grid
as a :class:`SweepSpec` (most through a ``sweep_for(scale, ...)``
function), runs it with :func:`sweep_grid`, reads the results by grid
coordinate and names failed cells with :func:`note_failures`.  fig9,
fig10, fig10int and the contention study are also registered as
:class:`SweepPreset` entries, so ``dkip-experiments sweep fig9`` (and
``submit fig9``) plan the very grid the figure harness runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.experiments.common import (
    INSTRUCTIONS,
    ExperimentResult,
    Scale,
    Stopwatch,
    WorkloadPool,
    mean_ipc,
    run_cells,
    scale_of,
    suite_names,
    weighted_mean_ipc,
)
from repro.machines import (
    SpecError,
    apply_params,
    load_spec_file,
    parse_machine,
    parse_memory,
)
from repro.memory.configs import MemoryConfig
from repro.report.spec import FigureSpec
from repro.resilience import CellFailure, FailureReport, active_report
from repro.sim.stats import SimStats
from repro.store import ResultStore
from repro.viz.ascii import bar_chart
from repro.workloads import (
    PhaseExpansion,
    all_names,
    apply_workload_params,
    expand_phases,
    parse_workload,
)


# ----------------------------------------------------------------------
# The declarative sweep description
# ----------------------------------------------------------------------

_SPEC_KEYS = frozenset(
    {
        "name", "title", "machines", "memory", "workloads", "axes",
        "workload_axes", "instructions", "max_cycles",
    }
)

#: Suite tokens that expand to benchmark-name sets (vs. single specs).
_SUITE_TOKENS = ("int", "fp", "all")


@dataclass(frozen=True)
class SweepSpec:
    """One (machine × memory × workload) grid, as data.

    *machines* and *memory* are spec strings or preset names
    (:func:`repro.machines.parse_machine` / ``parse_memory``);
    *workloads* mixes suite tokens (``"int"``, ``"fp"``, ``"all"``),
    benchmark names, workload specs
    (:func:`repro.workloads.parse_workload` — ``"synth(chase=8)"``,
    ``"trace(file=foo.trc.gz)"``), and SimPoint phase sets
    (``"phases(file=foo.trc.gz,k=4)"``), which expand to one weighted
    cell per selected phase; *axes* crosses extra ``key=value``
    parameters into every machine spec (the product of all axis values)
    and *workload_axes* does the same over every workload spec, so the
    workload side of the design space sweeps like the machine side.
    """

    machines: tuple[str, ...]
    name: str = "sweep"
    title: str = ""
    memory: tuple[str, ...] = ("default",)
    workloads: tuple[str, ...] = ("int",)
    axes: tuple[tuple[str, tuple[str, ...]], ...] = ()
    workload_axes: tuple[tuple[str, tuple[str, ...]], ...] = ()
    #: Committed-instruction budget; None means the scale preset.
    instructions: int | None = None
    #: Deadlock-guard bound forwarded to the engine (None = default).
    max_cycles: int | None = None

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "SweepSpec":
        """Build a spec from a plain mapping (scenario-file contents)."""
        unknown = sorted(set(data) - _SPEC_KEYS)
        if unknown:
            raise SpecError(
                f"unknown sweep key(s) {', '.join(unknown)}; allowed: "
                f"{', '.join(sorted(_SPEC_KEYS))}"
            )
        machines = tuple(str(m) for m in _as_list(data.get("machines")))
        if not machines:
            raise SpecError("a sweep needs at least one machine spec")
        return cls(
            machines=machines,
            name=str(data.get("name", "sweep")),
            title=str(data.get("title", "")),
            memory=tuple(str(m) for m in _as_list(data.get("memory"))) or ("default",),
            workloads=tuple(str(w) for w in _as_list(data.get("workloads")))
            or ("int",),
            axes=_as_axes(data, "axes"),
            workload_axes=_as_axes(data, "workload_axes"),
            instructions=_as_optional_int(data, "instructions"),
            max_cycles=_as_optional_int(data, "max_cycles"),
        )

    @classmethod
    def from_file(cls, path) -> "SweepSpec":
        """Load a spec from a TOML or JSON scenario file."""
        return cls.from_mapping(load_spec_file(path))

    def to_mapping(self) -> dict[str, Any]:
        """The plain-mapping form of this spec, :meth:`from_mapping`'s
        inverse — what service submissions serialize into job files (and
        hash into content-addressed job ids)."""
        data: dict[str, Any] = {
            "name": self.name,
            "machines": list(self.machines),
            "memory": list(self.memory),
            "workloads": list(self.workloads),
        }
        if self.title:
            data["title"] = self.title
        if self.axes:
            data["axes"] = {axis: list(values) for axis, values in self.axes}
        if self.workload_axes:
            data["workload_axes"] = {
                axis: list(values) for axis, values in self.workload_axes
            }
        if self.instructions is not None:
            data["instructions"] = self.instructions
        if self.max_cycles is not None:
            data["max_cycles"] = self.max_cycles
        return data


def _as_list(value) -> list:
    if value is None:
        return []
    if isinstance(value, (list, tuple)):
        return list(value)
    return [value]


def _as_axes(data: Mapping, key: str) -> tuple[tuple[str, tuple[str, ...]], ...]:
    axes_data = data.get(key, {})
    if not isinstance(axes_data, Mapping):
        raise SpecError(f"sweep {key!r} must map parameter -> list of values")
    axes = tuple(
        (str(axis), tuple(str(v) for v in _as_list(values)))
        for axis, values in axes_data.items()
    )
    for axis, values in axes:
        if not values:
            raise SpecError(f"sweep axis {axis!r} has no values")
    return axes


def _as_optional_int(data: Mapping, key: str) -> int | None:
    value = data.get(key)
    if value is None:
        return None
    try:
        count = int(value)
    except (TypeError, ValueError):
        count = None
    if count is None or count <= 0:
        raise SpecError(
            f"sweep {key!r} must be a positive integer, got {value!r}"
        )
    return count


# ----------------------------------------------------------------------
# Grid expansion and execution
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SweptMachine:
    """One expanded grid machine: final spec string, parsed config, and
    the axis assignment that produced it (empty for plain machines)."""

    spec: str
    config: Any
    axes: tuple[tuple[str, str], ...] = ()
    label: str = ""

    @property
    def name(self) -> str:
        """The config's own name (labels fall back to the spec string
        when two expanded machines share a name)."""
        return getattr(self.config, "name", self.spec)


def expand_machines(spec: SweepSpec) -> list[SweptMachine]:
    """Cross every machine spec with the axes' value product."""
    machines: list[SweptMachine] = []
    axis_keys = [key for key, _ in spec.axes]
    axis_values = [values for _, values in spec.axes]
    for base in spec.machines:
        if not axis_keys:
            machines.append(SweptMachine(base, parse_machine(base)))
            continue
        for combo in itertools.product(*axis_values):
            assignment = dict(zip(axis_keys, combo))
            text = apply_params(base, assignment)
            machines.append(
                SweptMachine(text, parse_machine(text), tuple(assignment.items()))
            )
    # Disambiguate labels: configs that rename under their parameters
    # keep their name; duplicates fall back to the full spec string.
    names = [machine.name for machine in machines]
    return [
        SweptMachine(
            m.spec,
            m.config,
            m.axes,
            label=m.name if names.count(m.name) == 1 else m.spec,
        )
        for m in machines
    ]


def expand_workload_tokens(spec: SweepSpec) -> tuple[str, ...]:
    """Cross every workload token with the workload axes' value product.

    Mirrors :func:`expand_machines` on the workload side: with no
    workload axes the tokens pass through untouched; with axes every
    token must be a parametric workload spec (suite tokens have no knobs
    to cross, which :func:`repro.workloads.apply_workload_params`
    rejects with a grammar-naming error).
    """
    if not spec.workload_axes:
        return spec.workloads
    axis_keys = [key for key, _ in spec.workload_axes]
    axis_values = [values for _, values in spec.workload_axes]
    tokens: list[str] = []
    for base in spec.workloads:
        if base.strip().lower() in _SUITE_TOKENS:
            raise SpecError(
                f"cannot apply workload axes to suite token {base!r}; "
                "name explicit workload specs (e.g. synth) instead"
            )
        for combo in itertools.product(*axis_values):
            tokens.append(
                apply_workload_params(base, dict(zip(axis_keys, combo)))
            )
    return tuple(dict.fromkeys(tokens))


def resolve_workloads(
    tokens: Sequence[str], scale: Scale
) -> dict[str, tuple[str, ...]]:
    """Map workload tokens to workload-name tuples at *scale*.

    ``"int"``/``"fp"`` resolve through the scale's suite subsets,
    ``"all"`` to both; a ``phases(...)`` *set* spec (no ``index=``)
    expands through the SimPoint analysis to its member phases — one
    grid cell per selected interval, individually store-keyed, which is
    what makes re-clustering with a different ``k`` reuse the phases
    already simulated; anything else is a registered benchmark name or a
    workload spec (``"synth(chase=8)"``, ``"trace(file=...)"``), which
    resolves to its canonical name so equivalent spellings share one
    grid cell (and one store entry).
    """
    return _resolve(tokens, scale, None)[0]


def _resolve(
    tokens: Sequence[str], scale: Scale, store: ResultStore | None
) -> tuple[dict[str, tuple[str, ...]], dict[str, PhaseExpansion]]:
    """:func:`resolve_workloads`, plus the expansion of every phase-set
    token, each expanded once (through *store*'s phase selections when
    one is given)."""
    resolved: dict[str, tuple[str, ...]] = {}
    phases: dict[str, PhaseExpansion] = {}
    for token in tokens:
        text = token.strip()
        lower = text.lower()
        if lower in ("int", "fp"):
            resolved[text] = suite_names(lower, scale)
        elif lower == "all":
            resolved[text] = suite_names("int", scale) + suite_names("fp", scale)
        elif text in all_names():
            resolved[text] = (text,)
        elif (expansion := expand_phases(text, store)) is not None:
            resolved[text] = expansion.names
            phases[text] = expansion
        else:
            try:
                workload = parse_workload(text)
            except SpecError as error:
                raise SpecError(
                    f"unknown workload {text!r}; expected int, fp, all, a "
                    f"benchmark name ({', '.join(all_names())}), or a "
                    f"workload spec: {error}"
                ) from None
            resolved[text] = (workload.name,)
    return resolved, phases


@dataclass
class SweepGrid:
    """One sweep grid: its expanded, validated plan and its per-cell stats.

    :func:`plan_grid` builds it with no results.  Every path that runs or
    reads a grid starts there — :func:`sweep_grid` runs its
    :meth:`cells`, the service scheduler (:mod:`repro.service.scheduler`)
    fingerprints and shards them, and the service ``results`` client
    fills the grid straight from the store — so the expansion lives in
    one place and a cell's store key is identical no matter which path
    executes it.

    Under a tolerant execution policy a cell that failed past its retry
    budget holds ``None`` in ``results`` and its typed
    :class:`~repro.resilience.CellFailure` in ``failures`` under the
    same (machine index, memory index, benchmark) coordinates, so
    downstream formatting can say *why* a cell is missing.
    """

    spec: SweepSpec
    scale: Scale
    instructions: int
    machines: list[SweptMachine]
    memories: list[MemoryConfig]
    workloads: dict[str, tuple[str, ...]]
    benches: tuple[str, ...]
    #: Phase-set tokens expanded through the SimPoint analysis, keyed
    #: like ``workloads``; their suites aggregate by cluster weight.
    phases: dict[str, PhaseExpansion] = field(default_factory=dict)
    results: dict[tuple[int, int, str], SimStats | None] = field(default_factory=dict)
    failures: dict[tuple[int, int, str], CellFailure] = field(default_factory=dict)

    def cells(self) -> list[tuple[Any, str, MemoryConfig]]:
        """Every (machine config, benchmark, memory) cell, in the
        canonical machine-major / memory / benchmark order."""
        return [
            (machine.config, bench, memory)
            for machine in self.machines
            for memory in self.memories
            for bench in self.benches
        ]

    def coords(self) -> list[tuple[int, int, str]]:
        """Grid coordinates aligned index-for-index with :meth:`cells`."""
        return [
            (mi, gi, bench)
            for mi in range(len(self.machines))
            for gi in range(len(self.memories))
            for bench in self.benches
        ]

    def stats(self, machine: int, memory: int, bench: str) -> SimStats | None:
        """Stats of one cell by (machine index, memory index, benchmark);
        ``None`` when the cell failed under a tolerant policy."""
        return self.results[(machine, memory, bench)]

    def suite_stats(
        self, machine: int, memory: int, token: str
    ) -> list[SimStats | None]:
        """Per-benchmark stats of one workload token's suite (``None``
        entries mark failed cells)."""
        return [self.stats(machine, memory, b) for b in self.workloads[token]]

    def mean_ipc(self, machine: int, memory: int, token: str) -> float:
        """Aggregate IPC of one workload token's suite.

        Plain suites take the arithmetic mean (the paper's metric);
        phase-set tokens take the SimPoint weighted mean — each phase's
        IPC weighted by its cluster's share of the profiled intervals —
        which is the whole-program estimate for the captured trace.
        Failed cells are skipped either way, matching
        :func:`repro.experiments.common.mean_ipc`'s partial-grid
        aggregation (phase weights renormalize over surviving cells).
        """
        expansion = self.phases.get(token)
        if expansion is not None:
            return weighted_mean_ipc(
                self.suite_stats(machine, memory, token), expansion.weights
            )
        return mean_ipc(self.suite_stats(machine, memory, token))

    def suite_failures(
        self, machine: int, memory: int, token: str
    ) -> list[CellFailure]:
        """The failures, if any, among one workload token's suite cells."""
        return [
            self.failures[(machine, memory, b)]
            for b in self.workloads[token]
            if (machine, memory, b) in self.failures
        ]


def plan_grid(
    spec: SweepSpec,
    scale: Scale | str = Scale.DEFAULT,
    store: ResultStore | None = None,
) -> SweepGrid:
    """Expand and validate *spec* into its grid at *scale*, results empty.

    With a *store*, each phase-set token's SimPoint selection is read
    from it, or analyzed once and written to it.
    """
    scale = scale_of(scale)
    machines = expand_machines(spec)
    memories = [parse_memory(m) for m in spec.memory]
    workloads, phases = _resolve(expand_workload_tokens(spec), scale, store)
    benches = tuple(dict.fromkeys(
        bench for names in workloads.values() for bench in names
    ))
    if spec.instructions is not None and spec.instructions <= 0:
        raise SpecError(
            f"sweep instructions must be positive, got {spec.instructions}"
        )
    instructions = (
        spec.instructions if spec.instructions is not None else INSTRUCTIONS[scale]
    )
    if phases:
        shortest = min(e.interval for e in phases.values())
        if spec.instructions is None:
            # A phase cell can supply at most one interval; clamp the
            # scale preset so default sweeps replay whole phases.
            instructions = min(instructions, shortest)
        elif spec.instructions > shortest:
            raise SpecError(
                f"sweep instructions={spec.instructions} exceeds the "
                f"{shortest}-instruction interval of a phases(...) "
                "workload; phase cells replay at most one interval"
            )
    return SweepGrid(
        spec=spec,
        scale=scale,
        instructions=instructions,
        machines=machines,
        memories=memories,
        workloads=workloads,
        benches=benches,
        phases=phases,
    )


def sweep_grid(
    spec: SweepSpec,
    scale: Scale | str = Scale.DEFAULT,
    pool: WorkloadPool | None = None,
    store: ResultStore | None = None,
    force: bool = False,
    jobs: int | None = None,
) -> SweepGrid:
    """Execute every cell of *spec*'s grid (store-first, one process
    pool for the whole grid) and return the indexed results."""
    grid = plan_grid(spec, scale, store)
    report = active_report()
    if report is None:
        report = FailureReport()
    seen_failures = len(report.failures)
    coords = grid.coords()
    flat = run_cells(
        grid.cells(),
        grid.instructions,
        pool or WorkloadPool(),
        jobs=jobs,
        store=store,
        force=force,
        max_cycles=spec.max_cycles,
        report=report,
    )
    grid.results.update(zip(coords, flat))
    # Map this grid's final failures (appended during the run_cells call
    # above) back to grid coordinates via each failure's flat cell index.
    for failure in report.failures[seen_failures:]:
        if 0 <= failure.index < len(coords):
            grid.failures[coords[failure.index]] = failure
    return grid


def note_failures(result: ExperimentResult, *grids: SweepGrid) -> None:
    """Name every failed cell of *grids* in *result*'s notes.

    The one place a tolerated failure reaches a result: every figure
    harness calls it for the grids it ran, and :func:`summarize_grid`
    for the grid it formats.
    """
    failures = [failure for grid in grids for failure in grid.failures.values()]
    if failures:
        result.notes.append(
            f"{len(failures)} cell(s) failed and were excluded from the "
            "aggregates above:"
        )
        result.notes.extend(f"  failed: {failure.describe()}" for failure in failures)


# ----------------------------------------------------------------------
# Generic formatting (tables, ASCII bars, ad-hoc FigureSpec)
# ----------------------------------------------------------------------


def adhoc_groups(result: ExperimentResult) -> dict[str, dict[str, float]]:
    """Group extractor for the generic sweep table: machines as groups,
    (memory, workloads) as series — constant columns are elided."""
    memories = {str(row[1]) for row in result.rows}
    tokens = {str(row[2]) for row in result.rows}
    groups: dict[str, dict[str, float]] = {}
    for row in result.rows:
        try:
            value = float(row[3])
        except (TypeError, ValueError):
            continue  # "n/a (failed: ...)" rows carry no plottable value
        parts = []
        if len(memories) > 1:
            parts.append(str(row[1]))
        if len(tokens) > 1:
            parts.append(str(row[2]))
        series = " / ".join(parts) or "mean IPC"
        groups.setdefault(str(row[0]), {})[series] = value
    return groups


def figure_spec_for(spec: SweepSpec) -> FigureSpec:
    """An ad-hoc bar-chart FigureSpec for a generic sweep result."""
    return FigureSpec(
        kind="bars",
        caption=spec.title or f"mean IPC per machine ({spec.name})",
        y_label="mean IPC",
        groups=adhoc_groups,
    )


def summarize_grid(
    grid: SweepGrid, result: ExperimentResult | None = None
) -> ExperimentResult:
    """Format an executed (or store-collected) grid generically.

    One row per (machine, memory, workload token) with mean/min/max IPC,
    ASCII bars per (memory, token), and grid/phase/failure notes.  The
    formatting half of :func:`run_sweep`, shared with the service
    ``results`` client — which fills a :class:`SweepGrid` straight from
    the store without re-running anything and renders it through here.
    """
    if result is None:
        result = ExperimentResult(
            name=grid.spec.name,
            title=grid.spec.title or "ad-hoc machine/memory/workload sweep",
            headers=[
                "machine", "memory", "workloads", "mean IPC", "min IPC", "max IPC",
            ],
            scale=grid.scale,
        )
    for mi, machine in enumerate(grid.machines):
        for gi, memory in enumerate(grid.memories):
            for token in grid.workloads:
                ipcs = [
                    s.ipc
                    for s in grid.suite_stats(mi, gi, token)
                    if s is not None
                ]
                if ipcs:
                    # Weighted estimate for phase sets, plain mean
                    # otherwise (grid.mean_ipc dispatches).
                    cols = [
                        round(grid.mean_ipc(mi, gi, token), 3),
                        round(min(ipcs), 3),
                        round(max(ipcs), 3),
                    ]
                else:
                    kinds = sorted(
                        {f.kind for f in grid.suite_failures(mi, gi, token)}
                    ) or ["unknown"]
                    cols = [f"n/a (failed: {', '.join(kinds)})", "n/a", "n/a"]
                result.rows.append(
                    [machine.label, memory.name, token, *cols]
                )
    for gi, memory in enumerate(grid.memories):
        for token in grid.workloads:
            data = {
                machine.label: grid.mean_ipc(mi, gi, token)
                for mi, machine in enumerate(grid.machines)
            }
            result.charts.append(
                bar_chart(data, title=f"mean IPC — {memory.name} / {token}")
            )
    result.notes.append(
        f"grid: {len(grid.machines)} machine(s) x {len(grid.memories)} "
        f"memory system(s) x {len(grid.benches)} benchmark(s), "
        f"{grid.instructions} instructions per cell"
    )
    for token, expansion in grid.phases.items():
        result.notes.append(
            f"{token}: {len(expansion.names)} weighted phase(s) out of "
            f"{expansion.num_intervals} interval(s) — mean IPC is the "
            f"SimPoint estimate, simulating {expansion.coverage:.1%} of "
            "the capture"
        )
    note_failures(result, grid)
    return result


def run_sweep(
    spec: SweepSpec,
    scale: Scale | str = Scale.DEFAULT,
    store: ResultStore | None = None,
    force: bool = False,
    jobs: int | None = None,
) -> ExperimentResult:
    """Run *spec* and format the grid generically: one row per (machine,
    memory, workload token) with mean/min/max IPC, plus ASCII bars."""
    scale = scale_of(scale)
    result = ExperimentResult(
        name=spec.name,
        title=spec.title or "ad-hoc machine/memory/workload sweep",
        headers=["machine", "memory", "workloads", "mean IPC", "min IPC", "max IPC"],
        scale=scale,
    )
    with Stopwatch(result):
        grid = sweep_grid(spec, scale, store=store, force=force, jobs=jobs)
    summarize_grid(grid, result)
    return result


# ----------------------------------------------------------------------
# Named sweep presets
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SweepPreset:
    """A named, reusable sweep: the declarative grid plus an optional
    figure-grade runner (paper columns, reference values, charts)."""

    name: str
    #: ``sweep_for(scale) -> SweepSpec``: the grid at a scale, the same
    #: one the preset's runner plans.
    sweep_for: Callable[[Scale], SweepSpec]
    description: str = ""
    #: ``runner(scale, store=..., force=...) -> ExperimentResult``; when
    #: None the generic :func:`run_sweep` formatting applies.
    runner: Callable[..., ExperimentResult] | None = None


SWEEP_PRESETS: dict[str, SweepPreset] = {}


def register_sweep_preset(preset: SweepPreset) -> SweepPreset:
    """Register (or replace) a named sweep."""
    SWEEP_PRESETS[preset.name] = preset
    return preset


def get_sweep_preset(name: str) -> SweepPreset:
    """The preset registered under *name* (raises ``ValueError``)."""
    try:
        return SWEEP_PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown sweep preset {name!r}; available: "
            f"{', '.join(sorted(SWEEP_PRESETS)) or '(none registered)'}"
        ) from None


# The workload-axis showcase: latency tolerance (the paper's machine
# axis, Figs. 9-12) against pointer-chase depth (the workload trait the
# paper identifies as the SpecINT behaviour large windows cannot fix).
# Runs through the generic formatter and renders like any figure.
CHASE_SWEEP = SweepSpec(
    name="chase",
    title="latency tolerance vs pointer-chase depth (synth workloads)",
    machines=("r10(rob=64)", "dkip(llib=2048)"),
    workloads=("synth",),
    workload_axes=(("chase", ("0", "4", "16")),),
)

register_sweep_preset(
    SweepPreset(
        name="chase",
        sweep_for=lambda scale: CHASE_SWEEP,
        description="D-KIP vs OOO as serial miss chains deepen (workload axis)",
    )
)
