"""Figures 1 and 2: IPC vs instruction-window size under six memory systems.

The paper's Section-2 characterization: 4-way out-of-order cores whose
only structural limit is the ROB, swept from 32 to 4096 entries against
the Table-1 memory configurations, averaged over SpecINT (Figure 1) and
SpecFP (Figure 2).

Expected shape (paper): with slow memory, SpecFP recovers almost all IPC
by 4K entries (misses leave the critical path once enough independent work
is in flight), while SpecINT barely improves (pointer chasing and
miss-dependent mispredictions stay on the critical path).
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, Scale
from repro.experiments.sweep import SweepGrid, SweepSpec, note_failures
from repro.memory import TABLE1_CONFIGS
from repro.report.spec import Check, FigureSpec, row_span_ratio, rows_as_series
from repro.viz.ascii import line_chart

#: ROB sizes on the paper's x axis.
FULL_WINDOWS = (32, 48, 64, 128, 256, 512, 1024, 2048, 4096)
QUICK_WINDOWS = (32, 128, 1024, 4096)


def _windows(scale: Scale) -> tuple[int, ...]:
    return QUICK_WINDOWS if scale == Scale.QUICK else FULL_WINDOWS


def sweep_for(scale: Scale, suite: str) -> SweepSpec:
    """The declarative (window x Table-1 memory) grid at *scale* for *suite*."""
    memories = (
        ("L1-2", "MEM-100", "MEM-400") if scale == Scale.QUICK else tuple(TABLE1_CONFIGS)
    )
    return SweepSpec(
        name="fig1" if suite == "int" else "fig2",
        title=f"Effects of memory subsystem on Spec{suite.upper()} "
        f"(idealized core, stalls only from ROB)",
        machines=tuple(f"limit(rob={w},histogram=off)" for w in _windows(scale)),
        memory=memories,
        workloads=(suite,),
    )


def table(grid: SweepGrid, result: ExperimentResult) -> None:
    """Tabulate Figure 1 (SpecINT) or Figure 2 (SpecFP): mean IPC per
    memory system and window size."""
    suite = grid.spec.workloads[0]
    windows = _windows(grid.scale)
    note_failures(result, grid)
    result.headers = ["memory", *[f"rob-{w}" for w in windows]]
    series: dict[str, list[tuple[float, float]]] = {}
    for gi, memory in enumerate(grid.memories):
        row: list[object] = [memory.name]
        for wi, window in enumerate(windows):
            mean = grid.mean_ipc(wi, gi, suite)
            row.append(round(mean, 3))
            series.setdefault(memory.name, []).append((window, mean))
        result.rows.append(row)
    result.charts.append(
        line_chart(
            series,
            title=f"Average IPC vs window size (Spec{suite.upper()})",
            logx=True,
        )
    )
    slow = series.get("MEM-400") or next(iter(series.values()))
    gain = slow[-1][1] / slow[0][1] if slow[0][1] else float("inf")
    result.notes.append(
        f"MEM-400 IPC gain from {windows[0]} to {windows[-1]} entries: {gain:.2f}x "
        f"(paper: large for SpecFP, small for SpecINT)"
    )


#: Report specs (Figure 1 = SpecINT, Figure 2 = SpecFP).  The paper
#: states no absolute IPC for these sweeps, so the checks encode its
#: qualitative claim: slow memory caps SpecINT almost regardless of
#: window size, while SpecFP recovers most of the lost IPC by 4K entries.
SPECS = {
    "fig1": FigureSpec(
        kind="line",
        caption="Mean SpecINT IPC vs instruction-window size under the "
        "Table-1 memory systems (idealized core, stalls only from the ROB)",
        x_label="instruction window (ROB entries)",
        y_label="mean IPC",
        logx=True,
        series=rows_as_series(),
        checks=(
            Check(
                "MEM-400 IPC gain, smallest→largest window",
                1.6,
                row_span_ratio("MEM-400"),
                mode="at_most",
                note="paper: SpecINT barely improves — pointer chasing and "
                "miss-dependent mispredictions stay on the critical path",
            ),
        ),
    ),
    "fig2": FigureSpec(
        kind="line",
        caption="Mean SpecFP IPC vs instruction-window size under the "
        "Table-1 memory systems (idealized core, stalls only from the ROB)",
        x_label="instruction window (ROB entries)",
        y_label="mean IPC",
        logx=True,
        series=rows_as_series(),
        checks=(
            Check(
                "MEM-400 IPC gain, smallest→largest window",
                2.0,
                row_span_ratio("MEM-400"),
                mode="at_least",
                note="paper: with enough in-flight work SpecFP recovers "
                "almost all IPC lost to slow memory",
            ),
        ),
    ),
}
