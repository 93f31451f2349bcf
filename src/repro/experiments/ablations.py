"""Ablation studies of the D-KIP's design choices.

Not paper figures — these quantify the decisions Section 5 argues for and
the alternatives Section 6 cites:

* **rob-timer** — the Aging-ROB delay: long enough to know L2 hit/miss,
  short enough not to hold the window hostage;
* **llib-size** — how big the FIFO must be before fill-up stalls vanish
  (the paper's Figures 13/14 argument);
* **llrf-banks** — the banked register file vs a smaller/larger layout;
* **checkpoints** — checkpoint-stack capacity and interval;
* **predictor** — the perceptron against gshare/bimodal (Table 2's choice);
* **runahead** — the related-work alternative (reference [24]): how much
  of the KILO-class benefit prefetch-by-pre-execution captures without a
  large effective window.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, Scale, mean_ipc
from repro.experiments.sweep import SweepGrid, SweepSpec, note_failures
from repro.report.spec import (
    Check,
    FigureSpec,
    cell,
    cell_ratio,
    single_series,
    wide_rows_as_groups,
)

#: Aging-ROB timers (cycles); the ROB holds timer x decode width entries.
TIMERS = (4, 8, 16, 32, 64)
LLIB_SIZES = (64, 256, 1024, 2048, 4096)
PREDICTORS = ("perceptron", "gshare", "bimodal", "always-taken")

#: Each study's grid on the default memory system, by experiment name.
SWEEPS = {
    spec.name: spec
    for spec in (
        SweepSpec(
            name="ablation-timer",
            title="Aging-ROB timer sweep (SpecFP mean IPC)",
            machines=tuple(
                f"dkip(timer={timer},rob={timer * 4},name=timer-{timer})"
                for timer in TIMERS
            ),
            workloads=("fp",),
        ),
        SweepSpec(
            name="ablation-llib",
            title="LLIB capacity sweep (all benchmarks, mean IPC)",
            machines=tuple(f"dkip(llib={size},name=llib-{size})" for size in LLIB_SIZES),
            workloads=("fp", "int"),
        ),
        # The predictor is a field of the Cache Processor's config, so
        # the perceptron row is exactly the default D-KIP-2048 and
        # shares its stored cells with Figure 13.
        SweepSpec(
            name="ablation-predictor",
            title="Branch predictor ablation (SpecINT, D-KIP)",
            machines=("dkip",),
            axes=(("predictor", PREDICTORS),),
            workloads=("int",),
        ),
        SweepSpec(
            name="ablation-runahead",
            title="Runahead execution vs KILO-class machines (SpecFP mean IPC)",
            machines=("R10-64", "runahead-64", "KILO-1024", "D-KIP-2048"),
            workloads=("fp",),
        ),
    )
}


def sweep_for(scale: Scale, study: str) -> SweepSpec:
    """The grid of the *study* ablation (its experiment name).  The grid
    is the same at every scale; its suite tokens follow *scale* when
    planned."""
    return SWEEPS[study]


def timer_table(grid: SweepGrid, result: ExperimentResult) -> None:
    """Aging-ROB timer sweep (capacity follows: timer x decode width)."""
    note_failures(result, grid)
    result.headers = ["timer (cycles)", "ROB entries", "mean IPC"]
    result.rows.extend(
        [timer, timer * 4, round(grid.mean_ipc(mi, 0, "fp"), 3)]
        for mi, timer in enumerate(TIMERS)
    )
    result.notes.append(
        "The paper picks 16 cycles: enough for the L2 tag probe; much "
        "larger timers re-grow the very window the D-KIP avoids."
    )


def llib_table(grid: SweepGrid, result: ExperimentResult) -> None:
    """LLIB capacity sweep (the FIFO is cheap, so how much is needed?)."""
    note_failures(result, grid)
    result.headers = ["LLIB entries", "mean IPC", "fill-up stall cycles"]
    for mi, size in enumerate(LLIB_SIZES):
        stats = grid.suite_stats(mi, 0, "fp") + grid.suite_stats(mi, 0, "int")
        stalls = sum(s.llib_full_stall_cycles for s in stats if s is not None)
        result.rows.append([size, round(mean_ipc(stats), 3), stalls])


def predictor_table(grid: SweepGrid, result: ExperimentResult) -> None:
    """Branch predictor ablation on the D-KIP (Table 2 uses the perceptron)."""
    note_failures(result, grid)
    result.headers = ["predictor", "mean IPC"]
    result.rows.extend(
        [predictor, round(grid.mean_ipc(mi, 0, "int"), 3)]
        for mi, predictor in enumerate(PREDICTORS)
    )


def runahead_table(grid: SweepGrid, result: ExperimentResult) -> None:
    """Runahead execution vs the window-based machines (SpecFP)."""
    note_failures(result, grid)
    result.headers = ["machine", "mean IPC"]
    result.rows.extend(
        [machine.name, round(grid.mean_ipc(mi, 0, "fp"), 3)]
        for mi, machine in enumerate(grid.machines)
    )
    result.notes.append(
        "Expected shape: runahead lands between R10-64 and the true "
        "large-window machines — prefetching overlaps misses but every "
        "episode re-executes its instructions, and serial chains gain "
        "nothing."
    )


#: Report specs for the design studies.  These are not paper figures, so
#: most are shape-only; the runahead study encodes the related-work
#: claim (reference [24]) that prefetch-by-pre-execution lands between
#: the small-window baseline and the true large-window machines.
SPECS = {
    "ablation-timer": FigureSpec(
        kind="line",
        caption="SpecFP mean IPC vs the Aging-ROB timer (ROB capacity "
        "follows as timer x decode width); the paper picks 16 cycles",
        x_label="Aging-ROB timer (cycles)",
        y_label="mean IPC",
        series=single_series("SpecFP mean IPC", x_col=0, y_col=2),
    ),
    "ablation-llib": FigureSpec(
        kind="line",
        caption="Mean IPC over all benchmarks vs LLIB capacity — how big "
        "the FIFO must be before fill-up stalls vanish",
        x_label="LLIB entries",
        y_label="mean IPC",
        logx=True,
        series=single_series("mean IPC", x_col=0, y_col=1),
    ),
    "ablation-predictor": FigureSpec(
        kind="bars",
        caption="SpecINT mean IPC on the D-KIP by branch predictor "
        "(Table 2 uses the perceptron)",
        x_label="predictor",
        y_label="mean IPC",
        groups=wide_rows_as_groups(0, {"mean IPC": 1}),
        checks=(
            Check(
                "perceptron vs gshare",
                1.0,
                cell_ratio(
                    cell("mean IPC", predictor="perceptron"),
                    cell("mean IPC", predictor="gshare"),
                ),
                mode="at_least",
                warn_rel=0.05,
                note="Table 2 picks the perceptron; it should not lose "
                "to the cheaper history predictors",
            ),
        ),
    ),
    "ablation-runahead": FigureSpec(
        kind="bars",
        caption="SpecFP mean IPC: runahead execution against the "
        "small-window baseline and the KILO-class machines",
        x_label="machine",
        y_label="mean IPC",
        groups=wide_rows_as_groups(0, {"mean IPC": 1}),
        checks=(
            Check(
                "runahead vs R10-64",
                1.0,
                cell_ratio(
                    cell("mean IPC", machine="runahead-64"),
                    cell("mean IPC", machine="R10-64"),
                ),
                mode="at_least",
                warn_rel=0.10,
                note="prefetch-by-pre-execution should beat the plain "
                "small-window core on SpecFP",
            ),
            Check(
                "runahead vs D-KIP-2048",
                1.0,
                cell_ratio(
                    cell("mean IPC", machine="runahead-64"),
                    cell("mean IPC", machine="D-KIP-2048"),
                ),
                mode="at_most",
                warn_rel=0.10,
                note="every runahead episode re-executes its "
                "instructions, so it cannot reach the true "
                "large-window machines",
            ),
        ),
    ),
}
