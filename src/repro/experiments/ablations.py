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

import dataclasses

from repro.experiments.common import (
    ExperimentResult,
    INSTRUCTIONS,
    Scale,
    Stopwatch,
    mean_ipc,
    run_noted,
    scale_of,
    suite_names,
)
from repro.memory import DEFAULT_MEMORY
from repro.report.spec import (
    Check,
    FigureSpec,
    cell,
    cell_ratio,
    single_series,
    wide_rows_as_groups,
)
from repro.sim.config import DKIP_2048, KILO_1024, R10_64, RunaheadConfig


def _suites(result: ExperimentResult, configs, names, n, store, force):
    """Run every config over *names* in one :func:`run_noted` call and
    return the per-config slices of stats (``None`` marks failed cells)."""
    cells = [(config, name, DEFAULT_MEMORY) for config in configs for name in names]
    stats = run_noted(result, cells, n, store=store, force=force)
    return [stats[i : i + len(names)] for i in range(0, len(stats), len(names))]


def run_timer(
    scale: Scale | str = Scale.DEFAULT, store=None, force=False
) -> ExperimentResult:
    """Aging-ROB timer sweep (capacity follows: timer x decode width)."""
    scale = scale_of(scale)
    n = INSTRUCTIONS[scale]
    names = suite_names("fp", scale)
    result = ExperimentResult(
        name="ablation-timer",
        title="Aging-ROB timer sweep (SpecFP mean IPC)",
        headers=["timer (cycles)", "ROB entries", "mean IPC"],
        scale=scale,
    )
    timers = (4, 8, 16, 32, 64)
    configs = [
        dataclasses.replace(
            DKIP_2048,
            name=f"timer-{timer}",
            rob_timer=timer,
            cache_processor=dataclasses.replace(
                DKIP_2048.cache_processor, rob_size=timer * 4
            ),
        )
        for timer in timers
    ]
    with Stopwatch(result):
        suites = _suites(result, configs, names, n, store, force)
        for timer, stats in zip(timers, suites):
            result.rows.append([timer, timer * 4, round(mean_ipc(stats), 3)])
    result.notes.append(
        "The paper picks 16 cycles: enough for the L2 tag probe; much "
        "larger timers re-grow the very window the D-KIP avoids."
    )
    return result


def run_llib_size(
    scale: Scale | str = Scale.DEFAULT, store=None, force=False
) -> ExperimentResult:
    """LLIB capacity sweep (the FIFO is cheap, so how much is needed?)."""
    scale = scale_of(scale)
    n = INSTRUCTIONS[scale]
    names = suite_names("fp", scale) + suite_names("int", scale)
    result = ExperimentResult(
        name="ablation-llib",
        title="LLIB capacity sweep (all benchmarks, mean IPC)",
        headers=["LLIB entries", "mean IPC", "fill-up stall cycles"],
        scale=scale,
    )
    sizes = (64, 256, 1024, 2048, 4096)
    configs = [
        dataclasses.replace(DKIP_2048, name=f"llib-{size}", llib_size=size)
        for size in sizes
    ]
    with Stopwatch(result):
        for size, stats in zip(sizes, _suites(result, configs, names, n, store, force)):
            stalls = sum(s.llib_full_stall_cycles for s in stats if s is not None)
            result.rows.append([size, round(mean_ipc(stats), 3), stalls])
    return result


def run_predictor(
    scale: Scale | str = Scale.DEFAULT, store=None, force=False
) -> ExperimentResult:
    """Branch predictor ablation on the D-KIP (Table 2 uses the perceptron).

    The predictor is a field of the Cache Processor's config, so the
    perceptron row is exactly the default D-KIP-2048 and shares its
    stored cells with Figure 13.
    """
    scale = scale_of(scale)
    n = INSTRUCTIONS[scale]
    names = suite_names("int", scale)
    result = ExperimentResult(
        name="ablation-predictor",
        title="Branch predictor ablation (SpecINT, D-KIP)",
        headers=["predictor", "mean IPC"],
        scale=scale,
    )
    predictors = ("perceptron", "gshare", "bimodal", "always-taken")
    configs = [
        dataclasses.replace(
            DKIP_2048,
            cache_processor=dataclasses.replace(
                DKIP_2048.cache_processor, predictor=predictor
            ),
        )
        for predictor in predictors
    ]
    with Stopwatch(result):
        suites = _suites(result, configs, names, n, store, force)
        for predictor, stats in zip(predictors, suites):
            result.rows.append([predictor, round(mean_ipc(stats), 3)])
    return result


def run_runahead(
    scale: Scale | str = Scale.DEFAULT, store=None, force=False
) -> ExperimentResult:
    """Runahead execution vs the window-based machines (SpecFP)."""
    scale = scale_of(scale)
    n = INSTRUCTIONS[scale]
    names = suite_names("fp", scale)
    result = ExperimentResult(
        name="ablation-runahead",
        title="Runahead execution vs KILO-class machines (SpecFP mean IPC)",
        headers=["machine", "mean IPC"],
        scale=scale,
    )
    machines = (R10_64, RunaheadConfig(), KILO_1024, DKIP_2048)
    with Stopwatch(result):
        for machine, stats in zip(machines, _suites(result, machines, names, n, store, force)):
            result.rows.append([machine.name, round(mean_ipc(stats), 3)])
    result.notes.append(
        "Expected shape: runahead lands between R10-64 and the true "
        "large-window machines — prefetching overlaps misses but every "
        "episode re-executes its instructions, and serial chains gain "
        "nothing."
    )
    return result


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
