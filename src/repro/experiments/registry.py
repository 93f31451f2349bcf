"""Experiment registry: the CLI, report builder and benchmarks look up here.

Each entry is an :class:`Experiment` record binding a name to its runner,
a one-line description, the paper table/figure it reproduces, and the
:class:`~repro.report.spec.FigureSpec` the reproduction report renders it
with.  A grid experiment also names its grid at a scale and the table
function that reads the executed grid; its runner is
:func:`repro.experiments.sweep.run_sweep` over the two, and
``dkip-experiments sweep``/``submit`` plan the same grid by name.
``EXPERIMENTS`` (name → runner) and :func:`get_experiment` keep the
original callable-based surface for callers that only run things.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.experiments import (
    ablations,
    contention,
    fig01_02_window,
    fig03_locality,
    fig09_comparison,
    fig10_scheduling,
    fig11_12_cache,
    fig13_14_occupancy,
    simpoint_sampling,
    table1,
)
from repro.experiments.common import ExperimentResult, Scale, scale_of
from repro.experiments.sweep import SweepGrid, SweepSpec, run_sweep
from repro.report.spec import FigureSpec


@dataclass(frozen=True)
class Experiment:
    """One registered table/figure/ablation regeneration."""

    name: str
    #: ``run(scale, store=..., force=...) -> ExperimentResult``.
    run: Callable[..., ExperimentResult]
    description: str
    paper: str  #: the paper table/figure this reproduces, or a study label
    spec: FigureSpec | None = None
    #: ``grid(scale) -> SweepSpec``: the grid ``run`` plans at a scale;
    #: None for an experiment that runs no single grid.
    grid: Callable[[Scale], SweepSpec] | None = None
    #: ``table(grid, result)``: sets the result's headers, rows, charts
    #: and notes from the executed grid.
    table: Callable[[SweepGrid, ExperimentResult], object] | None = None


def _grid_experiment(
    name: str,
    description: str,
    paper: str,
    spec: FigureSpec,
    grid: Callable[[Scale], SweepSpec],
    table: Callable[[SweepGrid, ExperimentResult], object],
) -> Experiment:
    """The record of an experiment that is one grid plus one table."""

    def run(scale: Scale | str = Scale.DEFAULT, store=None, force=False):
        scale = scale_of(scale)
        return run_sweep(grid(scale), scale, store=store, force=force, table=table)

    return Experiment(name, run, description, paper, spec, grid, table)


#: name -> full experiment record, in report/document order.
REGISTRY: dict[str, Experiment] = {
    e.name: e
    for e in (
        Experiment(
            "table1",
            table1.run,
            "The six memory subsystems of the memory-wall characterization",
            "Table 1",
            table1.SPEC,
        ),
        _grid_experiment(
            "fig1",
            "SpecINT IPC vs instruction-window size under six memory systems",
            "Figure 1",
            fig01_02_window.SPECS["fig1"],
            partial(fig01_02_window.sweep_for, suite="int"),
            fig01_02_window.table,
        ),
        _grid_experiment(
            "fig2",
            "SpecFP IPC vs instruction-window size under six memory systems",
            "Figure 2",
            fig01_02_window.SPECS["fig2"],
            partial(fig01_02_window.sweep_for, suite="fp"),
            fig01_02_window.table,
        ),
        _grid_experiment(
            "fig3",
            "Decode→issue distance distribution — execution locality",
            "Figure 3",
            fig03_locality.SPEC,
            partial(fig03_locality.sweep_for, suite="fp"),
            fig03_locality.table,
        ),
        _grid_experiment(
            "fig9",
            "Headline IPC comparison: R10-64/256, KILO-1024, D-KIP-2048",
            "Figure 9",
            fig09_comparison.SPEC,
            lambda scale: fig09_comparison.SWEEP,
            fig09_comparison.table,
        ),
        _grid_experiment(
            "fig10",
            "CP/MP scheduler policy and queue-size sweep on SpecFP",
            "Figure 10",
            fig10_scheduling.SPECS["fig10"],
            partial(fig10_scheduling.sweep_for, suite="fp"),
            fig10_scheduling.table,
        ),
        _grid_experiment(
            "fig10int",
            "CP/MP scheduler policy and queue-size sweep on SpecINT",
            "§4.3 (text)",
            fig10_scheduling.SPECS["fig10int"],
            partial(fig10_scheduling.sweep_for, suite="int"),
            fig10_scheduling.table,
        ),
        _grid_experiment(
            "fig11",
            "L2 cache-size sweep on SpecINT",
            "Figure 11",
            fig11_12_cache.SPECS["fig11"],
            partial(fig11_12_cache.sweep_for, suite="int"),
            fig11_12_cache.table,
        ),
        _grid_experiment(
            "fig12",
            "L2 cache-size sweep on SpecFP",
            "Figure 12",
            fig11_12_cache.SPECS["fig12"],
            partial(fig11_12_cache.sweep_for, suite="fp"),
            fig11_12_cache.table,
        ),
        _grid_experiment(
            "fig13",
            "Integer LLIB instruction and register occupancy",
            "Figure 13",
            fig13_14_occupancy.SPECS["fig13"],
            partial(fig13_14_occupancy.sweep_for, suite="int"),
            fig13_14_occupancy.table,
        ),
        _grid_experiment(
            "fig14",
            "Floating-point LLIB instruction and register occupancy",
            "Figure 14",
            fig13_14_occupancy.SPECS["fig14"],
            partial(fig13_14_occupancy.sweep_for, suite="fp"),
            fig13_14_occupancy.table,
        ),
        Experiment(
            "sampling",
            simpoint_sampling.run,
            "SimPoint weighted-phase estimate vs full-trace IPC",
            "methodology (§5: SimPoint samples)",
            simpoint_sampling.SPEC,
        ),
        _grid_experiment(
            "contention",
            "Shared-L2 contention: co-runner x predictor axes (dual kind)",
            "extension (Figs. 11/12 methodology)",
            contention.SPEC,
            lambda scale: contention.CONTENTION_SWEEP,
            contention.table,
        ),
        # Ablations (not paper figures; design-choice studies).
        _grid_experiment(
            "ablation-timer",
            "Aging-ROB timer sweep (the paper picks 16 cycles)",
            "design study",
            ablations.SPECS["ablation-timer"],
            partial(ablations.sweep_for, study="ablation-timer"),
            ablations.timer_table,
        ),
        _grid_experiment(
            "ablation-llib",
            "LLIB capacity sweep — when do fill-up stalls vanish?",
            "design study",
            ablations.SPECS["ablation-llib"],
            partial(ablations.sweep_for, study="ablation-llib"),
            ablations.llib_table,
        ),
        _grid_experiment(
            "ablation-predictor",
            "Branch predictor ablation (Table 2 uses the perceptron)",
            "design study",
            ablations.SPECS["ablation-predictor"],
            partial(ablations.sweep_for, study="ablation-predictor"),
            ablations.predictor_table,
        ),
        _grid_experiment(
            "ablation-runahead",
            "Runahead execution vs the KILO-class machines",
            "design study",
            ablations.SPECS["ablation-runahead"],
            partial(ablations.sweep_for, study="ablation-runahead"),
            ablations.runahead_table,
        ),
    )
}

#: name -> callable(scale, store=..., force=...) — the original runner
#: surface.
EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    name: experiment.run for name, experiment in REGISTRY.items()
}


def get_experiment(name: str) -> Callable[..., ExperimentResult]:
    """The runner registered under *name* (raises ``ValueError`` if absent)."""
    return get_info(name).run


def get_info(name: str) -> Experiment:
    """The full :class:`Experiment` record registered under *name*."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; available: {', '.join(REGISTRY)}"
        ) from None
