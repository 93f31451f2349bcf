"""Figure 9: the headline comparison — R10-64, R10-256, KILO-1024, D-KIP-2048.

Average IPC over SpecINT and SpecFP for the four machines, all sharing the
default memory system (Table 2/3) and 512-entry LSQs.

The grid itself is a :class:`~repro.experiments.sweep.SweepSpec` over the
four named machine presets, executed by the generic sweep engine
(``dkip-experiments sweep fig9`` runs the same grid); only the table
formatting — the paper's reference IPC column and speedups over R10-64 —
is figure-specific.

Paper numbers:
    SpecINT: 1.19 / 1.32 / 1.38 / 1.33
    SpecFP : 1.26 / 1.71 / 2.23 / 2.37

Expected shape: both KILO-style machines far ahead of the conventional
cores on SpecFP; on SpecINT the gains compress and the traditional KILO
edges out the D-KIP (its out-of-order SLIQ helps pointer chasing, at much
higher implementation cost).
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult
from repro.experiments.sweep import SweepGrid, SweepSpec, note_failures
from repro.report.spec import Check, FigureSpec, cell, cell_ratio, long_rows_as_groups
from repro.viz.ascii import bar_chart

PAPER_IPC = {
    ("int", "R10-64"): 1.19,
    ("int", "R10-256"): 1.32,
    ("int", "KILO-1024"): 1.38,
    ("int", "D-KIP-2048"): 1.33,
    ("fp", "R10-64"): 1.26,
    ("fp", "R10-256"): 1.71,
    ("fp", "KILO-1024"): 2.23,
    ("fp", "D-KIP-2048"): 2.37,
}

#: The declarative grid: the four named machine presets over both suites
#: on the default memory system.
SWEEP = SweepSpec(
    name="fig9",
    title="Performance of the D-KIP compared to baselines and a "
    "traditional KILO processor",
    machines=("R10-64", "R10-256", "KILO-1024", "D-KIP-2048"),
    workloads=("int", "fp"),
)


def table(grid: SweepGrid, result: ExperimentResult) -> None:
    """Tabulate Figure 9: mean IPC per suite and machine, the paper's
    IPC beside it, and the speedup over R10-64."""
    note_failures(result, grid)
    result.headers = ["suite", "machine", "mean IPC", "paper IPC", "speedup vs R10-64"]
    for suite in grid.spec.workloads:
        base = None
        chart_data = {}
        for index, machine in enumerate(grid.machines):
            ipc = grid.mean_ipc(index, 0, suite)
            if base is None:
                base = ipc
            chart_data[machine.name] = ipc
            result.rows.append(
                [
                    f"Spec{suite.upper()}",
                    machine.name,
                    round(ipc, 3),
                    PAPER_IPC[(suite, machine.name)],
                    f"{ipc / base:.2f}x" if base else "-",
                ]
            )
        result.charts.append(
            bar_chart(chart_data, title=f"Spec{suite.upper()} average IPC")
        )
    result.notes.append(
        "Shape check: FP ordering D-KIP/KILO >> R10-256 > R10-64; INT "
        "ordering KILO > D-KIP ~ R10-256 > R10-64 with compressed gaps."
    )


def _speedup(suite: str, machine: str):
    """Metric: mean-IPC ratio of *machine* over R10-64 within *suite*."""
    return cell_ratio(
        cell("mean IPC", suite=suite, machine=machine),
        cell("mean IPC", suite=suite, machine="R10-64"),
    )


#: Report spec: the headline comparison.  Absolute IPC depends on the
#: workload substrate, so the verdict checks compare each machine's
#: speedup over R10-64 against the same ratio formed from the paper's
#: stated IPC numbers; the bars still carry the paper's absolute values
#: as reference marks.
SPEC = FigureSpec(
    kind="bars",
    caption="Mean IPC of the four machines over SpecINT and SpecFP; "
    "dashes mark the paper's reported IPC",
    y_label="mean IPC",
    groups=long_rows_as_groups(0, 1, 2),
    reference_points={
        (f"Spec{suite.upper()}", machine): ipc
        for (suite, machine), ipc in PAPER_IPC.items()
    },
    checks=(
        Check(
            "SpecFP speedup, R10-256 vs R10-64",
            round(1.71 / 1.26, 3),
            _speedup("SpecFP", "R10-256"),
        ),
        Check(
            "SpecFP speedup, KILO-1024 vs R10-64",
            round(2.23 / 1.26, 3),
            _speedup("SpecFP", "KILO-1024"),
        ),
        Check(
            "SpecFP speedup, D-KIP-2048 vs R10-64",
            round(2.37 / 1.26, 3),
            _speedup("SpecFP", "D-KIP-2048"),
        ),
        Check(
            "SpecINT speedup, R10-256 vs R10-64",
            round(1.32 / 1.19, 3),
            _speedup("SpecINT", "R10-256"),
        ),
        Check(
            "SpecINT speedup, KILO-1024 vs R10-64",
            round(1.38 / 1.19, 3),
            _speedup("SpecINT", "KILO-1024"),
        ),
        Check(
            "SpecINT speedup, D-KIP-2048 vs R10-64",
            round(1.33 / 1.19, 3),
            _speedup("SpecINT", "D-KIP-2048"),
        ),
    ),
)
