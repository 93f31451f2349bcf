"""Figures 13 and 14 (and §4.5): LLIB instruction and register occupancy.

Runs the default D-KIP-2048 over every benchmark and reports the maximum
number of instructions and of LLRF registers simultaneously live in the
integer LLIB (Figure 13, SpecINT) and the floating-point LLIB (Figure 14,
SpecFP).

Paper findings: registers are always well below instructions (many LLIB
entries carry no READY operand); several SpecINT benchmarks fill the
2048-entry LLIB (load chains), while no SpecFP benchmark does; the paper
concludes an LLRF of ~1000 entries (average well under 500) suffices.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, Scale
from repro.experiments.sweep import SweepGrid, SweepSpec, note_failures
from repro.report.spec import Check, FigureSpec, max_row_ratio, wide_rows_as_groups
from repro.viz.ascii import bar_chart


def _llib(suite: str) -> str:
    return "integer" if suite == "int" else "floating-point"


def sweep_for(scale: Scale, suite: str) -> SweepSpec:
    """The default D-KIP-2048 over *suite* on the default memory system;
    the suite token follows *scale* when planned."""
    return SweepSpec(
        name="fig13" if suite == "int" else "fig14",
        title=f"Maximum number of registers and instructions in the "
        f"{_llib(suite)} LLIB (Spec{suite.upper()})",
        machines=("D-KIP-2048",),
        workloads=(suite,),
    )


def table(grid: SweepGrid, result: ExperimentResult) -> None:
    """Tabulate Figure 13 (integer LLIB) or Figure 14 (floating-point
    LLIB): peak instructions and registers per benchmark."""
    suite = grid.spec.workloads[0]
    note_failures(result, grid)
    result.headers = ["benchmark", "max instructions", "max registers", "LLIB filled?"]
    instr_chart: dict[str, float] = {}
    llib_size = grid.machines[0].config.llib_size
    for bench in grid.workloads[suite]:
        stats = grid.stats(0, 0, bench)
        if stats is None:
            continue  # failed under a tolerant policy; named in the notes
        if suite == "int":
            max_instr = stats.llib_max_instructions_int
            max_regs = stats.llib_max_registers_int
        else:
            max_instr = stats.llib_max_instructions_fp
            max_regs = stats.llib_max_registers_fp
        filled = "yes" if max_instr >= llib_size else "no"
        result.rows.append([bench, max_instr, max_regs, filled])
        instr_chart[bench] = float(max_instr)
    result.charts.append(
        bar_chart(instr_chart, title=f"max {_llib(suite)} LLIB instructions per benchmark")
    )
    regs = [row[2] for row in result.rows]
    instrs = [row[1] for row in result.rows]
    if result.rows:
        result.notes.append(
            f"register peak {max(regs)} vs instruction peak {max(instrs)} "
            "(paper: registers always below instructions; INT pressure > FP)"
        )


def _occupancy_spec(suite: str) -> FigureSpec:
    return FigureSpec(
        kind="bars",
        caption=f"Peak instructions and LLRF registers simultaneously "
        f"live in the {_llib(suite)} LLIB, per Spec{suite.upper()} benchmark",
        x_label="benchmark",
        y_label="peak LLIB entries",
        groups=wide_rows_as_groups(
            0, {"max instructions": 1, "max registers": 2}
        ),
        checks=(
            Check(
                "per-benchmark peak registers / peak instructions",
                1.0,
                max_row_ratio("max registers", "max instructions"),
                mode="at_most",
                warn_rel=0.05,
                note="paper: many LLIB entries carry no READY operand, so "
                "live registers always stay below live instructions",
            ),
        ),
    )


#: Report specs (Figure 13 = integer LLIB, Figure 14 = FP LLIB).
SPECS = {"fig13": _occupancy_spec("int"), "fig14": _occupancy_spec("fp")}
