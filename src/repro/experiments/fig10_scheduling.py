"""Figure 10 (and §4.3): scheduler policy and queue sizes in the D-KIP.

Sweeps the Cache Processor configuration (in-order, or out-of-order with
20/40/60/80-entry queues) against the Memory Processor configuration
(in-order, OOO-20, OOO-40) on SpecFP, plus the SpecINT summary the text
reports.

The grid is a two-axis :class:`~repro.experiments.sweep.SweepSpec` over
the bare ``dkip`` kind — the sweep engine crosses the ``cp`` and ``mp``
axes into the machine spec and runs every resulting configuration; only
the CP-rows x MP-columns table layout is figure-specific.

Paper findings: out-of-order vs in-order in the CP is worth ≈ +32% on
SpecFP (+29% SpecINT); the MP configuration matters little (an OOO-40 MP
buys ~1% under an in-order CP, ~6.3% under an OOO-80 CP); an OOO-20 MP is
almost as good as OOO-40.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, Scale
from repro.experiments.sweep import SweepGrid, SweepSpec, note_failures
from repro.report.spec import Check, FigureSpec, cell, cell_ratio, columns_as_series
from repro.viz.ascii import line_chart

CP_CONFIGS_FULL = ("INO", "OOO-20", "OOO-40", "OOO-60", "OOO-80")
CP_CONFIGS_QUICK = ("INO", "OOO-20", "OOO-80")
MP_CONFIGS_FULL = ("INO", "OOO-20", "OOO-40")
MP_CONFIGS_QUICK = ("INO", "OOO-40")


def sweep_for(scale: Scale, suite: str) -> SweepSpec:
    """The declarative (cp x mp) grid at *scale* for *suite*."""
    cp_configs = CP_CONFIGS_QUICK if scale == Scale.QUICK else CP_CONFIGS_FULL
    mp_configs = MP_CONFIGS_QUICK if scale == Scale.QUICK else MP_CONFIGS_FULL
    return SweepSpec(
        name="fig10" if suite == "fp" else "fig10int",
        title=f"Impact of scheduling policy and queue sizes (Spec{suite.upper()})",
        machines=("dkip",),
        axes=(("cp", cp_configs), ("mp", mp_configs)),
        workloads=(suite,),
    )


def table(grid: SweepGrid, result: ExperimentResult) -> None:
    """Tabulate Figure 10 or its SpecINT twin: mean IPC with CP
    configurations as rows and MP configurations as columns."""
    suite = grid.spec.workloads[0]
    cp_configs = grid.spec.axes[0][1]
    mp_configs = grid.spec.axes[1][1]
    note_failures(result, grid)
    result.headers = ["CP config", *[f"MP {mp}" for mp in mp_configs]]
    series: dict[str, list[tuple[float, float]]] = {}
    grid_ipc: dict[tuple[str, str], float] = {}
    # Machines expand in axes-product order: cp varies slowest.
    for ci, cp in enumerate(cp_configs):
        row: list[object] = [cp]
        for mi, mp in enumerate(mp_configs):
            index = ci * len(mp_configs) + mi
            ipc = grid.mean_ipc(index, 0, suite)
            grid_ipc[(cp, mp)] = ipc
            row.append(round(ipc, 3))
            x = 0 if cp == "INO" else int(cp.split("-")[1])
            series.setdefault(f"MP {mp}", []).append((max(x, 1), ipc))
        result.rows.append(row)
    result.charts.append(
        line_chart(series, title="IPC vs CP queue size (x=1 means in-order CP)")
    )
    first_mp = mp_configs[0]
    if (
        ("OOO-20", first_mp) in grid_ipc
        and ("INO", first_mp) in grid_ipc
        and grid_ipc[("INO", first_mp)]
    ):
        ooo_gain = grid_ipc[("OOO-20", first_mp)] / grid_ipc[("INO", first_mp)] - 1.0
        result.notes.append(
            f"CP out-of-order (20) vs in-order: {ooo_gain * 100:+.1f}% "
            f"(paper: ~+32% SpecFP, ~+29% SpecINT)"
        )
    biggest_cp = cp_configs[-1]
    if (biggest_cp, "OOO-40") in grid_ipc and (biggest_cp, "INO") in grid_ipc:
        mp_gain = grid_ipc[(biggest_cp, "OOO-40")] / grid_ipc[(biggest_cp, "INO")] - 1.0
        result.notes.append(
            f"MP OOO-40 vs in-order under CP {biggest_cp}: {mp_gain * 100:+.1f}% "
            f"(paper: +6.3% with OOO-80 CP, +1% with in-order CP)"
        )


def _cp_ooo_gain():
    """Metric: OOO-20 CP over in-order CP, both under an in-order MP."""
    return cell_ratio(
        cell("MP INO", **{"CP config": "OOO-20"}),
        cell("MP INO", **{"CP config": "INO"}),
    )


def _spec(suite: str, paper_gain: float) -> FigureSpec:
    checks = [
        Check(
            "out-of-order CP (20 entries) vs in-order CP",
            paper_gain,
            _cp_ooo_gain(),
            note=f"paper: +{(paper_gain - 1) * 100:.0f}% on Spec{suite.upper()}",
        ),
    ]
    if suite == "fp":
        checks.append(
            Check(
                "OOO-40 MP vs in-order MP under the largest CP",
                1.063,
                cell_ratio(
                    cell("MP OOO-40", **{"CP config": "OOO-80"}),
                    cell("MP INO", **{"CP config": "OOO-80"}),
                ),
                pass_rel=0.10,
                warn_rel=0.25,
                note="paper: the MP configuration matters little (+6.3% "
                "under an OOO-80 CP, +1% under an in-order CP)",
            )
        )
    return FigureSpec(
        kind="line",
        caption=f"Mean Spec{suite.upper()} IPC vs Cache-Processor queue "
        "size (x=1 is an in-order CP), one line per Memory-Processor "
        "configuration",
        x_label="CP queue entries (1 = in-order)",
        y_label="mean IPC",
        series=columns_as_series(),
        checks=tuple(checks),
    )


#: Report specs: fig10 is the paper's SpecFP figure; fig10int the
#: SpecINT summary §4.3 reports in the text.
SPECS = {"fig10": _spec("fp", 1.32), "fig10int": _spec("int", 1.29)}
