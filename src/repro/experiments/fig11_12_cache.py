"""Figures 11 and 12 (and §4.4): impact of the L2 cache size.

Sweeps the L2 from 64 KB to 4 MB for the R10-256 baseline and four D-KIP
configurations (INO/INO, OOO-20/INO, OOO-80/INO, OOO-80/OOO-40) on
SpecINT (Figure 11) and SpecFP (Figure 12).

Paper findings: SpecINT IPC climbs steadily with every doubling on every
machine; SpecFP on the D-KIP is remarkably cache-insensitive (≤ ~15-24%
across the whole sweep, vs 1.55x for R10-256), because the D-KIP
processes correct-path long-latency instructions without stalling.  §4.4
also reports the CP executes 67% → 77% of committed instructions as the
L2 grows from 64 KB to 4 MB; the harness reports the same split.
"""

from __future__ import annotations

from repro.experiments.common import (
    ExperimentResult,
    Scale,
    Stopwatch,
    mean_ipc,
    scale_of,
)
from repro.experiments.sweep import SweepSpec, note_failures, sweep_grid
from repro.memory.configs import KB, MB
from repro.report.spec import Check, FigureSpec, cell, rows_as_series
from repro.viz.ascii import line_chart

SIZES_FULL = (64 * KB, 128 * KB, 256 * KB, 512 * KB, 1 * MB, 2 * MB, 4 * MB)
SIZES_DEFAULT = (64 * KB, 256 * KB, 512 * KB, 1 * MB, 4 * MB)
SIZES_QUICK = (64 * KB, 512 * KB, 4 * MB)

DKIP_CONFIGS = (("INO", "INO"), ("OOO-20", "INO"), ("OOO-80", "INO"), ("OOO-80", "OOO-40"))


def _sizes(scale: Scale) -> tuple[int, ...]:
    if scale == Scale.QUICK:
        return SIZES_QUICK
    return SIZES_FULL if scale == Scale.FULL else SIZES_DEFAULT


def sweep_for(scale: Scale, suite: str) -> SweepSpec:
    """The declarative (machine x L2 size) grid at *scale* for *suite*:
    the R10-256 baseline and the D-KIP CP/MP configurations."""
    configs = DKIP_CONFIGS if scale != Scale.QUICK else (DKIP_CONFIGS[0], DKIP_CONFIGS[-1])
    return SweepSpec(
        name="fig11" if suite == "int" else "fig12",
        title=f"Impact of L2 cache size on Spec{suite.upper()}",
        machines=("R10-256", *(f"dkip(cp={cp},mp={mp})" for cp, mp in configs)),
        memory=tuple(f"mem(l2={size // KB}K)" for size in _sizes(scale)),
        workloads=(suite,),
    )


def _label(name: str) -> str:
    """Row label: ``R10-256``, or ``CP/MP`` for a D-KIP (``CP-INO/MP-INO``
    reads ``INO/INO``)."""
    return name.replace("CP-", "").replace("MP-", "")


def run(
    scale: Scale | str = Scale.DEFAULT, suite: str = "fp", store=None, force=False
) -> ExperimentResult:
    scale = scale_of(scale)
    spec = sweep_for(scale, suite)
    sizes = _sizes(scale)
    result = ExperimentResult(
        name=spec.name,
        title=spec.title,
        headers=["machine", *[_size_label(s) for s in sizes], "sweep gain", "CP% 64K→4M"],
        scale=scale,
    )
    series: dict[str, list[tuple[float, float]]] = {}
    with Stopwatch(result):
        grid = sweep_grid(spec, scale, store=store, force=force)
        note_failures(result, grid)
        for mi, machine in enumerate(grid.machines):
            label = _label(machine.name)
            row: list[object] = [label]
            first = last = None
            cp_fractions = []
            for gi, size in enumerate(sizes):
                stats = [s for s in grid.suite_stats(mi, gi, suite) if s is not None]
                ipc = mean_ipc(stats)
                fractions = [s.cp_fraction for s in stats if s.committed_mp or s.committed_cp]
                cp_fractions.append(sum(fractions) / len(fractions) if fractions else 1.0)
                if first is None:
                    first = ipc
                last = ipc
                row.append(round(ipc, 3))
                series.setdefault(label, []).append((size // KB, ipc))
            row.append(f"{last / first:.2f}x" if first else "-")
            if label == "R10-256":
                row.append("-")
            else:
                row.append(f"{cp_fractions[0] * 100:.0f}%→{cp_fractions[-1] * 100:.0f}%")
            result.rows.append(row)
    result.charts.append(
        line_chart(series, title=f"IPC vs L2 size (KB, log2) — Spec{suite.upper()}", logx=True)
    )
    if suite == "fp":
        result.notes.append(
            "Paper: R10-256 speeds up 1.55x across the sweep while the most "
            "aggressive D-KIP sees only 1.18x; CP share grows 67%→77%."
        )
    else:
        result.notes.append(
            "Paper: near-linear IPC growth per L2 doubling for every machine "
            "on SpecINT, D-KIP behaving like the conventional core."
        )
    return result


def _size_label(size: int) -> str:
    return f"{size // MB}MB" if size >= MB else f"{size // KB}KB"


def _cache_spec(suite: str, checks: tuple[Check, ...]) -> FigureSpec:
    return FigureSpec(
        kind="line",
        caption=f"Mean Spec{suite.upper()} IPC vs L2 capacity for the "
        "R10-256 baseline and the D-KIP CP/MP configurations",
        x_label="L2 size (KB)",
        y_label="mean IPC",
        logx=True,
        series=rows_as_series(),
        checks=checks,
    )


#: Report specs.  Figure 12 (SpecFP) carries the paper's stated numbers:
#: cache sensitivity of the baseline vs near-insensitivity of the D-KIP,
#: plus the §4.4 CP-share growth.  Figure 11 (SpecINT) is qualitative —
#: every machine should climb with each L2 doubling.
SPECS = {
    "fig11": _cache_spec(
        "int",
        (
            Check(
                "R10-256 IPC gain across the L2 sweep",
                1.15,
                cell("sweep gain", machine="R10-256"),
                mode="at_least",
                note="paper: SpecINT IPC climbs steadily with every "
                "doubling on every machine (no absolute number stated)",
            ),
            Check(
                "aggressive D-KIP (OOO-80/OOO-40) gain across the sweep",
                1.10,
                cell("sweep gain", machine="OOO-80/OOO-40"),
                mode="at_least",
                note="paper: on SpecINT the D-KIP behaves like the "
                "conventional core",
            ),
        ),
    ),
    "fig12": _cache_spec(
        "fp",
        (
            Check(
                "R10-256 IPC gain across the L2 sweep",
                1.55,
                cell("sweep gain", machine="R10-256"),
                pass_rel=0.20,
                warn_rel=0.45,
                note="paper: the conventional core is strongly cache-"
                "sensitive on SpecFP",
            ),
            Check(
                "aggressive D-KIP (OOO-80/OOO-40) gain across the sweep",
                1.18,
                cell("sweep gain", machine="OOO-80/OOO-40"),
                pass_rel=0.20,
                warn_rel=0.45,
                note="paper: the D-KIP is remarkably cache-insensitive — "
                "long-latency instructions never stall the CP",
            ),
            Check(
                "CP share of committed instructions at 4MB",
                0.77,
                cell("CP% 64K→4M", pick="last", machine="OOO-80/OOO-40"),
                note="paper §4.4: the CP executes 67%→77% of commits as "
                "the L2 grows from 64KB to 4MB",
            ),
        ),
    ),
}


if __name__ == "__main__":
    print(run(suite="int").render())
    print()
    print(run(suite="fp").render())
