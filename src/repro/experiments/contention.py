"""Shared-L2 contention study on the ``dual`` machine kind.

An extension of the Figure 11/12 methodology: instead of shrinking the
L2 or stretching memory latency (Table 1), memory pressure is generated
*endogenously* by a pointer-chasing co-runner on the second core of a
``dual(...)`` machine.  The grid crosses the co-runner axis (solo vs
contended) with the branch-predictor axis (perceptron vs gshare-14) over
one cache-sensitive SpecINT stand-in (``mcf``) and one streaming SpecFP
stand-in (``swim``) — 2 × 2 machines × 2 workloads.

Reported per cell: mean IPC, the slowdown against the solo machine with
the same predictor (the contention cost proper), the L2 port-conflict
share, and the co-runner's own achieved IPC (the interference was real).
The paper states no numbers for this configuration; the checks are
qualitative — contention must not speed the primary up, and must
actually exercise the arbiter.
"""

from __future__ import annotations

from repro.experiments.common import (
    ExperimentResult,
    Scale,
    Stopwatch,
    scale_of,
)
from repro.experiments.sweep import (
    SweepPreset,
    SweepSpec,
    note_failures,
    register_sweep_preset,
    sweep_grid,
)
from repro.report.spec import Check, FigureSpec, cell, long_rows_as_groups

#: The contended co-runner: a high-MLP streaming sweep over 8 MB — six
#: independent miss streams that keep L2 ports busy and evict the
#: primary's lines.  (A serial pointer chaser is a *gentler* neighbour:
#: one outstanding miss at a time barely queues, and on overlapping
#: address ranges it even prefetches for the primary.)
CO_RUNNER = "synth(chase=0,mlp=6,footprint=8M)"

CONTENTION_SWEEP = SweepSpec(
    name="contention",
    title="shared-L2 contention: co-runner x predictor on the dual kind",
    # l2busy=2 on the shared machine makes port occupancy visible; it
    # applies to the solo baselines too, so the comparison stays fair.
    machines=("dual(rob=64,l2busy=2)",),
    workloads=("mcf", "swim"),
    axes=(
        ("co", ("none", CO_RUNNER)),
        ("bp", ("perceptron", "gshare-14")),
    ),
)


def _config_label(co: str, bp: str) -> str:
    return f"{'contended' if co != 'none' else 'solo'}/{bp}"


def run(
    scale: Scale | str = Scale.DEFAULT, store=None, force=False
) -> ExperimentResult:
    scale = scale_of(scale)
    result = ExperimentResult(
        name="contention",
        title="Shared-L2 contention (dual-core) across the predictor axis",
        headers=[
            "workload", "config", "co-runner", "bp", "mean IPC",
            "slowdown vs solo", "arb conflict share", "co IPC",
        ],
        scale=scale,
    )
    with Stopwatch(result):
        grid = sweep_grid(CONTENTION_SWEEP, scale, store=store, force=force)
        note_failures(result, grid)
        # Solo IPC per (bp, workload token): the slowdown baselines.
        solo: dict[tuple[str, str], float] = {}
        for mi, machine in enumerate(grid.machines):
            axes = dict(machine.axes)
            if axes.get("co") == "none":
                for token in grid.workloads:
                    solo[(axes["bp"], token)] = grid.mean_ipc(mi, 0, token)
        for mi, machine in enumerate(grid.machines):
            axes = dict(machine.axes)
            co, bp = axes["co"], axes["bp"]
            for token in grid.workloads:
                stats = [s for s in grid.suite_stats(mi, 0, token) if s is not None]
                if not stats:
                    result.rows.append(
                        [token, _config_label(co, bp), co, bp, "n/a", "-", "-", "-"]
                    )
                    continue
                ipc = grid.mean_ipc(mi, 0, token)
                baseline = solo.get((bp, token))
                slowdown = (
                    f"{baseline / ipc:.3f}x" if baseline and ipc else "-"
                )
                accesses = sum(s.l2_arb_accesses for s in stats)
                conflicts = sum(s.l2_arb_conflicts for s in stats)
                share = f"{conflicts / accesses:.1%}" if accesses else "0.0%"
                co_ipc = (
                    sum(s.co_committed for s in stats)
                    / sum(s.cycles for s in stats)
                )
                result.rows.append(
                    [
                        token,
                        _config_label(co, bp),
                        co,
                        bp,
                        round(ipc, 3),
                        slowdown,
                        share,
                        round(co_ipc, 3),
                    ]
                )
    result.notes.append(
        "slowdown vs solo = (solo IPC / contended IPC) at the same "
        "predictor; the solo rows are their own 1.000x baseline"
    )
    result.notes.append(
        f"co-runner: {CO_RUNNER} on the second core, private L1, shared "
        "arbitrated L2 (see repro.memory.shared)"
    )
    return result


#: Report spec.  The paper has no dual-core numbers; the checks pin the
#: qualitative contract: a co-runner never speeds the primary up, and the
#: contended cells genuinely fight over the L2 ports.
SPEC = FigureSpec(
    kind="bars",
    caption="Mean IPC per workload under shared-L2 contention — solo vs "
    "pointer-chasing co-runner, perceptron vs gshare-14 front end "
    "(extension of the Figure 11/12 memory-pressure methodology)",
    y_label="mean IPC",
    groups=long_rows_as_groups(0, 1, 4),
    checks=(
        Check(
            "mcf slowdown under a streaming co-runner (perceptron)",
            1.0,
            cell("slowdown vs solo", workload="mcf", config="contended/perceptron"),
            mode="at_least",
            warn_rel=0.02,
            note="contention may only slow the measured core down",
        ),
        Check(
            "swim slowdown under a streaming co-runner (perceptron)",
            1.0,
            cell("slowdown vs solo", workload="swim", config="contended/perceptron"),
            mode="at_least",
            warn_rel=0.02,
            note="streaming code also queues on the shared L2 ports",
        ),
        Check(
            "contended mcf exercises the L2 arbiter (gshare-14)",
            0.001,
            cell("arb conflict share", workload="mcf", config="contended/gshare-14"),
            mode="at_least",
            note="port conflicts must actually occur under contention",
        ),
    ),
)

register_sweep_preset(
    SweepPreset(
        name="contention",
        sweep_for=lambda scale: CONTENTION_SWEEP,
        description="dual-core shared-L2 contention: co-runner x predictor axes",
        runner=run,
    )
)


if __name__ == "__main__":
    print(run().render())
