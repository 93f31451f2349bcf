"""Figure 3: decode→issue distance distribution — *execution locality*.

The measurement that motivates the whole paper: on an unlimited-window
processor with 400-cycle memory running SpecFP, the number of cycles each
correct-path instruction waits between decode and issue clusters into a
few groups — most instructions issue quickly, a peak waits ≈ one memory
latency (consumers of one miss), and a small peak waits ≈ two (chains of
two misses).

Paper numbers: ~70% below 300 cycles, 11-12% around 400, ~4% around 800.
"""

from __future__ import annotations

from repro.experiments.common import (
    ExperimentResult,
    Scale,
    Stopwatch,
    scale_of,
)
from repro.experiments.sweep import SweepSpec, note_failures, sweep_grid
from repro.report.spec import Check, FigureSpec, cell, wide_rows_as_groups
from repro.sim.stats import Histogram
from repro.viz.ascii import histogram_chart


def sweep_for(scale: Scale, suite: str) -> SweepSpec:
    """The unlimited-window limit core over *suite* on the default
    memory system; the suite token follows *scale* when planned."""
    return SweepSpec(
        name="fig3",
        title="Average distance between decode and issue "
        f"(Spec{suite.upper()}, unlimited window, 400-cycle memory)",
        machines=("limit",),
        workloads=(suite,),
    )


def run(
    scale: Scale | str = Scale.DEFAULT, suite: str = "fp", store=None, force=False
) -> ExperimentResult:
    scale = scale_of(scale)
    spec = sweep_for(scale, suite)
    result = ExperimentResult(
        name=spec.name,
        title=spec.title,
        headers=["range (cycles)", "fraction", "paper"],
        scale=scale,
    )
    aggregate = Histogram(bin_width=25, max_value=4000)
    with Stopwatch(result):
        grid = sweep_grid(spec, scale, store=store, force=force)
        note_failures(result, grid)
        for stats in grid.suite_stats(0, 0, suite):
            if stats is None:
                continue  # failed under a tolerant policy; named in the notes
            for start, count in stats.issue_distance.bins():
                aggregate.add(start, count)
    below_300 = aggregate.fraction_below(300)
    single_miss = aggregate.fraction_in(300, 500)
    double_miss = aggregate.fraction_in(700, 900)
    result.rows.append(["< 300", round(below_300, 3), "~0.70"])
    result.rows.append(["300-500 (~1x memory)", round(single_miss, 3), "~0.11-0.12"])
    result.rows.append(["700-900 (~2x memory)", round(double_miss, 3), "~0.04"])
    other = max(0.0, 1.0 - below_300 - single_miss - double_miss)
    result.rows.append(["other", round(other, 3), "~0.15"])
    result.charts.append(
        histogram_chart(
            aggregate.bins(),
            aggregate.bin_width,
            aggregate.count,
            title="decode→issue distance histogram",
        )
    )
    result.notes.append(
        "Trimodal shape: high-locality mass below the memory latency, a"
        " consumer peak at ~1x and a small chain peak at ~2x; the 2x peak"
        " is smaller than the paper's 4% because the synthetic SpecFP"
        " carries fewer dependent-miss chains than the originals."
    )
    return result


#: Report spec: the execution-locality distribution with the paper's
#: stated fractions as reference marks and graded checks.
SPEC = FigureSpec(
    kind="bars",
    caption="Fraction of correct-path instructions by decode→issue "
    "distance (unlimited window, 400-cycle memory): high-locality mass, "
    "a consumer peak at ~1x memory latency, a chain peak at ~2x",
    x_label="decode→issue distance (cycles)",
    y_label="fraction of instructions",
    groups=wide_rows_as_groups(0, {"fraction": 1}),
    reference_points={
        ("< 300", "fraction"): 0.70,
        ("300-500 (~1x memory)", "fraction"): 0.115,
        ("700-900 (~2x memory)", "fraction"): 0.04,
        ("other", "fraction"): 0.145,
    },
    checks=(
        Check(
            "high-locality mass below 300 cycles",
            0.70,
            cell("fraction", **{"range (cycles)": "< 300"}),
            note="paper: ~70% of instructions issue quickly",
        ),
        Check(
            "consumer peak around one memory latency",
            0.115,
            cell("fraction", **{"range (cycles)": "300-500 (~1x memory)"}),
            pass_rel=0.25,
            warn_rel=0.60,
            note="paper: 11-12% wait for exactly one miss",
        ),
        Check(
            "chain peak around two memory latencies",
            0.04,
            cell("fraction", **{"range (cycles)": "700-900 (~2x memory)"}),
            pass_rel=0.50,
            warn_rel=1.00,
            note="paper: ~4%; the synthetic SpecFP carries fewer "
            "dependent-miss chains, so this peak runs small",
        ),
    ),
)


if __name__ == "__main__":
    print(run().render())
