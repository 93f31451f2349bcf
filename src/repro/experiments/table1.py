"""Table 1: the six memory subsystems of the memory-wall characterization.

A configuration table rather than an experiment; the harness verifies each
configuration builds into a working hierarchy and reports its effective
latencies, which is what Figures 1 and 2 sweep over.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, Scale, Stopwatch, scale_of
from repro.memory import TABLE1_CONFIGS
from repro.report.spec import Check, FigureSpec, row_count


def run(
    scale: Scale | str = Scale.DEFAULT, store=None, force=False
) -> ExperimentResult:
    # No simulation cells here — the store arguments exist so every
    # registry entry shares one call signature.
    del store, force
    from repro.memory.hierarchy import MemoryHierarchy

    scale = scale_of(scale)
    result = ExperimentResult(
        name="table1",
        title="Memory configurations for quantifying the memory wall",
        headers=[
            "config",
            "L1 time",
            "L1 size",
            "L2 time",
            "L2 size",
            "memory time",
        ],
        scale=scale,
    )
    with Stopwatch(result):
        for name, config in TABLE1_CONFIGS.items():
            hierarchy = MemoryHierarchy(config)  # validates the build
            result.rows.append(
                [
                    name,
                    config.l1_latency,
                    _size(config.l1_size),
                    config.l2_latency if config.l2_latency is not None else "-",
                    _size(config.l2_size) if config.l2_latency is not None else "-",
                    config.mem_latency if config.mem_latency is not None else "-",
                ]
            )
            result.notes.append(f"{name}: {hierarchy.describe()}")
    return result


def _size(size: int | None) -> str:
    if size is None:
        return "inf"
    return f"{size // 1024}KB"


#: Report spec: a configuration table (no chart); the structural check
#: pins the paper's six memory subsystems.
SPEC = FigureSpec(
    kind="table",
    caption="The six memory subsystems of the paper's memory-wall "
    "characterization, each validated by building a working hierarchy",
    checks=(
        Check(
            "memory configurations defined",
            6.0,
            row_count(),
            pass_rel=0.0,
            warn_rel=0.0,
            note="Table 1 lists six configurations, L1-2 through MEM-400",
        ),
    ),
)


if __name__ == "__main__":
    print(run().render())
