#!/usr/bin/env python
"""The memory-wall study: can a bigger window buy back the lost IPC?

Reproduces the Figure 1/2 methodology on two contrasting workloads: a
streaming SpecFP code (`swim`), whose IPC is fully recovered by a large
enough window even at 400-cycle memory, and the pointer chaser `mcf`,
where no window size helps because the misses are serially dependent.

Run with::

    python examples/memory_wall_study.py [instructions]
"""

import sys

from repro import get_workload
from repro.baselines.limit import simulate_limit
from repro.memory import MemoryHierarchy, TABLE1_CONFIGS, warm_caches
from repro.viz import line_chart

WINDOWS = (32, 64, 128, 256, 512, 1024, 2048, 4096)
MEMORIES = ("L1-2", "MEM-400")


def main() -> None:
    instructions = int(sys.argv[1]) if len(sys.argv) > 1 else 10_000
    for name in ("swim", "mcf"):
        workload = get_workload(name)
        trace = workload.trace(instructions)
        series = {}
        for mem_name in MEMORIES:
            points = []
            for window in WINDOWS:
                hierarchy = MemoryHierarchy(TABLE1_CONFIGS[mem_name])
                warm_caches(hierarchy, workload.regions)
                sim = simulate_limit(
                    iter(trace),
                    hierarchy,
                    rob_size=window,
                    predictor="perceptron",
                )
                points.append((window, sim.ipc))
            series[mem_name] = points
        print(line_chart(series, title=f"{name}: IPC vs window size", logx=True))
        recovered = series["MEM-400"][-1][1] / series["L1-2"][-1][1]
        print(
            f"\n{name}: a 4096-entry window at 400-cycle memory reaches "
            f"{recovered * 100:.0f}% of the perfect-cache IPC\n"
        )


if __name__ == "__main__":
    main()
