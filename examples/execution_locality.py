#!/usr/bin/env python
"""Measure *execution locality* — the phenomenon behind the D-KIP.

Reproduces the Section-2 analysis of the paper on one workload: run an
unlimited-window processor with 400-cycle memory and histogram how long
every instruction waits between decode and issue.  High-locality
instructions issue almost immediately; consumers of an L2 miss cluster a
full memory latency later; chains of two misses cluster at twice that.

Run with::

    python examples/execution_locality.py [workload] [instructions]
"""

import sys

from repro import DEFAULT_MEMORY, get_workload
from repro.baselines.limit import simulate_limit
from repro.memory import MemoryHierarchy, warm_caches
from repro.viz import histogram_chart


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "ammp"
    instructions = int(sys.argv[2]) if len(sys.argv) > 2 else 12_000

    workload = get_workload(name)
    trace = workload.trace(instructions)
    hierarchy = MemoryHierarchy(DEFAULT_MEMORY)
    warm_caches(hierarchy, workload.regions)
    result = simulate_limit(
        iter(trace),
        hierarchy,
        rob_size=None,
        predictor="perceptron",
    )
    hist = result.issue_distance

    print(f"workload: {workload.name} — {workload.description}")
    print(f"unlimited window, 400-cycle memory, IPC {result.ipc:.2f}\n")
    print(
        histogram_chart(
            hist.bins(),
            hist.bin_width,
            hist.count,
            title="decode→issue distance (cycles)",
        )
    )
    print()
    high = hist.fraction_below(300)
    print(f"high execution locality (issue < 300 cycles): {high * 100:.1f}%")
    print(f"~1x memory latency (one miss):  {hist.fraction_in(300, 500) * 100:.1f}%")
    print(f"~2x memory latency (miss chain): {hist.fraction_in(700, 900) * 100:.1f}%")


if __name__ == "__main__":
    main()
