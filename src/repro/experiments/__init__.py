"""Experiment harnesses: one module per table/figure of the paper.

Every module exposes ``run(scale) -> ExperimentResult`` and can be invoked
through the CLI::

    python -m repro.experiments all --scale default
    python -m repro.experiments fig9 fig12 --scale full --csv results/

Scales trade fidelity for runtime: ``quick`` (seconds per experiment, used
by the pytest-benchmark harness), ``default`` (a few minutes in total) and
``full`` (longer traces, full sweeps).  Absolute IPC differs from the
paper — the substrate is a synthetic-workload simulator, not the authors'
SimpleScalar/Alpha setup — but each harness reports the paper's numbers
next to the measured ones so the *shape* can be compared directly;
REPRODUCTION.md (``make reproduce``) records one full set of results at
``quick`` scale, graded against the paper.
"""

from repro.experiments.common import ExperimentResult, Scale
from repro.experiments.registry import EXPERIMENTS, get_experiment

__all__ = ["ExperimentResult", "Scale", "EXPERIMENTS", "get_experiment"]
