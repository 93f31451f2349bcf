"""Simulation kernel: configurations, statistics and run orchestration.

The configs and statistics load with the package; the runner loads on
first access to ``run_core`` or ``simulate`` (PEP 562), so a process
that only plans or keys cells never imports the simulator.
"""

from repro.lazy import lazy_exports
from repro.sim.stats import Histogram, SimStats
from repro.sim.config import (
    CoreConfig,
    DkipConfig,
    KiloConfig,
    SchedulerPolicy,
    R10_64,
    R10_256,
    KILO_1024,
    DKIP_2048,
)

#: Names re-exported from modules that load on first access.
_LAZY = {"run_core": "repro.sim.runner", "simulate": "repro.sim.runner"}

__all__ = [
    "Histogram",
    "SimStats",
    "CoreConfig",
    "DkipConfig",
    "KiloConfig",
    "SchedulerPolicy",
    "R10_64",
    "R10_256",
    "KILO_1024",
    "DKIP_2048",
    "run_core",
    "simulate",
]

__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
