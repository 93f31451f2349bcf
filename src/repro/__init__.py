"""repro — reproduction of "A Decoupled KILO-Instruction Processor" (HPCA 2006).

A trace-driven microarchitecture simulation library built around the
paper's contribution, the D-KIP: a decoupled Cache-Processor /
Memory-Processor machine exploiting *execution locality*.

Quickstart::

    from repro import DKIP_2048, R10_64, get_workload, run_core

    workload = get_workload("swim")
    base = run_core(R10_64, workload, 20_000)
    dkip = run_core(DKIP_2048, workload, 20_000)
    print(f"R10-64 IPC {base.ipc:.2f}  vs  D-KIP IPC {dkip.ipc:.2f}")

See ``ARCHITECTURE.md`` for the module map and ``REPRODUCTION.md``
(regenerate with ``make reproduce``) for the per-figure reproduction
record with verdicts against the paper.
"""

from repro.lazy import lazy_exports

__version__ = "1.0.0"

#: Where each re-exported name lives.  Names load on first access, so
#: importing one layer — ``repro.store`` or ``repro.machines``, say —
#: loads only that layer, never the simulator.
_EXPORTS = {
    "DKIP_2048": "repro.sim.config",
    "KILO_1024": "repro.sim.config",
    "R10_64": "repro.sim.config",
    "R10_256": "repro.sim.config",
    "CoreConfig": "repro.sim.config",
    "DkipConfig": "repro.sim.config",
    "KiloConfig": "repro.sim.config",
    "SchedulerPolicy": "repro.sim.config",
    "SimStats": "repro.sim.stats",
    "run_core": "repro.sim.runner",
    "simulate": "repro.sim.runner",
    "DEFAULT_MEMORY": "repro.memory.configs",
    "MemoryConfig": "repro.memory.configs",
    "TABLE1_CONFIGS": "repro.memory.configs",
    "SPECINT_NAMES": "repro.workloads",
    "SPECFP_NAMES": "repro.workloads",
    "get_workload": "repro.workloads",
    "suite": "repro.workloads",
}

__all__ = [*_EXPORTS, "__version__"]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
