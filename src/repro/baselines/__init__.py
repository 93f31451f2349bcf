"""Baseline processors the paper compares the D-KIP against.

* :class:`~repro.baselines.ooo.R10Core` — an R10000-style out-of-order
  core; with a 64-entry ROB and 40-entry queues it is the paper's R10-64
  (identical to the default Cache Processor), with 256/160 it is R10-256.
* :class:`~repro.baselines.kilo.KiloCore` — the KILO-1024 comparator:
  a 64-entry pseudo-ROB whose head streams long-latency slices into an
  out-of-order 1024-entry Slow Lane Instruction Queue (Cristal et al.,
  reference [9] of the paper).
* :mod:`repro.baselines.limit` — the idealized ROB-only processor used for
  the Section-2 characterization (Figures 1-3): stalls can only come from
  ROB shortage, branch mispredictions and data dependences.

Every name loads its model on first access (PEP 562), so building one
kind imports that kind's model and the ones it is built from, no other.
"""

from repro.lazy import lazy_exports

#: Names re-exported from modules that load on first access.
_LAZY = {
    "R10Core": "repro.baselines.ooo",
    "KiloCore": "repro.baselines.kilo",
    "LimitResult": "repro.baselines.limit",
    "issue_distance_histogram": "repro.baselines.limit",
    "simulate_limit": "repro.baselines.limit",
    "RunaheadCore": "repro.baselines.runahead",
}

__all__ = [
    "R10Core",
    "KiloCore",
    "LimitResult",
    "issue_distance_histogram",
    "simulate_limit",
    "RunaheadCore",
]

__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
