"""Content-addressed result store for simulation sweeps.

Every (machine config, memory config, workload+seed, instruction budget,
stats-schema version) cell fingerprints to a stable digest
(:mod:`repro.fingerprint`); the store keeps one JSON object per digest
under ``<root>/objects/<d[:2]>/<digest>.json``.  Sweeps consult the store
before simulating and write each cell back as it completes, so an
interrupted sweep resumes where it stopped and a re-run with one changed
parameter recomputes only the changed cells.  Beside the cells, each
SimPoint phase selection a sweep planned is kept once under
``<root>/phases/<digest>.json`` (:func:`phase_key`).
"""

from repro.store.serialize import from_jsonable, to_jsonable
from repro.store.store import CellKey, ResultStore, cell_key, phase_key

__all__ = [
    "CellKey",
    "ResultStore",
    "cell_key",
    "from_jsonable",
    "phase_key",
    "to_jsonable",
]
