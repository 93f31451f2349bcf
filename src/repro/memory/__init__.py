"""Memory hierarchy: set-associative caches, main memory, Table-1 configs.

Latencies follow the paper's convention: the configured access time of a
level is the *total* load-to-use latency when the access is satisfied at
that level (Table 1: an L2 hit costs 11 cycles end to end, a memory access
400).  Outstanding line fills are tracked so that a second access to a
missing line pays only the remaining fill time — this is what lets many
independent misses overlap (memory-level parallelism), the property KILO
processors exploit.

The configs load with the package; the caches, the hierarchy and the
warm-up load on first access (PEP 562), so a process that only plans or
keys cells builds no cache model.
"""

from repro.lazy import lazy_exports
from repro.memory.configs import (
    DEFAULT_MEMORY,
    MemoryConfig,
    TABLE1_CONFIGS,
)

#: Names re-exported from modules that load on first access.
_LAZY = {
    "AccessLevel": "repro.memory.cache",
    "Cache": "repro.memory.cache",
    "MainMemory": "repro.memory.cache",
    "MemoryHierarchy": "repro.memory.hierarchy",
    "warm_caches": "repro.memory.warmup",
}

__all__ = [
    "AccessLevel",
    "Cache",
    "MainMemory",
    "MemoryHierarchy",
    "MemoryConfig",
    "TABLE1_CONFIGS",
    "DEFAULT_MEMORY",
    "warm_caches",
]

__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
