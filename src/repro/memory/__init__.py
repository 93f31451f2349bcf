"""Memory hierarchy: set-associative caches, main memory, Table-1 configs.

Latencies follow the paper's convention: the configured access time of a
level is the *total* load-to-use latency when the access is satisfied at
that level (Table 1: an L2 hit costs 11 cycles end to end, a memory access
400).  Outstanding line fills are tracked so that a second access to a
missing line pays only the remaining fill time — this is what lets many
independent misses overlap (memory-level parallelism), the property KILO
processors exploit.
"""

from repro.memory.cache import AccessLevel, Cache, MainMemory
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.configs import (
    DEFAULT_MEMORY,
    MemoryConfig,
    TABLE1_CONFIGS,
)
from repro.memory.warmup import warm_caches

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
