"""Memory-system configurations, including the paper's Table 1.

Table 1 of the paper defines six memory subsystems used for the
memory-wall characterization (Figures 1 and 2):

====== ========== ======= ========== ======= ===========
name   L1 access  L1 size L2 access  L2 size mem access
====== ========== ======= ========== ======= ===========
L1-2        2       inf        -        -         -
L2-11       2       32KB      11       inf        -
L2-21       2       32KB      21       inf        -
MEM-100     2       32KB      11      512KB      100
MEM-400     2       32KB      11      512KB      400
MEM-1000    2       32KB      11      512KB     1000
====== ========== ======= ========== ======= ===========

The evaluation sections use the MEM-400 shape with the L2 size as the
swept parameter (Figures 11/12 go from 64 KB to 4 MB).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.fingerprint import Fingerprintable

KB = 1024
MB = 1024 * KB


@dataclass(frozen=True)
class MemoryConfig(Fingerprintable):
    """Parameters of one memory hierarchy.

    ``None`` sizes mean *infinite*; a ``None`` ``l2_latency`` removes the L2
    entirely (perfect L1); a ``None`` ``mem_latency`` makes the last cache
    level perfect.
    """

    name: str
    l1_size: int | None = 32 * KB
    l1_latency: int = 2
    l1_assoc: int = 2
    l2_size: int | None = 512 * KB
    l2_latency: int | None = 11
    l2_assoc: int = 8
    mem_latency: int | None = 400
    line_size: int = 64

    def with_l2_size(self, l2_size: int) -> "MemoryConfig":
        """Clone with a different L2 capacity (Figures 11/12 sweep)."""
        return replace(self, name=f"{self.name}-l2-{l2_size // KB}K", l2_size=l2_size)

    def with_mem_latency(self, mem_latency: int) -> "MemoryConfig":
        return replace(self, name=f"mem-{mem_latency}", mem_latency=mem_latency)


#: The six configurations of Table 1, keyed by their paper names.
TABLE1_CONFIGS: dict[str, MemoryConfig] = {
    "L1-2": MemoryConfig(
        name="L1-2",
        l1_size=None,
        l1_latency=2,
        l2_size=None,
        l2_latency=None,
        mem_latency=None,
    ),
    "L2-11": MemoryConfig(
        name="L2-11", l2_size=None, l2_latency=11, mem_latency=None
    ),
    "L2-21": MemoryConfig(
        name="L2-21", l2_size=None, l2_latency=21, mem_latency=None
    ),
    "MEM-100": MemoryConfig(name="MEM-100", mem_latency=100),
    "MEM-400": MemoryConfig(name="MEM-400", mem_latency=400),
    "MEM-1000": MemoryConfig(name="MEM-1000", mem_latency=1000),
}

#: Default memory system of the evaluation (Tables 2 and 3): 32 KB L1 at
#: 2 cycles, 512 KB L2 at 11 cycles, 400-cycle main memory.
DEFAULT_MEMORY = MemoryConfig(name="default")
