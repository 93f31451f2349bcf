"""Workload base class: deterministic trace generation with caching."""

from __future__ import annotations

import abc
import itertools
import zlib
from typing import ClassVar, Iterator

from repro.fingerprint import digest
from repro.isa import Instruction
from repro.trace.kernel import Kernel


class Workload(abc.ABC):
    """One synthetic benchmark.

    Subclasses set the class attributes and implement :meth:`_run`, an
    *unbounded* generator written against the :class:`~repro.trace.kernel.
    Kernel` DSL.  Determinism contract: two instances with the same seed
    produce identical traces; all randomness must come from ``kernel.rng``.

    ``trace(n)`` materializes (and caches) the first *n* instructions;
    afterwards :attr:`regions` exposes the data regions the workload
    allocated, which the runners use for functional cache warm-up.
    """

    #: Benchmark name as the paper's figures label it (e.g. "mcf").
    name: ClassVar[str] = ""
    #: "int" (SpecINT) or "fp" (SpecFP).
    suite: ClassVar[str] = ""
    #: One-line description of the behaviour being modelled.
    description: ClassVar[str] = ""
    #: Bump in a subclass whenever its generator changes the emitted
    #: trace; cached results keyed on the old fingerprint then miss
    #: instead of replaying stale simulations.
    trace_version: ClassVar[int] = 1

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._cached: list[Instruction] | None = None
        self._regions: list[tuple[int, int]] = []
        self._fingerprint: str | None = None

    # ------------------------------------------------------------------

    @abc.abstractmethod
    def _run(self, k: Kernel) -> Iterator[Instruction]:
        """Unbounded instruction generator (the benchmark's main loop)."""

    # ------------------------------------------------------------------

    def _make_kernel(self) -> Kernel:
        # Mix the benchmark name into the seed so equal user seeds still
        # give every benchmark an independent random stream.
        mixed = zlib.crc32(self.name.encode()) ^ (self.seed * 0x9E3779B1 & 0xFFFFFFFF)
        return Kernel(seed=mixed)

    def instructions(self) -> Iterator[Instruction]:
        """Fresh unbounded trace iterator."""
        kernel = self._make_kernel()
        self._last_kernel = kernel
        return self._run(kernel)

    def trace(self, n: int) -> list[Instruction]:
        """The first *n* instructions, materialized and cached."""
        if self._cached is None or len(self._cached) < n:
            kernel = self._make_kernel()
            generator = self._run(kernel)
            self._cached = list(itertools.islice(generator, n))
            if len(self._cached) < n:
                raise RuntimeError(
                    f"workload {self.name} ended after {len(self._cached)} "
                    f"instructions; generators must be unbounded"
                )
            self._regions = list(kernel.space.regions)
        return self._cached[:n]

    @property
    def regions(self) -> list[tuple[int, int]]:
        """Data regions allocated by the last :meth:`trace` call."""
        if not self._regions:
            # Generate a minimal prefix so allocations happen.
            self.trace(512)
        return self._regions

    def fingerprint(self) -> str:
        """Stable digest of the workload's trace identity.

        The determinism contract makes (generator class, benchmark name,
        seed, trace version) a complete description of the instruction
        stream — the trace itself never needs hashing.  Computed once
        per instance: a sweep keys every cell of a workload through it.
        """
        if self._fingerprint is None:
            self._fingerprint = digest(
                {
                    "__kind__": type(self).__name__,
                    "name": self.name,
                    "suite": self.suite,
                    "seed": self.seed,
                    "trace_version": self.trace_version,
                }
            )
        return self._fingerprint

    @property
    def footprint(self) -> int:
        """Total allocated bytes (after trace generation)."""
        return sum(size for _, size in self.regions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r}, seed={self.seed})"
