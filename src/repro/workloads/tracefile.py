"""Trace-file replay as a first-class workload (``trace`` kind).

A trace captured with :func:`repro.trace.io.save_trace` (or any file in
the ``repro-trace v1`` format) replays through the same
:class:`~repro.workloads.base.Workload` surface the synthetic
benchmarks use: ``trace(n)`` materializes the first *n* records,
``regions`` restores the capture's data-region map so cache warm-up
matches the original run, and the store fingerprint hashes the *decoded
trace content* — recompressing a file in place (or ``cache verify``-ing
against a byte-identical copy) never reads as drift, but editing one
record always does.  (Store *cell keys* also cover the workload name,
which includes the path, so cells belong to a location; the
content-addressed fingerprint is what detects drift at that location.)

Replay is deliberately seed-insensitive: the instruction stream is
whatever was captured, so every seed produces the identical trace (the
determinism battery asserts exactly that for kinds registered with
``seed_sensitive=False``).
"""

from __future__ import annotations

import hashlib
import os
from typing import Iterator

from repro.fingerprint import digest
from repro.grammar import SpecError, reject_unknown
from repro.isa import Instruction
from repro.trace.io import (
    _READ_ERRORS,
    TraceFormatError,
    _open as _open_trace,
    load_trace,
    read_trace_regions,
)
from repro.trace.kernel import Kernel
from repro.workloads.base import Workload
from repro.workloads.kinds import WorkloadKind, register_workload_kind

TRACE_GRAMMAR = "trace(file=PATH[.gz])"


class TraceFileWorkload(Workload):
    """Replay of one captured trace file."""

    suite = "trace"
    description = "replays a captured repro-trace file"
    trace_version = 1
    #: Kind word and grammar quoted in construction-time errors;
    #: subclasses replaying through other grammars (``phases``) override.
    spec_kind = "trace"
    spec_grammar = TRACE_GRAMMAR

    def __init__(self, path: str | os.PathLike, seed: int = 0) -> None:
        self.path = os.fspath(path)
        # The canonical name must re-parse in pool workers and cache
        # verify; a path the grammar cannot round-trip (spec delimiters)
        # is rejected here, at construction, not mid-sweep in a worker.
        bad = set(self.path) & set(",()")
        if bad:
            raise SpecError(
                f"{self.spec_kind}: file path {self.path!r} contains spec "
                f"delimiter(s) {''.join(sorted(bad))!r}, which the workload "
                f"grammar cannot round-trip; rename or link the file; "
                f"grammar: {self.spec_grammar}"
            )
        if not os.path.exists(self.path):
            raise SpecError(
                f"{self.spec_kind}: file {self.path!r} does not exist; "
                f"grammar: {self.spec_grammar}"
            )
        # Instance attribute shadows the ClassVar; the name is the
        # canonical spec string, so it round-trips through the grammar
        # (and through the process-pool workers, which rebuild workloads
        # from their names).
        self.name = f"trace(file={self.path})"
        self._content_digest: str | None = None
        self._file_regions: list[tuple[int, int]] | None = None
        super().__init__(seed)

    # ------------------------------------------------------------------

    def _run(self, k: Kernel) -> Iterator[Instruction]:
        # Restore the capture's region map onto this kernel's address
        # space so Workload.trace() publishes it for cache warm-up.
        k.space.regions.extend(read_trace_regions(self.path))
        yield from load_trace(self.path)

    def trace(self, n: int) -> list[Instruction]:
        """The first *n* captured instructions.

        Unlike generated workloads, a capture is finite; asking for more
        than it holds is a :class:`TraceFormatError` naming both counts
        rather than the generic unbounded-generator complaint.
        """
        try:
            return super().trace(n)
        except RuntimeError as error:
            raise TraceFormatError(
                f"{self.path}: trace file is shorter than the requested "
                f"{n} instructions ({error})"
            ) from None

    @property
    def regions(self) -> list[tuple[int, int]]:
        """The capture's region map, read straight from the file header
        (no trace materialization needed, unlike generated workloads —
        which also keeps short regionless captures warm-up-safe).  The
        read is cached, emptiness included, so repeated accesses never
        re-open the file."""
        if self._file_regions is None:
            self._file_regions = read_trace_regions(self.path)
        return self._file_regions

    def content_digest(self) -> str:
        """SHA-256 over the decoded trace text (compression-invariant).

        Honours the io contract: a corrupt or unreadable capture raises
        :class:`TraceFormatError`, even though fingerprinting happens at
        store-keying time rather than replay time.
        """
        if self._content_digest is None:
            sha = hashlib.sha256()
            try:
                with _open_trace(self.path) as handle:
                    for chunk in iter(lambda: handle.read(1 << 16), ""):
                        sha.update(chunk.encode("utf-8"))
            except _READ_ERRORS as error:
                raise TraceFormatError(
                    f"{self.path}: corrupt or truncated trace: {error}"
                ) from None
            self._content_digest = sha.hexdigest()
        return self._content_digest

    def fingerprint(self) -> str:
        """Content-addressed identity: the digest covers what the file
        *says* — not where it lives, and not the seed, which replay
        ignores (``seed_sensitive=False``) — so equal decoded content
        always fingerprints identically and any edit reads as drift.
        (Store *cell keys* carry the seed and name separately.)"""
        return digest(
            {
                "__kind__": type(self).__name__,
                "name": "trace",
                "suite": self.suite,
                "trace_version": self.trace_version,
                "content": self.content_digest(),
            }
        )


def _parse_trace(params: dict[str, str], seed: int) -> TraceFileWorkload:
    reject_unknown("trace", params, frozenset({"file"}), TRACE_GRAMMAR)
    if "file" not in params:
        raise SpecError(
            f"trace: missing required parameter 'file'; grammar: {TRACE_GRAMMAR}"
        )
    return TraceFileWorkload(params["file"], seed=seed)


register_workload_kind(
    WorkloadKind(
        name="trace",
        parse=_parse_trace,
        grammar=TRACE_GRAMMAR,
        description="replay a captured trace file (repro.trace.io format)",
        seed_sensitive=False,
    )
)
