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

A capture's content digest is computed once per process per file
identity (:func:`content_digest_of`): every ``trace(...)`` and
``phases(...)`` workload of one capture, and the key of its stored
phase selection, share one decompress-and-hash pass.
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

#: Content digests of captures, by absolute path: the file identity the
#: digest was computed at, and the digest.  Keyed by path so a replaced
#: capture overwrites its stale entry instead of adding one.
_DIGESTS: dict[str, tuple[tuple, str]] = {}


def _file_identity(path: str) -> tuple | None:
    """``(absolute path, inode, mtime_ns, size)`` of *path*, or ``None``
    when it cannot be stat'ed.  Replacing a capture by rename changes
    the inode, and editing it in place the mtime or size."""
    try:
        stat = os.stat(path)
    except OSError:
        return None
    return (os.path.abspath(path), stat.st_ino, stat.st_mtime_ns, stat.st_size)


def content_digest_of(path: str) -> str:
    """SHA-256 over the decoded trace text at *path* (compression-invariant).

    Memoized per process by file identity, so the workloads of one
    capture and the key of its stored phase selection hash it once.  A
    missing, corrupt or unreadable capture raises
    :class:`TraceFormatError`.
    """
    identity = _file_identity(path)
    if identity is not None:
        known = _DIGESTS.get(identity[0])
        if known is not None and known[0] == identity:
            return known[1]
    sha = hashlib.sha256()
    try:
        with _open_trace(path) as handle:
            for chunk in iter(lambda: handle.read(1 << 16), ""):
                sha.update(chunk.encode("utf-8"))
    except FileNotFoundError:
        raise TraceFormatError(f"{path}: trace file does not exist") from None
    except _READ_ERRORS as error:
        raise TraceFormatError(
            f"{path}: corrupt or truncated trace: {error}"
        ) from None
    value = sha.hexdigest()
    if identity is not None:
        _DIGESTS[identity[0]] = (identity, value)
    return value


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
        """SHA-256 over the decoded trace text (:func:`content_digest_of`).

        Honours the io contract: a corrupt or unreadable capture raises
        :class:`TraceFormatError`, even though fingerprinting happens at
        store-keying time rather than replay time.
        """
        return content_digest_of(self.path)

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
