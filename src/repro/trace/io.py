"""Trace serialization: save and reload instruction traces.

The simulators are trace driven, so being able to persist a trace —
for sharing a regression case, diffing two generator versions, or feeding
an external tool — rounds out the infrastructure.  The format is a
compact, self-describing text format (one instruction per line, gzip
supported via the filename) chosen for durability and diff-ability over
raw pickles:

    # repro-trace v1
    # region <base-hex> <size>
    <seq> <pc> <op> <dest> <src0,src1> <addr> <size> <taken> <target>

Missing fields are ``-``.  ``# region`` comment lines (optional, written
by :func:`save_trace`) record the generating workload's data regions so
a replayed trace warms the caches exactly like the original run; other
comment lines and blanks are ignored.  Round-tripping is exact (asserted
by property tests in ``tests/trace/test_io.py``), and every parse or
decompression defect raises :class:`TraceFormatError` rather than
leaking the underlying gzip error (or its file handle).
"""

from __future__ import annotations

import contextlib
import gzip
import io
import itertools
import os
from typing import BinaryIO, Iterable, Iterator, Sequence, TextIO

from repro.isa import NUM_REGS, Instruction, OpClass

_HEADER = "# repro-trace v1"
_REGION_PREFIX = "# region "


class TraceFormatError(ValueError):
    """A trace file is missing, truncated, corrupt, or malformed."""


def _open(path: str) -> TextIO:
    """Open *path* for reading as text, through gzip if it ends in ``.gz``."""
    if path.endswith(".gz"):
        raw = gzip.open(path, "rb")
        try:
            return io.TextIOWrapper(raw)  # type: ignore[arg-type]
        except Exception:
            # Never leak the underlying gzip handle when wrapping fails.
            raw.close()
            raise
    return open(path)


def _field(value) -> str:
    if value is None:
        return "-"
    if value is True:
        return "T"
    if value is False:
        return "N"
    return str(value)


#: Per-call temp names never collide, even between processes that
#: capture the same path at once.
_TMP_COUNTER = itertools.count()


@contextlib.contextmanager
def _published(path: str) -> Iterator[int]:
    """A file descriptor whose bytes land at *path* only if the block
    completes.

    The bytes go to a temp file unique to this call in *path*'s
    directory, which is fsynced and then renamed onto *path*; a raise
    anywhere in the block unlinks the temp file and leaves whatever was
    at *path* untouched, so a reader never sees a half-written trace.
    """
    tmp = f"{path}.{os.getpid()}.{next(_TMP_COUNTER)}.{os.urandom(4).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        try:
            yield fd
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, path)
    finally:
        # On success the rename consumed the temp file.
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def dump_trace(
    instructions: Iterable[Instruction],
    path: str,
    regions: Sequence[tuple[int, int]] | None = None,
) -> int:
    """Write *instructions* to *path* (gzip if it ends with ``.gz``).

    *regions*, when given, are recorded as ``# region`` comment lines so
    the trace carries the data-region map cache warm-up needs.  The file
    appears at *path* complete or not at all: an error mid-write leaves
    the previous file, if any, in place.  Returns the number of
    instructions written.
    """
    count = 0
    with _published(path) as fd, open(fd, "wb", closefd=False) as raw:
        binary: BinaryIO = raw
        if path.endswith(".gz"):
            # zlib's default level: a few percent larger than level 9 at
            # about a third of the compression time.
            binary = gzip.GzipFile(path, "wb", 6, raw)  # type: ignore[assignment]
        with io.TextIOWrapper(binary) as handle:
            handle.write(_HEADER + "\n")
            for base, size in regions or ():
                handle.write(f"{_REGION_PREFIX}{base:x} {size}\n")
            for instr in instructions:
                srcs = ",".join(str(s) for s in instr.srcs) if instr.srcs else "-"
                handle.write(
                    " ".join(
                        (
                            str(instr.seq),
                            format(instr.pc, "x"),
                            instr.op.name,
                            _field(instr.dest),
                            srcs,
                            format(instr.addr, "x") if instr.addr is not None else "-",
                            str(instr.size),
                            _field(instr.taken),
                            _field(instr.target),
                        )
                    )
                    + "\n"
                )
                count += 1
    return count


def save_trace(workload, path: str, n: int) -> int:
    """Capture the first *n* instructions of *workload* (including its
    region map) at *path*; the file replays through the ``trace(...)``
    workload kind.  Returns the instruction count written."""
    trace = workload.trace(n)
    return dump_trace(trace, path, regions=workload.regions)


#: Decoder tables: a token missing from one is a malformed record.
_OPS = {op.name: op for op in OpClass}
_TAKEN = {"-": None, "T": True, "N": False}

#: srcs token -> source tuple, so records naming the same sources share
#: one tuple.  Capped at the number of valid source tuples (none, one or
#: two registers); past the cap a token is parsed every time.
_SRCS: dict[str, tuple[int, ...]] = {"-": ()}
_SRCS_CAP = 1 + NUM_REGS + NUM_REGS**2


def _parse_srcs(token: str) -> tuple[int, ...]:
    """The register ids of a srcs token not yet in :data:`_SRCS`."""
    srcs = tuple(map(int, token.split(",")))
    if len(_SRCS) < _SRCS_CAP:
        _SRCS[token] = srcs
    return srcs


#: Decompression/decoding failures a corrupt ``.gz`` (or binary junk)
#: surfaces mid-read; all are re-raised as :class:`TraceFormatError`.
_READ_ERRORS = (OSError, EOFError, UnicodeDecodeError, gzip.BadGzipFile)


@contextlib.contextmanager
def _opened_trace(path: str) -> Iterator[TextIO]:
    """Open *path* for reading and validate its header, converting every
    open-time and read-time defect — missing file, directory path,
    permission error, bad header, truncated/corrupt gzip — into
    :class:`TraceFormatError`.  The handle is closed either way."""
    try:
        handle = _open(path)
    except FileNotFoundError:
        raise TraceFormatError(f"{path}: trace file does not exist") from None
    except OSError as error:
        raise TraceFormatError(f"{path}: cannot open trace: {error}") from None
    with handle:
        try:
            header = handle.readline().rstrip("\n")
            if header != _HEADER:
                raise TraceFormatError(
                    f"{path}: not a repro trace (header {header!r}, "
                    f"expected {_HEADER!r})"
                )
            yield handle
        except _READ_ERRORS as error:
            raise TraceFormatError(
                f"{path}: corrupt or truncated trace: {error}"
            ) from None


def load_trace(path: str) -> Iterator[Instruction]:
    """Stream instructions back from a file written by :func:`dump_trace`.

    Raises :class:`TraceFormatError` (a ``ValueError``) for a missing or
    unreadable file, a bad header, a malformed record, or a truncated/
    corrupt gzip stream; the underlying file handle is closed either way.
    """
    with _opened_trace(path) as handle:
        for line_number, line in enumerate(handle, start=2):
            parts = line.split()
            if not parts or parts[0][0] == "#":
                continue  # blank line or comment
            try:
                seq, pc, op, dest, srcs, addr, size, taken, target = parts
                sources = _SRCS.get(srcs)
                if sources is None:
                    sources = _parse_srcs(srcs)
                # Instruction() checks the registers, and the address or
                # outcome the op needs.
                instr = Instruction(
                    int(seq),
                    int(pc, 16),
                    _OPS[op],
                    None if dest == "-" else int(dest),
                    sources,
                    None if addr == "-" else int(addr, 16),
                    int(size),
                    _TAKEN[taken],
                    None if target == "-" else int(target),
                )
            except (ValueError, KeyError) as error:
                raise TraceFormatError(
                    f"{path}:{line_number}: malformed record: "
                    f"{line.strip()!r} ({error})"
                ) from None
            yield instr


def read_trace_regions(path: str) -> list[tuple[int, int]]:
    """The ``# region`` map of a trace file (empty for regionless files).

    Only the comment block before the first instruction record is
    scanned, so this stays O(header) even for multi-megabyte traces.
    """
    regions: list[tuple[int, int]] = []
    with _opened_trace(path) as handle:
        for line_number, line in enumerate(handle, start=2):
            line = line.strip()
            if line.startswith(_REGION_PREFIX):
                parts = line.split()
                if len(parts) != 4:
                    raise TraceFormatError(
                        f"{path}:{line_number}: malformed region: {line!r}"
                    )
                try:
                    regions.append((int(parts[2], 16), int(parts[3])))
                except ValueError:
                    raise TraceFormatError(
                        f"{path}:{line_number}: malformed region: {line!r}"
                    ) from None
            elif line and not line.startswith("#"):
                break
    return regions
