"""The on-disk content-addressed store itself.

Layout::

    <root>/objects/<digest[:2]>/<digest>.json   one simulated cell each
    <root>/phases/<digest>.json                 one SimPoint selection each

One JSON object per cell::

    {"format": 1, "digest": ..., "key": {<full key payload>}, "stats": {...},
     "stats_digest": ...}

and per phase selection (:func:`phase_key`), the same envelope around
the selection instead of stats::

    {"format": 1, "digest": ..., "key": {...}, "selection": {...},
     "selection_digest": ...}

Writes are atomic (temp file + ``os.replace``) so a sweep killed
mid-write never leaves a half-entry behind; reads treat *any* defect —
truncated JSON, digest mismatch, schema drift, an impossible selection —
as a miss and recompute rather than crash.  Phase selections never pass
through :meth:`ResultStore.get` or :meth:`ResultStore.put` and never
move the cell counters (``hits``, ``writes``, ...): those count cells.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.fingerprint import CANON_VERSION, canonical, digest, digest_canonical
from repro.sim.stats import STATS_SCHEMA_VERSION, SimStats

#: On-disk entry envelope version (distinct from the stats schema).
ENTRY_FORMAT = 1

#: Monotonic per-process suffix component for temp files; combined with
#: the pid and fresh entropy so two threads in one process — or two
#: hosts sharing a store over a network filesystem — never collide on
#: the same in-flight temp name.
_TMP_COUNTER = itertools.count()


@dataclass(frozen=True)
class CellKey:
    """Full description of one simulation cell plus its content digest."""

    payload: dict = field(hash=False)
    digest: str = ""

    def __hash__(self) -> int:  # payload is a dict; the digest covers it
        return hash(self.digest)


def cell_key(
    machine: Any,
    workload: Any,
    num_instructions: int,
    memory: Any,
) -> CellKey:
    """Build the key of one (machine, workload, scale) cell.

    *machine* and *memory* are config dataclasses (serialized in full so
    the cell can be re-run from the stored key); *workload* is a
    :class:`repro.workloads.Workload` instance.  The stats-schema version
    is folded in so a schema bump invalidates every cached cell at once.
    The branch predictor is part of the machine config, and warm-up
    always takes one pass; the payload's ``predictor`` field is always
    null and its ``warmup_passes`` field always 1, both kept so no
    existing digest moves.
    """
    payload = {
        "canon": CANON_VERSION,
        "schema": STATS_SCHEMA_VERSION,
        "machine": canonical(machine),
        "memory": canonical(memory),
        "workload": {
            "name": workload.name,
            "seed": workload.seed,
            "fingerprint": workload.fingerprint(),
        },
        "instructions": num_instructions,
        "predictor": None,
        "warmup_passes": 1,
    }
    return CellKey(payload=payload, digest=digest_canonical(payload))


def phase_key(content: str, interval: int, k: int, seed: int, code: str) -> CellKey:
    """Build the key of one SimPoint phase selection.

    *content* is the capture's content digest, *interval*, *k* and
    *seed* the analysis parameters, and *code* a digest of the analysis
    code (and numpy) that computed it — everything the selection
    depends on, so a stored one is served regardless of ``--force``.
    """
    payload = {
        "canon": CANON_VERSION,
        "record": "phases",
        "content": content,
        "interval": interval,
        "k": k,
        "seed": seed,
        "code": code,
    }
    return CellKey(payload=payload, digest=digest_canonical(payload))


def _check_selection(payload: dict, selection: dict) -> None:
    """Raise ``ValueError`` unless *selection* is possible under *payload*.

    A selection is ``{"num_intervals", "total_instructions", "points"}``
    with points ``[interval index, weight]``.  It must hold
    ``total // interval`` (at least one) complete intervals, between 1
    and ``min(k, num_intervals)`` points with strictly increasing
    indices inside them, and positive weights summing to 1 within 1e-9.
    """
    interval = payload["interval"]
    total = selection["total_instructions"]
    count = selection["num_intervals"]
    points = selection["points"]
    if not all(type(n) is int for n in (interval, total, count)) or interval < 1:
        raise ValueError("interval and counts must be positive integers")
    if count < 1 or count != total // interval:
        raise ValueError(f"{count} intervals do not fit {total} instructions")
    if not 1 <= len(points) <= min(payload["k"], count):
        raise ValueError(f"{len(points)} points for k={payload['k']}")
    previous = -1
    for index, weight in points:
        if type(index) is not int or not previous < index < count:
            raise ValueError(f"interval index {index!r} out of order or range")
        if type(weight) is not float or not weight > 0:
            raise ValueError(f"weight {weight!r} is not positive")
        previous = index
    if abs(math.fsum(weight for _, weight in points) - 1.0) > 1e-9:
        raise ValueError("weights do not sum to 1")


class ResultStore:
    """Content-addressed store of :class:`SimStats`, one file per cell."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.writes = 0

    # ------------------------------------------------------------------
    # Core get/put
    # ------------------------------------------------------------------

    def path_for(self, key: CellKey) -> Path:
        """Return the object path *key*'s stats live at (existing or not)."""
        return self.root / "objects" / key.digest[:2] / f"{key.digest}.json"

    def contains(self, key: CellKey) -> bool:
        """Return whether an entry *file* exists for *key* — no validation.

        A zero-length or corrupt entry still reports present, so this is
        only a cheap existence probe (counters, tests, diagnostics).
        Skip decisions — "is this cell already done?" in a sweep or the
        service scheduler — must go through :meth:`get`, which validates
        the envelope and stats digest and reads any defect as a miss.
        """
        return self.path_for(key).exists()

    def get(self, key: CellKey) -> SimStats | None:
        """Return the stored stats for *key*, or ``None`` on a miss.

        Absent, unreadable, tampered-with and schema-stale entries all
        read as misses — the caller recomputes rather than crashes.
        """
        try:
            entry = _read_entry(self.path_for(key), key.digest, "stats")
            stats = SimStats.from_dict(entry["stats"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            # Truncated/corrupt/stale entries recompute instead of crash.
            self.corrupt += 1
            self.misses += 1
            return None
        self.hits += 1
        return stats

    def put(self, key: CellKey, stats: SimStats) -> Path:
        """Atomically and durably persist *stats* under *key* (overwrites).

        The temp file is fsynced before ``os.replace`` and the object
        directory after it, so a host crash right after ``put`` returns
        cannot leave a zero-length or half-written entry behind — the
        rename is only published once the bytes are on disk.  A
        ``store:corrupt`` fault clause (``$REPRO_FAULT``, chaos tests
        only) truncates the serialized entry on its way to disk, keyed
        by ``<digest>#<write counter>`` so a clean follow-up run
        self-heals the damaged cell.

        The temp name is unique per call (pid + counter + entropy), not
        per process: concurrent writers of the same cell — service
        workers racing after a lease expiry, or two hosts on a shared
        filesystem — each publish their own complete temp file, and the
        ``finally`` unlinks it when a raised write/fsync aborts before
        the rename, so failures never orphan ``.tmp.*`` litter.
        """
        from repro.resilience.faults import plan_from_env

        path = self.path_for(key)
        text = _envelope(key, "stats", stats.to_dict())
        plan = plan_from_env()
        if plan is not None:
            text = plan.corrupt_store_text(f"{key.digest}#{self.writes}", text)
        self._publish(path, text)
        self.writes += 1
        return path

    def _publish(self, path: Path, text: str) -> None:
        """Write *text* to *path* atomically and durably (see :meth:`put`)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(
            f".tmp.{os.getpid()}.{next(_TMP_COUNTER)}.{os.urandom(4).hex()}"
        )
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(text)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        finally:
            # On success the rename consumed the temp file; on any raise
            # above, this removes it (missing_ok covers both).
            tmp.unlink(missing_ok=True)
        self._fsync_dir(path.parent)

    # ------------------------------------------------------------------
    # Phase selections: a second record family beside the cells
    # ------------------------------------------------------------------

    def phases_path(self, key: CellKey) -> Path:
        """Return the path the phase selection of *key* lives at."""
        return self.root / "phases" / f"{key.digest}.json"

    def get_phases(self, key: CellKey) -> dict | None:
        """Return the stored selection for a :func:`phase_key`, or ``None``.

        Absent, unreadable, tampered-with and impossible records
        (:func:`_check_selection`) all read as misses.  No counter moves.
        """
        try:
            return _read_selection(self.phases_path(key), key)
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def put_phases(self, key: CellKey, selection: dict) -> Path:
        """Atomically and durably persist *selection* under *key*.

        Raises ``ValueError`` for a selection :func:`_check_selection`
        rejects, so an impossible one is never written.
        """
        _check_selection(key.payload, selection)
        path = self.phases_path(key)
        self._publish(path, _envelope(key, "selection", selection))
        return path

    def iter_phase_records(self) -> Iterator[tuple[Path, dict | None]]:
        """Every ``(path, selection)`` under ``phases/``; ``None`` = defective.

        A record is checked against the key payload it carries, whose
        digest must name its file.
        """
        directory = self.root / "phases"
        if not directory.is_dir():
            return
        for path in sorted(directory.glob("*.json")):
            try:
                selection = _read_selection(path, None)
            except FileNotFoundError:
                continue
            except (OSError, ValueError, KeyError, TypeError):
                yield path, None
                continue
            yield path, selection

    @staticmethod
    def _fsync_dir(directory: Path) -> None:
        """Flush a directory entry so a completed rename survives a crash."""
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-specific
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - platform-specific
            pass
        finally:
            os.close(fd)

    # ------------------------------------------------------------------
    # Maintenance: stats / prune / verify
    # ------------------------------------------------------------------

    def iter_entries(self) -> Iterator[tuple[Path, dict | None]]:
        """Every ``(path, entry)`` in the store; ``None`` entry = corrupt.

        The store is a shared, concurrently-written substrate: another
        process may ``put`` or ``prune`` while we iterate.  A file that
        vanishes between the directory listing and its open is simply
        skipped — it is gone, not corrupt — so maintenance over a live
        store never crashes or misreports phantom corruption.
        """
        objects = self.root / "objects"
        if not objects.is_dir():
            return
        for path in sorted(objects.glob("*/*.json")):
            try:
                # The reader get() uses: anything a lookup would reject,
                # maintenance treats as corrupt too.
                entry = _read_entry(path, path.stem, "stats")
            except FileNotFoundError:
                continue
            except (OSError, ValueError, KeyError, TypeError):
                yield path, None
                continue
            yield path, entry

    def summary(self) -> dict:
        """Aggregate statistics for ``dkip-experiments cache stats``."""
        entries = 0
        corrupt = 0
        stale = 0
        total_bytes = 0
        machines: dict[str, int] = {}
        workloads: dict[str, int] = {}
        for path, entry in self.iter_entries():
            try:
                total_bytes += path.stat().st_size
            except FileNotFoundError:
                # Pruned (or re-put) under us between read and stat;
                # count the entry, skip its vanished size.
                pass
            if entry is None:
                corrupt += 1
                continue
            entries += 1
            if _stale(entry):
                stale += 1
            key = entry["key"]
            kind = key.get("machine", {}).get("__kind__", "?")
            machines[kind] = machines.get(kind, 0) + 1
            name = key.get("workload", {}).get("name", "?")
            workloads[name] = workloads.get(name, 0) + 1
        phase_records = 0
        phase_defective = 0
        for _, selection in self.iter_phase_records():
            if selection is None:
                phase_defective += 1
            else:
                phase_records += 1
        return {
            "root": str(self.root),
            "entries": entries,
            "corrupt": corrupt,
            "stale_schema": stale,
            "bytes": total_bytes,
            "machines": dict(sorted(machines.items())),
            "workloads": dict(sorted(workloads.items())),
            "phase_records": phase_records,
            "phase_defective": phase_defective,
        }

    def prune(self, everything: bool = False) -> int:
        """Delete corrupt, stale and defective records; return the count removed.

        Corrupt and schema-stale cell entries go, and so do defective
        phase records.  With *everything* set, delete every entry and
        every phase record.  Temp files orphaned by writes that were
        killed mid-flight are swept either way.
        """
        removed = 0
        for path, entry in self.iter_entries():
            if everything or _stale(entry):
                path.unlink(missing_ok=True)
                removed += 1
        for path, selection in self.iter_phase_records():
            if everything or selection is None:
                path.unlink(missing_ok=True)
                removed += 1
        for pattern in ("objects/*/*.tmp.*", "phases/*.tmp.*"):
            for orphan in self.root.glob(pattern):
                orphan.unlink(missing_ok=True)
                removed += 1
        return removed

    def quarantine_entry(self, path: Path) -> Path:
        """Move one entry file to ``<root>/.quarantine/`` and return it.

        Quarantined entries are out of the lookup path (``get`` never
        sees them) but preserved byte-for-byte for post-mortems, unlike
        ``prune`` which deletes the evidence.
        """
        dest_dir = self.root / ".quarantine"
        dest_dir.mkdir(parents=True, exist_ok=True)
        dest = dest_dir / path.name
        os.replace(path, dest)
        return dest

    def validated(self, key: CellKey) -> bool:
        """Return whether *key* has a fully valid stored entry.

        The skip-decision predicate (:meth:`contains` is existence-only):
        reads and validates the entry without touching the hit/miss
        counters, so schedulers can probe without skewing run stats.
        """
        hits, misses, corrupt = self.hits, self.misses, self.corrupt
        found = self.get(key) is not None
        self.hits, self.misses, self.corrupt = hits, misses, corrupt
        return found

    def verify(
        self,
        compute: Callable[[dict], SimStats],
        sample: int | None = None,
        rng_seed: int | None = 0,
        quarantine: bool = False,
    ) -> list[dict]:
        """Re-run stored cells and diff against their cached stats.

        *compute* maps a key payload back to a freshly simulated
        :class:`SimStats` (see ``repro.experiments.common.compute_cell``).
        A mismatch means the cache is stale relative to the current code —
        i.e. something changed behaviour without changing a fingerprint.
        Returns one report dict per checked cell.  Entries written under
        a different stats schema are skipped: get() already never serves
        them (prune removes them), so re-simulating could only produce a
        false alarm.

        With *quarantine* set, corrupt and schema-stale entries are
        moved to ``<root>/.quarantine/`` (via :meth:`quarantine_entry`)
        instead of being silently skipped, and reported with status
        ``quarantined``.
        """
        checked: list[tuple[Path, dict]] = []
        quarantined: list[dict] = []
        for p, e in self.iter_entries():
            if not _stale(e):
                checked.append((p, e))
            elif quarantine:
                reason = "corrupt entry" if e is None else "stale stats schema"
                try:
                    dest = self.quarantine_entry(p)
                except FileNotFoundError:
                    continue  # concurrently pruned/overwritten: nothing to keep
                quarantined.append(
                    {"digest": p.stem, "cell": "?", "status": "quarantined",
                     "detail": f"{reason}; moved to {dest}"}
                )
        if sample is not None and sample < len(checked):
            # rng_seed=None draws fresh entropy, so repeated sampled
            # verifies cover different cells over time.
            rng = random.Random(rng_seed)
            checked = rng.sample(checked, sample)
        reports = quarantined
        for path, entry in checked:
            key = entry["key"]
            label = "{}/{}/n={}".format(
                key.get("machine", {}).get("name")
                or key.get("machine", {}).get("__kind__", "?"),
                key.get("workload", {}).get("name", "?"),
                key.get("instructions", "?"),
            )
            try:
                fresh = compute(key)
            except Exception as error:  # noqa: BLE001 - report, don't die
                reports.append(
                    {"digest": entry["digest"], "cell": label,
                     "status": "error", "detail": str(error)}
                )
                continue
            stored = entry["stats"]
            current = fresh.to_dict()
            if stored == current:
                reports.append(
                    {"digest": entry["digest"], "cell": label, "status": "ok"}
                )
            else:
                diffs = [
                    f"{name}: stored {stored.get(name)!r} != fresh {value!r}"
                    for name, value in current.items()
                    if stored.get(name) != value
                ]
                reports.append(
                    {"digest": entry["digest"], "cell": label,
                     "status": "stale", "detail": "; ".join(diffs[:4])}
                )
        return reports


def _envelope(key: CellKey, body: str, value: dict) -> str:
    """Return the JSON text of the record of *value* under *key*.

    *body* names the value's field, ``"stats"`` or ``"selection"``; the
    value's own content digest goes under ``<body>_digest``.
    """
    entry = {"format": ENTRY_FORMAT, "digest": key.digest, "key": key.payload}
    entry[body] = value
    entry[f"{body}_digest"] = digest(value)
    return json.dumps(entry, sort_keys=True)


def _read_entry(path: Path, name: str, body: str) -> dict:
    """Return the record at *path*, checked; raise on any defect.

    The record must name the digest *name*, carry its key payload as a
    mapping, and hold a *body* that matches its own content digest.
    The key digest covers inputs only, so the body digest is what makes
    in-place corruption that is still valid JSON read as a miss.
    """
    with open(path, encoding="utf-8") as handle:
        entry = json.load(handle)
    if entry["format"] != ENTRY_FORMAT or entry["digest"] != name:
        raise ValueError("entry/key mismatch")
    if not isinstance(entry["key"], dict):
        raise ValueError("incomplete entry")
    if entry[f"{body}_digest"] != digest(entry[body]):
        raise ValueError(f"{body} digest mismatch")
    return entry


def _stale(entry: dict | None) -> bool:
    """True for a corrupt (``None``) or schema-stale cell entry."""
    return entry is None or entry["key"].get("schema") != STATS_SCHEMA_VERSION


def _read_selection(path: Path, key: CellKey | None) -> dict:
    """Return the checked selection of the phase record at *path*.

    The record is checked against *key*, or without one against the key
    payload it carries.  Raises on any defect.
    """
    entry = _read_entry(path, key.digest if key else path.stem, "selection")
    if key is None:
        key = CellKey(payload=entry["key"], digest=path.stem)
        if digest_canonical(key.payload) != key.digest:
            raise ValueError("key digest mismatch")
    _check_selection(key.payload, entry["selection"])
    return entry["selection"]
