"""The service transport: a spool directory of jobs, tickets and claims.

Layout::

    <root>/jobs/<job id>.json          one record per submitted sweep
    <root>/shards/<ticket>.json        claimable work units (cell indices)
    <root>/claims/<ticket>.json        tickets a worker owns (+ heartbeat)
    <root>/done/<ticket>.json          per-shard completion reports
    <root>/stop                        drain flag ``serve`` raises on exit

Everything is plain JSON files moved with ``os.replace``, which is all
the coordination the service needs: a worker claims a ticket by renaming
it from ``shards/`` into ``claims/`` — exactly one of N racing renames
of the same source succeeds, the rest observe ``FileNotFoundError`` and
move on — and every state rewrite goes through a uniquely named temp
file, mirroring the store's atomic-write discipline.  Because the
substrate is a directory, "multi-host" means "share the directory" (NFS
or any shared mount); a TCP transport only has to reproduce this
module's method surface, nothing above it knows about files.

The wall clock is injected (``clock=``) so lease expiry and heartbeat
age are deterministic under test.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.service.jobs import DONE, FAILED, Job

#: Per-process counter feeding unique temp-file names.
_TMP_COUNTER = itertools.count()


def atomic_write_json(path: Path, data: Mapping[str, Any]) -> None:
    """Write *data* to *path* atomically via a uniquely named temp file.

    No fsync: spool files are coordination state, not the results of
    record — a crash loses at worst one in-flight rewrite, which the
    scheduler regenerates from the store on its next poll.  The text is
    encoded in one ``json.dumps`` call, which runs the C encoder;
    ``json.dump`` writes the same bytes through the pure-Python one.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(
        f".tmp.{os.getpid()}.{next(_TMP_COUNTER)}.{os.urandom(4).hex()}"
    )
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(data, sort_keys=True))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def read_json(path: Path) -> dict | None:
    """Read one JSON spool file; ``None`` when it vanished or is torn.

    Concurrent renames and rewrites make both outcomes routine — callers
    treat them as "not there anymore" and move on.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


class ServiceQueue:
    """One service spool directory and the operations over it."""

    def __init__(
        self, root: str | os.PathLike, clock: Callable[[], float] = time.time
    ) -> None:
        self.root = Path(root)
        self.clock = clock
        self.jobs_dir = self.root / "jobs"
        self.shards_dir = self.root / "shards"
        self.claims_dir = self.root / "claims"
        self.done_dir = self.root / "done"
        self.stop_path = self.root / "stop"

    def ensure(self) -> None:
        """Create the spool layout (idempotent)."""
        for directory in (
            self.jobs_dir, self.shards_dir, self.claims_dir, self.done_dir
        ):
            directory.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Jobs
    # ------------------------------------------------------------------

    def job_path(self, job_id: str) -> Path:
        """Where *job_id*'s record lives (existing or not)."""
        return self.jobs_dir / f"{job_id}.json"

    def save_job(self, job: Job) -> None:
        """Atomically persist *job*'s current record."""
        atomic_write_json(self.job_path(job.job_id), job.to_dict())

    def load_job(self, job_id: str) -> Job | None:
        """Load one job record; ``None`` when absent or unreadable."""
        data = read_json(self.job_path(job_id))
        if data is None:
            return None
        try:
            return Job.from_dict(data)
        except (KeyError, TypeError, ValueError):
            return None

    def iter_jobs(self) -> list[Job]:
        """Every readable job record, ordered by submission time."""
        jobs = []
        for path in sorted(self.jobs_dir.glob("*.json")):
            job = self.load_job(path.stem)
            if job is not None:
                jobs.append(job)
        return sorted(jobs, key=lambda job: (job.submitted_at, job.job_id))

    def match_job(self, prefix: str) -> Job | None:
        """The unique job whose id starts with *prefix*, if exactly one."""
        matches = [
            job for job in self.iter_jobs() if job.job_id.startswith(prefix)
        ]
        return matches[0] if len(matches) == 1 else None

    def submit(self, job: Job) -> tuple[Job, str]:
        """Enqueue *job*, deduplicating against its content-addressed id.

        Returns the authoritative record plus what happened: ``"new"``
        (no such job existed), ``"attached"`` (an identical submission
        is already queued or running — the caller just follows it), or
        ``"resubmitted"`` (a finished record was reset to queued; on a
        warm store the scheduler completes it with zero simulations).
        """
        self.ensure()
        existing = self.load_job(job.job_id)
        if existing is not None and existing.state not in (DONE, FAILED):
            return existing, "attached"
        job.submitted_at = self.clock()
        self.save_job(job)
        return job, "new" if existing is None else "resubmitted"

    # ------------------------------------------------------------------
    # Tickets (shards/ -> claims/ -> done/)
    # ------------------------------------------------------------------

    @staticmethod
    def ticket_name(job_id: str, generation: int, part: int) -> str:
        """The file name of one dispatch ticket."""
        return f"{job_id}.g{generation}.p{part}.json"

    def write_ticket(
        self, job_id: str, generation: int, part: int, indices: list[int]
    ) -> str:
        """Publish one claimable ticket; returns its name."""
        name = self.ticket_name(job_id, generation, part)
        atomic_write_json(
            self.shards_dir / name,
            {
                "job": job_id,
                "generation": generation,
                "part": part,
                "indices": list(indices),
            },
        )
        return name

    def iter_tickets(self) -> list[tuple[str, dict]]:
        """Every unclaimed ticket as ``(name, content)``."""
        tickets = []
        for path in sorted(self.shards_dir.glob("*.json")):
            data = read_json(path)
            if data is not None:
                tickets.append((path.name, data))
        return tickets

    def claim(self, worker: str) -> dict | None:
        """Claim one ticket for *worker*; ``None`` when none is free.

        The rename from ``shards/`` to ``claims/`` is the mutual
        exclusion: of N workers racing for one ticket, exactly one
        rename finds the source file.  The claimed ticket is rewritten
        with the owner and a first heartbeat, and returned with its
        ``name`` so the worker can heartbeat and finish it.
        """
        for path in sorted(self.shards_dir.glob("*.json")):
            claimed = self.claims_dir / path.name
            try:
                os.replace(path, claimed)
            except FileNotFoundError:
                continue  # someone else won this ticket
            data = read_json(claimed)
            if data is None:
                continue  # scheduler reaped it between rename and read
            data["name"] = path.name
            data["worker"] = worker
            data["heartbeat"] = self.clock()
            atomic_write_json(claimed, data)
            return data
        return None

    def heartbeat(self, claim: dict) -> None:
        """Refresh *claim*'s lease (call between cells)."""
        claim["heartbeat"] = self.clock()
        atomic_write_json(self.claims_dir / claim["name"], claim)

    def finish_claim(self, claim: dict) -> None:
        """Retire a completed claim."""
        (self.claims_dir / claim["name"]).unlink(missing_ok=True)

    def drop_claim(self, name: str) -> None:
        """Reap one claim (stale lease) so its cells can be re-issued."""
        (self.claims_dir / name).unlink(missing_ok=True)

    def iter_claims(self) -> list[tuple[str, dict]]:
        """Every live claim as ``(name, content)``."""
        claims = []
        for path in sorted(self.claims_dir.glob("*.json")):
            data = read_json(path)
            if data is not None:
                claims.append((path.name, data))
        return claims

    # ------------------------------------------------------------------
    # Shard reports
    # ------------------------------------------------------------------

    def write_report(self, claim: dict, data: Mapping[str, Any]) -> None:
        """Publish the completion report of one claimed ticket."""
        atomic_write_json(self.done_dir / claim["name"], dict(data))

    def iter_reports(self, job_id: str) -> list[tuple[str, dict]]:
        """Every report of *job_id*'s tickets as ``(name, content)``."""
        reports = []
        for path in sorted(self.done_dir.glob(f"{job_id}.*.json")):
            data = read_json(path)
            if data is not None:
                reports.append((path.name, data))
        return reports

    # ------------------------------------------------------------------
    # Drain flag
    # ------------------------------------------------------------------

    def request_stop(self) -> None:
        """Raise the drain flag; workers exit at their next poll."""
        self.root.mkdir(parents=True, exist_ok=True)
        self.stop_path.touch()

    def clear_stop(self) -> None:
        """Lower the drain flag (``serve`` start-up)."""
        self.stop_path.unlink(missing_ok=True)

    def stop_requested(self) -> bool:
        """Whether the drain flag is raised."""
        return self.stop_path.exists()
