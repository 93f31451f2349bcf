"""The client side of the sweep service: submit, status, results.

Everything here is read-mostly: ``submit`` writes one content-addressed
job record (the scheduler does the rest), ``status`` renders a job's
per-shard completion counts and failure taxonomy from the spool, and
``results`` collects the finished grid straight out of the shared store
— it never simulates, so a client can watch partial results while the
sweep is still running and render the full table the moment the last
fingerprint lands.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Mapping

from repro.experiments.common import ExperimentResult, scale_of
from repro.experiments.sweep import SweepSpec, plan_grid, summarize_grid
from repro.resilience import CellFailure
from repro.service.jobs import DONE, FAILED, Job, job_id_for
from repro.service.queue import ServiceQueue
from repro.store import ResultStore


def build_job(
    sweep: Mapping[str, Any],
    scale: str,
    shards: int = 4,
    retries: int = 2,
) -> Job:
    """Validate *sweep* and wrap it in a content-addressed :class:`Job`.

    The mapping round-trips through :class:`SweepSpec` so the job id is
    computed over the canonical form — equivalent spellings of the same
    grid hash to the same job.
    """
    spec = SweepSpec.from_mapping(sweep)
    scale = scale_of(scale).value
    mapping = spec.to_mapping()
    return Job(
        job_id=job_id_for(mapping, scale),
        sweep=mapping,
        scale=scale,
        shards=max(1, shards),
        retries=max(0, retries),
    )


def submit_job(
    queue: ServiceQueue,
    sweep: Mapping[str, Any],
    scale: str,
    shards: int = 4,
    retries: int = 2,
) -> tuple[Job, str]:
    """Build and enqueue one sweep; see :meth:`ServiceQueue.submit`."""
    return queue.submit(build_job(sweep, scale, shards=shards, retries=retries))


def job_status(queue: ServiceQueue, store: ResultStore, job: Job) -> dict:
    """One job's live progress: counts, per-shard completion, taxonomy.

    Each cell is validated once; every shard's ``done`` count is read
    off that one set of stored indices.
    """
    stored = {
        index for index, cell in enumerate(job.cells)
        if store.validated(cell.store_key())
    }
    shards = []
    for claimed, batch in (
        (False, queue.iter_tickets()), (True, queue.iter_claims())
    ):
        for name, data in batch:
            if str(data.get("job", "")) != job.job_id:
                continue
            indices = [int(i) for i in data.get("indices", [])]
            done = sum(1 for i in indices if i in stored)
            shards.append(
                {
                    "name": name,
                    "claimed": claimed,
                    "worker": data.get("worker", ""),
                    "generation": int(data.get("generation", 0)),
                    "cells": len(indices),
                    "done": done,
                    "heartbeat_age": (
                        queue.clock() - float(data["heartbeat"])
                        if claimed and "heartbeat" in data
                        else None
                    ),
                }
            )
    kinds: dict[str, int] = {}
    for kind in job.failed_digests().values():
        kinds[kind] = kinds.get(kind, 0) + 1
    return {
        "id": job.job_id,
        "state": job.state,
        "error": job.error,
        "cells": len(job.cells),
        "stored": len(stored),
        "cached": job.cached,
        "failed": len(job.failed_digests()),
        "lost": len(job.lost),
        "shards": shards,
        "failure_kinds": dict(sorted(kinds.items())),
        "counters": dict(job.counters),
    }


def format_status(status: dict) -> list[str]:
    """Render one :func:`job_status` dict as CLI lines."""
    lines = [
        f"job {status['id'][:12]}  {status['state']:<8s} "
        f"{status['stored']}/{status['cells']} cells stored "
        f"({status['cached']} cached), {status['failed']} failed, "
        f"{status['lost']} lost"
    ]
    if status["error"]:
        lines.append(f"  error: {status['error']}")
    for shard in status["shards"]:
        owner = (
            f"claimed by {shard['worker']}" if shard["claimed"] else "unclaimed"
        )
        line = (
            f"  shard {shard['name']:<28s} {owner}  "
            f"{shard['done']}/{shard['cells']} done"
        )
        if shard["heartbeat_age"] is not None:
            line += f"  (heartbeat {shard['heartbeat_age']:.1f}s ago)"
        lines.append(line)
    if status["failure_kinds"]:
        detail = ", ".join(
            f"{count} {kind}" for kind, count in status["failure_kinds"].items()
        )
        lines.append(f"  failures: {detail}")
    counters = status["counters"]
    if counters:
        lines.append(
            "  workers: "
            f"{counters.get('completed', 0)} cells completed, "
            f"{counters.get('retries', 0)} retries, "
            f"{counters.get('worker_losses', 0)} lost worker(s)"
        )
    return lines


def collect_results(
    queue: ServiceQueue, store: ResultStore, job: Job
) -> tuple[ExperimentResult, int]:
    """Assemble *job*'s grid from the store, read-only.

    Fills a :class:`~repro.experiments.sweep.SweepGrid` with whatever
    the store holds for the job's fingerprints (missing cells stay
    ``None`` and render as ``n/a``), attaches the recorded failures so
    the table says *why* a cell is absent, and formats it through the
    same :func:`summarize_grid` path ``dkip-experiments sweep`` uses.
    Phase-set tokens take the SimPoint selections the scheduler stored
    when it planned the job.  Returns the result plus the count of
    cells not yet available.
    """
    spec = SweepSpec.from_mapping(job.sweep)
    grid = plan_grid(spec, scale_of(job.scale), store)
    missing = 0
    digest_to_coord: dict[str, tuple[int, int, str]] = {}
    for coord, cell in zip(grid.coords(), job.cells):
        stats = store.get(cell.store_key())
        grid.results[coord] = stats
        digest_to_coord[cell.digest] = coord
        if stats is None:
            missing += 1
    for failure in job.failures:
        coord = digest_to_coord.get(str(failure.get("digest", "")))
        if coord is None or grid.results.get(coord) is not None:
            continue
        grid.failures[coord] = CellFailure(
            index=int(failure.get("index", -1)),
            cell=str(failure.get("cell", "?")),
            kind=str(failure.get("kind", "unknown")),
            error=str(failure.get("error", "")),
            message=str(failure.get("message", "")),
            traceback=str(failure.get("traceback", "")),
            attempts=int(failure.get("attempts", 1)),
            duration=float(failure.get("duration_s", 0.0)),
        )
    return summarize_grid(grid), missing


def wait_for_job(
    queue: ServiceQueue,
    job_id: str,
    poll: float = 0.5,
    timeout: float | None = None,
    on_progress: Callable[[Job], None] | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> Job | None:
    """Block until *job_id* finishes; ``None`` on timeout.

    The attachable-progress primitive behind ``submit --wait``: any
    client can watch any job — reconnecting is just calling this again.
    """
    deadline = None if timeout is None else queue.clock() + timeout
    while True:
        job = queue.load_job(job_id)
        if job is not None and job.state in (DONE, FAILED):
            return job
        if on_progress is not None and job is not None:
            on_progress(job)
        if deadline is not None and queue.clock() >= deadline:
            return None
        sleep(poll)
