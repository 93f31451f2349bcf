"""The sweep-service scheduler: plan, shard, reap, heal, complete.

One scheduler per spool directory.  Each :meth:`Scheduler.poll_once`
pass is a pure function of the spool and the store — queued jobs get
planned into fingerprinted cell lists, unresolved cells not covered by
an outstanding ticket get (re)dispatched, stale claims get reaped, and
jobs whose every cell is stored/failed/lost get completed.  Because the
pass re-derives "what is missing" from the store for every cell no
ticket or claim covers, every failure mode the service cares about —
worker death, duplicate dispatch, a scheduler restart, a client
resubmitting a finished job — collapses into the same recovery:
*requeue the missing fingerprints*.

A covered cell is not probed: its claim is still computing it.  It is
validated on the first pass after that claim finishes or is reaped, so
a pass costs one store read per cell that left flight, not one per
unstored cell (a job planned in this pass, which has just read every
cell, is not read again), and a job record is rewritten about once per
closed ticket.  A job whose cells another job's ticket covers therefore
completes when that ticket closes; when a cell failed for good or was
lost there, the job takes over that failure or lost mark, so its
summary and ``serve --once``'s exit status count the cell.

Skip decisions go through validated store reads
(:meth:`repro.store.ResultStore.validated`, i.e. ``get()`` semantics),
never bare existence checks: a zero-length or torn entry schedules like
a miss and is re-simulated rather than trusted.

Cross-job dedup is also fingerprint-based: a cell already covered by
*any* job's outstanding ticket is not dispatched again, so two
overlapping submissions sharing one store never double-simulate a cell.
"""

from __future__ import annotations

from typing import Callable

from repro.experiments.common import WorkloadPool, scale_of
from repro.experiments.sweep import SweepSpec, plan_grid
from repro.resilience import cell_label
from repro.service.jobs import DONE, FAILED, QUEUED, RUNNING, Job, JobCell
from repro.service.queue import ServiceQueue
from repro.store import ResultStore, cell_key

#: Counter keys folded from shard reports into ``Job.counters``.
_REPORT_COUNTERS = ("cells", "completed", "retries", "timeouts", "worker_deaths")


class Scheduler:
    """Plans submitted jobs into tickets and heals them to completion."""

    def __init__(
        self,
        queue: ServiceQueue,
        store: ResultStore,
        lease: float = 30.0,
        requeue_budget: int = 5,
        pool: WorkloadPool | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.queue = queue
        self.store = store
        #: Seconds without a heartbeat before a claim counts as dead.
        self.lease = lease
        #: Dispatch waves beyond the first before cells are declared lost.
        self.requeue_budget = requeue_budget
        self.pool = pool or WorkloadPool()
        self.clock = clock if clock is not None else queue.clock

    # ------------------------------------------------------------------
    # The poll pass
    # ------------------------------------------------------------------

    def poll_once(self) -> list[str]:
        """Run one scheduling pass; returns human-readable event lines."""
        self.queue.ensure()
        events: list[str] = []
        jobs = {job.job_id: job for job in self.queue.iter_jobs()}
        queued = [job for job in jobs.values() if job.state == QUEUED]
        for job in queued:
            self._plan(job, events)
        for job in jobs.values():
            if job.state == RUNNING:
                self._absorb_reports(job)
        self._reap_stale(jobs, events)
        self._dispatch(jobs, events, {job.job_id for job in queued})
        for job in jobs.values():
            if job.state == RUNNING:
                self._complete(job, events)
        return events

    def drained(self) -> bool:
        """Whether every submitted job has finished (``serve --once``)."""
        if self.queue.iter_tickets() or self.queue.iter_claims():
            return False
        return all(
            job.state in (DONE, FAILED) for job in self.queue.iter_jobs()
        )

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def _plan(self, job: Job, events: list[str]) -> None:
        """Expand a queued job's sweep into fingerprinted cells."""
        try:
            spec = SweepSpec.from_mapping(job.sweep)
            grid = plan_grid(spec, scale_of(job.scale), self.store)
            cells = []
            for config, bench, memory in grid.cells():
                key = cell_key(
                    config, self.pool.get(bench), grid.instructions, memory
                )
                cells.append(
                    JobCell(
                        digest=key.digest,
                        label=cell_label(config, bench, memory),
                        key=key.payload,
                    )
                )
        except Exception as error:  # noqa: BLE001 - the job reports it
            job.state = FAILED
            job.error = str(error)
            job.finished_at = self.clock()
            self.queue.save_job(job)
            events.append(f"job {job.job_id[:12]} failed to plan: {error}")
            return
        job.cells = cells
        # The validated-read skip decision: torn/zero-length entries
        # count as missing and re-simulate (contains() would lie here).
        stored = [
            cell.digest for cell in cells if self.store.validated(cell.store_key())
        ]
        job.stored = sorted(set(stored))
        job.cached = len(set(stored))
        job.state = RUNNING
        self.queue.save_job(job)
        events.append(
            f"job {job.job_id[:12]} planned: {len(cells)} cells, "
            f"{job.cached} cached"
        )

    # ------------------------------------------------------------------
    # Report absorption
    # ------------------------------------------------------------------

    def _absorb_reports(self, job: Job) -> None:
        """Fold new shard reports into the job record."""
        changed = False
        for name, data in self.queue.iter_reports(job.job_id):
            if name in job.reports:
                continue
            job.reports.append(name)
            for counter in _REPORT_COUNTERS:
                job.counters[counter] = (
                    job.counters.get(counter, 0) + int(data.get(counter, 0))
                )
            for failure in data.get("failures", []):
                if isinstance(failure, dict) and failure.get("digest"):
                    job.failures.append(failure)
            changed = True
        if changed:
            self.queue.save_job(job)

    # ------------------------------------------------------------------
    # Lease reaping
    # ------------------------------------------------------------------

    def _reap_stale(self, jobs: dict[str, Job], events: list[str]) -> None:
        """Drop claims whose worker stopped heartbeating."""
        now = self.clock()
        for name, claim in self.queue.iter_claims():
            age = now - float(claim.get("heartbeat", 0.0))
            if age <= self.lease:
                continue
            self.queue.drop_claim(name)
            job = jobs.get(str(claim.get("job", "")))
            if job is not None:
                job.requeues += 1
                job.counters["worker_losses"] = (
                    job.counters.get("worker_losses", 0) + 1
                )
                self.queue.save_job(job)
            events.append(
                f"shard {name} stale ({age:.1f}s since heartbeat); "
                "requeueing its missing cells"
            )

    # ------------------------------------------------------------------
    # Dispatch (initial sharding and every requeue, one code path)
    # ------------------------------------------------------------------

    def _covered_digests(self, jobs: dict[str, Job]) -> set[str]:
        """Digests referenced by any outstanding ticket or claim."""
        covered: set[str] = set()
        outstanding = self.queue.iter_tickets() + self.queue.iter_claims()
        for _name, data in outstanding:
            job = jobs.get(str(data.get("job", "")))
            if job is None:
                continue
            for index in data.get("indices", []):
                if 0 <= int(index) < len(job.cells):
                    covered.add(job.cells[int(index)].digest)
        return covered

    def _refresh_stored(self, job: Job, covered: set[str]) -> bool:
        """Validate unstored, uncovered digests against the store; True if new."""
        stored = set(job.stored)
        grew = False
        for cell in job.cells:
            if cell.digest in stored or cell.digest in covered:
                continue
            if self.store.validated(cell.store_key()):
                stored.add(cell.digest)
                grew = True
        if grew:
            job.stored = sorted(stored)
        return grew

    def _dispatch(
        self, jobs: dict[str, Job], events: list[str], planned: set[str]
    ) -> None:
        """Issue tickets for every unresolved, uncovered cell.

        One code path serves the initial sharding, post-crash recovery,
        and warm resubmits alike: subtract the cells already in flight
        (in *any* job — that is the cross-job dedup), compare the rest
        against the store (except in the jobs *planned* this pass,
        which just did), take over the permanent failures and lost
        marks of other jobs, subtract the failed and lost digests, and
        shard whatever remains.
        """
        covered = self._covered_digests(jobs)
        failed: dict[str, dict] = {}
        lost: set[str] = set()
        for job in jobs.values():
            failed_here = job.failed_digests()
            for failure in job.failures:
                if failure.get("digest") in failed_here:
                    failed.setdefault(failure["digest"], failure)
            lost |= set(job.lost)
        for job in jobs.values():
            if job.state != RUNNING:
                continue
            changed = job.job_id not in planned and self._refresh_stored(
                job, covered
            )
            resolved = set(job.stored) | set(job.failed_digests()) | set(job.lost)
            uncovered = []
            for index, cell in enumerate(job.cells):
                if cell.digest in resolved or cell.digest in covered:
                    continue
                if cell.digest in failed:
                    job.failures.append(dict(failed[cell.digest], index=index))
                elif cell.digest in lost:
                    job.lost.append(cell.digest)
                else:
                    uncovered.append(index)
                    continue
                resolved.add(cell.digest)
                changed = True
            if not uncovered:
                if changed:
                    self.queue.save_job(job)
                continue
            if job.requeues > self.requeue_budget:
                job.lost = sorted(
                    set(job.lost)
                    | {job.cells[index].digest for index in uncovered}
                )
                self.queue.save_job(job)
                events.append(
                    f"job {job.job_id[:12]}: abandoning {len(uncovered)} "
                    f"cell(s) after {job.requeues} requeues"
                )
                continue
            parts = min(job.shards, len(uncovered)) or 1
            generation = job.generation
            job.generation += 1
            for part in range(parts):
                indices = uncovered[part::parts]
                self.queue.write_ticket(job.job_id, generation, part, indices)
                for index in indices:
                    covered.add(job.cells[index].digest)
            self.queue.save_job(job)
            events.append(
                f"job {job.job_id[:12]}: dispatched {len(uncovered)} "
                f"cell(s) in {parts} shard(s) (generation {generation})"
            )

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------

    def _complete(self, job: Job, events: list[str]) -> None:
        """Finish a running job once every cell is accounted for."""
        unresolved = (
            {cell.digest for cell in job.cells}
            - set(job.stored)
            - set(job.failed_digests())
            - set(job.lost)
        )
        if unresolved:
            return
        outstanding = any(
            str(data.get("job", "")) == job.job_id
            for _name, data in self.queue.iter_tickets() + self.queue.iter_claims()
        )
        if outstanding:
            return
        job.state = DONE
        job.finished_at = self.clock()
        self.queue.save_job(job)
        events.append(job.summary_line())
