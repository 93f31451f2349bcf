"""The sweep-service worker: claim a ticket, simulate, stream to store.

A worker is deliberately dumb: it claims one ticket, re-executes each
cell from the key payload recorded in the job file through
:func:`~repro.experiments.common.compute_cell` — the payload ``cache
verify`` replays, run through the one cell body every sweep uses, so
service results are bit-identical to a
:func:`~repro.experiments.common.run_cells` pass — writes every
completed cell straight into the shared :class:`ResultStore`, and
heartbeats its claim between attempts.  The claimed cells that are not
yet stored run grouped by (workload, memory), so the worker process's
one-entry workload and warm-up memos build each trace and warm each
hierarchy once per group.  The claim is one in-process
:class:`~repro.resilience.ResilientExecutor` run whose body computes one
cell per call, so transient failures back off and retry in-worker under
the same policy code every sweep uses, while permanent ones are recorded
in the shard report's failure taxonomy and left for the scheduler to
account.

Crash safety needs no protocol: cells already stored survive the crash
(the store is the ledger), the abandoned claim's lease expires, and the
scheduler re-issues only the still-missing fingerprints.

``$REPRO_FAULT`` ``cell`` clauses inject here too — one worker process
per ``serve`` slot makes a ``kill`` clause a genuine worker death.  As
everywhere, the token's ``#N`` is the cell's N-th attempt: a ticket of
generation *g* numbers its attempts from ``g × (retries + 1)``, so
in-worker retries re-roll their fault decisions and no requeued
generation repeats an earlier generation's attempt numbers
(``cell:kill@#0`` kills only generation-0 first attempts).
"""

from __future__ import annotations

import os
import time

from repro.experiments.common import compute_cell, pair_order
from repro.resilience import ExecutionPolicy, ResilientExecutor
from repro.resilience.faults import plan_from_env
from repro.service.jobs import Job, JobCell
from repro.service.queue import ServiceQueue
from repro.store import ResultStore


class ServiceWorker:
    """Claims and executes one ticket at a time against a shared store."""

    def __init__(
        self,
        queue: ServiceQueue,
        store: ResultStore,
        name: str | None = None,
    ) -> None:
        self.queue = queue
        self.store = store
        self.name = name or f"worker-{os.getpid()}"

    def poll_once(self) -> bool:
        """Claim and run one ticket; False when none was available."""
        claim = self.queue.claim(self.name)
        if claim is None:
            return False
        self._run_claim(claim)
        return True

    def _run_claim(self, claim: dict) -> None:
        """Execute every not-yet-stored cell of one claimed ticket."""
        job = self.queue.load_job(str(claim.get("job", "")))
        if job is None:
            self.queue.finish_claim(claim)
            return
        indices = [int(index) for index in claim.get("indices", [])]
        # A stored cell was finished by another worker (or an earlier
        # generation); the fingerprint says so, skip it idempotently.
        tasks = [
            (index, job.cells[index].label, index)
            for index in pair_order(
                [index for index in indices if 0 <= index < len(job.cells)],
                lambda index: _pair(job.cells[index]),
            )
            if not self.store.validated(job.cells[index].store_key())
        ]
        plan = plan_from_env()
        first_attempt = int(claim.get("generation", 0)) * (job.retries + 1)
        tries: dict[int, int] = {}

        def body(index: int):
            if tries:  # claim() has just stamped the first heartbeat
                self.queue.heartbeat(claim)
            cell = job.cells[index]
            attempt = first_attempt + tries.get(index, 0)
            tries[index] = tries.get(index, 0) + 1
            if plan is not None:
                plan.inject_cell(cell.label, attempt)
            return compute_cell(cell.key, max_cycles=job.max_cycles)

        def on_result(index: int, stats) -> None:
            cell = job.cells[index]
            self.store.put(cell.store_key(), stats)
            self._after_cell(job, cell)

        policy = ExecutionPolicy(retries=job.retries, max_failures=None)
        executor = ResilientExecutor(body, 1, policy)
        executor.run(tasks, on_result)
        data = executor.report.to_dict(policy)
        for failure_dict, failure in zip(data["failures"], executor.report.failures):
            failure_dict["digest"] = job.cells[failure.index].digest
        data["worker"] = self.name
        self.queue.write_report(claim, data)
        self.queue.finish_claim(claim)

    def _after_cell(self, job: Job, cell: JobCell) -> None:
        """Hook after each stored cell; tests override it to die mid-shard."""


def _pair(cell: JobCell) -> tuple:
    """The hashable (workload, memory) identity of a job cell."""
    workload = cell.key["workload"]
    return (workload["name"], workload["seed"]), repr(cell.key["memory"])


def worker_main(
    root: str,
    store_root: str | None = None,
    poll: float = 0.2,
    name: str | None = None,
) -> int:
    """Worker-process entry point: poll for tickets until told to stop.

    ``dkip-experiments serve`` spawns one process per ``--workers`` slot
    with this target; any other host pointing at the same spool
    directory can run it too (that is the whole multi-host story).
    """
    queue = ServiceQueue(root)
    store = ResultStore(store_root if store_root else queue.root / "store")
    worker = ServiceWorker(queue, store, name=name)
    while not queue.stop_requested():
        if not worker.poll_once():
            time.sleep(poll)
    return 0
