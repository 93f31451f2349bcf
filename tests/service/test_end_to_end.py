"""End-to-end service runs: bit-identity, dedup, and healing guarantees.

Workers run in-process here (sharing one ``ResultStore`` instance), so
``store.writes`` is a global write counter — the "exactly one store
write per cell" guarantees are asserted directly against it.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import WorkloadPool, run_cells, scale_of
from repro.experiments.sweep import SweepSpec, plan_grid
from repro.resilience import PERMANENT, TransientCellError
from repro.service import (
    Scheduler,
    ServiceQueue,
    ServiceWorker,
    build_job,
    collect_results,
    job_status,
)
from repro.service import worker as worker_module
from repro.service.jobs import DONE


def _submit(queue, mapping, shards=2, retries=1):
    job, outcome = queue.submit(
        build_job(mapping, "quick", shards=shards, retries=retries)
    )
    return job, outcome


def test_service_grid_is_bit_identical_to_serial_run(
    queue, store, mapping, drain_service
):
    # The reference: the same grid through the serial sweep path.
    plan = plan_grid(SweepSpec.from_mapping(mapping), scale_of("quick"))
    serial = run_cells(plan.cells(), plan.instructions, WorkloadPool())
    # The service: two workers sharding the same grid.
    job, _ = _submit(queue, mapping, shards=2)
    scheduler = Scheduler(queue, store)
    workers = [ServiceWorker(queue, store, name=f"w{i}") for i in range(2)]
    drain_service(scheduler, workers)
    finished = queue.load_job(job.job_id)
    assert finished.state == DONE
    stored = [store.get(cell.store_key()) for cell in finished.cells]
    assert stored == serial  # SimStats equality is field-for-field
    assert store.writes == len(finished.cells)  # one write per cell


def test_two_submitters_converge_to_one_job_and_one_write_per_cell(
    queue, store, mapping, clock, drain_service
):
    # Two clients race the same submission into one spool.
    other_client = ServiceQueue(queue.root, clock=clock)
    job, outcome = _submit(queue, mapping)
    assert outcome == "new"
    duplicate, outcome = _submit(other_client, mapping)
    assert outcome == "attached" and duplicate.job_id == job.job_id
    scheduler = Scheduler(queue, store)
    workers = [ServiceWorker(queue, store, name=f"w{i}") for i in range(2)]
    drain_service(scheduler, workers)
    assert len(queue.iter_jobs()) == 1
    assert queue.load_job(job.job_id).state == DONE
    assert store.writes == 4  # zero double-simulations


def test_overlapping_jobs_share_cells_without_double_simulation(
    queue, store, mapping, drain_service
):
    disjoint = dict(mapping, name="svc-b", machines=["r10(rob=48)"])
    overlap = dict(mapping, name="svc-c")  # same grid, different name
    jobs = [
        _submit(queue, m, shards=2)[0] for m in (mapping, disjoint, overlap)
    ]
    unique = 4 + 2  # mapping (4 cells) + disjoint (2); overlap adds none
    scheduler = Scheduler(queue, store)
    workers = [ServiceWorker(queue, store, name=f"w{i}") for i in range(2)]
    drain_service(scheduler, workers)
    for job in jobs:
        assert queue.load_job(job.job_id).state == DONE
    assert store.writes == unique


class DyingWorker(ServiceWorker):
    """Dies (raises out of the poll) after completing *survive* cells,
    leaving its claim abandoned exactly like a killed process would."""

    def __init__(self, *args, survive: int = 1, **kwargs):
        super().__init__(*args, **kwargs)
        self.survive = survive

    def _after_cell(self, job, cell):
        self.survive -= 1
        if self.survive <= 0:
            raise RuntimeError("worker killed mid-shard")


def test_killed_worker_heals_to_a_complete_grid_without_rework(
    queue, store, mapping, clock, drain_service
):
    job, _ = _submit(queue, mapping, shards=2)
    scheduler = Scheduler(queue, store, lease=30.0)
    scheduler.poll_once()
    dying = DyingWorker(queue, store, name="doomed", survive=1)
    with pytest.raises(RuntimeError):
        dying.poll_once()
    # Its claim is now orphaned with one of its cells already stored.
    assert len(queue.iter_claims()) == 1
    assert store.writes == 1
    clock.advance(31.0)
    healthy = ServiceWorker(queue, store, name="healthy")
    drain_service(scheduler, [healthy])
    healed = queue.load_job(job.job_id)
    assert healed.state == DONE
    assert healed.requeues == 1
    assert healed.counters.get("worker_losses") == 1
    assert all(store.validated(cell.store_key()) for cell in healed.cells)
    # The dead worker's completed cell was never re-simulated.
    assert store.writes == len(healed.cells)


def test_status_and_results_reflect_the_finished_job(
    queue, store, mapping, drain_service
):
    job, _ = _submit(queue, mapping)
    scheduler = Scheduler(queue, store)
    drain_service(scheduler, [ServiceWorker(queue, store, name="w1")])
    finished = queue.load_job(job.job_id)
    status = job_status(queue, store, finished)
    assert status["state"] == DONE
    assert status["stored"] == status["cells"] == 4
    assert status["failed"] == status["lost"] == 0
    assert status["shards"] == []  # nothing outstanding
    result, missing = collect_results(queue, store, finished)
    assert missing == 0
    rendered = result.render()
    assert "mean IPC" in rendered and "n/a" not in rendered


def test_a_phase_job_plans_its_selection_once_into_the_store(
    queue, store, mapping, drain_service, tmp_path, monkeypatch
):
    from repro.simpoint import phases as simpoint_phases
    from repro.trace.io import save_trace
    from repro.workloads import get_workload

    capture = str(tmp_path / "mcf.trc.gz")
    save_trace(get_workload("mcf"), capture, 1200)
    token = f"phases(file={capture},interval=300,k=2,seed=0)"
    job, _ = _submit(queue, dict(mapping, workloads=[token], instructions=300))
    drain_service(Scheduler(queue, store), [ServiceWorker(queue, store, name="w1")])
    finished = queue.load_job(job.job_id)
    assert finished.state == DONE
    assert store.summary()["phase_records"] == 1

    def refuse(*args, **kwargs):
        raise AssertionError("results re-analyzed a stored selection")

    monkeypatch.setattr(simpoint_phases, "analyze_trace", refuse)
    result, missing = collect_results(queue, store, finished)
    assert missing == 0
    assert "weighted phase(s)" in result.render()


def test_in_worker_retries_reroll_transient_faults(
    queue, store, mapping, drain_service, monkeypatch
):
    """``#0`` names each cell's first attempt, so the in-worker retry
    (attempt 1) runs clean; keying the token by ticket generation alone
    replayed the fault on every retry and failed all four cells."""
    monkeypatch.setenv("REPRO_FAULT", "cell:transient@#0")
    job, _ = _submit(queue, mapping, retries=2)
    scheduler = Scheduler(queue, store)
    workers = [ServiceWorker(queue, store, name=f"w{i}") for i in range(2)]
    drain_service(scheduler, workers)
    healed = queue.load_job(job.job_id)
    assert healed.state == DONE
    assert healed.summary_line().endswith(
        ": 4 cells, 4 simulated, 0 cached, 0 failed"
    )
    assert healed.counters["retries"] == 4


def test_worker_permanent_failures_reach_the_job_and_its_results(
    queue, store, mapping, drain_service, monkeypatch
):
    monkeypatch.setenv("REPRO_FAULT", "cell:fail@mcf")
    job, _ = _submit(queue, mapping, retries=2)
    scheduler = Scheduler(queue, store)
    workers = [ServiceWorker(queue, store, name=f"w{i}") for i in range(2)]
    drain_service(scheduler, workers)
    finished = queue.load_job(job.job_id)
    assert finished.state == DONE
    assert finished.summary_line().endswith(
        ": 4 cells, 2 simulated, 0 cached, 2 failed"
    )
    assert finished.counters["retries"] == 0
    assert len(finished.failures) == 2
    for failure in finished.failures:
        cell = finished.cells[failure["index"]]
        assert " mcf " in cell.label
        assert failure["kind"] == PERMANENT and failure["attempts"] == 1
        assert failure["digest"] == cell.digest
    result, missing = collect_results(queue, store, finished)
    assert missing == 2
    failed_rows = [
        line for line in result.render().splitlines()
        if "n/a (failed: permanent)" in line
    ]
    assert len(failed_rows) == 2 and all(" mcf " in row for row in failed_rows)


def test_claim_heartbeats_before_every_attempt_but_its_first(
    queue, store, mapping, monkeypatch
):
    """One claim writes compute → put → heartbeat → next compute.

    ``claim()`` has just stamped the first heartbeat; every later attempt
    heartbeats first, after a failed cell and before a retry too, so a
    run of failing cells cannot let the lease lapse.
    """
    monkeypatch.delenv("REPRO_FAULT", raising=False)
    events = []
    real_compute = worker_module.compute_cell
    real_heartbeat = queue.heartbeat
    real_put = store.put

    def compute(key, max_cycles=None):
        name = key["workload"]["name"]
        first_swim = name == "swim" and ("compute", "swim") not in events
        events.append(("compute", name))
        if name == "mcf":
            raise ValueError("mcf is broken")
        if first_swim:
            raise TransientCellError("first swim attempt is unlucky")
        return real_compute(key, max_cycles=max_cycles)

    def heartbeat(claim):
        events.append(("heartbeat",))
        real_heartbeat(claim)

    def put(key, stats):
        events.append(("put",))
        return real_put(key, stats)

    monkeypatch.setattr(worker_module, "compute_cell", compute)
    monkeypatch.setattr(queue, "heartbeat", heartbeat)
    monkeypatch.setattr(store, "put", put)
    _submit(queue, mapping, shards=1, retries=1)
    Scheduler(queue, store).poll_once()
    assert ServiceWorker(queue, store, name="w").poll_once()
    assert events == [
        ("compute", "mcf"),
        ("heartbeat",), ("compute", "mcf"),
        ("heartbeat",), ("compute", "swim"),  # transient: retried last
        ("heartbeat",), ("compute", "swim"), ("put",),
        ("heartbeat",), ("compute", "swim"), ("put",),
    ]
