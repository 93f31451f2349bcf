"""Scheduler behaviour: planning, sharding, leases, healing, completion."""

from __future__ import annotations

from repro.service import Scheduler, ServiceWorker, build_job
from repro.service.jobs import DONE, FAILED, RUNNING


def _submit(queue, mapping, shards=2):
    job, _ = queue.submit(build_job(mapping, "quick", shards=shards, retries=1))
    return job


def _probes(monkeypatch, store) -> list[str]:
    """The digest of every ``store.validated`` call from now on."""
    probed: list[str] = []
    validated = store.validated

    def probe(key):
        probed.append(key.digest)
        return validated(key)

    monkeypatch.setattr(store, "validated", probe)
    return probed


def test_plan_expands_and_shards_the_grid(queue, store, mapping):
    job = _submit(queue, mapping, shards=2)
    scheduler = Scheduler(queue, store)
    events = scheduler.poll_once()
    planned = queue.load_job(job.job_id)
    assert planned.state == RUNNING
    assert len(planned.cells) == 4  # 2 machines x 2 workloads
    assert len({cell.digest for cell in planned.cells}) == 4
    assert all(" × " in cell.label for cell in planned.cells)
    tickets = queue.iter_tickets()
    assert len(tickets) == 2
    covered = sorted(
        index for _name, data in tickets for index in data["indices"]
    )
    assert covered == [0, 1, 2, 3]  # a disjoint, complete partition
    assert any("planned: 4 cells, 0 cached" in event for event in events)
    assert any("dispatched 4 cell(s) in 2 shard(s)" in event for event in events)


def test_shard_count_never_exceeds_cell_count(queue, store, mapping):
    _submit(queue, dict(mapping, workloads=["mcf"]), shards=8)
    Scheduler(queue, store).poll_once()
    assert len(queue.iter_tickets()) == 2  # 2 cells -> 2 shards, not 8


def test_planning_error_fails_the_job(queue, store, mapping):
    job = _submit(queue, dict(mapping, machines=["no-such-machine(x=1)"]))
    events = Scheduler(queue, store).poll_once()
    failed = queue.load_job(job.job_id)
    assert failed.state == FAILED and failed.error
    assert queue.iter_tickets() == []
    assert any("failed to plan" in event for event in events)


def test_warm_resubmit_completes_with_zero_simulations(
    queue, store, mapping, drain_service
):
    job = _submit(queue, mapping)
    scheduler = Scheduler(queue, store)
    worker = ServiceWorker(queue, store, name="w1")
    drain_service(scheduler, [worker])
    writes = store.writes
    assert queue.load_job(job.job_id).state == DONE
    # Resubmit the identical grid against the warm store.
    _submit(queue, mapping)
    events = drain_service(scheduler, [worker])
    warm = queue.load_job(job.job_id)
    assert warm.state == DONE
    assert warm.cached == 4 and warm.summary()["simulated"] == 0
    assert store.writes == writes  # nothing re-simulated
    assert any(", 0 simulated" in event for event in events)


def test_torn_store_entry_is_rescheduled_not_trusted(
    queue, store, mapping, drain_service
):
    job = _submit(queue, mapping)
    scheduler = Scheduler(queue, store)
    worker = ServiceWorker(queue, store, name="w1")
    drain_service(scheduler, [worker])
    # A host crash (or store:corrupt fault) leaves one entry zero-length:
    # contains() still says present, so the skip decision must not use it.
    victim = queue.load_job(job.job_id).cells[0]
    store.path_for(victim.store_key()).write_text("")
    assert store.contains(victim.store_key())
    _submit(queue, mapping)
    events = drain_service(scheduler, [worker])
    assert any("dispatched 1 cell(s)" in event for event in events)
    healed = queue.load_job(job.job_id)
    assert healed.state == DONE and healed.cached == 3
    assert store.get(victim.store_key()) is not None


def test_stale_claim_is_reaped_and_requeued(
    queue, store, mapping, clock, drain_service
):
    job = _submit(queue, mapping, shards=2)
    scheduler = Scheduler(queue, store, lease=30.0)
    scheduler.poll_once()
    # A worker claims one shard and silently dies (no heartbeats).
    assert queue.claim("doomed") is not None
    clock.advance(31.0)
    events = scheduler.poll_once()
    assert any("stale" in event for event in events)
    reaped = queue.load_job(job.job_id)
    assert reaped.requeues == 1
    assert reaped.counters.get("worker_losses") == 1
    # The replacement tickets cover the dead shard's cells; a healthy
    # worker then completes the full grid.
    events = drain_service(scheduler, [ServiceWorker(queue, store, name="w2")])
    healed = queue.load_job(job.job_id)
    assert healed.state == DONE
    assert healed.summary()["stored"] == 4 and not healed.lost


def test_requeue_budget_exhaustion_marks_cells_lost(
    queue, store, mapping, clock
):
    job = _submit(queue, mapping, shards=1)
    scheduler = Scheduler(queue, store, lease=30.0, requeue_budget=0)
    scheduler.poll_once()
    assert queue.claim("doomed") is not None
    clock.advance(31.0)
    events = scheduler.poll_once()
    abandoned = queue.load_job(job.job_id)
    assert abandoned.state == DONE  # complete, but with lost cells
    assert len(abandoned.lost) == 4
    assert any("abandoning 4 cell(s)" in event for event in events)
    assert "4 lost" in abandoned.summary_line()


def test_cross_job_overlap_is_not_double_dispatched(queue, store, mapping):
    _submit(queue, mapping, shards=1)
    overlapping = dict(
        mapping, name="svc-overlap", machines=[mapping["machines"][0]]
    )
    other = _submit(queue, overlapping, shards=1)
    scheduler = Scheduler(queue, store)
    scheduler.poll_once()
    # The overlapping job's two cells are already covered by the first
    # job's outstanding ticket, so no second ticket mentions them.
    tickets = queue.iter_tickets()
    dispatched = [data["job"] for _name, data in tickets]
    assert other.job_id not in dispatched
    total_indices = sum(len(data["indices"]) for _n, data in tickets)
    assert total_indices == 4  # the union, each cell exactly once


def test_drained_reflects_outstanding_work(queue, store, mapping):
    scheduler = Scheduler(queue, store)
    assert scheduler.drained()  # empty spool counts as drained
    _submit(queue, mapping)
    assert not scheduler.drained()  # a queued job is outstanding
    scheduler.poll_once()
    assert not scheduler.drained()  # now its tickets are


def test_a_pass_reads_no_store_entry_while_every_unstored_cell_is_covered(
    queue, store, mapping, monkeypatch
):
    _submit(queue, mapping, shards=2)
    scheduler = Scheduler(queue, store)
    scheduler.poll_once()  # plans, then two tickets cover all four cells
    probed = _probes(monkeypatch, store)
    scheduler.poll_once()
    assert probed == []
    assert queue.claim("w1") is not None  # a claim covers like a ticket
    scheduler.poll_once()
    assert probed == []


def test_a_finished_claims_cells_are_validated_once_on_the_next_pass(
    queue, store, mapping, monkeypatch
):
    job = _submit(queue, mapping, shards=2)
    scheduler = Scheduler(queue, store)
    scheduler.poll_once()
    tickets = dict(queue.iter_tickets())
    assert ServiceWorker(queue, store, name="w1").poll_once()
    (finished,) = set(tickets) - set(dict(queue.iter_tickets()))
    cells = queue.load_job(job.job_id).cells
    digests = sorted(cells[index].digest for index in tickets[finished]["indices"])
    probed = _probes(monkeypatch, store)
    scheduler.poll_once()
    assert sorted(probed) == digests  # the other ticket's cells are not read
    assert queue.load_job(job.job_id).stored == digests
    probed.clear()
    scheduler.poll_once()
    assert probed == []  # a stored cell is never read again


def test_a_new_jobs_first_pass_reads_each_cell_once(
    queue, store, mapping, monkeypatch
):
    job = _submit(queue, mapping, shards=2)
    scheduler = Scheduler(queue, store)
    probed = _probes(monkeypatch, store)
    events = scheduler.poll_once()
    cells = queue.load_job(job.job_id).cells
    assert sorted(probed) == sorted(cell.digest for cell in cells)  # 4, not 8
    assert queue.load_job(job.job_id).cached == 0
    assert any("planned: 4 cells, 0 cached" in event for event in events)


def test_a_cell_failed_in_another_jobs_ticket_completes_the_overlapping_job(
    queue, store, mapping, monkeypatch, drain_service
):
    """Two overlapping jobs: whichever job's ticket ran the failing cell,
    the other takes over its failure record and completes too."""
    monkeypatch.setenv("REPRO_FAULT", "cell:fail@mcf")
    full = _submit(queue, mapping, shards=1)
    half = dict(mapping, name="svc-half", machines=[mapping["machines"][0]])
    half_job, _ = queue.submit(build_job(half, "quick", shards=1, retries=0))
    scheduler = Scheduler(queue, store)
    events = drain_service(scheduler, [ServiceWorker(queue, store, name="w1")])
    done_full = queue.load_job(full.job_id)
    done_half = queue.load_job(half_job.job_id)
    assert done_full.state == DONE and done_half.state == DONE
    # mcf fails on both machines of the full grid, on one of the half.
    assert done_full.summary()["failed"] == 2
    assert done_half.summary()["failed"] == 1
    assert done_half.summary()["stored"] == 1
    (failure,) = done_half.failures
    assert done_half.cells[failure["index"]].digest == failure["digest"]
    assert "mcf" in done_half.cells[failure["index"]].label
    assert any(done_half.summary_line() == event for event in events)
    assert "1 failed" in done_half.summary_line()


def test_a_cell_lost_in_another_job_completes_the_overlapping_job(
    queue, store, mapping, clock
):
    full = _submit(queue, mapping, shards=1)
    scheduler = Scheduler(queue, store, lease=30.0, requeue_budget=0)
    scheduler.poll_once()
    assert queue.claim("doomed") is not None  # dies holding all four cells
    clock.advance(31.0)
    scheduler.poll_once()
    assert len(queue.load_job(full.job_id).lost) == 4
    half = _submit(queue, dict(mapping, name="svc-half", machines=["r10(rob=32)"]))
    scheduler.poll_once()
    done_half = queue.load_job(half.job_id)
    assert done_half.state == DONE
    assert done_half.summary()["lost"] == 2
    assert scheduler.drained()
