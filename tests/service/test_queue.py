"""The spool transport: atomic writes, claims, dedup, drain flag."""

from __future__ import annotations

import json

from repro.service import Scheduler, build_job
from repro.service.jobs import DONE, QUEUED, RUNNING
from repro.service.queue import atomic_write_json, read_json


def _job(mapping, name="svc"):
    return build_job(dict(mapping, name=name), "quick", shards=2, retries=1)


def test_atomic_write_leaves_no_tmp_litter(tmp_path):
    path = tmp_path / "spool" / "record.json"
    atomic_write_json(path, {"a": 1})
    atomic_write_json(path, {"a": 2})
    assert read_json(path) == {"a": 2}
    assert list(path.parent.glob("*.tmp.*")) == []


def test_spool_files_have_the_bytes_json_dump_writes(
    tmp_path, queue, store, mapping, clock
):
    job, _ = queue.submit(_job(mapping))
    Scheduler(queue, store).poll_once()  # plans cells, writes two tickets
    claim = queue.claim("w1")
    clock.advance(0.25)
    queue.heartbeat(claim)
    report = {
        "completed": 1,
        "duration_s": 0.125,
        "failures": [
            {"cell": "r10(rob=32) × mcf", "digest": "ab" * 32, "kind": "permanent"}
        ],
        "worker": "w1",
    }
    queue.write_report(claim, report)
    ((ticket_name, ticket),) = queue.iter_tickets()
    written = {
        queue.job_path(job.job_id): queue.load_job(job.job_id).to_dict(),
        queue.shards_dir / ticket_name: ticket,
        queue.claims_dir / claim["name"]: claim,
        queue.done_dir / claim["name"]: report,
    }
    reference = tmp_path / "reference.json"
    for path, data in written.items():
        with open(reference, "w", encoding="utf-8") as handle:
            json.dump(data, handle, sort_keys=True)
        assert path.read_bytes() == reference.read_bytes(), path.name
    assert written[queue.job_path(job.job_id)]["cells"]


def test_read_json_treats_torn_and_absent_as_none(tmp_path):
    assert read_json(tmp_path / "absent.json") is None
    torn = tmp_path / "torn.json"
    torn.write_text('{"a": ')
    assert read_json(torn) is None
    wrong_shape = tmp_path / "list.json"
    wrong_shape.write_text("[1, 2]")
    assert read_json(wrong_shape) is None


def test_submit_deduplicates_on_content_address(queue, mapping, clock):
    first, outcome = queue.submit(_job(mapping))
    assert outcome == "new" and first.state == QUEUED
    # An identical submission while the first is in flight attaches.
    attached, outcome = queue.submit(_job(mapping))
    assert outcome == "attached"
    assert attached.job_id == first.job_id
    assert len(queue.iter_jobs()) == 1
    # Still attached while running.
    first.state = RUNNING
    queue.save_job(first)
    _, outcome = queue.submit(_job(mapping))
    assert outcome == "attached"
    # Once done, the same submission re-enqueues a fresh record.
    first.state = DONE
    queue.save_job(first)
    clock.advance(10.0)
    again, outcome = queue.submit(_job(mapping))
    assert outcome == "resubmitted"
    assert again.job_id == first.job_id and again.state == QUEUED
    assert again.submitted_at > first.submitted_at


def test_iter_jobs_orders_by_submission_time(queue, mapping, clock):
    late = _job(mapping, name="late")
    early = _job(mapping, name="early")
    queue.submit(early)
    clock.advance(5.0)
    queue.submit(late)
    assert [job.job_id for job in queue.iter_jobs()] == [
        early.job_id, late.job_id
    ]


def test_match_job_needs_a_unique_prefix(queue, mapping):
    job, _ = queue.submit(_job(mapping))
    assert queue.match_job(job.job_id[:8]).job_id == job.job_id
    assert queue.match_job("definitely-not-a-digest") is None
    # The empty prefix matches every job: ambiguous once there are two.
    queue.submit(_job(mapping, name="other"))
    assert queue.match_job("") is None


def test_claim_is_exclusive_and_heartbeats(queue, mapping, clock):
    job, _ = queue.submit(_job(mapping))
    for part, indices in enumerate(([0, 2], [1, 3], [4])):
        queue.write_ticket(job.job_id, 0, part, indices)
    assert len(queue.iter_tickets()) == 3
    seen = []
    for _ in range(3):
        claim = queue.claim("w1")
        assert claim is not None and claim["worker"] == "w1"
        assert claim["heartbeat"] == clock()
        seen.append(claim["name"])
    assert queue.claim("w2") is None  # nothing left to claim
    assert sorted(seen) == sorted(name for name, _ in queue.iter_claims())
    assert queue.iter_tickets() == []
    # Heartbeats move with the clock; finishing retires the claim.
    name, claim = queue.iter_claims()[0]
    clock.advance(7.0)
    claim["name"] = name
    queue.heartbeat(claim)
    assert dict(queue.iter_claims())[name]["heartbeat"] == clock()
    queue.finish_claim(claim)
    assert name not in dict(queue.iter_claims())


def test_claim_skips_tickets_lost_to_a_racing_worker(queue, mapping):
    job, _ = queue.submit(_job(mapping))
    queue.write_ticket(job.job_id, 0, 0, [0])
    queue.write_ticket(job.job_id, 0, 1, [1])
    # Simulate another worker winning the first rename.
    first = sorted(queue.shards_dir.glob("*.json"))[0]
    first.unlink()
    claim = queue.claim("w1")
    assert claim is not None and claim["part"] == 1


def test_reports_are_scoped_per_job(queue, mapping):
    job_a, _ = queue.submit(_job(mapping, name="a"))
    job_b, _ = queue.submit(_job(mapping, name="b"))
    claim = {"name": queue.ticket_name(job_a.job_id, 0, 0)}
    queue.write_report(claim, {"completed": 2})
    assert [data for _n, data in queue.iter_reports(job_a.job_id)] == [
        {"completed": 2}
    ]
    assert queue.iter_reports(job_b.job_id) == []


def test_stop_flag_round_trip(queue):
    assert not queue.stop_requested()
    queue.request_stop()
    assert queue.stop_requested()
    queue.clear_stop()
    assert not queue.stop_requested()
