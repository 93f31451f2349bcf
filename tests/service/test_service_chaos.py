"""Chaos battery: real worker processes dying under ``$REPRO_FAULT``.

The kill clause is scoped to ``#0``, each cell's first attempt.  A
worker numbers the attempts of a generation-*g* ticket from
``g × (retries + 1)``, so every generation-0 worker genuinely dies
(``os._exit(137)``) mid-shard, while no attempt of a requeued
generation matches ``#0`` and those run clean — the scheduler must
heal the grid through real process deaths.
"""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro.service import Scheduler, ServiceQueue, build_job, worker_main
from repro.service.jobs import DONE
from repro.store import ResultStore

MAPPING = {
    "name": "svc-chaos",
    "machines": ["r10(rob=32)", "dkip(llib=4096)"],
    "workloads": ["mcf", "swim"],
    "instructions": 400,
}


def _spawn_worker(queue, store, slot):
    process = multiprocessing.Process(
        target=worker_main,
        args=(str(queue.root),),
        kwargs={"store_root": str(store.root), "poll": 0.02, "name": f"w{slot}"},
        daemon=True,
    )
    process.start()
    return process


@pytest.mark.slow
def test_killed_workers_requeue_and_heal_to_a_complete_grid(
    tmp_path, monkeypatch
):
    monkeypatch.setenv("REPRO_FAULT", "cell:kill@#0")
    queue = ServiceQueue(tmp_path / "svc")  # real wall clock
    queue.ensure()
    store = ResultStore(tmp_path / "store")
    job, _ = queue.submit(build_job(MAPPING, "quick", shards=2, retries=1))
    scheduler = Scheduler(queue, store, lease=2.0)
    workers = [_spawn_worker(queue, store, slot) for slot in range(2)]
    deaths = 0
    try:
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            scheduler.poll_once()
            if scheduler.drained():
                break
            for slot, process in enumerate(workers):
                if not process.is_alive():
                    deaths += 1
                    workers[slot] = _spawn_worker(queue, store, slot)
            time.sleep(0.05)
    finally:
        queue.request_stop()
        for process in workers:
            process.join(timeout=10.0)
            if process.is_alive():  # pragma: no cover - last resort
                process.terminate()
    healed = queue.load_job(job.job_id)
    assert healed is not None and healed.state == DONE
    assert deaths >= 1  # the kill clause really took processes down
    assert healed.requeues >= 1 and healed.generation >= 2
    assert not healed.lost and not healed.failed_digests()
    assert all(store.validated(cell.store_key()) for cell in healed.cells)
    assert "0 failed" in healed.summary_line()
