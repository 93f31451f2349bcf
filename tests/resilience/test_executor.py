"""The resilient executor: retries, deadlines, worker supervision, budget."""

from __future__ import annotations

import gc
import multiprocessing
import os
import random
import select
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.resilience import (
    PERMANENT,
    RETRYABLE,
    STRICT,
    TIMEOUT,
    CellExecutionError,
    ExecutionPolicy,
    FailureReport,
    ResilientExecutor,
    TransientCellError,
    active_policy,
    active_report,
    classify_exception,
    resilience_context,
)

# ----------------------------------------------------------------------
# Worker bodies (module-level so they survive any pickling start method)
# ----------------------------------------------------------------------


def _double(payload):
    return payload * 2


def _fail_on_three(payload):
    if payload == 3:
        raise ValueError("three is right out")
    return payload


def _transient_until_marker(payload):
    marker, value = payload
    if not os.path.exists(marker):
        open(marker, "w").close()
        raise TransientCellError("first attempt is unlucky")
    return value


def _die_until_marker(payload):
    marker, value = payload
    if not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(137)
    return value


def _always_die(payload):
    os._exit(1)


def _sleep_forever(payload):
    time.sleep(60)


def _sleep_if_negative(payload):
    if payload < 0:
        time.sleep(60)
    return payload


def _exit_on_three(payload):
    if payload == 3:
        raise SystemExit("three exits")
    return payload


def _mark_start(payload):
    directory, value = payload
    open(os.path.join(directory, f"started-{value}"), "w").close()
    return value


def _tasks(payloads):
    return [(i, f"cell-{i}", p) for i, p in enumerate(payloads)]


def _new_threads(before):
    """The threads alive now that were not in *before*."""
    return [t for t in threading.enumerate() if t not in before]


# ----------------------------------------------------------------------
# Policy and classification
# ----------------------------------------------------------------------


def test_classify_exception_taxonomy():
    from repro.pipeline import DeadlockError

    assert classify_exception(TransientCellError("x")) == RETRYABLE
    assert classify_exception(ConnectionError("x")) == RETRYABLE
    assert classify_exception(DeadlockError("stuck")) == PERMANENT
    assert classify_exception(ValueError("x")) == PERMANENT


def test_backoff_is_exponential_capped_and_jittered():
    policy = ExecutionPolicy(backoff_base=0.1, backoff_cap=0.5)
    rng = random.Random(0)
    for attempt, ceiling in [(1, 0.1), (2, 0.2), (3, 0.4), (4, 0.5), (9, 0.5)]:
        for _ in range(16):
            delay = policy.backoff(attempt, rng)
            assert ceiling / 2 <= delay <= ceiling
    assert ExecutionPolicy(backoff_base=0).backoff(5, rng) == 0.0


def test_strict_policy_is_fail_fast():
    assert STRICT.max_failures == 0
    assert STRICT.cell_timeout is None


def test_resilience_context_nests_and_restores():
    assert active_policy() is STRICT and active_report() is None
    tolerant = ExecutionPolicy(max_failures=None)
    with resilience_context(tolerant) as report:
        assert active_policy() is tolerant and active_report() is report
        inner = ExecutionPolicy(retries=9)
        with resilience_context(inner, report) as inner_report:
            assert active_policy() is inner and inner_report is report
        assert active_policy() is tolerant
    assert active_policy() is STRICT and active_report() is None


# ----------------------------------------------------------------------
# ResilientExecutor (the supervised pool)
# ----------------------------------------------------------------------


def test_executor_runs_all_tasks_and_streams_results():
    report = FailureReport()
    streamed = []
    executor = ResilientExecutor(_double, jobs=2, report=report)
    results = executor.run(
        _tasks([1, 2, 3, 4]), on_result=lambda i, r: streamed.append((i, r))
    )
    assert results == {0: 2, 1: 4, 2: 6, 3: 8}
    assert sorted(streamed) == [(0, 2), (1, 4), (2, 6), (3, 8)]
    assert report.completed == 4 and report.cells == 4 and not report.failures


@pytest.mark.parametrize("jobs", [1, 2])
def test_executor_permanent_failure_is_tolerated_under_budget(jobs):
    report = FailureReport()
    policy = ExecutionPolicy(max_failures=None)
    executor = ResilientExecutor(
        _fail_on_three, jobs=jobs, policy=policy, report=report
    )
    results = executor.run(_tasks([1, 2, 3, 4]))
    assert results == {0: 1, 1: 2, 3: 4}  # index 2 (payload 3) is absent
    assert report.cells == 4 and report.completed == 3
    (failure,) = report.failures
    assert failure.index == 2 and failure.kind == PERMANENT
    assert failure.error == "ValueError" and "cell-2" in failure.cell
    assert "three is right out" in failure.message
    assert "three is right out" in failure.traceback
    # A permanent failure never retries, whatever the retry budget.
    assert failure.attempts == 1 and report.retries == 0


def test_executor_strict_budget_aborts_but_keeps_streamed_results():
    report = FailureReport()
    streamed = []
    executor = ResilientExecutor(_fail_on_three, jobs=1, report=report)
    with pytest.raises(CellExecutionError, match="cell-2"):
        executor.run(_tasks([1, 2, 3, 4]), on_result=lambda i, r: streamed.append(i))
    assert streamed == [0, 1]  # jobs=1 preserves dispatch order
    assert not executor._workers  # shutdown ran


def test_executor_retries_transient_failures(tmp_path):
    report = FailureReport()
    policy = ExecutionPolicy(retries=2, backoff_base=0.001)
    executor = ResilientExecutor(
        _transient_until_marker, jobs=1, policy=policy, report=report
    )
    marker = str(tmp_path / "marker")
    results = executor.run(_tasks([(marker, "value")]))
    assert results == {0: "value"}
    assert report.retries == 1 and report.completed == 1 and not report.failures


def test_executor_respawns_dead_worker_and_requeues_its_cell(tmp_path):
    report = FailureReport()
    policy = ExecutionPolicy(retries=2, backoff_base=0.001)
    # jobs=2: a lone job would run in-process, where nothing may die.
    executor = ResilientExecutor(
        _die_until_marker, jobs=2, policy=policy, report=report
    )
    marker = str(tmp_path / "marker")
    results = executor.run(_tasks([(marker, "survived")]))
    assert results == {0: "survived"}
    assert report.worker_deaths == 1 and report.retries == 1


def test_executor_worker_death_past_budget_is_a_final_failure():
    report = FailureReport()
    policy = ExecutionPolicy(retries=1, max_failures=None, backoff_base=0.001)
    executor = ResilientExecutor(
        _always_die, jobs=2, policy=policy, report=report
    )
    results = executor.run(_tasks(["x"]))
    assert results == {}
    (failure,) = report.failures
    assert failure.error == "WorkerDeath" and failure.attempts == 2
    assert report.worker_deaths == 2  # initial attempt + one retry


def test_pool_worker_fails_a_system_exit_cell_and_lives_on():
    """The worker owns the exception boundary: even SystemExit from the
    body fails only its cell, and the worker process survives it."""
    report = FailureReport()
    policy = ExecutionPolicy(max_failures=None)
    executor = ResilientExecutor(_exit_on_three, jobs=2, policy=policy, report=report)
    results = executor.run(_tasks([1, 3, 5]))
    assert results == {0: 1, 2: 5}
    (failure,) = report.failures
    assert failure.index == 1 and failure.kind == PERMANENT
    assert failure.error == "SystemExit" and failure.attempts == 1
    assert report.worker_deaths == 0 and report.completed == 2


def test_executor_timeout_kills_and_fails_past_budget():
    report = FailureReport()
    policy = ExecutionPolicy(cell_timeout=0.3, retries=0, max_failures=None)
    executor = ResilientExecutor(
        _sleep_forever, jobs=1, policy=policy, report=report
    )
    start = time.monotonic()
    results = executor.run(_tasks(["x"]))
    assert time.monotonic() - start < 10  # nowhere near the 60s sleep
    assert results == {}
    (failure,) = report.failures
    assert failure.kind == TIMEOUT and failure.error == "CellTimeout"
    assert report.timeouts == 1


def test_executor_timeout_only_hits_the_overdue_cell():
    report = FailureReport()
    policy = ExecutionPolicy(cell_timeout=0.5, retries=0, max_failures=None)
    executor = ResilientExecutor(
        _sleep_if_negative, jobs=2, policy=policy, report=report
    )
    results = executor.run(_tasks([-1, 7]))
    assert results == {1: 7}
    (failure,) = report.failures
    assert failure.index == 0 and failure.kind == TIMEOUT


def test_backoff_for_is_keyed_per_cell_and_attempt():
    """Jitter draws are a pure function of (seed, label, attempt).

    Regression: the executor used to draw jitter from one shared RNG,
    so the delay any given cell saw depended on how many other cells
    had retried first — making ``$REPRO_FAULT`` replays schedule
    differently run to run.  Keyed RNGs make the schedule stable under
    reordering.
    """
    policy = ExecutionPolicy(seed=7, backoff_base=0.1, backoff_cap=10.0)
    reference = policy.backoff_for("machine x swim", 2)
    # Interleave draws for other cells/attempts in arbitrary order...
    for label in ("a", "b", "machine x mcf"):
        for attempt in (1, 2, 3):
            policy.backoff_for(label, attempt)
    # ...and the original (label, attempt) still gets the same delay.
    assert policy.backoff_for("machine x swim", 2) == reference
    # A fresh policy with the same seed reproduces it exactly.
    again = ExecutionPolicy(seed=7, backoff_base=0.1, backoff_cap=10.0)
    assert again.backoff_for("machine x swim", 2) == reference
    # Different key or seed: a different (but still bounded) draw.
    assert policy.backoff_for("machine x swim", 3) != reference
    assert policy.backoff_for("other", 2) != reference
    other_seed = ExecutionPolicy(seed=8, backoff_base=0.1, backoff_cap=10.0)
    assert other_seed.backoff_for("machine x swim", 2) != reference
    assert 0.1 <= reference <= 0.2  # attempt-2 ceiling, half-to-full jitter


# ----------------------------------------------------------------------
# Per-cell accounting, in-process mode
# ----------------------------------------------------------------------


def _transient_on_marker_cell(payload):
    marker, value = payload
    if marker and not os.path.exists(marker):
        open(marker, "w").close()
        raise TransientCellError("first attempt is unlucky")
    return value


@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_cell_retries_alone(tmp_path, jobs):
    marker = str(tmp_path / "marker")
    report = FailureReport()
    policy = ExecutionPolicy(retries=2, backoff_base=0.001)
    executor = ResilientExecutor(
        _transient_on_marker_cell, jobs=jobs, policy=policy, report=report
    )
    results = executor.run(_tasks([("", "a"), (marker, "b"), ("", "c")]))
    assert results == {0: "a", 1: "b", 2: "c"}
    # Only the failed cell re-ran: one retry.
    assert report.retries == 1 and report.completed == 3 and report.cells == 3


def test_in_process_transient_cell_retries_until_it_succeeds():
    calls = []

    def body(payload):
        calls.append(payload)
        if payload == "flaky" and calls.count("flaky") < 3:
            raise TransientCellError("not yet")
        return payload

    report = FailureReport()
    policy = ExecutionPolicy(retries=2, backoff_base=0.001)
    executor = ResilientExecutor(body, jobs=1, policy=policy, report=report)
    results = executor.run(_tasks(["a", "flaky", "b"]))
    assert results == {0: "a", 1: "flaky", 2: "b"}
    # Only the flaky cell re-ran, once per retry.
    assert calls.count("flaky") == 3 and calls.count("a") == calls.count("b") == 1
    assert report.retries == 2 and report.completed == 3 and not report.failures


def test_in_process_transient_cell_past_its_retries_is_a_final_failure():
    calls = []

    def body(payload):
        calls.append(payload)
        raise TransientCellError("never recovers")

    report = FailureReport()
    policy = ExecutionPolicy(retries=2, max_failures=None, backoff_base=0.001)
    executor = ResilientExecutor(body, jobs=1, policy=policy, report=report)
    assert executor.run(_tasks(["x"])) == {}
    (failure,) = report.failures
    assert failure.kind == RETRYABLE and failure.error == "TransientCellError"
    assert failure.attempts == 3 and calls == ["x"] * 3
    assert report.retries == 2 and report.completed == 0


def test_in_process_mode_neither_forks_nor_injects(monkeypatch):
    monkeypatch.setenv("REPRO_FAULT", "cell:kill")
    report = FailureReport()
    executor = ResilientExecutor(_double, jobs=1, report=report)
    results = executor.run(_tasks([1, 2, 3]))
    assert results == {0: 2, 1: 4, 2: 6}
    assert report.worker_deaths == 0 and not multiprocessing.active_children()


@pytest.mark.parametrize("jobs", [1, 2])
def test_on_result_errors_propagate_instead_of_failing_cells(jobs):
    """A failed store write is the caller's error, not the cell's.  No
    call follows it, and on the pool no settle thread outlives the run."""
    before = set(threading.enumerate())
    report = FailureReport()
    executor = ResilientExecutor(_double, jobs=jobs, report=report)
    calls = []

    def on_result(index, result):
        calls.append(index)
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        executor.run(_tasks([1, 2]), on_result)
    assert report.failures == []
    assert len(calls) == 1
    assert _new_threads(before) == [] and not executor._workers


def test_a_freed_worker_gets_its_next_cell_before_on_result_runs(tmp_path):
    """The driver hands a freed worker its next cell before it settles
    (``on_result``, the store put) the cell the worker sent back, and
    settles off the dispatch loop: while ``on_result(0)`` blocks, the loop
    keeps receiving outcomes and handing its one worker the next cells,
    up to the last."""
    policy = ExecutionPolicy(cell_timeout=60.0)  # a deadline: one pool worker
    executor = ResilientExecutor(_mark_start, jobs=1, policy=policy)
    started = {}

    def on_result(index, result):
        if index == 0:
            marker = tmp_path / "started-3"
            deadline = time.monotonic() + 5
            while not marker.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            started[3] = marker.exists()

    tasks = _tasks([(str(tmp_path), value) for value in range(4)])
    assert executor.run(tasks, on_result) == {0: 0, 1: 1, 2: 2, 3: 3}
    assert started == {3: True}


# ----------------------------------------------------------------------
# The pool's settle thread
# ----------------------------------------------------------------------


def test_no_settle_thread_is_alive_at_a_fork(monkeypatch):
    """Killed workers are replaced after results have settled; every fork
    happens with no thread but the caller's, and none is left after."""
    before = set(threading.enumerate())
    monkeypatch.setenv("REPRO_FAULT", "cell:kill@cell-3#0,cell:kill@cell-6#0")
    spawned = []
    spawn = ResilientExecutor._spawn

    def recording(executor):
        spawned.append((len(settled), _new_threads(before)))
        return spawn(executor)

    monkeypatch.setattr(ResilientExecutor, "_spawn", recording)
    settled, threads = [], set()

    def on_result(index, result):
        threads.add(threading.current_thread())
        settled.append(index)

    report = FailureReport()
    policy = ExecutionPolicy(retries=2, backoff_base=0.001)
    executor = ResilientExecutor(_double, jobs=2, policy=policy, report=report)
    results = executor.run(_tasks(range(8)), on_result)
    assert results == {i: 2 * i for i in range(8)} and sorted(settled) == list(range(8))
    assert report.worker_deaths == 2 and len(spawned) == 4
    assert any(count for count, _ in spawned[2:])  # a respawn after a settle
    assert all(alive == [] for _, alive in spawned)
    assert threading.main_thread() not in threads
    assert _new_threads(before) == []


def test_a_strict_abort_has_settled_every_completed_cell():
    """The budget aborts the run while the settle thread lags behind: it
    still makes every call for the cells the report counts complete."""
    report = FailureReport()
    settled = []

    def on_result(index, result):
        time.sleep(0.02)
        settled.append(index)

    executor = ResilientExecutor(_fail_on_three, jobs=2, report=report)
    payloads = [1, 2, 4, 5, 6, 7, 3, 8, 9]
    with pytest.raises(CellExecutionError, match="cell-6"):
        executor.run(_tasks(payloads), on_result)
    assert report.completed >= 1
    assert len(settled) == len(set(settled)) == report.completed
    assert 6 not in settled


def test_on_result_calls_never_overlap_and_keep_completion_order(monkeypatch):
    """Three workers, and the interpreter switching threads every 10 µs:
    one call at a time, each cell once, in the order the loop received
    the outcomes."""
    received = []
    settle = ResilientExecutor._settle

    def recording(executor, cell, outcome, *args):
        if outcome[0]:
            received.append(cell.index)
        return settle(executor, cell, outcome, *args)

    monkeypatch.setattr(ResilientExecutor, "_settle", recording)
    active, overlaps, settled = [0], [], []

    def on_result(index, result):
        active[0] += 1
        overlaps.append(active[0] > 1)
        time.sleep(0.002)
        settled.append(index)
        active[0] -= 1

    executor = ResilientExecutor(_double, jobs=3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        executor.run(_tasks(range(24)), on_result)
    finally:
        sys.setswitchinterval(interval)
    assert settled == received and sorted(settled) == list(range(24))
    assert not any(overlaps)


#: A driver whose two pool workers each write their pid to
#: ``<dir>/pid-<cell>``, then hold their cell until ``<dir>/release``
#: exists (at most a minute).
_BLOCKING_DRIVER = """
import os, sys, time
from repro.resilience import ResilientExecutor

def hold(payload):
    directory, index = payload
    path = os.path.join(directory, f"pid-{index}")
    with open(path + ".tmp", "w") as handle:
        handle.write(str(os.getpid()))
    os.replace(path + ".tmp", path)
    deadline = time.monotonic() + 60
    while not os.path.exists(os.path.join(directory, "release")):
        if time.monotonic() > deadline:
            break
        time.sleep(0.02)
    return index

ResilientExecutor(hold, jobs=2).run([(i, f"cell {i}", (sys.argv[1], i)) for i in range(2)])
"""


def _reads_eof_within(stream, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while (left := deadline - time.monotonic()) > 0:
        ready, _, _ = select.select([stream], [], [], left)
        if ready and not os.read(stream.fileno(), 4096):
            return True
    return False


def test_pool_workers_exit_when_their_driver_is_killed(tmp_path):
    """A killed driver runs no clean-up, but each worker holds no copy of
    the driver's pipe ends, so its next send or receive fails and it
    exits.  The workers share the driver's stdout, which reads EOF once
    every one of them has exited."""
    driver = subprocess.Popen(
        [sys.executable, "-c", _BLOCKING_DRIVER, str(tmp_path)],
        stdout=subprocess.PIPE,
    )
    pids: list[int] = []
    try:
        pid_files = [tmp_path / f"pid-{index}" for index in range(2)]
        deadline = time.monotonic() + 60
        while not all(path.exists() for path in pid_files):
            assert driver.poll() is None and time.monotonic() < deadline
            time.sleep(0.02)
        pids = [int(path.read_text()) for path in pid_files]
        driver.kill()
        driver.wait()
        (tmp_path / "release").touch()
        assert _reads_eof_within(driver.stdout, 10)
    finally:
        if driver.poll() is None:
            driver.kill()
            driver.wait()
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        driver.stdout.close()


# ----------------------------------------------------------------------
# Workload-affine dispatch (the pool's choice of an idle worker's cell)
# ----------------------------------------------------------------------


def _pending(*keys):
    """A pending set of one cell per key, indexed in order."""
    from repro.resilience.executor import _Cell, _Pending

    return _Pending([_Cell(i, f"cell-{i}", None, key) for i, key in enumerate(keys)])


def _queues(*keys):
    """Pending keys grouped by workload, as :func:`affine_key` reads them."""
    return _pending(*keys).queues


def test_affine_key_rung1_keeps_the_pair_it_ran_last():
    from repro.resilience.executor import affine_key

    pending = _queues(("mcf", "A"), ("mcf", "B"), ("swim", "A"))
    assert affine_key(pending, ("mcf", "B"), busy=[("mcf", "A")]) == ("mcf", "B")


def test_affine_key_rung2_stays_on_the_workload_it_ran_last():
    from repro.resilience.executor import affine_key

    pending = _queues(("swim", "A"), ("mcf", "B"), ("mcf", "C"))
    # Its pair is drained: the first pending pair of the same workload,
    # even though swim heads the queue and nobody holds it.
    assert affine_key(pending, ("mcf", "A"), busy=[]) == ("mcf", "B")


def test_affine_key_rung3_takes_a_workload_no_busy_worker_holds():
    from repro.resilience.executor import affine_key

    pending = _queues(("mcf", "A"), ("swim", "A"), ("swim", "B"), ("gcc", "A"))
    assert affine_key(pending, None, busy=[("mcf", "B")]) == ("swim", "A")
    assert affine_key(pending, ("art", "A"), busy=[("mcf", "B"), ("swim", "A")]) == (
        "gcc", "A"
    )
    # A fresh pool: the first worker takes the head, the next another workload.
    assert affine_key(pending, None, busy=[]) == ("mcf", "A")


def test_affine_key_rung4_falls_back_to_the_head_of_the_queue():
    from repro.resilience.executor import affine_key

    pending = _queues(("mcf", "B"), ("swim", "A"))
    busy = [("swim", "A"), ("mcf", "A")]
    assert affine_key(pending, ("art", "A"), busy) == ("mcf", "B")


def test_pending_takes_keys_in_order_of_first_appearance():
    keys = [("mcf", "A"), ("swim", "A"), ("mcf", "A"), ("gcc", "A"), ("mcf", "B")]
    pending = _pending(*keys)
    order = []
    while pending:
        order.append(pending.take(None, busy=[]).index)
    # Each key's cells in a row, keys (and workloads) by first appearance.
    assert order == [0, 2, 4, 1, 3]


def test_pending_returns_a_retried_cell_to_its_keys_queue():
    pending = _pending(("mcf", "A"), ("mcf", "A"), ("swim", "A"))
    first = pending.take(None, busy=[])
    assert first.index == 0
    pending.append(first)  # a retry: behind its key's pending cells
    taken = [pending.take(("mcf", "A"), busy=[]).index for _ in range(3)]
    assert taken == [1, 0, 2]
    assert not pending
    # A retried cell whose key had drained makes the key pending again.
    pending.append(first)
    assert pending.take(("swim", "A"), busy=[]) is first


def test_a_task_without_a_key_carries_no_affinity():
    from repro.resilience.executor import affine_key

    pending = _pending(None, ("mcf", "A"), None)
    # Keyless cells queue together in their own FIFO and are taken
    # like any other workload's; a worker that ran one prefers nothing.
    assert [pending.take(None, busy=[]).index for _ in range(2)] == [0, 2]
    assert affine_key(_queues(("mcf", "A"), None), None, busy=[None]) == ("mcf", "A")
    # A busy keyless cell holds no workload.
    assert affine_key(_queues(None, ("mcf", "A")), None, busy=[None]) is None


def _pid_and_payload(payload):
    return os.getpid(), payload


def test_pool_workers_keep_their_workload():
    """Two workers, two workloads: each worker starts on its own workload
    and switches at most once, when its workload has run dry."""
    tasks = [
        (i, f"cell-{i}", workload, (workload, "MEM"))
        for i, workload in enumerate(["mcf"] * 6 + ["swim"] * 6)
    ]
    ran: dict[int, list[str]] = {}
    executor = ResilientExecutor(_pid_and_payload, jobs=2)
    executor.run(tasks, lambda i, result: ran.setdefault(result[0], []).append(result[1]))
    assert sorted(sequence[0] for sequence in ran.values()) == ["mcf", "swim"]
    for sequence in ran.values():
        switches = sum(a != b for a, b in zip(sequence, sequence[1:]))
        assert switches <= 1


def _freeze_count(payload):
    return gc.get_freeze_count()


def test_pool_workers_freeze_the_heap_they_inherit():
    """A worker's collections skip the driver's modules and data."""
    counts = {}
    executor = ResilientExecutor(_freeze_count, jobs=2)
    executor.run([(i, f"cell-{i}", i) for i in range(4)], counts.__setitem__)
    assert len(counts) == 4 and all(counts.values())
