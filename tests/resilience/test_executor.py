"""The resilient executor: retries, deadlines, worker supervision, budget."""

from __future__ import annotations

import functools
import multiprocessing
import os
import random
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


def _cellwise(body, payloads):
    """Unit body running *body* on each payload, reporting each cell."""
    for position, payload in enumerate(payloads):
        try:
            yield position, body(payload)
        except Exception as error:  # noqa: BLE001 - reported per cell
            yield position, error


def _unit(body):
    return functools.partial(_cellwise, body)


def _tasks(payloads):
    return [(i, f"cell-{i}", p) for i, p in enumerate(payloads)]


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
    executor = ResilientExecutor(_unit(_double), jobs=2, report=report)
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
        _unit(_fail_on_three), jobs=jobs, policy=policy, report=report
    )
    results = executor.run(_tasks([1, 2, 3, 4]))
    assert results == {0: 1, 1: 2, 3: 4}  # index 2 (payload 3) is absent
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
    executor = ResilientExecutor(_unit(_fail_on_three), jobs=1, report=report)
    with pytest.raises(CellExecutionError, match="cell-2"):
        executor.run(_tasks([1, 2, 3, 4]), on_result=lambda i, r: streamed.append(i))
    assert streamed == [0, 1]  # jobs=1 preserves dispatch order
    assert not executor._workers  # shutdown ran


def test_executor_retries_transient_failures(tmp_path):
    report = FailureReport()
    policy = ExecutionPolicy(retries=2, backoff_base=0.001)
    executor = ResilientExecutor(
        _unit(_transient_until_marker), jobs=1, policy=policy, report=report
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
        _unit(_die_until_marker), jobs=2, policy=policy, report=report
    )
    marker = str(tmp_path / "marker")
    results = executor.run(_tasks([(marker, "survived")]))
    assert results == {0: "survived"}
    assert report.worker_deaths == 1 and report.retries == 1


def test_executor_worker_death_past_budget_is_a_final_failure():
    report = FailureReport()
    policy = ExecutionPolicy(retries=1, max_failures=None, backoff_base=0.001)
    executor = ResilientExecutor(
        _unit(_always_die), jobs=2, policy=policy, report=report
    )
    results = executor.run(_tasks(["x"]))
    assert results == {}
    (failure,) = report.failures
    assert failure.error == "WorkerDeath" and failure.attempts == 2
    assert report.worker_deaths == 2  # initial attempt + one retry


def test_executor_timeout_kills_and_fails_past_budget():
    report = FailureReport()
    policy = ExecutionPolicy(cell_timeout=0.3, retries=0, max_failures=None)
    executor = ResilientExecutor(
        _unit(_sleep_forever), jobs=1, policy=policy, report=report
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
        _unit(_sleep_if_negative), jobs=2, policy=policy, report=report
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
# Units: per-cell accounting, in-process mode
# ----------------------------------------------------------------------


def _transient_on_marker_cell(payload):
    marker, value = payload
    if marker and not os.path.exists(marker):
        open(marker, "w").close()
        raise TransientCellError("first attempt is unlucky")
    return value


@pytest.mark.parametrize("jobs", [1, 2])
def test_units_count_and_fail_cells_not_units(jobs):
    report = FailureReport()
    policy = ExecutionPolicy(max_failures=None)
    executor = ResilientExecutor(
        _unit(_fail_on_three), jobs=jobs, policy=policy, report=report, batch=2
    )
    results = executor.run(_tasks([1, 2, 3]))
    assert results == {0: 1, 1: 2}
    assert report.cells == 3 and report.completed == 2
    (failure,) = report.failures
    assert failure.index == 2 and failure.cell == "cell-2"


@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_cell_retries_alone(tmp_path, jobs):
    marker = str(tmp_path / "marker")
    report = FailureReport()
    policy = ExecutionPolicy(retries=2, backoff_base=0.001)
    executor = ResilientExecutor(
        _unit(_transient_on_marker_cell), jobs=jobs, policy=policy, report=report,
        batch=3,
    )
    results = executor.run(_tasks([("", "a"), (marker, "b"), ("", "c")]))
    assert results == {0: "a", 1: "b", 2: "c"}
    # Only the failed cell re-ran: one retry, not one per unit member.
    assert report.retries == 1 and report.completed == 3 and report.cells == 3


def test_in_process_transient_cell_retries_until_it_succeeds():
    calls = []

    def body(payloads):
        for position, payload in enumerate(payloads):
            calls.append(payload)
            if payload == "flaky" and calls.count("flaky") < 3:
                yield position, TransientCellError("not yet")
            else:
                yield position, payload

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

    def body(payloads):
        for position, payload in enumerate(payloads):
            calls.append(payload)
            yield position, TransientCellError("never recovers")

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
    executor = ResilientExecutor(_unit(_double), jobs=1, report=report)
    results = executor.run(_tasks([1, 2, 3]))
    assert results == {0: 2, 1: 4, 2: 6}
    assert report.worker_deaths == 0 and not multiprocessing.active_children()


def test_escaping_body_error_fails_every_unreported_cell():
    def body(payloads):
        yield 0, payloads[0]
        raise ValueError("the unit broke")

    report = FailureReport()
    executor = ResilientExecutor(
        body, jobs=1, policy=ExecutionPolicy(max_failures=None), report=report,
        batch=3,
    )
    assert executor.run(_tasks(["x", "y", "z"])) == {0: "x"}
    assert [f.index for f in report.failures] == [1, 2]
    assert all("the unit broke" in f.message for f in report.failures)


@pytest.mark.parametrize("jobs", [1, 2])
def test_on_result_errors_propagate_instead_of_failing_cells(jobs):
    """A failed store write is the caller's error, not the cell's."""
    report = FailureReport()
    executor = ResilientExecutor(_unit(_double), jobs=jobs, report=report)

    def on_result(index, result):
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        executor.run(_tasks([1, 2]), on_result)
    assert report.failures == []
