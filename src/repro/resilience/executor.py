"""Fault-tolerant cell execution: per-cell retries, deadlines, supervision.

:class:`ResilientExecutor` runs every cell of a sweep under one
execution policy.  One cell is the unit of dispatch: the cell body is
called with one cell's payload and returns its result, and an exception
it raises fails that cell, so the executor classifies, retries and
counts each cell on its own:

- **classification** — exceptions from a cell come back as typed
  outcomes (:mod:`repro.resilience.report`): transient errors retry with
  exponential backoff and jitter, permanent ones fail the cell
  immediately, and the failure budget (``policy.max_failures``) bounds
  how many final failures a run absorbs before aborting with
  :class:`~repro.resilience.report.CellExecutionError`.

With ``jobs == 1`` and no deadline, cells run in the driver process, in
task order: nothing forks and no fault is injected, so a ``cell:kill``
clause can never take down the driver.  Otherwise each worker is one
supervised process with a dedicated pipe; the driver dispatches one cell
at a time, so it always knows which cell a worker holds.  A task may
carry a ``(workload, memory)`` key, and an idle worker takes the cell
:func:`affine_key` picks from the pending cells by key, so a worker stays
on one workload and its per-process memos hit.  Holding one cell per
worker also makes the two supervision duties precise:

- **deadlines** — a cell that does not report within
  ``policy.cell_timeout`` gets its worker killed and, while retry budget
  remains, is requeued;
- **worker death** — a worker that exits without reporting (OOM kill,
  injected ``cell:kill`` fault, segfault) is detected by pipe EOF,
  respawned, and its cell requeued.

Completed results stream to the caller's ``on_result`` callback as they
arrive (the sweep layer persists each one to the content-addressed
store there), so even an aborted run resumes from everything that
finished — the store's fingerprints are the idempotency ledger, and a
retried cell dedupes to a bit-identical entry.  On the pool the driver
first receives every ready outcome and hands each freed worker its next
cell, and only then settles those outcomes, so a worker computes while
the driver writes the store.

``multiprocessing`` is imported only where a worker is spawned or
waited on, so a process that runs no pool never loads it.

Service workers run each claim as one in-process :meth:`run`, so this
class is the one place that classifies, retries and backs off a cell.
A ``$REPRO_FAULT`` ``cell`` token is ``"<cell label>#<attempt>"``:
``#N`` is the cell's N-th attempt, counting from 0, whichever worker
injects it (:mod:`repro.resilience.faults`).

The policy and its activation context live in
:mod:`repro.resilience.policy`, so a process that runs no cell never
loads this module.
"""

from __future__ import annotations

import time
import traceback as traceback_module
from collections import deque
from typing import Any, Callable, Collection, Hashable, Mapping, Sequence

from repro.resilience.faults import TransientCellError, plan_from_env
from repro.resilience.policy import STRICT, ExecutionPolicy
from repro.resilience.report import (
    PERMANENT,
    RETRYABLE,
    TIMEOUT,
    CellExecutionError,
    CellFailure,
    FailureReport,
)

#: Exception types classified as retryable; everything else (including
#: ``DeadlockError`` — a modelling bug, deterministic by construction)
#: is permanent.  Extend via subclassing :class:`TransientCellError`.
RETRYABLE_EXCEPTIONS: tuple[type[BaseException], ...] = (
    TransientCellError,
    ConnectionError,
)


def classify_exception(error: BaseException) -> str:
    """Map an exception from a cell body to ``retryable``/``permanent``."""
    return RETRYABLE if isinstance(error, RETRYABLE_EXCEPTIONS) else PERMANENT


# ----------------------------------------------------------------------
# Cell outcomes (shared by the in-process loop and the workers)
# ----------------------------------------------------------------------


def _failure_info(error: BaseException) -> dict:
    """Serialize a cell's exception for the failure record (and the pipe)."""
    return {
        "kind": classify_exception(error),
        "error": type(error).__name__,
        "message": str(error),
        "traceback": "".join(
            traceback_module.format_exception(type(error), error, error.__traceback__)
        ),
    }


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def _worker_main(conn, fn: Callable[[Any], Any]) -> None:
    """Worker loop: receive one cell, run it, send back its outcome, repeat.

    The outcome is ``(True, result)`` or ``(False, failure info)``.  The
    fault plan (``$REPRO_FAULT``) injects here, at the cell's completion
    point, keyed to the cell's label and its dispatch attempt — so
    ``kill`` clauses take down this process, never the driver.
    """
    plan = plan_from_env()
    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if item is None:
            return
        attempt, label, payload = item
        try:
            outcome = (True, fn(payload))
            if plan is not None:
                plan.inject_cell(label, attempt)
        except KeyboardInterrupt:
            return
        except BaseException as error:  # noqa: BLE001 - this cell's failure
            # Even SystemExit fails only its cell: the worker lives on.
            outcome = (False, _failure_info(error))
        try:
            conn.send(outcome)
        except (BrokenPipeError, OSError):
            return


# ----------------------------------------------------------------------
# Driver side
# ----------------------------------------------------------------------


class _Cell:
    """One ``(index, label, payload[, key])`` task plus its attempt counter."""

    __slots__ = (
        "index", "label", "payload", "key", "attempt", "not_before", "first_start"
    )

    def __init__(
        self, index: int, label: str, payload: Any, key: Hashable = None
    ) -> None:
        self.index = index
        self.label = label
        self.payload = payload
        self.key = key
        self.attempt = 0
        self.not_before = 0.0
        self.first_start: float | None = None


class _Worker:
    """One supervised process plus its dedicated pipe, its current cell
    and the key of the last cell it was given (what its memos hold)."""

    __slots__ = ("process", "conn", "cell", "started", "last")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.cell: _Cell | None = None
        self.started = 0.0
        self.last: Hashable = None


def _workload_of(key: Hashable) -> Hashable:
    """The workload a ``(workload, memory)`` key belongs to (``None`` for
    a task without a key)."""
    return None if key is None else key[0]


def affine_key(
    pending: Mapping[Hashable, Mapping[Hashable, Any]],
    last: Hashable,
    busy: Collection[Hashable],
) -> Hashable:
    """The key whose next pending cell an idle worker takes.

    *pending* maps each workload to its keys that have pending cells,
    both in order of first appearance; *last* is the key of the worker's
    last cell (``None`` for a fresh worker, or after a task without a
    key), and *busy* the keys of the cells other workers hold.  In order:

    1. the pair the worker ran last, so the warm-up snapshot memo hits;
    2. else the first pending pair of the workload it ran last, so the
       workload (and its trace) memo hits;
    3. else the first key of a workload no busy worker holds;
    4. else the head of the queue.

    Rung 3 skips at most one workload per busy worker, so a choice costs
    O(workers) whatever the number of pending cells.
    """
    keys = pending.get(_workload_of(last)) if last is not None else None
    if keys:
        return last if last in keys else next(iter(keys))
    held = {_workload_of(key) for key in busy if key is not None}
    for workload, keys in pending.items():
        if workload not in held:
            return next(iter(keys))
    return next(iter(next(iter(pending.values()))))


class _Pending:
    """The pool's pending cells: one FIFO queue per key, grouped by
    workload, keys and workloads in order of first appearance.

    A cell requeued after a failure returns to the end of its key's
    queue.  Appending and taking a cell are O(1) dict and deque steps
    besides the :func:`affine_key` choice.
    """

    def __init__(self, cells: Sequence[_Cell]) -> None:
        self.queues: dict[Hashable, dict[Hashable, deque[_Cell]]] = {}
        for cell in cells:
            self.append(cell)

    def __bool__(self) -> bool:
        return bool(self.queues)

    def append(self, cell: _Cell) -> None:
        """Queue *cell* behind the pending cells of its key."""
        keys = self.queues.setdefault(_workload_of(cell.key), {})
        keys.setdefault(cell.key, deque()).append(cell)

    def take(self, last: Hashable, busy: Collection[Hashable]) -> _Cell:
        """Remove and return the cell an idle worker whose last key was
        *last* takes while other workers hold *busy* (see :func:`affine_key`)."""
        key = affine_key(self.queues, last, busy)
        workload = _workload_of(key)
        keys = self.queues[workload]
        cell = keys[key].popleft()
        if not keys[key]:
            del keys[key]
            if not keys:
                del self.queues[workload]
        return cell


class ResilientExecutor:
    """Run cells under an execution policy, in-process or on workers.

    *fn* is the module-level cell body: called with one cell's payload,
    it returns the cell's result, and an exception it raises fails that
    cell.  With ``jobs == 1`` and no ``policy.cell_timeout`` the cells
    run in this process; otherwise on up to *jobs* supervised workers.
    Either way every cell is classified, retried and counted on its own,
    and failures and counters accumulate into *report*.  :meth:`run`
    raises :class:`~repro.resilience.report.CellExecutionError` when the
    policy's failure budget is exhausted (completed cells have already
    streamed to ``on_result`` by then).
    """

    #: Idle poll tick (seconds) when no deadline bounds the wait.
    TICK = 0.2

    def __init__(
        self,
        fn: Callable[[Any], Any],
        jobs: int,
        policy: ExecutionPolicy = STRICT,
        report: FailureReport | None = None,
    ) -> None:
        self.fn = fn
        self.jobs = max(1, jobs)
        self.policy = policy
        self.report = report if report is not None else FailureReport()
        self._workers: list[_Worker] = []

    # -- the run loops --------------------------------------------------

    def run(
        self,
        tasks: Sequence[tuple[int, str, Any] | tuple[int, str, Any, Hashable]],
        on_result: Callable[[int, Any], None] | None = None,
    ) -> dict[int, Any]:
        """Execute every ``(index, label, payload[, key])`` cell; return
        results.

        The optional *key* is the cell's ``(workload, memory)`` pair; on
        the pool, idle workers take cells by :func:`affine_key`.  The
        mapping holds one entry per *completed* cell; cells that failed
        past their budget are absent (their
        :class:`~repro.resilience.report.CellFailure` records live in
        ``self.report``).  ``on_result(index, result)`` fires in the
        driver as each cell completes, in completion order; on the pool,
        after the worker that ran the cell has been given its next one.
        """
        results: dict[int, Any] = {}
        self.report.cells += len(tasks)
        cells = [_Cell(*task) for task in tasks]
        delayed: list[_Cell] = []
        if self.jobs == 1 and self.policy.cell_timeout is None:
            self._run_here(deque(cells), delayed, results, on_result)
        elif cells:
            self._run_pool(len(cells), _Pending(cells), delayed, results, on_result)
        return results

    def _run_here(self, pending: deque, delayed: list, results: dict, on_result) -> None:
        """The in-process loop: no fork, no deadline, no fault injection."""
        while pending or delayed:
            now = time.monotonic()
            self._release(pending, delayed, now)
            if not pending:
                time.sleep(max(0.0, min(c.not_before for c in delayed) - now))
                continue
            cell = pending.popleft()
            if cell.first_start is None:
                cell.first_start = now
            # Only the body's own errors are the cell's; an error from
            # on_result (a failed store write) propagates.
            try:
                outcome = (True, self.fn(cell.payload))
            except Exception as error:  # noqa: BLE001 - classified, not dropped
                outcome = (False, _failure_info(error))
            self._settle(
                cell, outcome, time.monotonic(), results, on_result, pending, delayed
            )

    def _run_pool(
        self, remaining: int, pending: _Pending, delayed: list, results: dict, on_result
    ) -> None:
        """The supervised loop over worker processes."""
        from multiprocessing.connection import wait

        for _ in range(min(self.jobs, remaining)):
            self._workers.append(self._spawn())
        try:
            while remaining > 0:
                now = time.monotonic()
                self._release(pending, delayed, now)
                self._dispatch(pending, now)
                busy = [w for w in self._workers if w.cell is not None]
                if not busy:
                    if pending:
                        continue
                    if delayed:
                        time.sleep(
                            max(0.0, min(c.not_before for c in delayed) - now) + 0.001
                        )
                        continue
                    break  # pragma: no cover - defensive; remaining>0 implies work
                ready = wait(
                    [w.conn for w in busy], self._wait_timeout(busy, delayed, now)
                )
                now = time.monotonic()
                by_conn = {id(w.conn): w for w in busy}
                outcomes = []
                for conn in ready:
                    worker = by_conn[id(conn)]
                    try:
                        outcome = worker.conn.recv()
                    except (EOFError, OSError):
                        remaining -= self._on_lost(worker, now, pending, delayed, death=True)
                        continue
                    outcomes.append((worker.cell, outcome))
                    worker.cell = None
                # Freed workers take their next cells before the driver
                # settles (on_result, the store put) what they sent.
                self._dispatch(pending, now)
                for cell, outcome in outcomes:
                    remaining -= self._settle(
                        cell, outcome, now, results, on_result, pending, delayed
                    )
                if self.policy.cell_timeout is not None:
                    for worker in [w for w in self._workers if w.cell is not None]:
                        if now - worker.started >= self.policy.cell_timeout:
                            remaining -= self._on_lost(
                                worker, now, pending, delayed, death=False
                            )
        finally:
            self._shutdown()

    # -- per-cell accounting ---------------------------------------------

    def _settle(
        self, cell: _Cell, outcome: tuple[bool, Any], now: float,
        results: dict, on_result, pending: deque | _Pending, delayed: list,
    ) -> int:
        """Account one cell's outcome; return 1 when it is resolved."""
        ok, value = outcome
        if ok:
            results[cell.index] = value
            self.report.completed += 1
            if on_result is not None:
                on_result(cell.index, value)
            return 1
        if value["kind"] != PERMANENT and cell.attempt < self.policy.retries:
            self._requeue(cell, now, pending, delayed)
            return 0
        self._fail(cell, value, now)
        return 1

    def _requeue(
        self, cell: _Cell, now: float, pending: deque | _Pending, delayed: list
    ) -> None:
        """Schedule *cell*'s next attempt after its backoff delay."""
        cell.attempt += 1
        self.report.retries += 1
        delay = self.policy.backoff_for(cell.label, cell.attempt)
        if delay <= 0:
            pending.append(cell)
        else:
            cell.not_before = now + delay
            delayed.append(cell)

    def _fail(self, cell: _Cell, info: dict, now: float) -> None:
        """Record one cell's final failure; abort when the budget is exhausted."""
        start = cell.first_start if cell.first_start is not None else now
        failure = CellFailure(
            index=cell.index,
            cell=cell.label,
            kind=info["kind"],
            error=info["error"],
            message=info["message"],
            traceback=info.get("traceback", ""),
            attempts=cell.attempt + 1,
            duration=now - start,
        )
        self.report.record(failure)
        budget = self.policy.max_failures
        if budget is not None and len(self.report.failures) > budget:
            raise CellExecutionError(failure, self.report)

    @staticmethod
    def _release(pending: deque | _Pending, delayed: list, now: float) -> None:
        """Move cells whose backoff has elapsed back to *pending*."""
        for cell in [c for c in delayed if c.not_before <= now]:
            delayed.remove(cell)
            pending.append(cell)

    # -- worker lifecycle -------------------------------------------------

    def _spawn(self) -> _Worker:
        """Start one worker process and keep the driver end of its pipe."""
        import multiprocessing

        parent_conn, child_conn = multiprocessing.Pipe()
        process = multiprocessing.Process(
            target=_worker_main, args=(child_conn, self.fn), daemon=True
        )
        process.start()
        child_conn.close()
        return _Worker(process, parent_conn)

    def _discard(self, worker: _Worker, kill: bool = False) -> None:
        """Drop *worker*: close its pipe, kill/join the process."""
        try:
            worker.conn.close()
        except OSError:
            pass
        if kill and worker.process.is_alive():
            worker.process.kill()
        worker.process.join(timeout=2.0)
        if worker.process.is_alive():  # pragma: no cover - last resort
            worker.process.terminate()
        self._workers.remove(worker)

    def _shutdown(self) -> None:
        """Stop every worker: sentinel to idle ones, kill busy ones."""
        for worker in list(self._workers):
            if worker.cell is None and worker.process.is_alive():
                try:
                    worker.conn.send(None)
                except OSError:
                    pass
                self._discard(worker)
            else:
                self._discard(worker, kill=True)

    def _dispatch(self, pending: _Pending, now: float) -> None:
        """Hand ready cells to idle workers (respawning dead ones), each
        the cell :func:`affine_key` picks for it."""
        for worker in list(self._workers):
            if worker.cell is not None or not pending:
                continue
            if not worker.process.is_alive():
                self.report.worker_deaths += 1
                self._discard(worker)
                self._workers.append(self._spawn())
                worker = self._workers[-1]
            busy = [w.cell.key for w in self._workers if w.cell is not None]
            cell = pending.take(worker.last, busy)
            if cell.first_start is None:
                cell.first_start = now
            try:
                worker.conn.send((cell.attempt, cell.label, cell.payload))
            except (BrokenPipeError, OSError):
                pending.append(cell)
                self.report.worker_deaths += 1
                self._discard(worker, kill=True)
                self._workers.append(self._spawn())
                continue
            worker.cell = cell
            worker.last = cell.key
            worker.started = now

    def _wait_timeout(self, busy: list, delayed: list, now: float) -> float:
        """How long the supervision wait may block before the next duty."""
        timeout = self.TICK
        if self.policy.cell_timeout is not None:
            deadlines = [
                w.started + self.policy.cell_timeout - now for w in busy
            ]
            timeout = min(timeout, *deadlines)
        if delayed:
            timeout = min(timeout, *[c.not_before - now for c in delayed])
        return max(0.01, timeout)

    def _on_lost(
        self, worker: _Worker, now: float, pending: _Pending, delayed: list, death: bool
    ) -> int:
        """A worker died or overran its deadline mid-cell: replace it, then
        requeue its cell whole or fail it; return 1 when the cell failed."""
        cell = worker.cell
        self._discard(worker, kill=True)
        self._workers.append(self._spawn())
        if death:
            self.report.worker_deaths += 1
            info = {
                "kind": RETRYABLE,
                "error": "WorkerDeath",
                "message": f"worker exited with code {worker.process.exitcode} while "
                f"running this cell (attempt {cell.attempt + 1})",
            }
        else:
            self.report.timeouts += 1
            info = {
                "kind": TIMEOUT,
                "error": "CellTimeout",
                "message": f"exceeded the {self.policy.cell_timeout:g}s per-cell "
                f"deadline (attempt {cell.attempt + 1})",
            }
        return self._settle(cell, (False, info), now, {}, None, pending, delayed)
