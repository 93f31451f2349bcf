"""Fault-tolerant cell execution: per-cell retries, deadlines, supervision.

:class:`ResilientExecutor` runs every cell of a sweep under one
execution policy.  Cells travel in *units* (``batch`` cells, default
one): the cell body receives a unit's payloads and reports each cell as
it finishes, so the executor classifies, retries and counts cells one by
one whatever the unit size:

- **classification** — exceptions from a cell come back as typed
  outcomes (:mod:`repro.resilience.report`): transient errors retry with
  exponential backoff and jitter (a failed cell re-runs as a unit of
  one), permanent ones fail the cell immediately, and the failure budget
  (``policy.max_failures``) bounds how many final failures a run absorbs
  before aborting with
  :class:`~repro.resilience.report.CellExecutionError`.

With ``jobs == 1`` and no deadline, units run in the driver process:
nothing forks and no fault is injected, so a ``cell:kill`` clause can
never take down the driver.  Otherwise each worker is one supervised
process with a dedicated pipe; the driver dispatches one unit at a time,
so it always knows exactly which cells a worker holds.  That makes the
two supervision duties precise:

- **deadlines** — a unit that reports no cell within
  ``policy.cell_timeout`` gets its worker killed and, while retry budget
  remains, its unreported cells requeued;
- **worker death** — a worker that exits without reporting (OOM kill,
  injected ``cell:kill`` fault, segfault) is detected by pipe EOF,
  respawned, and its unreported cells requeued.

Completed results stream to the caller's ``on_result`` callback as they
arrive (the sweep layer persists each one to the content-addressed
store there), so even an aborted run resumes from everything that
finished — the store's fingerprints are the idempotency ledger, and a
retried cell dedupes to a bit-identical entry.

Service workers run each claim as one in-process :meth:`run`, so this
class is the one place that classifies, retries and backs off a cell.
A ``$REPRO_FAULT`` ``cell`` token is ``"<cell label>#<attempt>"``:
``#N`` is the cell's N-th attempt, counting from 0, whichever worker
injects it (:mod:`repro.resilience.faults`).

The module also provides the policy activation context
(:func:`resilience_context`) the CLI uses to thread one policy + report
through every harness without touching their signatures.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import multiprocessing.connection
import random
import time
import traceback as traceback_module
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.resilience.faults import TransientCellError, plan_from_env
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


@dataclass(frozen=True)
class ExecutionPolicy:
    """How much failure one run tolerates, and at what pace it retries.

    ``max_failures`` is the number of *final* cell failures tolerated
    before the run aborts: ``0`` (the default) reproduces the classic
    fail-fast sweep, ``None`` never aborts.  ``retries`` bounds the
    re-dispatches of any single cell after retryable outcomes
    (transient errors, worker deaths, timeouts).  ``cell_timeout`` is
    the per-attempt wall-clock deadline in seconds (``None`` = no
    deadline).
    """

    cell_timeout: float | None = None
    retries: int = 2
    max_failures: int | None = 0
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    seed: int = 0

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """Delay before *attempt* (1-based): exponential, capped, jittered."""
        if self.backoff_base <= 0:
            return 0.0
        delay = min(self.backoff_cap, self.backoff_base * 2 ** (attempt - 1))
        return delay * (0.5 + 0.5 * rng.random())

    def jitter_rng(self, label: str, attempt: int) -> random.Random:
        """A jitter source keyed to one (cell, attempt) pair.

        Drawing jitter from a single shared RNG makes each retry's delay
        a function of how *other* cells happened to interleave, so chaos
        runs under ``$REPRO_FAULT`` never replay their timing.  Hashing
        (policy seed, cell label, attempt) instead gives every attempt
        its own deterministic stream: a given cell backs off identically
        no matter what else is in flight or in what order it retried.
        """
        data = f"{self.seed}|{label}|{attempt}".encode()
        seed = int.from_bytes(hashlib.sha256(data).digest()[:8], "big")
        return random.Random(seed)

    def backoff_for(self, label: str, attempt: int) -> float:
        """The deterministic delay before *attempt* of the cell *label*."""
        return self.backoff(attempt, self.jitter_rng(label, attempt))


#: The default policy: no deadline, supervised retries for transient
#: failures and worker deaths, abort on the first permanent failure —
#: the historical fail-fast sweep, plus supervision.
STRICT = ExecutionPolicy()

# ----------------------------------------------------------------------
# Policy activation (the CLI threads one policy/report through every
# harness without touching their signatures)
# ----------------------------------------------------------------------

_ACTIVE: list[tuple[ExecutionPolicy, FailureReport]] = []


@contextmanager
def resilience_context(
    policy: ExecutionPolicy, report: FailureReport | None = None
) -> Iterator[FailureReport]:
    """Make (*policy*, *report*) the ambient execution context.

    ``run_cells`` calls without an explicit policy/report pick these up,
    so one CLI invocation aggregates every harness's failures into one
    report.  Contexts nest; the innermost wins.
    """
    entry = (policy, report if report is not None else FailureReport())
    _ACTIVE.append(entry)
    try:
        yield entry[1]
    finally:
        _ACTIVE.remove(entry)


def active_policy() -> ExecutionPolicy:
    """The ambient policy (:data:`STRICT` when none is active)."""
    return _ACTIVE[-1][0] if _ACTIVE else STRICT


def active_report() -> FailureReport | None:
    """The ambient failure report, or ``None`` outside any context."""
    return _ACTIVE[-1][1] if _ACTIVE else None


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


def _outcome(value) -> tuple[bool, Any]:
    """``(True, result)`` or ``(False, failure info)`` for one reported cell."""
    if isinstance(value, BaseException):
        return False, _failure_info(value)
    return True, value


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def _worker_main(conn, fn: Callable[[list], Iterable[tuple[int, Any]]]) -> None:
    """Worker loop: receive one unit, run it, report each cell, repeat.

    Each cell the body reports is sent as its own ``"cell"`` message, so
    the driver knows exactly which cells survive a mid-unit worker
    death; the last cell's message ends the unit.  Only when the body
    leaves cells unreported does a terminal message follow: ``"crash"``
    carrying the exception that escaped the body, or ``"done"``.  The
    fault plan (``$REPRO_FAULT``) injects here, at each cell's completion
    point, keyed to the cell's label and the unit's dispatch attempt —
    so ``kill`` clauses take down this process, never the driver.
    """
    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if item is None:
            return
        attempt, labels, payloads = item
        plan = plan_from_env()
        unreported = set(range(len(payloads)))
        try:
            for position, value in fn(payloads):
                if plan is not None and not isinstance(value, BaseException):
                    try:
                        plan.inject_cell(labels[position], attempt)
                    except Exception as error:  # noqa: BLE001 - this cell's fault
                        value = error
                unreported.discard(position)
                conn.send(("cell", position, _outcome(value)))
        except KeyboardInterrupt:
            return
        except BaseException as error:  # noqa: BLE001 - classified, not dropped
            message = ("crash", None, _failure_info(error))
        else:
            message = ("done", None, None)
        if not unreported:
            continue
        try:
            conn.send(message)
        except (BrokenPipeError, OSError):
            return


# ----------------------------------------------------------------------
# Driver side
# ----------------------------------------------------------------------


class _Unit:
    """Cells dispatched together, with their shared attempt counter.

    ``cells`` holds ``(index, label, payload)`` triples; ``done`` the
    positions already reported, which a requeue after a worker death or
    a timeout prunes away.
    """

    __slots__ = ("cells", "attempt", "not_before", "first_start", "done")

    def __init__(self, cells: list, attempt: int = 0, first_start: float | None = None):
        self.cells = cells
        self.attempt = attempt
        self.not_before = 0.0
        self.first_start = first_start
        self.done: set[int] = set()

    @property
    def label(self) -> str:
        """The first cell's label, which keys the unit's backoff jitter."""
        return self.cells[0][1]

    def unfinished(self) -> list[int]:
        """Positions of the cells that have not reported yet."""
        return [p for p in range(len(self.cells)) if p not in self.done]


class _Worker:
    """One supervised process plus its dedicated pipe and current unit."""

    __slots__ = ("process", "conn", "unit", "started")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.unit: _Unit | None = None
        self.started = 0.0


#: Failure info of a cell its unit finished without reporting.
_UNREPORTED = {
    "kind": PERMANENT,
    "error": "MissingResult",
    "message": "the cell body finished its unit without reporting this cell",
    "traceback": "",
}


class ResilientExecutor:
    """Run cells under an execution policy, in-process or on workers.

    *fn* is the module-level cell body: called with the payloads of one
    unit (up to *batch* cells), it yields ``(position, value)`` per cell
    as each finishes, *value* being the cell's result or the exception
    that failed it.  With ``jobs == 1`` and no ``policy.cell_timeout``
    the units run in this process; otherwise on up to *jobs* supervised
    workers.  Either way every cell is classified, retried and counted on
    its own: a retryable failure re-runs as a unit of one, and failures
    and counters accumulate into *report*.  :meth:`run` raises
    :class:`~repro.resilience.report.CellExecutionError` when the
    policy's failure budget is exhausted (completed cells have already
    streamed to ``on_result`` by then).
    """

    #: Idle poll tick (seconds) when no deadline bounds the wait.
    TICK = 0.2

    def __init__(
        self,
        fn: Callable[[list], Iterable[tuple[int, Any]]],
        jobs: int,
        policy: ExecutionPolicy = STRICT,
        report: FailureReport | None = None,
        batch: int = 1,
    ) -> None:
        self.fn = fn
        self.jobs = max(1, jobs)
        self.policy = policy
        self.report = report if report is not None else FailureReport()
        self.batch = max(1, batch)
        self._workers: list[_Worker] = []

    # -- the run loops --------------------------------------------------

    def run(
        self,
        tasks: Sequence[tuple[int, str, Any]],
        on_result: Callable[[int, Any], None] | None = None,
    ) -> dict[int, Any]:
        """Execute every ``(index, label, payload)`` cell; return results.

        Consecutive cells form units of ``batch``.  The mapping holds one
        entry per *completed* cell; cells that failed past their budget
        are absent (their :class:`~repro.resilience.report.CellFailure`
        records live in ``self.report``).  ``on_result(index, result)``
        fires in the driver as each cell completes, in completion order.
        """
        results: dict[int, Any] = {}
        self.report.cells += len(tasks)
        pending: deque[_Unit] = deque(
            _Unit(list(tasks[start : start + self.batch]))
            for start in range(0, len(tasks), self.batch)
        )
        delayed: list[_Unit] = []
        if self.jobs == 1 and self.policy.cell_timeout is None:
            self._run_here(pending, delayed, results, on_result)
        elif pending:
            self._run_pool(len(tasks), pending, delayed, results, on_result)
        return results

    def _run_here(self, pending: deque, delayed: list, results: dict, on_result) -> None:
        """The in-process loop: no fork, no deadline, no fault injection."""
        while pending or delayed:
            now = time.monotonic()
            self._release(pending, delayed, now)
            if not pending:
                time.sleep(max(0.0, min(u.not_before for u in delayed) - now))
                continue
            unit = pending.popleft()
            if unit.first_start is None:
                unit.first_start = now
            reports = iter(self.fn([cell[2] for cell in unit.cells]))
            while True:
                # Only the body's own errors are the cell's; an error from
                # on_result (a failed store write) propagates.
                try:
                    position, value = next(reports)
                except StopIteration:
                    self._settle_rest(unit, _UNREPORTED, pending, delayed)
                    break
                except Exception as error:  # noqa: BLE001 - classified, not dropped
                    self._settle_rest(unit, _failure_info(error), pending, delayed)
                    break
                self._settle(
                    unit, position, _outcome(value), time.monotonic(),
                    results, on_result, pending, delayed,
                )

    def _run_pool(
        self, remaining: int, pending: deque, delayed: list, results: dict, on_result
    ) -> None:
        """The supervised loop over worker processes."""
        for _ in range(min(self.jobs, len(pending))):
            self._workers.append(self._spawn())
        try:
            while remaining > 0:
                now = time.monotonic()
                self._release(pending, delayed, now)
                self._dispatch(pending, now)
                busy = [w for w in self._workers if w.unit is not None]
                if not busy:
                    if pending:
                        continue
                    if delayed:
                        time.sleep(
                            max(0.0, min(u.not_before for u in delayed) - now) + 0.001
                        )
                        continue
                    break  # pragma: no cover - defensive; remaining>0 implies work
                ready = multiprocessing.connection.wait(
                    [w.conn for w in busy], self._wait_timeout(busy, delayed, now)
                )
                now = time.monotonic()
                by_conn = {id(w.conn): w for w in busy}
                for conn in ready:
                    worker = by_conn[id(conn)]
                    try:
                        message = worker.conn.recv()
                    except (EOFError, OSError):
                        remaining -= self._on_lost(worker, now, pending, delayed, death=True)
                        continue
                    remaining -= self._on_message(
                        worker, message, now, results, on_result, pending, delayed
                    )
                if self.policy.cell_timeout is not None:
                    for worker in [w for w in self._workers if w.unit is not None]:
                        if now - worker.started >= self.policy.cell_timeout:
                            remaining -= self._on_lost(
                                worker, now, pending, delayed, death=False
                            )
        finally:
            self._shutdown()

    # -- per-cell accounting ---------------------------------------------

    def _settle(
        self, unit: _Unit, position: int, outcome: tuple[bool, Any], now: float,
        results: dict, on_result, pending: deque, delayed: list,
    ) -> int:
        """Account one reported cell; return 1 when it is resolved."""
        index, label, _payload = unit.cells[position]
        unit.done.add(position)
        ok, value = outcome
        if ok:
            results[index] = value
            self.report.completed += 1
            if on_result is not None:
                on_result(index, value)
            return 1
        if value["kind"] == RETRYABLE and unit.attempt < self.policy.retries:
            single = _Unit([unit.cells[position]], unit.attempt, unit.first_start)
            self._requeue(single, now, pending, delayed)
            return 0
        self._fail(unit, position, value, now)
        return 1

    def _settle_rest(self, unit: _Unit, info: dict, pending: deque, delayed: list) -> int:
        """Settle every unreported cell of *unit* with the failure *info*."""
        now = time.monotonic()
        return sum(
            self._settle(unit, position, (False, info), now, {}, None, pending, delayed)
            for position in unit.unfinished()
        )

    def _requeue(self, unit: _Unit, now: float, pending: deque, delayed: list) -> None:
        """Schedule *unit*'s next attempt after its backoff delay."""
        unit.attempt += 1
        self.report.retries += len(unit.cells)
        delay = self.policy.backoff_for(unit.label, unit.attempt)
        if delay <= 0:
            pending.append(unit)
        else:
            unit.not_before = now + delay
            delayed.append(unit)

    def _fail(self, unit: _Unit, position: int, info: dict, now: float) -> None:
        """Record one cell's final failure; abort when the budget is exhausted."""
        index, label, _payload = unit.cells[position]
        start = unit.first_start if unit.first_start is not None else now
        failure = CellFailure(
            index=index,
            cell=label,
            kind=info["kind"],
            error=info["error"],
            message=info["message"],
            traceback=info.get("traceback", ""),
            attempts=unit.attempt + 1,
            duration=now - start,
        )
        self.report.record(failure)
        budget = self.policy.max_failures
        if budget is not None and len(self.report.failures) > budget:
            raise CellExecutionError(failure, self.report)

    @staticmethod
    def _release(pending: deque, delayed: list, now: float) -> None:
        """Move units whose backoff has elapsed back to *pending*."""
        for unit in [u for u in delayed if u.not_before <= now]:
            delayed.remove(unit)
            pending.append(unit)

    # -- worker lifecycle -------------------------------------------------

    def _spawn(self) -> _Worker:
        """Start one worker process and keep the driver end of its pipe."""
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
            if worker.unit is None and worker.process.is_alive():
                try:
                    worker.conn.send(None)
                except OSError:
                    pass
                self._discard(worker)
            else:
                self._discard(worker, kill=True)

    def _dispatch(self, pending: deque, now: float) -> None:
        """Hand ready units to idle workers (respawning dead ones)."""
        for worker in list(self._workers):
            if worker.unit is not None or not pending:
                continue
            if not worker.process.is_alive():
                self.report.worker_deaths += 1
                self._discard(worker)
                self._workers.append(self._spawn())
                worker = self._workers[-1]
            unit = pending.popleft()
            if unit.first_start is None:
                unit.first_start = now
            labels = [cell[1] for cell in unit.cells]
            payloads = [cell[2] for cell in unit.cells]
            try:
                worker.conn.send((unit.attempt, labels, payloads))
            except (BrokenPipeError, OSError):
                pending.appendleft(unit)
                self.report.worker_deaths += 1
                self._discard(worker, kill=True)
                self._workers.append(self._spawn())
                continue
            worker.unit = unit
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
            timeout = min(timeout, *[u.not_before - now for u in delayed])
        return max(0.01, timeout)

    def _on_message(
        self, worker: _Worker, message, now: float, results: dict, on_result,
        pending: deque, delayed: list,
    ) -> int:
        """Handle one worker report; return the number of cells resolved."""
        unit = worker.unit
        status, position, value = message
        if status == "cell":
            # Restart the deadline clock so cell_timeout bounds the gap
            # between cells, not the unit; the last cell frees the worker.
            worker.started = now
            if len(unit.done) + 1 == len(unit.cells):
                worker.unit = None
            return self._settle(
                unit, position, value, now, results, on_result, pending, delayed
            )
        worker.unit = None
        return self._settle_rest(
            unit, value if status == "crash" else _UNREPORTED, pending, delayed
        )

    def _on_lost(
        self, worker: _Worker, now: float, pending: deque, delayed: list, death: bool
    ) -> int:
        """A worker died or overran its deadline mid-unit: replace it, then
        requeue the unit's unreported cells or fail them."""
        unit = worker.unit
        if death:
            self.report.worker_deaths += 1
        else:
            self.report.timeouts += 1
        self._discard(worker, kill=True)
        self._workers.append(self._spawn())
        if unit is None:  # pragma: no cover - losses surface while busy
            return 0
        unfinished = unit.unfinished()
        if unit.attempt < self.policy.retries:
            rest = _Unit([unit.cells[p] for p in unfinished], unit.attempt, unit.first_start)
            self._requeue(rest, now, pending, delayed)
            return 0
        if death:
            info = {
                "kind": RETRYABLE,
                "error": "WorkerDeath",
                "message": f"worker exited with code {worker.process.exitcode} while "
                f"running this cell (attempt {unit.attempt + 1})",
            }
        else:
            info = {
                "kind": TIMEOUT,
                "error": "CellTimeout",
                "message": f"exceeded the {self.policy.cell_timeout:g}s per-cell "
                f"deadline (attempt {unit.attempt + 1})",
            }
        for position in unfinished:
            self._fail(unit, position, info, now)
        return len(unfinished)

