"""Span tracer for the benchmark's traced run.

The traced run opens a span around every call into a layer of the
simulator (the wrappers live in :mod:`layers`).  A process keeps, per
span name, the number of calls, the summed duration and the summed self
time -- a span's duration minus the time its child spans cover -- plus
free-form counters.  Aggregates instead of a list of spans keep the cost
flat when a layer is entered thousands of times per cell (every
resumption of ``CycleCore.drive`` is a span).

Every process writes its record to ``<directory>/<pid>.json``.  A forked
child (pool and service workers) starts a fresh record, so nothing is
counted twice, and notes which span was open in its parent when it
forked.  A process flushes at the end of a top-level span (at most every
:data:`FLUSH_INTERVAL` seconds) and when it exits, including through
``os._exit``, which is how multiprocessing children leave.
"""

from __future__ import annotations

import atexit
import json
import os
import time
from typing import Callable

#: Minimum seconds between two flushes triggered by top-level spans.
FLUSH_INTERVAL = 0.2


class Tracer:
    """Per-process span aggregates, written to one file per process.

    *started* is the ``time.monotonic()`` at which the process was
    launched (default: now); the clock is system-wide, so the records of
    different processes line up.  *hooks* installs the fork and exit
    hooks a traced CLI process needs; *clock* times the spans.
    """

    def __init__(
        self,
        directory: str,
        started: float | None = None,
        hooks: bool = True,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.directory = directory
        self.clock = clock
        os.makedirs(directory, exist_ok=True)
        self._reset(started, forked_under=None)
        if hooks:
            os.register_at_fork(after_in_child=self._after_fork)
            atexit.register(self.close)
            real_exit = os._exit

            def traced_exit(code: int) -> None:
                self.close()
                real_exit(code)

            os._exit = traced_exit

    def _reset(self, started: float | None, forked_under: str | None) -> None:
        self.pid = os.getpid()
        self.started = time.monotonic() if started is None else started
        self.forked_under = forked_under
        #: Open spans, innermost last: ``[name, start, child seconds]``.
        self.stack: list[list] = []
        #: name -> [calls, summed seconds, summed self seconds]
        self.spans: dict[str, list] = {}
        self.counts: dict[str, float] = {}
        #: Distinct identities per set name, merged across processes.
        self.sets: dict[str, set] = {}
        self.path = os.path.join(self.directory, f"{self.pid}.json")
        self._last_flush = self.clock()
        self._closed = False

    def _after_fork(self) -> None:
        self._reset(None, self.current())

    # -- spans ----------------------------------------------------------

    def current(self) -> str | None:
        """Name of the innermost open span, if any."""
        return self.stack[-1][0] if self.stack else None

    def begin(self, name: str) -> None:
        """Open span *name* as a child of the innermost open span."""
        self.stack.append([name, self.clock(), 0.0])

    def end(self) -> float:
        """Close the innermost span and return its duration."""
        name, start, child = self.stack.pop()
        now = self.clock()
        duration = now - start
        self._add(name, duration, duration - child)
        if self.stack:
            self.stack[-1][2] += duration
        elif now - self._last_flush >= FLUSH_INTERVAL:
            self.flush()
        return duration

    def account(self, name: str, seconds: float) -> None:
        """Record one already-timed leaf span of *seconds*."""
        self._add(name, seconds, seconds)
        if self.stack:
            self.stack[-1][2] += seconds

    def _add(self, name: str, seconds: float, self_seconds: float) -> None:
        entry = self.spans.get(name)
        if entry is None:
            self.spans[name] = [1, seconds, self_seconds]
        else:
            entry[0] += 1
            entry[1] += seconds
            entry[2] += self_seconds

    # -- counters -------------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        """Add *value* to counter *name*."""
        self.counts[name] = self.counts.get(name, 0) + value

    def note(self, name: str, identity: str) -> None:
        """Add *identity* to the distinct set *name*."""
        self.sets.setdefault(name, set()).add(identity)

    # -- output ---------------------------------------------------------

    def record(self) -> dict:
        """This process's aggregates as a JSON-ready mapping."""
        return {
            "pid": self.pid,
            "forked_under": self.forked_under,
            "started": self.started,
            "ended": time.monotonic(),
            "spans": self.spans,
            "counts": self.counts,
            "sets": {name: sorted(values) for name, values in self.sets.items()},
        }

    def flush(self) -> None:
        """Write this process's record, replacing the previous one."""
        self._last_flush = self.clock()
        tmp = f"{self.path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.record(), handle)
        os.replace(tmp, self.path)

    def close(self) -> None:
        """Write the final record once; spans still open are not recorded."""
        if self._closed or os.getpid() != self.pid:
            return
        self._closed = True
        self.flush()


def load_records(directory: str) -> list[dict]:
    """Every process record written under *directory*."""
    records = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name), encoding="utf-8") as handle:
                records.append(json.load(handle))
    return records
