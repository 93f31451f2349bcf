"""The execution policy of a run and its activation context.

:class:`ExecutionPolicy` says how much failure one run tolerates and at
what pace it retries; :func:`resilience_context` makes one policy and
one :class:`~repro.resilience.report.FailureReport` ambient, so the CLI
threads them through every harness without touching their signatures,
and :func:`repro.experiments.common.run_cells` picks them up.  This
module holds no executor: a process that only plans or serves cells
from the store loads it, never :mod:`repro.resilience.executor`.
"""

from __future__ import annotations

import hashlib
import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.resilience.report import FailureReport


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
