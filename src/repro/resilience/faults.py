"""Deterministic, environment-keyed fault injection for chaos testing.

The ``REPRO_FAULT`` environment variable describes a *fault plan* — a
comma-separated list of clauses, each naming an injection site, an
action, and an optional match filter, probability and parameter::

    REPRO_FAULT="cell:kill:0.1,seed=7"            # kill 10% of cell attempts
    REPRO_FAULT="cell:transient:0.3,cell:delay:0.2:0.05"
    REPRO_FAULT="cell:fail@mcf"                   # every cell naming 'mcf'
    REPRO_FAULT="store:corrupt@#0:1.0:0"          # truncate first store write

Clause grammar (see :meth:`FaultPlan.parse`)::

    SITE:ACTION[@MATCH][:PROBABILITY[:PARAM]]   or   seed=N

Every decision is a pure function of ``(seed, clause, token)`` — the
token names the specific attempt (``"<cell label>#<attempt>"`` for cell
faults, ``"<digest>#<write counter>"`` for store writes) — so a given
plan fires on exactly the same attempts every run.  Retries survive a
killed attempt because the next attempt hashes to a fresh decision.

In a cell token, ``#N`` is the cell's N-th attempt, counting from 0,
wherever the cell runs: a sweep-service worker numbers the attempts of
a generation-*g* ticket from ``g × (retries + 1)``, so its retries
re-roll and no requeued ticket replays an earlier generation's.

Injection happens only at explicit call sites: the resilient executor's
*worker* processes and the sweep-service workers call
:meth:`FaultPlan.inject_cell` for every cell attempt, and
:meth:`repro.store.ResultStore.put` routes its serialized entry through
:meth:`FaultPlan.corrupt_store_text`.  The driver process never injects
cell faults (nor does the executor's in-process mode), so a ``kill``
clause can only take down an expendable worker, never the sweep itself.
"""

from __future__ import annotations

import functools
import hashlib
import os
import time
from dataclasses import dataclass

#: Injection sites and the actions each one understands.
SITE_ACTIONS = {
    "cell": ("kill", "transient", "fail", "delay"),
    "store": ("corrupt",),
}


class FaultSpecError(ValueError):
    """A ``REPRO_FAULT`` clause that does not parse."""


class TransientCellError(RuntimeError):
    """An injected (or genuinely transient) failure worth retrying."""


class InjectedFailure(RuntimeError):
    """An injected permanent failure — retries cannot fix it."""


@dataclass(frozen=True)
class FaultClause:
    """One parsed fault clause: where, what, to whom, how often."""

    site: str
    action: str
    probability: float = 1.0
    match: str = ""
    param: float | None = None


@dataclass(frozen=True)
class FaultPlan:
    """A parsed ``REPRO_FAULT`` value: clauses plus the decision seed."""

    clauses: tuple[FaultClause, ...] = ()
    seed: int = 0

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse a ``REPRO_FAULT`` string into a plan.

        Raises :class:`FaultSpecError` for unknown sites/actions, broken
        numbers, or probabilities outside ``[0, 1]``.
        """
        clauses: list[FaultClause] = []
        seed = 0
        for raw in text.split(","):
            part = raw.strip()
            if not part:
                continue
            if part.startswith("seed="):
                try:
                    seed = int(part[len("seed="):])
                except ValueError:
                    raise FaultSpecError(
                        f"fault seed must be an integer, got {part!r}"
                    ) from None
                continue
            fields = part.split(":")
            if len(fields) < 2 or len(fields) > 4:
                raise FaultSpecError(
                    f"malformed fault clause {part!r}; expected "
                    "SITE:ACTION[@MATCH][:PROBABILITY[:PARAM]]"
                )
            site = fields[0].strip().lower()
            action, _, match = fields[1].strip().partition("@")
            action = action.lower()
            if site not in SITE_ACTIONS:
                raise FaultSpecError(
                    f"unknown fault site {site!r}; expected one of "
                    f"{', '.join(SITE_ACTIONS)}"
                )
            if action not in SITE_ACTIONS[site]:
                raise FaultSpecError(
                    f"unknown {site} fault action {action!r}; expected one "
                    f"of {', '.join(SITE_ACTIONS[site])}"
                )
            probability = 1.0
            param: float | None = None
            try:
                if len(fields) >= 3:
                    probability = float(fields[2])
                if len(fields) == 4:
                    param = float(fields[3])
            except ValueError:
                raise FaultSpecError(
                    f"malformed number in fault clause {part!r}"
                ) from None
            if not 0.0 <= probability <= 1.0:
                raise FaultSpecError(
                    f"fault probability must be within [0, 1], got {probability}"
                )
            if param is not None and param < 0:
                raise FaultSpecError(
                    f"fault parameter must be non-negative, got {param}"
                )
            clauses.append(FaultClause(site, action, probability, match, param))
        return cls(clauses=tuple(clauses), seed=seed)

    def _fires(self, clause: FaultClause, token: str) -> bool:
        """Deterministic decision: does *clause* fire for *token*?"""
        if clause.match and clause.match not in token:
            return False
        if clause.probability >= 1.0:
            return True
        if clause.probability <= 0.0:
            return False
        data = "|".join(
            (str(self.seed), clause.site, clause.action, clause.match, token)
        ).encode()
        fraction = int.from_bytes(hashlib.sha256(data).digest()[:8], "big") / 2**64
        return fraction < clause.probability

    def inject_cell(self, label: str, attempt: int) -> None:
        """Fire the matching ``cell`` clauses for one execution attempt.

        Call this from a *worker* process only: ``kill`` exits the
        process immediately (exit code 137, mimicking an OOM kill),
        ``delay`` sleeps for the clause parameter (default 0.02 s),
        ``transient`` raises :class:`TransientCellError` and ``fail``
        raises :class:`InjectedFailure`.
        """
        token = f"{label}#{attempt}"
        for clause in self.clauses:
            if clause.site != "cell" or not self._fires(clause, token):
                continue
            if clause.action == "delay":
                time.sleep(clause.param if clause.param is not None else 0.02)
            elif clause.action == "transient":
                raise TransientCellError(
                    f"injected transient fault on {label} (attempt {attempt})"
                )
            elif clause.action == "fail":
                raise InjectedFailure(f"injected permanent fault on {label}")
            elif clause.action == "kill":
                os._exit(137)

    def corrupt_store_text(self, token: str, text: str) -> str:
        """Apply ``store:corrupt`` clauses to a serialized store entry.

        A firing clause truncates the entry to its parameter fraction
        (default 0.25; ``0`` emulates the zero-length file a host crash
        between write and fsync would leave), which any later read must
        treat as a miss.
        """
        for clause in self.clauses:
            if clause.site != "store" or clause.action != "corrupt":
                continue
            if self._fires(clause, token):
                keep = clause.param if clause.param is not None else 0.25
                return text[: int(len(text) * min(keep, 1.0))]
        return text


@functools.lru_cache(maxsize=8)
def _parse_cached(text: str) -> FaultPlan:
    """Memoized parse — workers consult the plan once per cell."""
    return FaultPlan.parse(text)


def plan_from_env(environ=None) -> FaultPlan | None:
    """The fault plan named by ``$REPRO_FAULT``, or ``None`` when unset."""
    text = (os.environ if environ is None else environ).get("REPRO_FAULT", "")
    text = text.strip()
    return _parse_cached(text) if text else None
