"""Shared out-of-order pipeline machinery.

Every core model in this package — the R10000-style baselines, the
KILO-1024 comparator and the D-KIP itself — is built from the same parts:

* :class:`~repro.pipeline.entry.InFlight` — the per-dynamic-instruction
  record carrying dependence ("waiter") lists for event-driven wakeup;
* :class:`~repro.pipeline.regstate.RegisterTracker` — maps architectural
  registers to their current producer (rename-table equivalent);
* :class:`~repro.pipeline.fu.FuPool` — per-cycle functional-unit arbitration;
* :class:`~repro.pipeline.fetch.FetchUnit` — 4-wide fetch with
  stall-until-resolve misprediction modelling;
* :class:`~repro.pipeline.queues.IssueQueue` — bounded in-order or
  out-of-order scheduling windows;
* :class:`~repro.pipeline.lsq.LoadStoreQueue` — capacity tracking and
  store-to-load forwarding;
* :class:`~repro.pipeline.core.CycleCore` — the per-cycle driver loop with
  the completion event wheel.

Wakeup is event driven: a waiting instruction holds a count of unready
sources, producers hold lists of waiters, and the event wheel releases
waiters at completion time.  Cost is O(dependence edges), which is what
makes the 1024-entry SLIQ and 2048-entry LLIBs affordable in pure Python.
"""

from repro.pipeline.entry import InFlight
from repro.pipeline.regstate import RegisterTracker
from repro.pipeline.fu import FU_OF_OP, FuKind, FuPool
from repro.pipeline.fetch import FetchUnit
from repro.pipeline.queues import IssueQueue
from repro.pipeline.lsq import LoadStoreQueue
from repro.pipeline.core import CycleCore, DeadlockError

__all__ = [
    "InFlight",
    "RegisterTracker",
    "FuKind",
    "FuPool",
    "FU_OF_OP",
    "FetchUnit",
    "IssueQueue",
    "LoadStoreQueue",
    "CycleCore",
    "DeadlockError",
]
