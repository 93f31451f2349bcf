"""Fault-tolerant sweep execution.

The resilience layer sits between the sweep/experiment drivers and the
cell body: :class:`ResilientExecutor` classifies, retries and counts
every cell, in-process for one job or on supervised worker processes
(deadlines, death detection and respawn) otherwise,
:mod:`repro.resilience.policy` holds the execution policy and its
activation context, :mod:`repro.resilience.report` types the failure
taxonomy (``ok`` / ``retryable`` / ``permanent`` / ``timeout``), and
:mod:`repro.resilience.faults` injects deterministic faults from the
``REPRO_FAULT`` environment variable for the chaos test battery.

The policy and the report load with the package; the executor and the
fault injector load on first access (PEP 562), so a process that runs
no cell never imports them.
"""

from repro.lazy import lazy_exports
from repro.resilience.policy import (
    STRICT,
    ExecutionPolicy,
    active_policy,
    active_report,
    resilience_context,
)
from repro.resilience.report import (
    OK,
    PERMANENT,
    RETRYABLE,
    TIMEOUT,
    CellExecutionError,
    CellFailure,
    FailureReport,
    cell_label,
)

#: Names re-exported from modules that load on first access.
_LAZY = {
    "RETRYABLE_EXCEPTIONS": "repro.resilience.executor",
    "ResilientExecutor": "repro.resilience.executor",
    "classify_exception": "repro.resilience.executor",
    "FaultClause": "repro.resilience.faults",
    "FaultPlan": "repro.resilience.faults",
    "FaultSpecError": "repro.resilience.faults",
    "InjectedFailure": "repro.resilience.faults",
    "TransientCellError": "repro.resilience.faults",
    "plan_from_env": "repro.resilience.faults",
}

__all__ = [
    "OK",
    "PERMANENT",
    "RETRYABLE",
    "RETRYABLE_EXCEPTIONS",
    "STRICT",
    "TIMEOUT",
    "CellExecutionError",
    "CellFailure",
    "ExecutionPolicy",
    "FailureReport",
    "FaultClause",
    "FaultPlan",
    "FaultSpecError",
    "InjectedFailure",
    "ResilientExecutor",
    "TransientCellError",
    "active_policy",
    "active_report",
    "cell_label",
    "classify_exception",
    "plan_from_env",
    "resilience_context",
]

__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
