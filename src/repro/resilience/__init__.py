"""Fault-tolerant sweep execution.

The resilience layer sits between the sweep/experiment drivers and the
cell body: :class:`ResilientExecutor` classifies, retries and counts
every cell, in-process for one job or on supervised worker processes
(deadlines, death detection and respawn) otherwise,
:mod:`repro.resilience.report` types the failure taxonomy
(``ok`` / ``retryable`` / ``permanent`` / ``timeout``), and
:mod:`repro.resilience.faults` injects deterministic faults from the
``REPRO_FAULT`` environment variable for the chaos test battery.
"""

from repro.resilience.executor import (
    RETRYABLE_EXCEPTIONS,
    STRICT,
    ExecutionPolicy,
    ResilientExecutor,
    active_policy,
    active_report,
    classify_exception,
    resilience_context,
)
from repro.resilience.faults import (
    FaultClause,
    FaultPlan,
    FaultSpecError,
    InjectedFailure,
    TransientCellError,
    plan_from_env,
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
