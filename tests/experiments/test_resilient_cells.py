"""Resilience at the run_cells/CLI layer: deadlocks, jobs policy, strictness."""

from __future__ import annotations

import re

import pytest

from repro.experiments import cli
from repro.experiments.common import WorkloadPool, resolve_jobs, run_cells
from repro.machines import parse_machine
from repro.memory import DEFAULT_MEMORY
from repro.resilience import (
    STRICT,
    CellExecutionError,
    ExecutionPolicy,
    FailureReport,
)


@pytest.fixture
def pool():
    return WorkloadPool()


@pytest.fixture
def config():
    return parse_machine("r10(rob=32)")


# ----------------------------------------------------------------------
# Deadlocks are permanent and name the offending cell
# ----------------------------------------------------------------------


def test_deadlocked_cell_fails_fast_naming_the_cell_spec(pool, config):
    # max_cycles=1 cannot commit anything: the run loop's deadlock guard
    # trips deterministically, which must never be retried.
    cells = [(config, "mcf", DEFAULT_MEMORY)]
    with pytest.raises(CellExecutionError) as excinfo:
        run_cells(cells, 600, pool, jobs=1, max_cycles=1)
    failure = excinfo.value.failure
    assert failure.kind == "permanent"
    assert failure.error == "DeadlockError"
    assert failure.attempts == 1  # no retries spent on a modelling bug
    # The error names the full machine × workload × memory cell spec.
    message = str(excinfo.value)
    assert "R10-32 × mcf × default" in message
    assert "no forward progress" in message


def test_deadlocked_cell_is_tolerated_under_a_budget(pool, config):
    cells = [(config, "mcf", DEFAULT_MEMORY), (config, "swim", DEFAULT_MEMORY)]
    report = FailureReport()
    tolerant = ExecutionPolicy(max_failures=None)
    flat = run_cells(
        cells, 600, pool, jobs=1, max_cycles=1, policy=tolerant, report=report
    )
    assert flat == [None, None]
    assert [f.error for f in report.failures] == ["DeadlockError"] * 2
    assert report.retries == 0


# ----------------------------------------------------------------------
# resolve_jobs / REPRO_JOBS edge cases
# ----------------------------------------------------------------------


def test_resolve_jobs_explicit_argument_beats_env(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "7")
    assert resolve_jobs(2, 100) == 2


@pytest.mark.parametrize("env", ["0", "-4"])
def test_resolve_jobs_clamps_non_positive_env_to_one(monkeypatch, env):
    monkeypatch.setenv("REPRO_JOBS", env)
    assert resolve_jobs(None, 100) == 1


def test_resolve_jobs_huge_env_is_capped_by_task_count(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "1000000")
    assert resolve_jobs(None, 3) == 3


def test_resolve_jobs_non_integer_env_is_a_clean_error(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "two")
    with pytest.raises(ValueError, match="REPRO_JOBS must be an integer"):
        resolve_jobs(None, 100)


def test_resolve_jobs_zero_tasks_still_returns_one_worker():
    assert resolve_jobs(None, 0) == 1
    assert resolve_jobs(8, 0) == 1


# ----------------------------------------------------------------------
# Strict mode is bit-for-bit today's fail-fast path
# ----------------------------------------------------------------------


def test_explicit_strict_policy_matches_the_default_path(pool, config):
    cells = [(config, "mcf", DEFAULT_MEMORY), (config, "swim", DEFAULT_MEMORY)]
    plain = run_cells(cells, 400, pool, jobs=1)
    explicit = run_cells(
        cells, 400, pool, jobs=1,
        policy=ExecutionPolicy(max_failures=0), report=FailureReport(),
    )
    pooled = run_cells(cells, 400, pool, jobs=2, policy=STRICT)
    assert [s.to_dict() for s in plain] == [s.to_dict() for s in explicit]
    assert [s.to_dict() for s in plain] == [s.to_dict() for s in pooled]


def test_cli_max_failures_zero_matches_the_flagless_run(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "2")
    argv = [
        "sweep", "--machines", "r10(rob=32)", "--workloads", "mcf",
        "--scale", "quick", "--instructions", "400", "--no-store",
    ]
    assert cli.main(argv) == 0
    flagless = capsys.readouterr().out
    assert cli.main(argv + ["--max-failures", "0"]) == 0
    strict = capsys.readouterr().out
    # Identical up to the wall time stamped in the table title.
    elapsed = re.compile(r", \d+\.\ds\]")
    assert elapsed.sub("]", strict) == elapsed.sub("]", flagless)


# ----------------------------------------------------------------------
# CLI flag validation and the failure exit path
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    ("flags", "message"),
    [
        (["--cell-timeout", "0"], "--cell-timeout must be positive"),
        (["--cell-timeout", "-2"], "--cell-timeout must be positive"),
        (["--retries", "-1"], "--retries must be >= 0"),
    ],
)
def test_cli_rejects_malformed_resilience_flags(capsys, flags, message):
    assert cli.main(["sweep", "--machines", "r10"] + flags) == 2
    assert message in capsys.readouterr().err


def test_cli_tolerant_sweep_reports_failures_and_exits_nonzero(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setenv("REPRO_JOBS", "2")
    monkeypatch.setenv("REPRO_FAULT", "cell:fail@mcf")
    failures_json = tmp_path / "failures.json"
    argv = [
        "sweep", "--machines", "r10(rob=32)", "--workloads", "mcf,swim,gcc",
        "--scale", "quick", "--instructions", "400", "--no-store",
        "--max-failures", "-1", "--failures-json", str(failures_json),
    ]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert "n/a (failed: permanent)" in captured.out
    assert "1 cell(s) failed and were excluded from the aggregates above:" in captured.out
    assert "cell failures: 1 of 3 cell(s) failed" in captured.err
    assert "InjectedFailure" in captured.err
    import json

    report = json.loads(failures_json.read_text())
    assert report["cells"] == 3
    assert report["failed"] == 1 and report["completed"] == 2
    assert report["policy"]["max_failures"] is None
    (failure,) = report["failures"]
    assert "mcf" in failure["cell"] and failure["kind"] == "permanent"


@pytest.mark.parametrize(
    ("experiment", "bench", "failed"),
    [
        ("fig3", "swim", "1 of 5"),
        ("fig13", "mcf", "1 of 5"),
        # mcf on each of the four machines; the SpecINT means average
        # over the surviving cells and the notes name all four.
        ("fig9", "mcf", "4 of 40"),
    ],
)
def test_cli_faults_reach_the_figure_harnesses(
    tmp_path, capsys, monkeypatch, experiment, bench, failed
):
    """Figure harnesses run their grids through sweep_grid like sweeps do,
    so the resilience flags and ``$REPRO_FAULT`` apply to them, and their
    notes name every failed cell."""
    import json

    monkeypatch.setenv("REPRO_JOBS", "2")
    common = [experiment, "--scale", "quick", "--no-store", "--json"]
    assert cli.main(common + [str(tmp_path / "clean")]) == 0
    clean = json.loads((tmp_path / "clean" / f"{experiment}.json").read_text())
    capsys.readouterr()
    monkeypatch.setenv("REPRO_FAULT", f"cell:fail@{bench}")
    argv = common + [str(tmp_path / "faulty"), "--max-failures", "-1"]
    count = int(failed.split()[0])
    assert cli.main(argv) == count  # the exit status counts failed cells
    err = capsys.readouterr().err
    assert f"cell failures: {failed} cell(s) failed" in err
    assert "InjectedFailure" in err and bench in err
    faulty = json.loads((tmp_path / "faulty" / f"{experiment}.json").read_text())
    if experiment == "fig13":
        # Per-benchmark rows: the failed one is skipped, the rest intact.
        assert faulty["rows"] == [row for row in clean["rows"] if row[0] != bench]
    else:
        # Aggregate rows: every bucket is still reported.
        assert [row[0] for row in faulty["rows"]] == [row[0] for row in clean["rows"]]
    assert f"{count} cell(s) failed and were excluded from the aggregates above:" in (
        faulty["notes"]
    )
    named = [note for note in faulty["notes"] if note.startswith("  failed: ")]
    assert len(named) == count and all(bench in note for note in named)


def test_cli_cell_timeout_reaches_the_figure_harnesses(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "1")
    argv = [
        "fig13", "--scale", "quick", "--no-store", "--cell-timeout", "0.001",
        "--retries", "0", "--max-failures", "-1",
    ]
    assert cli.main(argv) == 5
    err = capsys.readouterr().err
    assert "cell failures: 5 of 5 cell(s) failed" in err and "CellTimeout" in err


def test_cli_strict_budget_aborts_the_sweep(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "2")
    monkeypatch.setenv("REPRO_FAULT", "cell:fail@mcf")
    argv = [
        "sweep", "--machines", "r10(rob=32)", "--workloads", "mcf,swim",
        "--scale", "quick", "--instructions", "400", "--no-store",
        "--max-failures", "0",
    ]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "aborted: cell" in err and "mcf" in err
