"""The CLI service surface: submit / serve --once / status / results."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments import cli, sweep
from repro.experiments.common import compute_cell
from repro.experiments.registry import get_experiment
from repro.service import Scheduler, ServiceQueue, job_status
from repro.store import ResultStore, cell_key

GRID = [
    "--machines", "r10(rob=32),dkip(llib=4096)",
    "--workloads", "mcf,swim",
    "--scale", "quick",
    "--instructions", "400",
    "--shards", "2",
]


def _svc(tmp_path):
    return ["--service", str(tmp_path / "svc")]


def test_service_commands_require_a_spool(monkeypatch, capsys):
    monkeypatch.delenv("REPRO_SERVICE", raising=False)
    for command in ("submit", "serve", "status", "results"):
        assert cli.main([command]) == 2
    assert "no service directory configured" in capsys.readouterr().err


def test_submit_requires_a_grid_description(tmp_path, capsys):
    assert cli.main(["submit", *_svc(tmp_path)]) == 2
    assert "needs --machines" in capsys.readouterr().err


def test_submit_serve_status_results_end_to_end(tmp_path, capsys):
    svc = _svc(tmp_path)
    assert cli.main(["submit", *svc, *GRID]) == 0
    out = capsys.readouterr().out
    assert " new " in out
    # The content-addressed dedup: an identical submission attaches.
    assert cli.main(["submit", *svc, *GRID]) == 0
    assert " attached " in capsys.readouterr().out
    # Drain with a scheduler and one real worker process.
    assert cli.main(["serve", *svc, "--workers", "1", "--once"]) == 0
    out = capsys.readouterr().out
    assert "planned: 4 cells" in out and "4 simulated" in out
    # Status renders completion; a bogus prefix is a usage error.
    assert cli.main(["status", *svc]) == 0
    assert "4/4 cells stored" in capsys.readouterr().out
    assert cli.main(["status", "nope", *svc]) == 2
    capsys.readouterr()
    # Results pulls the rendered grid straight from the store.
    assert cli.main(["results", *svc]) == 2  # needs exactly one job id
    capsys.readouterr()
    cli.main(["status", *svc])  # recover the job id for the prefix lookup
    job_prefix = capsys.readouterr().out.split()[1][:8]
    assert cli.main(["results", job_prefix, *svc]) == 0
    out = capsys.readouterr().out
    assert "mean IPC" in out and "n/a" not in out
    # The warm resubmit completes with zero simulations.
    assert cli.main(["submit", *svc, *GRID]) == 0
    capsys.readouterr()
    assert cli.main(["serve", *svc, "--workers", "1", "--once"]) == 0
    assert ", 0 simulated" in capsys.readouterr().out


def test_serve_replaces_workers_that_die(tmp_path, capsys):
    """Both first workers die on their first cell; their replacements
    drain the requeued cells, so ``--once`` still finishes."""
    svc = _svc(tmp_path)
    assert cli.main(["submit", *svc, *GRID]) == 0
    capsys.readouterr()
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, REPRO_FAULT="cell:kill@#0", PYTHONPATH=path)
    serve = subprocess.run(
        [sys.executable, "-m", "repro.experiments", "serve", *svc,
         "--workers", "2", "--once", "--lease", "1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert serve.returncode == 0, serve.stdout + serve.stderr
    assert "4 simulated, 0 cached, 0 failed" in serve.stdout
    assert "exited with status 137; slot " in serve.stdout


def test_serve_once_exits_with_the_failed_cell_count(
    tmp_path, capsys, monkeypatch
):
    svc = _svc(tmp_path)
    assert cli.main(["submit", *svc, *GRID]) == 0
    capsys.readouterr()
    monkeypatch.setenv("REPRO_FAULT", "cell:fail@mcf")  # 2 of the 4 cells
    assert cli.main(["serve", *svc, "--workers", "1", "--once"]) == 2
    assert ", 2 failed" in capsys.readouterr().out


def test_status_validates_each_cell_once(tmp_path, capsys, monkeypatch):
    svc = _svc(tmp_path)
    assert cli.main(["submit", *svc, *GRID]) == 0
    capsys.readouterr()
    queue = ServiceQueue(tmp_path / "svc")
    store = ResultStore(tmp_path / "svc" / "store")
    Scheduler(queue, store).poll_once()
    claim = queue.claim("w1")  # one shard claimed, one not
    (job,) = queue.iter_jobs()
    landed = job.cells[claim["indices"][0]]
    store.put(landed.store_key(), compute_cell(landed.key))
    calls = []
    validated = store.validated
    monkeypatch.setattr(
        store, "validated", lambda key: calls.append(key) or validated(key)
    )
    status = job_status(queue, store, job)
    assert len(calls) == len(job.cells) == 4
    assert status["stored"] == 1
    assert [(shard["claimed"], shard["done"]) for shard in status["shards"]] == [
        (False, 0), (True, 1)
    ]


def test_submit_accepts_scenario_files(tmp_path, capsys):
    scenario = tmp_path / "grid.json"
    scenario.write_text(
        json.dumps(
            {
                "name": "filed",
                "machines": ["r10(rob=32)"],
                "workloads": ["mcf"],
                "instructions": 400,
            }
        )
    )
    assert cli.main(["submit", str(scenario), *_svc(tmp_path)]) == 0
    assert "(filed)" in capsys.readouterr().out
    missing = str(tmp_path / "no.json")
    assert cli.main(["submit", missing, *_svc(tmp_path)]) == 2


def test_submit_wait_polls_at_the_documented_default(tmp_path, capsys, monkeypatch):
    """``--help`` gives ``--poll`` one default for serve and for
    ``submit --wait``; the wait must use it."""
    polls = []

    def fake_wait(queue, job_id, poll, on_progress=None):
        polls.append(poll)

    monkeypatch.setattr(repro.service, "wait_for_job", fake_wait)
    assert cli.main(["submit", *_svc(tmp_path), *GRID, "--wait"]) == 0
    assert polls == [0.2]
    help_text = " ".join(cli.build_parser().format_help().split())
    assert "poll interval (default: 0.2)" in help_text


def test_submit_rejects_malformed_specs(tmp_path, capsys):
    bad = ["--machines", "r10(rob=32)", "--axes", "broken-chunk"]
    assert cli.main(["submit", *_svc(tmp_path), *bad]) == 2
    assert "malformed" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("machines", "message"),
    [
        ("warp", "unknown machine kind 'warp'; registered kinds:"),
        ("dkip(llib=1024,2048,4096)", "malformed parameter '2048'"),
    ],
)
def test_submit_rejects_what_sweep_rejects(tmp_path, capsys, machines, message):
    """``submit`` plans the grid as ``sweep`` does before enqueueing:
    a grid that cannot plan exits 2 with sweep's message, and no job is
    written."""
    grid = ["--machines", machines, "--scale", "quick"]
    assert cli.main(["sweep", *grid, "--no-store"]) == 2
    rejected = capsys.readouterr().err.splitlines()[-1]
    assert rejected.startswith(message)
    assert cli.main(["submit", *grid, *_svc(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == rejected
    assert list(ServiceQueue(tmp_path / "svc").iter_jobs()) == []


def test_submit_stores_a_phase_selection_the_scheduler_reads(
    tmp_path, capsys, monkeypatch
):
    from repro.simpoint import phases as simpoint_phases
    from repro.trace.io import save_trace
    from repro.workloads import get_workload

    capture = str(tmp_path / "mcf.trc.gz")
    save_trace(get_workload("mcf"), capture, 1200)
    token = f"phases(file={capture},interval=300,k=2,seed=0)"
    grid = ["--machines", "r10(rob=32)", "--workloads", token, "--scale", "quick"]
    assert cli.main(["submit", *grid, *_svc(tmp_path)]) == 0
    capsys.readouterr()
    store = ResultStore(tmp_path / "svc" / "store")
    assert store.summary()["phase_records"] == 1

    def refuse(*args, **kwargs):
        raise AssertionError("the scheduler re-analyzed a stored selection")

    monkeypatch.setattr(simpoint_phases, "analyze_trace", refuse)
    queue = ServiceQueue(tmp_path / "svc")
    events = Scheduler(queue, store).poll_once()
    assert not any("failed to plan" in event for event in events)
    (job,) = queue.iter_jobs()
    assert job.cells


class Planned(Exception):
    """Raised in place of running the planned cells."""


@pytest.mark.parametrize("preset", ["fig10", "fig10int"])
def test_a_submitted_preset_plans_the_harness_grid_at_its_scale(
    tmp_path, capsys, monkeypatch, preset
):
    """``submit fig10 --scale quick`` plans exactly the cells that
    ``fig10 --scale quick`` runs, not the full-scale grid."""
    assert cli.main(["submit", preset, "--scale", "quick", *_svc(tmp_path)]) == 0
    capsys.readouterr()
    queue = ServiceQueue(tmp_path / "svc")
    Scheduler(queue, ResultStore(tmp_path / "store")).poll_once()
    (job,) = queue.iter_jobs()
    submitted = sorted(cell.digest for cell in job.cells)

    planned = []

    def capture(cells, num_instructions, pool, **kwargs):
        planned.extend(
            cell_key(config, pool.get(bench), num_instructions, memory).digest
            for config, bench, memory in cells
        )
        raise Planned

    monkeypatch.setattr(sweep, "run_cells", capture)
    with pytest.raises(Planned):
        get_experiment(preset)("quick")
    assert submitted == sorted(planned)
    assert len(submitted) == 30  # 3 CP x 2 MP configurations x 5 benchmarks
