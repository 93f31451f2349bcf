"""Smoke tests for every experiment harness at quick scale.

These guard the regeneration pipeline itself (the shape assertions live in
tests/integration/); each harness must produce a well-formed result.
"""

import os

import pytest

from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.experiments.common import Scale


def test_registry_covers_every_table_and_figure():
    paper = {
        "table1",
        "fig1",
        "fig2",
        "fig3",
        "fig9",
        "fig10",
        "fig10int",
        "fig11",
        "fig12",
        "fig13",
        "fig14",
    }
    ablations = {
        "ablation-timer",
        "ablation-llib",
        "ablation-predictor",
        "ablation-runahead",
    }
    methodology = {"sampling"}
    extensions = {"contention"}
    assert set(EXPERIMENTS) == paper | ablations | methodology | extensions


def test_unknown_experiment_rejected():
    with pytest.raises(ValueError):
        get_experiment("fig99")


def test_table1_runs():
    result = get_experiment("table1")(Scale.QUICK)
    assert len(result.rows) == 6


@pytest.mark.slow
@pytest.mark.parametrize("name", ["fig1", "fig2"])
def test_window_sweeps_run(name):
    result = get_experiment(name)(Scale.QUICK)
    assert len(result.rows) == 3          # three memory configs at quick
    assert len(result.rows[0]) == 5       # label + four window sizes
    assert result.charts


@pytest.mark.slow
def test_fig3_runs():
    result = get_experiment("fig3")(Scale.QUICK)
    fractions = [row[1] for row in result.rows]
    assert sum(fractions) == pytest.approx(1.0, abs=0.02)


@pytest.mark.slow
def test_fig9_runs():
    result = get_experiment("fig9")(Scale.QUICK)
    assert len(result.rows) == 8          # 2 suites x 4 machines
    assert all(row[2] > 0 for row in result.rows)


@pytest.mark.slow
def test_fig10_runs():
    result = get_experiment("fig10")(Scale.QUICK)
    assert len(result.rows) == 3          # three CP configs at quick
    assert result.notes


@pytest.mark.slow
@pytest.mark.parametrize("name", ["fig11", "fig12"])
def test_cache_sweeps_run(name):
    result = get_experiment(name)(Scale.QUICK)
    assert len(result.rows) == 3          # R10-256 + two D-KIP configs
    assert result.charts


@pytest.mark.slow
@pytest.mark.parametrize("name", ["fig13", "fig14"])
def test_occupancy_runs(name):
    result = get_experiment(name)(Scale.QUICK)
    for _, max_instr, max_regs, _ in result.rows:
        assert 0 <= max_regs <= max_instr or max_instr == 0


@pytest.fixture(scope="module")
def cold_sampling(tmp_path_factory):
    """One cold quick ``sampling`` on a two-worker pool into a fresh store,
    with the pid of every SimPoint analysis recorded (workers append to a
    file: they cannot reach a list in this process)."""
    from repro.simpoint import phases
    from repro.store import ResultStore

    root = tmp_path_factory.mktemp("sampling")
    calls = root / "analyze-pids"
    calls.touch()
    analyze_trace = phases.analyze_trace

    def recording(*args, **kwargs):
        with open(calls, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        return analyze_trace(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_JOBS", "2")
        patch.delenv("REPRO_FAULT", raising=False)
        patch.setattr(phases, "analyze_trace", recording)
        store = ResultStore(root / "store")
        result = get_experiment("sampling")(Scale.QUICK, store=store)
    return store, result, [int(pid) for pid in calls.read_text().split()]


def _store_files(store):
    return {
        path: path.stat().st_mtime_ns for path in store.root.rglob("*") if path.is_file()
    }


@pytest.mark.slow
def test_sampling_runs(cold_sampling):
    _, result, _ = cold_sampling
    assert len(result.rows) == 4              # 2 benchmarks x 2 machines
    for row in result.rows:
        full_ipc, sampled_ipc = row[4], row[5]
        assert full_ipc > 0 and sampled_ipc > 0
    # No trace paths leak into the report-facing table.
    assert not any("/" in str(cell) for row in result.rows for cell in row)


@pytest.mark.slow
def test_sampling_captures_and_analyzes_on_the_pool(cold_sampling):
    """Each pool task captures one benchmark and stores its selection, so
    the driver plans the phase grid without analyzing anything."""
    from repro.experiments.simpoint_sampling import BENCHES, PARAMS

    store, _, pids = cold_sampling
    total = PARAMS[Scale.QUICK][0]
    for bench in BENCHES:
        assert (store.root / "traces" / f"{bench}-{total}.trc.gz").is_file()
    assert len(list((store.root / "phases").glob("*.json"))) == 2
    assert len(pids) == 2 and os.getpid() not in pids


@pytest.mark.slow
def test_warm_sampling_forks_nothing_and_writes_nothing(cold_sampling, monkeypatch):
    """A warm re-run serves every cell from the store, starts no capture
    pool (every capture exists) and writes nothing."""
    from repro.resilience import ResilientExecutor

    store, result, _ = cold_sampling

    def no_spawn(self):
        raise AssertionError("a warm sampling run started a worker")

    monkeypatch.setenv("REPRO_JOBS", "2")
    monkeypatch.setattr(ResilientExecutor, "_spawn", no_spawn)
    before, writes = _store_files(store), store.writes
    warm = get_experiment("sampling")(Scale.QUICK, store=store)
    assert warm.rows == result.rows
    assert _store_files(store) == before and store.writes == writes


def _fail_the_swim_capture(monkeypatch, jobs):
    """Run the sampling captures on *jobs* workers, the swim one failing."""
    from repro.experiments import simpoint_sampling

    save_trace = simpoint_sampling.save_trace

    def failing_save(workload, path, total):
        if workload.name == "swim":
            raise OSError("no space left on device")
        return save_trace(workload, path, total)

    monkeypatch.setenv("REPRO_JOBS", jobs)
    monkeypatch.delenv("REPRO_FAULT", raising=False)
    monkeypatch.setattr(simpoint_sampling, "save_trace", failing_save)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_failing_capture_fails_the_harness_naming_it(tmp_path, monkeypatch, jobs):
    from repro.experiments import simpoint_sampling
    from repro.resilience import CellExecutionError
    from repro.store import ResultStore

    _fail_the_swim_capture(monkeypatch, jobs)
    with pytest.raises(CellExecutionError, match=r"capture swim-48000\.trc\.gz"):
        simpoint_sampling.run(Scale.QUICK, store=ResultStore(tmp_path / "store"))


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_storeless_sampling_removes_its_captures_when_it_fails(
    tmp_path, monkeypatch, jobs
):
    """Without a store the captures live in a temporary directory, which
    is removed even when a capture fails the run."""
    import tempfile

    from repro.experiments import simpoint_sampling
    from repro.resilience import CellExecutionError

    _fail_the_swim_capture(monkeypatch, jobs)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    with pytest.raises(CellExecutionError, match=r"capture swim-48000\.trc\.gz"):
        simpoint_sampling.run(Scale.QUICK)
    assert not list(tmp_path.glob("repro-sampling-*"))


def test_cli_list(capsys):
    from repro.experiments.cli import main

    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "fig9" in out


def test_cli_runs_table1(capsys):
    from repro.experiments.cli import main

    assert main(["table1", "--scale", "quick"]) == 0
    assert "MEM-400" in capsys.readouterr().out


def test_cli_rejects_unknown(capsys):
    from repro.experiments.cli import main

    assert main(["fig99"]) == 2
