"""Unit tests for the experiment plumbing."""

import os

import pytest

from repro.experiments.common import (
    ExperimentResult,
    INSTRUCTIONS,
    QUICK_SUBSET,
    Scale,
    Stopwatch,
    WorkloadPool,
    mean_ipc,
    run_cells,
    scale_of,
    suite_names,
)
from repro.machines import parse_machine
from repro.machines.registry import kind_of, machine_kinds
from repro.memory.configs import TABLE1_CONFIGS
from repro.resilience import ExecutionPolicy, FailureReport
from repro.sim.config import DKIP_2048, KILO_1024, R10_64, RunaheadConfig
from repro.sim.stats import SimStats
from repro.store import ResultStore
from repro.workloads import SPECFP_NAMES, SPECINT_NAMES


def test_scale_coercion():
    assert scale_of("quick") == Scale.QUICK
    assert scale_of(Scale.FULL) == Scale.FULL
    with pytest.raises(ValueError):
        scale_of("huge")


def test_scales_order_instruction_budgets():
    assert INSTRUCTIONS[Scale.QUICK] < INSTRUCTIONS[Scale.DEFAULT] < INSTRUCTIONS[Scale.FULL]


def test_suite_names_respect_scale():
    assert suite_names("int", Scale.DEFAULT) == SPECINT_NAMES
    assert suite_names("fp", Scale.FULL) == SPECFP_NAMES
    assert suite_names("int", Scale.QUICK) == QUICK_SUBSET["int"]


def test_quick_subsets_are_valid_names():
    assert set(QUICK_SUBSET["int"]) <= set(SPECINT_NAMES)
    assert set(QUICK_SUBSET["fp"]) <= set(SPECFP_NAMES)


def test_workload_pool_caches_instances():
    pool = WorkloadPool()
    assert pool.get("swim") is pool.get("swim")
    assert pool.get("swim") is not pool.get("mcf")


def test_mean_ipc():
    runs = [SimStats(committed=10, cycles=5), SimStats(committed=10, cycles=10)]
    assert mean_ipc(runs) == pytest.approx(1.5)
    assert mean_ipc([]) == 0.0


def test_result_render_and_csv(tmp_path):
    result = ExperimentResult(
        name="unit", title="test", headers=["a", "b"], rows=[[1, 2.5]]
    )
    result.notes.append("note")
    text = result.render()
    assert "unit" in text and "note" in text
    path = result.write_csv(str(tmp_path))
    assert os.path.exists(path)
    with open(path) as f:
        assert f.read().startswith("a,b")


def test_stopwatch_records_elapsed():
    result = ExperimentResult(name="x", title="y", headers=[])
    with Stopwatch(result):
        pass
    assert result.elapsed_seconds >= 0.0


# ----------------------------------------------------------------------
# The cell runner: pool parity, grid calls, per-process memos
# ----------------------------------------------------------------------


def test_resolve_jobs_env_override(monkeypatch):
    from repro.experiments.common import resolve_jobs

    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs(3, 10) == 3          # explicit argument wins
    assert resolve_jobs(8, 2) == 2           # never more workers than tasks
    monkeypatch.setenv("REPRO_JOBS", "5")
    assert resolve_jobs(None, 10) == 5       # env override
    assert resolve_jobs(None, 3) == 3
    monkeypatch.setenv("REPRO_JOBS", "0")
    assert resolve_jobs(None, 10) == 1       # floor at one worker


def test_parallel_run_cells_matches_serial():
    from repro.memory import DEFAULT_MEMORY
    from repro.sim.config import R10_64

    pool = WorkloadPool()
    names = ("swim", "mcf")
    cells = [(R10_64, name, DEFAULT_MEMORY) for name in names]
    serial = run_cells(cells, 600, pool, jobs=1)
    fanned = run_cells(cells, 600, pool, jobs=2)
    assert [s.workload for s in fanned] == list(names)  # deterministic order
    for a, b in zip(serial, fanned):
        assert a == b


def test_one_grid_call_matches_per_config_suites():
    from repro.memory import DEFAULT_MEMORY
    from repro.sim.config import R10_64, R10_256

    pool = WorkloadPool()
    names = ("swim",)
    cells = [(config, name, DEFAULT_MEMORY) for config in (R10_64, R10_256) for name in names]
    grid = run_cells(cells, 600, pool, jobs=2)
    assert len(grid) == 2
    for config, stats in zip((R10_64, R10_256), grid):
        suite = [(config, name, DEFAULT_MEMORY) for name in names]
        assert [stats] == run_cells(suite, 600, pool, jobs=1)


def test_cells_of_one_workload_share_the_process_memos(monkeypatch):
    """The one cell body keeps one workload per process and cells arrive
    grouped by (workload, memory): each trace is built once per group,
    and the results equal independent fresh runs."""
    from repro.experiments import common
    from repro.memory import DEFAULT_MEMORY
    from repro.memory.warmup import clear_warmup_memo
    from repro.sim.config import R10_64, R10_256
    from repro.sim.runner import run_core
    from repro.workloads import get_workload

    built = []

    def counting_get_workload(name, seed=0):
        built.append(name)
        return get_workload(name, seed=seed)

    monkeypatch.setattr(common, "get_workload", counting_get_workload)
    common._workload.cache_clear()
    clear_warmup_memo()
    slow = DEFAULT_MEMORY.with_mem_latency(100)
    cells = [
        (R10_64, "swim", DEFAULT_MEMORY),
        (R10_64, "mcf", slow),
        (R10_256, "swim", slow),
        (R10_256, "mcf", slow),
        (R10_256, "swim", DEFAULT_MEMORY),
    ]
    got = common.run_cells(cells, 600, WorkloadPool(), jobs=1)
    assert built == ["swim", "mcf"]
    fresh = [run_core(c, get_workload(n), 600, memory=m) for c, n, m in cells]
    assert got == fresh


def test_pair_order_groups_workloads_then_memories():
    from repro.experiments.common import pair_order

    pairs = [("mcf", "A"), ("swim", "B"), ("mcf", "B"), ("swim", "A"), ("mcf", "A")]
    order = pair_order(range(len(pairs)), pairs.__getitem__)
    assert [pairs[i] for i in order] == [
        ("mcf", "A"), ("mcf", "A"), ("mcf", "B"), ("swim", "A"), ("swim", "B"),
    ]
    assert order[:2] == [0, 4]  # stable within a pair


@pytest.mark.parametrize("scale", list(Scale))
@pytest.mark.parametrize("suite", ["int", "fp"])
def test_window_grids_reach_a_process_in_window_order(scale, suite, monkeypatch):
    """The limit core serves a pair's larger windows from a smaller one
    that ran before them, so Figures 1 and 2 must hand every process
    each (workload, memory) pair's windows ascending: ``SweepGrid.cells``
    is machine-major, :func:`pair_order` sorts stably and the pool takes
    each key's cells first in, first out.  Another order would keep the
    results and silently lose the shortcut."""
    from repro.experiments.fig01_02_window import sweep_for
    from repro.experiments.sweep import plan_grid
    from repro.resilience import executor

    grid = plan_grid(sweep_for(scale, suite), scale)
    tasks = []
    monkeypatch.setattr(
        executor.ResilientExecutor, "run", lambda self, given, on_result: tasks.extend(given)
    )
    run_cells(grid.cells(), grid.instructions, WorkloadPool(), jobs=2)
    assert len(tasks) == len(grid.cells())

    def ascending(cells) -> bool:
        windows: dict = {}
        for key, payload in cells:
            windows.setdefault(key, []).append(payload[0].rob_size)
        return all(sizes == sorted(sizes) for sizes in windows.values())

    assert ascending((key, payload) for _, _, payload, key in tasks)
    # Two workers taking cells from the pool's queue, as the pool does.
    pending = executor._Pending([executor._Cell(*task) for task in tasks])
    last = [None, None]
    taken = []
    while pending:
        worker = len(taken) % 2
        cell = pending.take(last[worker], busy=[last[1 - worker]])
        last[worker] = cell.key
        taken.append((cell.key, cell.payload))
    assert ascending(taken) and len(taken) == len(tasks)


# ----------------------------------------------------------------------
# run_cells: serial == pool, the store, per-cell failure isolation
# ----------------------------------------------------------------------

MEMORY = TABLE1_CONFIGS["MEM-400"]

#: One example of every machine kind the sweep layer can dispatch.
CORES = {
    "r10": R10_64,
    "kilo": KILO_1024,
    "runahead": RunaheadConfig(),
    "dkip": DKIP_2048,
    "ooo-bp": parse_machine("ooo-bp(bp=gshare-12,rob=32)"),
    "dual": parse_machine("dual(rob=32,co=synth(chase=8),bp=gshare-10)"),
    "limit": parse_machine("limit"),
}

GRID = [
    (R10_64, "mcf", MEMORY),
    (DKIP_2048, "swim", TABLE1_CONFIGS["MEM-100"]),
    (parse_machine("ooo-bp(bp=gshare-10,rob=24)"), "mcf",
     TABLE1_CONFIGS["L2-11"]),
    (R10_64, "swim", MEMORY),
]


@pytest.fixture(autouse=True)
def _no_ambient_dispatch_settings(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.delenv("REPRO_FAULT", raising=False)


@pytest.fixture(scope="module")
def serial_vs_pool():
    """Every kind × (mcf, swim), run in-process and on a 2-worker pool."""
    assert {kind_of(config).name for config in CORES.values()} == set(machine_kinds())
    cells = [
        (config, name, MEMORY) for config in CORES.values() for name in ("mcf", "swim")
    ]
    serial = run_cells(cells, 600, WorkloadPool(), jobs=1)
    pool = run_cells(cells, 600, WorkloadPool(), jobs=2)
    return {
        tag: (serial[2 * i : 2 * i + 2], pool[2 * i : 2 * i + 2])
        for i, tag in enumerate(CORES)
    }


@pytest.mark.parametrize("tag", list(CORES))
def test_run_cells_pool_matches_serial(serial_vs_pool, tag):
    serial, pool = serial_vs_pool[tag]
    assert [stats.to_dict() for stats in pool] == [stats.to_dict() for stats in serial]


@pytest.fixture(scope="module")
def grid_baseline():
    return [stats.to_dict() for stats in run_cells(GRID, 600, WorkloadPool(), jobs=1)]


def test_run_cells_pool_store_warm_rerun_is_all_hits(grid_baseline, tmp_path):
    store = ResultStore(tmp_path)
    got = run_cells(GRID, 600, WorkloadPool(), jobs=2, store=store)
    assert [stats.to_dict() for stats in got] == grid_baseline
    # Every cell persisted individually; a warm rerun is all hits.
    rerun = run_cells(GRID, 600, WorkloadPool(), jobs=2, store=store)
    assert [stats.to_dict() for stats in rerun] == grid_baseline
    assert store.hits == len(GRID)


def test_run_cells_tolerant_deadlock_sibling_persists(tmp_path):
    """Under a tolerant policy, a deadlocking cell becomes its own
    failure record while its siblings complete and persist."""
    cells = [
        (R10_64, "mcf", MEMORY),               # ~11k cycles at 600 insns
        (R10_64, "swim", TABLE1_CONFIGS["MEM-100"]),  # ~800 cycles
    ]
    store = ResultStore(tmp_path)
    policy = ExecutionPolicy(retries=0, max_failures=1)
    report = FailureReport()
    got = run_cells(cells, 600, WorkloadPool(), store=store,
                    max_cycles=3000, policy=policy, report=report)
    assert got[0] is None
    assert got[1] is not None and got[1].committed == 600
    assert len(report.failures) == 1
    failure = report.failures[0]
    assert failure.error == "DeadlockError"
    assert "mcf" in failure.cell
    assert store.writes == 1  # the surviving sibling persisted


def test_run_cells_broken_cell_fails_alone():
    """A cell that cannot even be constructed fails on its own."""
    cells = [
        (R10_64, "swim", TABLE1_CONFIGS["MEM-100"]),
        (R10_64, "no-such-benchmark", MEMORY),
    ]
    policy = ExecutionPolicy(retries=0, max_failures=1)
    report = FailureReport()
    got = run_cells(cells, 400, WorkloadPool(), policy=policy, report=report)
    assert got[0] is not None and got[0].committed == 400
    assert got[1] is None
    assert len(report.failures) == 1


def test_killed_worker_cell_is_requeued_alone(monkeypatch, tmp_path, grid_baseline):
    """A fault-injected worker death loses only the cell that worker held:
    it is requeued whole, and every other cell persists exactly once."""
    monkeypatch.setenv("REPRO_FAULT", "cell:kill@swim × MEM-100#0")
    store = ResultStore(tmp_path)
    puts = []
    original_put = ResultStore.put
    monkeypatch.setattr(
        ResultStore, "put",
        lambda self, key, stats: (puts.append(key),
                                  original_put(self, key, stats))[1],
    )
    policy = ExecutionPolicy(retries=3, max_failures=0)
    report = FailureReport()
    got = run_cells(GRID, 600, WorkloadPool(), jobs=2, store=store,
                    policy=policy, report=report)
    assert [stats.to_dict() for stats in got] == grid_baseline
    # Only the killed cell re-ran, once.
    assert report.worker_deaths == 1 and report.retries == 1
    # One store write per cell — no finished cell was recomputed.
    assert len(puts) == len(GRID)
    assert len(set(puts)) == len(GRID)
