"""Resumable, incremental sweeps: the store makes re-runs cost the delta.

The acceptance contract: a sweep run twice against the same store
simulates zero cells the second time and produces bit-identical rows; a
sweep interrupted mid-flight completes only the missing cells when
re-run.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import WorkloadPool, run_cells
from repro.experiments.registry import get_experiment
from repro.machines import parse_machine
from repro.memory import DEFAULT_MEMORY
from repro.sim.config import DKIP_2048, KILO_1024, R10_64, R10_256, LimitMachine
from repro.store import ResultStore, cell_key

NAMES = ("swim", "mcf", "gcc")
N = 600


def suite(config, names=NAMES):
    """One (config, benchmark, default memory) cell per benchmark."""
    return [(config, name, DEFAULT_MEMORY) for name in names]


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


def test_second_run_simulates_nothing(store):
    pool = WorkloadPool()
    cold = run_cells(suite(R10_64), N, pool, jobs=1, store=store)
    assert store.writes == len(NAMES)
    warm = run_cells(suite(R10_64), N, pool, jobs=1, store=store)
    assert store.hits == len(NAMES)
    assert store.writes == len(NAMES)  # nothing recomputed
    assert warm == cold


def test_store_results_match_storeless(store):
    pool = WorkloadPool()
    plain = run_cells(suite(R10_64), N, pool, jobs=1)
    stored = run_cells(suite(R10_64), N, pool, jobs=1, store=store)
    rehydrated = run_cells(suite(R10_64), N, pool, jobs=1, store=store)
    assert plain == stored == rehydrated


def test_interrupted_sweep_resumes_missing_cells_only(store):
    """Pre-populate a strict subset of cells (as a killed sweep would
    leave behind), then re-run: only the gap is simulated."""
    pool = WorkloadPool()
    reference = run_cells(suite(R10_64), N, pool, jobs=1)
    # "Interrupted" run: only the first cell made it to disk.
    key = cell_key(R10_64, pool.get(NAMES[0]), N, DEFAULT_MEMORY)
    store.put(key, reference[0])
    resumed = run_cells(suite(R10_64), N, pool, jobs=1, store=store)
    assert resumed == reference
    assert store.hits == 1
    assert store.writes == 1 + (len(NAMES) - 1)


def test_incremental_run_recomputes_only_changed_cells(store):
    """Changing one swept parameter misses only the changed cells."""
    pool = WorkloadPool()
    run_cells(suite(R10_64), N, pool, jobs=1, store=store)
    writes = store.writes
    # Same config, one extra benchmark: exactly one new cell.
    run_cells(suite(R10_64, NAMES + ("art",)), N, pool, jobs=1, store=store)
    assert store.writes == writes + 1
    # A different machine config misses every cell again.
    run_cells(suite(R10_256), N, pool, jobs=1, store=store)
    assert store.writes == writes + 1 + len(NAMES)


def test_parallel_sweep_writes_back_and_resumes(store):
    pool = WorkloadPool()
    cells = [
        (config, name, DEFAULT_MEMORY) for config in (R10_64, R10_256) for name in NAMES
    ]
    cold = run_cells(cells, N, pool, jobs=2, store=store)
    assert store.writes == 2 * len(NAMES)
    warm = run_cells(cells, N, pool, jobs=2, store=store)
    assert store.writes == 2 * len(NAMES)
    assert store.hits == 2 * len(NAMES)
    assert warm == cold
    # In-process and pooled runs share one key space.
    serial = run_cells(suite(R10_64), N, pool, jobs=1, store=store)
    assert serial == cold[: len(NAMES)]
    assert store.writes == 2 * len(NAMES)


def test_spec_built_machine_hits_dataclass_cells(store):
    """Spec↔dataclass equivalence, end to end through the store: every
    machine built from a spec string produces a bit-identical fingerprint
    and SimStats to its dataclass-built twin, so the spec run is served
    entirely from the twin's cached cells."""
    pool = WorkloadPool()
    dataclass_stats = run_cells(suite(R10_256), N, pool, jobs=1, store=store)
    writes = store.writes
    spec_stats = run_cells(
        suite(parse_machine("r10(rob=256,iq=160)")), N, pool, jobs=1, store=store
    )
    assert store.writes == writes          # zero cells simulated
    assert store.hits == len(NAMES)        # every cell served from disk
    assert spec_stats == dataclass_stats   # SimStats bit-identical


def test_limit_machine_flows_through_the_generic_grid(store):
    """Limit cells share the generic runner path and key space: a
    spec-built limit machine hits the cells a dataclass sweep stored."""
    pool = WorkloadPool()
    machine = LimitMachine(rob_size=64, record_histogram=False)
    dataclass_stats = run_cells(suite(machine), N, pool, jobs=1, store=store)
    writes = store.writes
    spec_stats = run_cells(
        suite(parse_machine("limit(rob=64,histogram=off)")),
        N, pool, jobs=1, store=store,
    )
    assert store.writes == writes
    assert spec_stats == dataclass_stats
    assert spec_stats[0].config == "limit-rob-64"


@pytest.mark.slow
def test_spec_twins_fingerprint_identically_for_every_kind(store):
    """One cell per kind: spec-built and dataclass-built twins share keys."""
    pool = WorkloadPool()
    pairs = [
        ("kilo(sliq=1024)", KILO_1024),
        ("dkip(cp=OOO-20,mp=OOO-40)", DKIP_2048.with_cp("OOO-20").with_mp("OOO-40")),
    ]
    for spec, twin in pairs:
        built = parse_machine(spec)
        assert built.fingerprint() == twin.fingerprint()
        twin_stats = run_cells(suite(twin, ("mcf",)), N, pool, jobs=1, store=store)
        writes = store.writes
        spec_stats = run_cells(suite(built, ("mcf",)), N, pool, jobs=1, store=store)
        assert store.writes == writes
        assert spec_stats == twin_stats


@pytest.mark.slow
def test_fig9_rows_bit_identical_and_fully_cached(tmp_path):
    """The acceptance criterion, end to end at quick scale."""
    store = ResultStore(tmp_path / "store")
    cold = get_experiment("fig9")("quick", store=store)
    simulated = store.writes
    assert simulated > 0
    warm = get_experiment("fig9")("quick", store=store)
    assert store.writes == simulated  # zero cells simulated on re-run
    assert warm.rows == cold.rows
    assert warm.headers == cold.headers


@pytest.mark.slow
def test_fig1_limit_cells_cache_and_resume(tmp_path):
    store = ResultStore(tmp_path / "store")
    cold = get_experiment("fig1")("quick", store=store)
    simulated = store.writes
    warm = get_experiment("fig1")("quick", store=store)
    assert store.writes == simulated
    assert warm.rows == cold.rows
    plain = get_experiment("fig1")("quick")
    assert plain.rows == cold.rows
