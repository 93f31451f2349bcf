"""ResultStore behaviour: hit/miss/force, atomicity, corruption, tools."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.experiments.common import WorkloadPool, compute_cell, run_cells
from repro.fingerprint import digest
from repro.memory import DEFAULT_MEMORY
from repro.sim.config import DKIP_2048, R10_64, LimitMachine
from repro.sim.runner import run_core
from repro.sim.stats import STATS_SCHEMA_VERSION, Histogram, SimStats
from repro.store import CellKey, ResultStore, cell_key, from_jsonable, to_jsonable


@pytest.fixture
def pool():
    return WorkloadPool()


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


def _cell(store, pool, config, name, force=False):
    """One store-first 600-instruction cell through ``run_cells``."""
    (stats,) = run_cells(
        [(config, name, DEFAULT_MEMORY)], 600, pool, jobs=1, store=store, force=force
    )
    return stats


def test_stats_roundtrip_with_histogram():
    stats = SimStats(workload="w", config="c", committed=10, cycles=20)
    stats.issue_distance = Histogram(bin_width=25, max_value=4000)
    stats.issue_distance.add(3)
    stats.issue_distance.add(412)
    again = SimStats.from_dict(json.loads(json.dumps(stats.to_dict())))
    assert again == stats
    assert again.issue_distance == stats.issue_distance


def test_stats_schema_mismatch_rejected():
    data = SimStats().to_dict()
    data["schema"] = STATS_SCHEMA_VERSION + 1
    with pytest.raises(ValueError):
        SimStats.from_dict(data)


def test_config_serialization_roundtrip():
    for config in (R10_64, DKIP_2048, DEFAULT_MEMORY, LimitMachine(rob_size=64)):
        rebuilt = from_jsonable(json.loads(json.dumps(to_jsonable(config))))
        assert rebuilt == config
        assert rebuilt.fingerprint() == config.fingerprint()


def test_get_miss_put_hit(store, pool):
    workload = pool.get("swim")
    key = cell_key(R10_64, workload, 600, DEFAULT_MEMORY)
    assert store.get(key) is None
    stats = run_core(R10_64, workload, 600)
    store.put(key, stats)
    assert store.contains(key)
    assert store.get(key) == stats
    assert (store.hits, store.misses, store.writes) == (1, 1, 1)


def test_run_cells_hit_miss_force(store, pool):
    cold = _cell(store, pool, R10_64, "mcf")
    assert (store.hits, store.misses) == (0, 1)
    warm = _cell(store, pool, R10_64, "mcf")
    assert (store.hits, store.misses) == (1, 1)
    assert warm == cold
    forced = _cell(store, pool, R10_64, "mcf", force=True)
    # --force never reads, always recomputes and overwrites.
    assert (store.hits, store.misses) == (1, 1)
    assert store.writes == 2
    assert forced == cold


def test_distinct_cells_do_not_collide(store, pool):
    a = cell_key(R10_64, pool.get("swim"), 600, DEFAULT_MEMORY)
    b = cell_key(R10_64, pool.get("swim"), 700, DEFAULT_MEMORY)
    c = cell_key(DKIP_2048, pool.get("swim"), 600, DEFAULT_MEMORY)
    d = cell_key(R10_64, pool.get("mcf"), 600, DEFAULT_MEMORY)
    e = cell_key(R10_64, pool.get("swim"), 600, DEFAULT_MEMORY.with_mem_latency(100))
    gshare = dataclasses.replace(R10_64, predictor="gshare")
    f = cell_key(gshare, pool.get("swim"), 600, DEFAULT_MEMORY)
    assert len({k.digest for k in (a, b, c, d, e, f)}) == 6
    assert all(k.payload["predictor"] is None for k in (a, b, c, d, e, f))


def test_truncated_entry_recomputes_not_crashes(store, pool):
    cold = _cell(store, pool, R10_64, "swim")
    key = cell_key(R10_64, pool.get("swim"), 600, DEFAULT_MEMORY)
    path = store.path_for(key)
    path.write_text(path.read_text()[: len(path.read_text()) // 2])
    again = _cell(store, pool, R10_64, "swim")
    assert again == cold
    assert store.corrupt == 1
    # The recompute healed the entry.
    assert store.get(key) == cold


def test_garbage_json_and_digest_mismatch_are_misses(store, pool):
    workload = pool.get("swim")
    key = cell_key(R10_64, workload, 600, DEFAULT_MEMORY)
    path = store.path_for(key)
    path.parent.mkdir(parents=True)
    path.write_text("{}")
    assert store.get(key) is None
    path.write_text(json.dumps({"format": 1, "digest": "0" * 64, "stats": {}}))
    assert store.get(key) is None
    assert store.corrupt == 2


def test_summary_prune(store, pool):
    _cell(store, pool, R10_64, "swim")
    _cell(store, pool, DKIP_2048, "mcf")
    summary = store.summary()
    assert summary["entries"] == 2
    assert summary["machines"] == {"CoreConfig": 1, "DkipConfig": 1}
    assert summary["workloads"] == {"mcf": 1, "swim": 1}
    assert summary["bytes"] > 0
    # Nothing corrupt or stale: prune is a no-op unless everything=True.
    assert store.prune() == 0
    assert store.prune(everything=True) == 2
    assert store.summary()["entries"] == 0


def test_in_place_stats_tamper_is_a_miss(store, pool):
    """Valid-JSON corruption of the stats body must not be served."""
    cold = _cell(store, pool, R10_64, "swim")
    key = cell_key(R10_64, pool.get("swim"), 600, DEFAULT_MEMORY)
    path = store.path_for(key)
    entry = json.loads(path.read_text())
    entry["stats"]["cycles"] += 1  # stats_digest now disagrees
    path.write_text(json.dumps(entry))
    assert store.get(key) is None
    assert store.corrupt == 1
    assert _cell(store, pool, R10_64, "swim") == cold


def test_prune_handles_entry_without_key(store, pool):
    """A well-formed JSON entry missing fields is corrupt, not a crash."""
    _cell(store, pool, R10_64, "swim")
    key = cell_key(R10_64, pool.get("swim"), 600, DEFAULT_MEMORY)
    path = store.path_for(key)
    path.write_text(json.dumps({"digest": key.digest, "stats": {}}))
    assert store.summary()["corrupt"] == 1
    assert store.prune() == 1
    assert not path.exists()


def test_verify_skips_other_schema_entries(store, pool):
    _cell(store, pool, R10_64, "swim")
    key = cell_key(R10_64, pool.get("swim"), 600, DEFAULT_MEMORY)
    path = store.path_for(key)
    entry = json.loads(path.read_text())
    entry["key"]["schema"] = STATS_SCHEMA_VERSION + 1
    path.write_text(json.dumps(entry))
    # get() never serves it and verify() must not raise a false alarm.
    assert store.verify(compute_cell) == []
    assert store.summary()["stale_schema"] == 1
    assert store.prune() == 1


def test_prune_removes_corrupt(store, pool):
    _cell(store, pool, R10_64, "swim")
    key = cell_key(R10_64, pool.get("swim"), 600, DEFAULT_MEMORY)
    store.path_for(key).write_text("not json")
    assert store.prune() == 1
    assert store.summary()["entries"] == 0


def test_verify_detects_tampering(store, pool):
    _cell(store, pool, R10_64, "swim")
    _cell(store, pool, LimitMachine(rob_size=64), "mcf")
    reports = store.verify(compute_cell)
    assert len(reports) == 2
    assert all(report["status"] == "ok" for report in reports)
    # Simulate code drift: an internally consistent entry (stats digest
    # updated) whose stats no longer match a fresh simulation.
    key = cell_key(R10_64, pool.get("swim"), 600, DEFAULT_MEMORY)
    path = store.path_for(key)
    entry = json.loads(path.read_text())
    entry["stats"]["cycles"] += 1
    entry["stats_digest"] = digest(entry["stats"])
    path.write_text(json.dumps(entry))
    reports = store.verify(compute_cell)
    assert sorted(report["status"] for report in reports) == ["ok", "stale"]


def test_verify_replays_legacy_predictor_override_entries(store, pool):
    """Entries written while the predictor was a separate key field (a
    non-null ``predictor``) replay with that predictor and verify ok."""
    gshare = dataclasses.replace(
        DKIP_2048,
        cache_processor=dataclasses.replace(
            DKIP_2048.cache_processor, predictor="gshare"
        ),
    )
    stats = run_core(gshare, pool.get("gcc"), 600)
    assert stats != run_core(DKIP_2048, pool.get("gcc"), 600)
    payload = dict(
        cell_key(DKIP_2048, pool.get("gcc"), 600, DEFAULT_MEMORY).payload,
        predictor="gshare",
    )
    store.put(CellKey(payload=payload, digest=digest(payload)), stats)
    (report,) = store.verify(compute_cell)
    assert report["status"] == "ok"


def test_verify_sampling_is_deterministic(store, pool):
    for name in ("swim", "mcf", "gcc"):
        _cell(store, pool, R10_64, name)
    one = store.verify(compute_cell, sample=1, rng_seed=7)
    two = store.verify(compute_cell, sample=1, rng_seed=7)
    assert [r["digest"] for r in one] == [r["digest"] for r in two]


# ----------------------------------------------------------------------
# Concurrent-writer hardening (sweep-service seams)
# ----------------------------------------------------------------------


def test_put_tmp_names_are_unique_per_call(store, pool, monkeypatch):
    """Two writes of the same key must not share one temp path."""
    import os as os_module

    sources = []
    real_replace = os_module.replace

    def recording_replace(src, dst):
        sources.append(str(src))
        return real_replace(src, dst)

    monkeypatch.setattr("repro.store.store.os.replace", recording_replace)
    key = cell_key(R10_64, pool.get("swim"), 600, DEFAULT_MEMORY)
    stats = run_core(R10_64, pool.get("swim"), 600)
    store.put(key, stats)
    store.put(key, stats)
    assert len(sources) == 2 and sources[0] != sources[1]
    assert all(".tmp." in src for src in sources)


def test_put_failure_leaves_no_tmp_orphan(store, pool, monkeypatch):
    key = cell_key(R10_64, pool.get("swim"), 600, DEFAULT_MEMORY)
    stats = run_core(R10_64, pool.get("swim"), 600)

    def failing_fsync(fd):
        raise OSError("disk full")

    monkeypatch.setattr("repro.store.store.os.fsync", failing_fsync)
    with pytest.raises(OSError):
        store.put(key, stats)
    monkeypatch.undo()
    assert list(store.root.glob("objects/*/*.tmp.*")) == []
    assert store.get(key) is None
    # A clean retry still lands.
    store.put(key, stats)
    assert store.get(key) == stats


def test_iter_entries_tolerates_concurrent_unlink(store, pool):
    """A file vanishing mid-scan is skipped, not reported corrupt."""
    for name in ("swim", "mcf"):
        _cell(store, pool, R10_64, name)
    entries = store.iter_entries()
    first_path, first_entry = next(entries)
    assert first_entry is not None
    for path in store.root.glob("objects/*/*.json"):
        if path != first_path:
            path.unlink()
    assert list(entries) == []
    assert store.prune() == 0


def test_contains_lies_about_torn_entries_but_validated_does_not(store, pool):
    _cell(store, pool, R10_64, "swim")
    key = cell_key(R10_64, pool.get("swim"), 600, DEFAULT_MEMORY)
    assert store.validated(key) is True
    store.path_for(key).write_text("")  # a torn/zero-length entry
    assert store.contains(key) is True  # the existence probe is fooled
    assert store.validated(key) is False  # the skip decision is not
    assert store.get(key) is None


def test_validated_does_not_skew_counters(store, pool):
    _cell(store, pool, R10_64, "swim")
    key = cell_key(R10_64, pool.get("swim"), 600, DEFAULT_MEMORY)
    miss = cell_key(R10_64, pool.get("mcf"), 600, DEFAULT_MEMORY)
    before = (store.hits, store.misses, store.corrupt)
    assert store.validated(key) is True
    assert store.validated(miss) is False
    assert (store.hits, store.misses, store.corrupt) == before
