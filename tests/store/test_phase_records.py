"""The store's phase-selection records: envelope, checks, stats and prune."""

from __future__ import annotations

import json

import pytest

from repro.experiments.cli import main as run_main
from repro.store import ResultStore, phase_key

SELECTION = {
    "num_intervals": 5,
    "total_instructions": 512,
    "points": [[1, 0.4], [3, 0.6]],
}


def key_for(seed=0):
    return phase_key("c" * 64, 100, 3, seed, "d" * 64)


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


def test_round_trip_lives_under_phases_and_moves_no_counter(store):
    path = store.put_phases(key_for(), SELECTION)
    assert path == store.root / "phases" / f"{key_for().digest}.json"
    assert store.get_phases(key_for()) == SELECTION
    assert store.get_phases(key_for(seed=1)) is None
    assert (store.hits, store.misses, store.corrupt, store.writes) == (0, 0, 0, 0)
    assert not (store.root / "objects").exists()


@pytest.mark.parametrize(
    "selection",
    [
        {**SELECTION, "num_intervals": 4},  # 512 // 100 is 5
        {**SELECTION, "num_intervals": 0, "total_instructions": 99},
        {**SELECTION, "points": []},
        {**SELECTION, "points": [[0, 0.25], [1, 0.25], [2, 0.25], [3, 0.25]]},  # > k
        {**SELECTION, "points": [[3, 0.4], [1, 0.6]]},
        {**SELECTION, "points": [[1, 0.4], [1, 0.6]]},
        {**SELECTION, "points": [[-1, 0.4], [3, 0.6]]},
        {**SELECTION, "points": [[1, 0.4], [5, 0.6]]},
        {**SELECTION, "points": [[1, 0.0], [3, 1.0]]},
        {**SELECTION, "points": [[1, -0.4], [3, 1.4]]},
        {**SELECTION, "points": [[1, float("nan")], [3, 0.6]]},
        {**SELECTION, "points": [[1, 0.4], [3, 0.5]]},
        {**SELECTION, "points": [[1, 0.4], [3, 1]]},
        {**SELECTION, "points": [[1.0, 0.4], [3, 0.6]]},
        {**SELECTION, "num_intervals": 5.0},
    ],
)
def test_an_impossible_selection_is_never_written(store, selection):
    with pytest.raises(ValueError):
        store.put_phases(key_for(), selection)
    assert not store.phases_path(key_for()).exists()


def test_a_record_under_another_key_is_a_miss(store):
    path = store.put_phases(key_for(), SELECTION)
    path.rename(store.phases_path(key_for(seed=1)))
    assert store.get_phases(key_for(seed=1)) is None


def test_stats_count_phase_records(store, capsys):
    store.put_phases(key_for(), SELECTION)
    store.put_phases(key_for(seed=1), SELECTION)
    store.phases_path(key_for(seed=2)).write_text("{")
    summary = store.summary()
    assert (summary["phase_records"], summary["phase_defective"]) == (2, 1)
    assert (summary["entries"], summary["corrupt"]) == (0, 0)
    assert run_main(["cache", "stats", "--store", str(store.root)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "phase records   2" in out
    assert "phase defective 1" in out


def _tampered(store, seed, edit):
    path = store.put_phases(key_for(seed), SELECTION)
    entry = json.loads(path.read_text())
    edit(entry)
    path.write_text(json.dumps(entry))
    return path


def test_prune_deletes_defective_records_and_orphans(store):
    good = store.put_phases(key_for(), SELECTION)
    truncated = store.phases_path(key_for(seed=1))
    truncated.write_text(good.read_text()[:40])
    reweighted = _tampered(
        store, 2, lambda e: e["selection"]["points"][0].__setitem__(1, 0.3)
    )
    renamed = _tampered(store, 3, lambda e: e["key"].__setitem__("seed", 4))
    orphan = store.root / "phases" / f"{key_for(seed=5).digest}.tmp.1.2.ab"
    orphan.write_text("{")
    assert store.prune() == 4
    assert sorted(store.root.joinpath("phases").iterdir()) == [good]
    assert not any(p.exists() for p in (truncated, reweighted, renamed, orphan))
    assert store.get_phases(key_for()) == SELECTION


def test_prune_all_deletes_every_record(store, capsys):
    store.put_phases(key_for(), SELECTION)
    store.put_phases(key_for(seed=1), SELECTION)
    assert run_main(["cache", "prune", "--all", "--store", str(store.root)]) == 0
    assert "pruned 2 entries" in capsys.readouterr().out
    assert list(store.root.joinpath("phases").iterdir()) == []
    assert store.summary()["phase_records"] == 0
