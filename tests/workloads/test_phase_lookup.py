"""Stored SimPoint phase selections: hits, misses and defective records."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro.experiments.common import Scale
from repro.experiments.sweep import SweepSpec, plan_grid, sweep_grid
from repro.fingerprint import digest
from repro.simpoint import phases as simpoint_phases
from repro.store import ResultStore
from repro.trace.io import TraceFormatError, save_trace
from repro.workloads import get_workload
from repro.workloads import phases as workload_phases
from repro.workloads.phases import expand_phases


@pytest.fixture
def capture(tmp_path):
    """A 1200-instruction mcf capture: four intervals of 300."""
    path = str(tmp_path / "mcf.trc.gz")
    save_trace(get_workload("mcf"), path, 1200)
    return path


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


@pytest.fixture
def analyses(monkeypatch):
    """Every ``analyze_trace`` call, recorded."""
    calls = []
    real = simpoint_phases.analyze_trace

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(simpoint_phases, "analyze_trace", counted)
    return calls


def token_for(capture, interval=300, k=3, seed=0):
    return f"phases(file={capture},interval={interval},k={k},seed={seed})"


def spec_for(capture):
    return SweepSpec(
        name="records",
        machines=("r10(rob=32)",),
        workloads=(token_for(capture), "mcf"),
        instructions=300,
    )


def records(store):
    return sorted((store.root / "phases").glob("*"))


def test_a_hit_equals_a_fresh_analysis_field_by_field(capture, store, analyses):
    fresh = expand_phases(token_for(capture))
    cold = expand_phases(token_for(capture), store)
    warm = expand_phases(token_for(capture), store)
    assert len(analyses) == 2  # the storeless call and the cold miss
    assert len(records(store)) == 1
    phase_set = simpoint_phases.analyze_trace(capture, interval=300, k=3, seed=0)
    for expansion in (cold, warm):
        assert expansion == fresh
        assert expansion.weights == phase_set.weights
        assert expansion.names == phase_set.member_specs()
        assert expansion.num_intervals == phase_set.num_intervals
        assert expansion.total_instructions == phase_set.total_instructions
        assert expansion.path == phase_set.path


def test_a_warm_plan_never_analyzes(capture, store, monkeypatch):
    cold = plan_grid(spec_for(capture), Scale.QUICK, store)

    def refuse(*args, **kwargs):
        raise AssertionError("a warm plan analyzed a capture")

    monkeypatch.setattr(simpoint_phases, "analyze_trace", refuse)
    warm = plan_grid(spec_for(capture), Scale.QUICK, store)
    assert warm.phases == cold.phases
    assert warm.workloads == cold.workloads
    assert warm.cells() == cold.cells()


def test_a_warm_plan_never_imports_numpy(capture, store):
    plan_grid(spec_for(capture), Scale.QUICK, store)
    script = (
        "import sys\n"
        "from repro.experiments.sweep import SweepSpec, plan_grid\n"
        "from repro.store import ResultStore\n"
        "spec = SweepSpec(name='r', machines=('r10(rob=32)',),\n"
        f"                 workloads=({token_for(capture)!r},), instructions=300)\n"
        f"plan = plan_grid(spec, 'quick', ResultStore({str(store.root)!r}))\n"
        "assert len(plan.benches) >= 1\n"
        "print(sorted(name for name in sys.modules\n"
        "             if name.split('.')[0] == 'numpy'\n"
        "             or name.startswith('repro.simpoint')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("change", ["capture", "interval", "k", "seed", "code"])
def test_each_input_of_the_key_misses(capture, store, analyses, monkeypatch, change):
    expand_phases(token_for(capture), store)
    params = {"interval": 300, "k": 3, "seed": 0}
    if change == "capture":
        save_trace(get_workload("swim"), capture, 1200)
    elif change == "code":
        monkeypatch.setattr(workload_phases, "analysis_code_digest", lambda: "0" * 64)
    else:
        params[change] = {"interval": 400, "k": 2, "seed": 5}[change]
    expansion = expand_phases(token_for(capture, **params), store)
    assert len(analyses) == 2
    assert len(records(store)) == 2
    assert expansion == expand_phases(token_for(capture, **params))


def _restamped(entry):
    entry["selection_digest"] = digest(entry["selection"])
    return json.dumps(entry)


def _truncated(text, entry):
    return text[: len(text) // 2]


def _garbled(text, entry):
    middle = len(text) // 3
    return text[:middle] + "\x7f\x00garbage" + text[middle:]


def _digest_mismatched(text, entry):
    entry["digest"] = "0" * 64
    return json.dumps(entry)


def _weights_sum_to_0_9(text, entry):
    for point in entry["selection"]["points"]:
        point[1] *= 0.9
    return _restamped(entry)


def _index_past_the_intervals(text, entry):
    entry["selection"]["points"][-1][0] = entry["selection"]["num_intervals"]
    return _restamped(entry)


@pytest.mark.parametrize(
    "defect",
    [_truncated, _garbled, _digest_mismatched, _weights_sum_to_0_9,
     _index_past_the_intervals],
)
def test_a_defective_record_is_a_miss_and_is_rewritten(capture, store, analyses, defect):
    good = expand_phases(token_for(capture), store)
    (path,) = records(store)
    original = path.read_text()
    path.write_text(defect(original, json.loads(original)))
    again = expand_phases(token_for(capture), store)
    assert len(analyses) == 2
    assert again == good
    assert path.read_text() == original


def test_without_a_store_nothing_is_written(capture, tmp_path):
    before = sorted(tmp_path.rglob("*"))
    plan_grid(spec_for(capture), Scale.QUICK)
    expand_phases(token_for(capture))
    assert sorted(tmp_path.rglob("*")) == before


def test_a_capture_replaced_during_analysis_is_not_recorded(capture, store, monkeypatch):
    real = simpoint_phases.analyze_trace

    def replacing(path, **kwargs):
        result = real(path, **kwargs)
        save_trace(get_workload("swim"), path, 1200)
        return result

    monkeypatch.setattr(simpoint_phases, "analyze_trace", replacing)
    expand_phases(token_for(capture), store)
    assert records(store) == []


def test_a_missing_capture_is_named_with_or_without_a_store(tmp_path, store):
    token = token_for(str(tmp_path / "gone.trc.gz"))
    for given in (None, store):
        with pytest.raises(TraceFormatError, match="does not exist"):
            expand_phases(token, given)


def test_a_store_that_cannot_be_written_still_plans(capture, store, monkeypatch):
    def refuse(key, selection):
        raise PermissionError("read-only store")

    monkeypatch.setattr(store, "put_phases", refuse)
    assert expand_phases(token_for(capture), store) == expand_phases(token_for(capture))
    assert records(store) == []


def test_phase_records_move_no_cell_counter_and_no_object(capture, store):
    expand_phases(token_for(capture), store)  # a miss and a write
    expand_phases(token_for(capture), store)  # a hit
    (path,) = records(store)
    path.write_text("{")
    expand_phases(token_for(capture), store)  # a defective record
    assert (store.hits, store.misses, store.corrupt, store.writes) == (0, 0, 0, 0)
    assert not (store.root / "objects").exists()


def test_a_phase_sweep_counts_only_cells(capture, tmp_path):
    spec = spec_for(capture)
    cold = ResultStore(tmp_path / "store")
    grid = sweep_grid(spec, Scale.QUICK, store=cold, jobs=1)
    cells = len(grid.results)
    objects = list((cold.root / "objects").glob("*/*.json"))
    assert cold.writes == len(objects) == cells
    assert len(records(cold)) == 1
    warm = ResultStore(tmp_path / "store")
    again = sweep_grid(spec, Scale.QUICK, store=warm, jobs=1)
    assert (warm.hits, warm.writes) == (cells, 0)
    assert again.results == grid.results
    assert again.phases == grid.phases
