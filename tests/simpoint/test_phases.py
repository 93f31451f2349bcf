"""Phase analysis (analyze_trace): edge cases and determinism."""

import numpy as np
import pytest

from repro.simpoint.kmeans import kmeans
from repro.simpoint.phases import PhaseAnalysisError, analyze_trace
from repro.trace.io import TraceFormatError, dump_trace, save_trace
from repro.workloads import get_workload


@pytest.fixture
def capture(tmp_path):
    """A 2500-instruction mcf capture (not a multiple of interval=400)."""
    path = str(tmp_path / "mcf.trc.gz")
    save_trace(get_workload("mcf"), path, 2500)
    return path


def test_selection_is_well_formed(capture):
    phase_set = analyze_trace(capture, interval=400, k=3)
    assert phase_set.num_intervals == 6          # 2500 // 400, tail dropped
    assert phase_set.total_instructions == 2500
    assert 1 <= len(phase_set.points) <= 3
    assert sum(phase_set.weights) == pytest.approx(1.0)
    for point in phase_set.points:
        assert 0 <= point.interval < phase_set.num_intervals
    # Sorted by interval, no duplicates.
    intervals = [p.interval for p in phase_set.points]
    assert intervals == sorted(set(intervals))


def test_empty_capture_is_a_clean_error(tmp_path):
    path = str(tmp_path / "empty.trc")
    dump_trace([], path)
    with pytest.raises(PhaseAnalysisError, match="fewer than one complete"):
        analyze_trace(path, interval=100)


def test_capture_shorter_than_one_interval_is_a_clean_error(tmp_path):
    path = str(tmp_path / "short.trc.gz")
    save_trace(get_workload("eon"), path, 50)
    with pytest.raises(PhaseAnalysisError, match="50 instruction"):
        analyze_trace(path, interval=100)


def test_missing_file_raises_the_trace_layer_error(tmp_path):
    with pytest.raises(TraceFormatError):
        analyze_trace(str(tmp_path / "nope.trc"), interval=100)


def test_bad_parameters_rejected(capture):
    with pytest.raises(PhaseAnalysisError, match="interval must be positive"):
        analyze_trace(capture, interval=0)
    with pytest.raises(PhaseAnalysisError, match="k must be positive"):
        analyze_trace(capture, k=0)


def test_fewer_intervals_than_k_clamps(capture):
    # 2500 instructions at interval=1000 -> 2 complete intervals < k=5.
    phase_set = analyze_trace(capture, interval=1000, k=5)
    assert phase_set.num_intervals == 2
    assert 1 <= len(phase_set.points) <= 2
    assert sum(phase_set.weights) == pytest.approx(1.0)


def test_same_seed_same_selection(capture):
    first = analyze_trace(capture, interval=250, k=3, seed=7)
    # Each call analyzes afresh; identical parameters must agree point
    # for point.
    again = analyze_trace(capture, interval=250, k=3, seed=7)
    assert again.points == first.points


def test_degenerate_single_cluster_matrix():
    """All-identical BBV rows must collapse to one phase with weight 1."""
    matrix = np.tile(np.array([[0.5, 0.5]]), (6, 1))
    result = kmeans(matrix, 3, seed=0)
    # However the seeding lands, every point sits on the same coordinates,
    # so the non-empty clusters cover all points at zero inertia.
    assert result.inertia == pytest.approx(0.0)


def test_degenerate_constant_trace_selects_one_phase(tmp_path):
    """A capture with a single repeating block yields one phase."""
    from repro.isa import Instruction, OpClass

    instructions = [
        Instruction(seq=i, pc=0x100, op=OpClass.INT_ALU)
        for i in range(600)
    ]
    path = str(tmp_path / "flat.trc")
    dump_trace(instructions, path)
    phase_set = analyze_trace(path, interval=100, k=4)
    assert len(phase_set.points) == 1
    assert phase_set.weights == (1.0,)


def test_member_specs_and_token_round_trip(capture):
    phase_set = analyze_trace(capture, interval=500, k=2, seed=3)
    for spec, point in zip(phase_set.member_specs(), phase_set.points):
        assert f"index={point.interval}" in spec
        assert "interval=500" in spec
        assert spec.startswith("phases(")
    token = phase_set.token()
    assert "k=2" in token and "seed=3" in token and "index" not in token
    assert 0.0 < phase_set.coverage <= 1.0
    rows = phase_set.table_rows()
    assert len(rows) == len(phase_set.points)
