"""The trace-file workload kind: capture → replay fidelity."""

import gzip
import os
import shutil

import pytest

from repro.grammar import SpecError
from repro.trace.io import TraceFormatError, dump_trace, save_trace
from repro.workloads import get_workload, parse_workload
from repro.workloads.tracefile import TraceFileWorkload


@pytest.fixture
def capture(tmp_path):
    """A 300-instruction gzipped mcf capture and its source workload."""
    source = get_workload("mcf")
    path = str(tmp_path / "mcf.trc.gz")
    assert save_trace(source, path, 300) == 300
    return path, source


def test_replay_matches_source_instructions(capture):
    path, source = capture
    replay = TraceFileWorkload(path)
    assert replay.trace(300) == source.trace(300)
    assert replay.trace(100) == source.trace(100)


def test_replay_restores_region_map(capture):
    path, source = capture
    replay = TraceFileWorkload(path)
    replay.trace(300)
    assert replay.regions == source.regions
    assert replay.footprint == source.footprint


def test_plain_text_capture_replays_too(tmp_path):
    source = get_workload("eon")
    path = str(tmp_path / "eon.trc")  # no .gz
    save_trace(source, path, 120)
    assert TraceFileWorkload(path).trace(120) == source.trace(120)


def test_requesting_more_than_captured_is_a_clean_error(capture):
    path, _ = capture
    replay = TraceFileWorkload(path)
    with pytest.raises(TraceFormatError, match="shorter than the requested"):
        replay.trace(301)


def test_fingerprint_is_content_addressed(capture, tmp_path):
    path, _ = capture
    original = TraceFileWorkload(path)
    # A byte-identical copy under another name fingerprints identically
    # (the digest covers content, not location) even though names differ.
    copy_path = str(tmp_path / "copied.trc.gz")
    shutil.copy(path, copy_path)
    copy = TraceFileWorkload(copy_path)
    assert copy.name != original.name
    assert copy.fingerprint() == original.fingerprint()
    # Compression variance doesn't matter either: recompressing the same
    # records (different gzip metadata) keeps the fingerprint.
    recompressed = str(tmp_path / "recompressed.trc.gz")
    with gzip.open(path, "rb") as fin, gzip.open(
        recompressed, "wb", compresslevel=1
    ) as fout:
        fout.write(fin.read())
    assert TraceFileWorkload(recompressed).fingerprint() == original.fingerprint()


def test_fingerprint_changes_when_content_changes(tmp_path):
    source = get_workload("eon")
    a_path = str(tmp_path / "a.trc")
    b_path = str(tmp_path / "b.trc")
    save_trace(source, a_path, 100)
    dump_trace(source.trace(99), b_path, regions=source.regions)
    assert (
        TraceFileWorkload(a_path).fingerprint()
        != TraceFileWorkload(b_path).fingerprint()
    )


def test_replay_is_seed_insensitive(capture):
    path, _ = capture
    assert (
        TraceFileWorkload(path, seed=1).trace(300)
        == TraceFileWorkload(path, seed=2).trace(300)
    )
    # The fingerprint is seed-invariant too: replay ignores the seed, so
    # equal content means equal identity.  (Store cell keys still carry
    # the seed separately in their payload.)
    assert (
        TraceFileWorkload(path, seed=1).fingerprint()
        == TraceFileWorkload(path, seed=2).fingerprint()
    )


def test_spec_round_trip_through_get_workload(capture):
    path, source = capture
    via_spec = get_workload(f"trace(file={path})")
    assert via_spec.trace(300) == source.trace(300)
    assert parse_workload(via_spec.name).fingerprint() == via_spec.fingerprint()


def test_regionless_capture_still_replays(tmp_path):
    """Files written by plain dump_trace (no region map) stay valid."""
    source = get_workload("eon")
    path = str(tmp_path / "bare.trc")
    dump_trace(source.trace(80), path)
    replay = TraceFileWorkload(path)
    assert replay.trace(80) == source.trace(80)
    assert replay.regions == []  # no map captured, nothing to warm


def test_regions_read_is_cached_even_when_empty(tmp_path, monkeypatch):
    """Repeated .regions accesses hit the cache, emptiness included —
    the warm-up path reads .regions more than once per cell."""
    import repro.workloads.tracefile as tracefile_module

    source = get_workload("eon")
    path = str(tmp_path / "bare.trc")
    dump_trace(source.trace(40), path)
    replay = TraceFileWorkload(path)
    assert replay.regions == []
    calls = []
    monkeypatch.setattr(
        tracefile_module,
        "read_trace_regions",
        lambda p: calls.append(p),
    )
    assert replay.regions == []
    assert calls == []  # cached; the file was not re-opened


def test_path_with_spec_delimiters_is_rejected_at_construction(tmp_path):
    """A path the grammar cannot round-trip must fail at construction,
    not later inside a pool worker re-parsing the canonical name."""
    for bad_name in ("runs,v2.trc", "cap(1).trc"):
        bad_dir = tmp_path / "d"
        bad_dir.mkdir(exist_ok=True)
        path = bad_dir / bad_name
        path.write_text("# repro-trace v1\n")
        with pytest.raises(SpecError, match="delimiter"):
            TraceFileWorkload(str(path))


def test_corrupt_capture_fingerprint_is_a_clean_error(tmp_path):
    """fingerprint() happens at store-keying time; a corrupt .gz must
    surface as TraceFormatError there too, not raw gzip errors."""
    path = tmp_path / "junk.trc.gz"
    path.write_bytes(b"this is not gzip data")
    workload = TraceFileWorkload(str(path))
    with pytest.raises(TraceFormatError, match="corrupt or truncated"):
        workload.fingerprint()


def test_directory_path_is_a_clean_error(tmp_path):
    """A directory satisfies the ctor's existence check but must still
    fail as a TraceFormatError, not a raw IsADirectoryError."""
    replay = TraceFileWorkload(str(tmp_path))
    with pytest.raises(TraceFormatError, match="cannot open trace"):
        replay.trace(10)
    with pytest.raises(TraceFormatError, match="cannot open trace"):
        replay.regions


def test_content_digest_is_one_pass_per_capture_identity(capture, tmp_path, monkeypatch):
    """Five phase workloads of one capture open it once; a capture
    replaced by rename is hashed again, even with identical bytes."""
    import repro.workloads.tracefile as tracefile_module
    from repro.workloads.phases import PhaseWorkload

    path, _ = capture
    opened = []
    real_open = tracefile_module._open_trace

    def counting_open(name):
        opened.append(name)
        return real_open(name)

    monkeypatch.setattr(tracefile_module, "_open_trace", counting_open)
    phases = [PhaseWorkload(path, index=index, interval=60) for index in range(5)]
    assert len({phase.fingerprint() for phase in phases}) == 5
    assert opened == [path]
    digest = TraceFileWorkload(path).content_digest()
    assert opened == [path]

    twin = str(tmp_path / "twin.trc.gz")
    shutil.copyfile(path, twin)
    os.replace(twin, path)
    assert TraceFileWorkload(path).content_digest() == digest
    assert opened == [path, path]

    other = str(tmp_path / "other.trc.gz")
    save_trace(get_workload("swim"), other, 300)
    os.replace(other, path)
    assert TraceFileWorkload(path).content_digest() != digest
    assert opened == [path, path, path]
