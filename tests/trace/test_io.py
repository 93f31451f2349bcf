"""Unit and property tests for trace serialization."""

import gzip

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import Instruction, OpClass
from repro.trace.io import (
    TraceFormatError,
    dump_trace,
    load_trace,
    read_trace_regions,
    save_trace,
)
from repro.workloads import get_workload


def test_round_trip_workload_trace(tmp_path):
    trace = get_workload("mcf").trace(500)
    path = str(tmp_path / "mcf.trace")
    assert dump_trace(trace, path) == 500
    loaded = list(load_trace(path))
    assert loaded == trace


def test_round_trip_gzip(tmp_path):
    trace = get_workload("swim").trace(300)
    path = str(tmp_path / "swim.trace.gz")
    dump_trace(trace, path)
    assert list(load_trace(path)) == trace
    import os

    raw = str(tmp_path / "swim.trace")
    dump_trace(trace, raw)
    assert os.path.getsize(path) < os.path.getsize(raw)


def test_header_is_checked(tmp_path):
    path = tmp_path / "bad.trace"
    path.write_text("not a trace\n")
    with pytest.raises(ValueError, match="not a repro trace"):
        list(load_trace(str(path)))


def test_malformed_record_reports_line(tmp_path):
    path = tmp_path / "bad.trace"
    path.write_text("# repro-trace v1\ngarbage\n")
    with pytest.raises(ValueError, match=":2:"):
        list(load_trace(str(path)))


def test_blank_lines_and_comments_skipped(tmp_path):
    trace = get_workload("eon").trace(10)
    path = str(tmp_path / "t.trace")
    dump_trace(trace, path)
    with open(path) as f:
        content = f.read()
    with open(path, "w") as f:
        f.write(content.replace("\n", "\n# comment\n\n", 1))
    assert list(load_trace(path)) == trace


def test_missing_file_is_a_clean_error():
    with pytest.raises(TraceFormatError, match="does not exist"):
        list(load_trace("/no/such/trace.trc"))
    with pytest.raises(TraceFormatError, match="does not exist"):
        read_trace_regions("/no/such/trace.trc.gz")


def test_unopenable_path_is_a_clean_error(tmp_path):
    """Open-time OSErrors beyond FileNotFoundError (directory path,
    permission denial) honour the TraceFormatError contract too."""
    with pytest.raises(TraceFormatError, match="cannot open trace"):
        list(load_trace(str(tmp_path)))
    with pytest.raises(TraceFormatError, match="cannot open trace"):
        read_trace_regions(str(tmp_path))


def test_truncated_gzip_raises_trace_format_error(tmp_path):
    """A capture cut off mid-stream (killed writer, partial copy) must
    surface as TraceFormatError, not a raw EOFError from gzip."""
    trace = get_workload("swim").trace(300)
    path = tmp_path / "swim.trc.gz"
    dump_trace(trace, str(path))
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(TraceFormatError, match="corrupt or truncated"):
        list(load_trace(str(path)))


def test_corrupt_gzip_raises_trace_format_error(tmp_path):
    """Binary junk with a .gz name is a format error, not a BadGzipFile
    leaking out of the parser (and no file handle leaks with it)."""
    path = tmp_path / "junk.trc.gz"
    path.write_bytes(b"this is not gzip data at all")
    with pytest.raises(TraceFormatError, match="corrupt or truncated"):
        list(load_trace(str(path)))
    with pytest.raises(TraceFormatError):
        read_trace_regions(str(path))


def test_gzip_with_binary_payload_raises_trace_format_error(tmp_path):
    """A valid gzip stream whose payload is not text still fails clean."""
    path = tmp_path / "binary.trc.gz"
    with gzip.open(path, "wb") as handle:
        handle.write(bytes(range(256)) * 16)
    with pytest.raises(TraceFormatError):
        list(load_trace(str(path)))


def test_trace_format_error_is_a_value_error():
    """Callers that caught ValueError before the subclass existed keep
    working."""
    assert issubclass(TraceFormatError, ValueError)


_VALID = "0 100 INT_ALU 1 2,3 - 8 - -"

#: Nine whitespace-separated fields but one malformed, or a wrong field
#: count; each is line 3 of a file whose line 2 is valid.
_BAD_RECORDS = {
    "bad-int": "x1 100 INT_ALU 1 2,3 - 8 - -",
    "bad-size": "0 100 INT_ALU 1 2,3 - eight - -",
    "bad-hex": "0 10g INT_ALU 1 2,3 - 8 - -",
    "bad-address-hex": "0 100 LOAD 1 2 0xq 8 - -",
    "unknown-op": "0 100 WARP - - - 8 - -",
    "lower-case-op": "0 100 int_alu 1 2,3 - 8 - -",
    "bad-bool": "0 100 BRANCH - 1 - 8 Y 140",
    "three-sources": "0 100 INT_ALU 1 2,3,4 - 8 - -",
    "bad-source": "0 100 INT_ALU 1 2,x - 8 - -",
    "dest-register-64": "0 100 INT_ALU 64 2,3 - 8 - -",
    "source-register-64": "0 100 INT_ALU 1 2,64 - 8 - -",
    "load-without-address": "0 100 LOAD 1 2 - 8 - -",
    "branch-without-outcome": "0 100 BRANCH - 1 - 8 - 140",
    "eight-fields": "0 100 INT_ALU 1 2,3 - 8 -",
    "ten-fields": "0 100 INT_ALU 1 2,3 - 8 - - -",
}


@pytest.mark.parametrize("case", sorted(_BAD_RECORDS))
@pytest.mark.parametrize("suffix", [".trace", ".trc.gz"])
def test_malformed_field_names_path_line_and_record(tmp_path, case, suffix):
    record = _BAD_RECORDS[case]
    path = str(tmp_path / f"bad{suffix}")
    opener = gzip.open if suffix.endswith(".gz") else open
    with opener(path, "wt") as handle:
        handle.write(f"# repro-trace v1\n{_VALID}\n  {record}  \n{_VALID}\n")
    with pytest.raises(TraceFormatError) as error:
        list(load_trace(path))
    assert f"{path}:3: malformed record: {record!r}" in str(error.value)
    # The same record is rejected again on a second read.
    with pytest.raises(TraceFormatError, match=":3:"):
        list(load_trace(path))


def test_indented_comments_and_blank_lines_skipped(tmp_path):
    trace = get_workload("swim").trace(20)
    path = str(tmp_path / "t.trace")
    dump_trace(trace, path)
    with open(path) as handle:
        header, *records = handle.read().splitlines()
    noise = ["   # indented comment", "\t#tabbed", "", "   ", "\t \t", "#"]
    lines = [header]
    for index, record in enumerate(records):
        lines.extend((noise[index % len(noise)], f"  {record}\t"))
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    assert list(load_trace(path)) == trace


def test_decoded_records_share_source_tuples(tmp_path):
    path = str(tmp_path / "t.trace")
    dump_trace(get_workload("mcf").trace(400), path)
    by_srcs = {}
    for instr in load_trace(path):
        assert by_srcs.setdefault(instr.srcs, instr.srcs) is instr.srcs


def test_full_srcs_memo_still_decodes(tmp_path, monkeypatch):
    """Past the memo's cap, tokens are parsed per record and not kept."""
    from repro.trace import io as trace_io

    monkeypatch.setattr(trace_io, "_SRCS", {"-": ()})
    monkeypatch.setattr(trace_io, "_SRCS_CAP", 2)
    trace = get_workload("gcc").trace(300)
    path = str(tmp_path / "t.trace")
    dump_trace(trace, path)
    assert list(load_trace(path)) == trace
    assert len(trace_io._SRCS) == 2


class _Interrupted(RuntimeError):
    pass


def _interrupted(trace, after):
    for index, instr in enumerate(trace):
        if index == after:
            raise _Interrupted("generator died mid-dump")
        yield instr


@pytest.mark.parametrize("name", ["cap.trc.gz", "cap.trace"])
def test_interrupted_dump_leaves_no_file_and_no_temp(tmp_path, name):
    trace = get_workload("mcf").trace(3000)
    path = str(tmp_path / name)
    with pytest.raises(_Interrupted):
        dump_trace(_interrupted(trace, 2000), path, regions=[(0x1000, 64)])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["cap.trc.gz", "cap.trace"])
def test_interrupted_dump_keeps_the_previous_file(tmp_path, name):
    workload = get_workload("swim")
    path = str(tmp_path / name)
    assert save_trace(workload, path, 500) == 500
    before = open(path, "rb").read()
    with pytest.raises(_Interrupted):
        dump_trace(_interrupted(get_workload("mcf").trace(3000), 2000), path)
    assert open(path, "rb").read() == before
    assert [p.name for p in tmp_path.iterdir()] == [name]
    assert list(load_trace(path)) == workload.trace(500)
    assert read_trace_regions(path) == workload.regions


def test_dump_replaces_an_existing_file(tmp_path):
    path = str(tmp_path / "cap.trc.gz")
    save_trace(get_workload("swim"), path, 50)
    save_trace(get_workload("eon"), path, 80)
    assert list(load_trace(path)) == get_workload("eon").trace(80)
    assert [p.name for p in tmp_path.iterdir()] == ["cap.trc.gz"]


def test_region_map_round_trips(tmp_path):
    workload = get_workload("mcf")
    path = str(tmp_path / "mcf.trc.gz")
    assert save_trace(workload, path, 200) == 200
    assert read_trace_regions(path) == workload.regions
    # Region comments are invisible to the instruction reader.
    assert list(load_trace(path)) == workload.trace(200)


def test_region_map_defaults_to_empty(tmp_path):
    path = str(tmp_path / "bare.trace")
    dump_trace(get_workload("eon").trace(50), path)
    assert read_trace_regions(path) == []


def test_malformed_region_comment_is_an_error(tmp_path):
    path = tmp_path / "bad.trace"
    path.write_text("# repro-trace v1\n# region zzz\n")
    with pytest.raises(TraceFormatError, match="malformed region"):
        read_trace_regions(str(path))


def test_region_scan_stops_at_first_record(tmp_path):
    """Only the header block is scanned: a region-shaped comment after
    records is commentary, not data."""
    workload = get_workload("eon")
    path = str(tmp_path / "t.trace")
    dump_trace(workload.trace(10), path, regions=[(0x1000, 64)])
    with open(path, "a") as handle:
        handle.write("# region ffff 4096\n")
    assert read_trace_regions(path) == [(0x1000, 64)]


_ops = st.sampled_from(list(OpClass))


@st.composite
def instructions(draw, seq):
    op = draw(_ops)
    is_mem = op in (OpClass.LOAD, OpClass.STORE, OpClass.FP_LOAD, OpClass.FP_STORE)
    is_branch = op in (OpClass.BRANCH, OpClass.JUMP)
    return Instruction(
        seq=seq,
        pc=draw(st.integers(0, 1 << 32)),
        op=op,
        dest=draw(st.one_of(st.none(), st.integers(0, 63))),
        srcs=tuple(draw(st.lists(st.integers(0, 63), max_size=2))),
        addr=draw(st.integers(0, 1 << 40)) if is_mem else None,
        size=draw(st.sampled_from([1, 2, 4, 8])),
        taken=draw(st.booleans()) if is_branch else None,
        target=draw(st.one_of(st.none(), st.integers(0, 1 << 32))) if is_branch else None,
    )


@settings(max_examples=30, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=40))
def test_property_round_trip_is_exact(data, n):
    import os
    import tempfile

    trace = [data.draw(instructions(seq=i)) for i in range(n)]
    fd, path = tempfile.mkstemp(suffix=".trace")
    os.close(fd)
    try:
        dump_trace(trace, path)
        assert list(load_trace(path)) == trace
    finally:
        os.unlink(path)
