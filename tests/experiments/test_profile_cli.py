"""The ``profile`` subcommand: stage attribution and one profiled cell."""

from __future__ import annotations

import os

import pytest

from repro.experiments import cli


def _repro_file(subpath: str) -> str:
    return os.path.join(os.sep, "site", "src", "repro", *subpath.split("/"))


@pytest.mark.parametrize(
    "subpath,stage",
    [
        ("isa/latencies.py", "isa (latencies, operands)"),
        ("isa/instructions.py", "isa (latencies, operands)"),
        ("baselines/limit.py", "limit core (one-pass)"),
        ("baselines/ooo.py", "baseline core model"),
        ("sim/stats.py", "stats + histograms"),
        ("workloads/specint.py", "trace generation"),
        ("trace/kernel.py", "trace generation"),
    ],
)
def test_profile_stage_labels(subpath, stage):
    # isa runs at execute time (latency_of), after the trace is generated
    assert cli._profile_stage(_repro_file(subpath)) == stage


def test_profile_limit_cell_runs(capsys):
    argv = ["profile", "limit(rob=128)", "mcf", "MEM-400", "--instructions", "2000"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert "limit-rob-128 × mcf × MEM-400: 2000 instructions" in out
    assert "limit core (one-pass)" in out
