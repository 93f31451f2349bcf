"""Workload specs and workload axes through the sweep engine and CLI.

The workload side of the declarative layer, end to end: spec tokens
(``synth(...)``, ``trace(file=...)``) resolve into grid cells, workload
axes cross traits the way machine axes cross parameters, cells persist
and resume through the result store, and the spec-built cells share the
store keyspace with directly-built twins.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments import cli
from repro.experiments.common import Scale, WorkloadPool
from repro.experiments.sweep import (
    SWEEP_PRESETS,
    SweepSpec,
    expand_workload_tokens,
    resolve_workloads,
    run_sweep,
    sweep_grid,
)
from repro.machines import SpecError
from repro.memory.configs import DEFAULT_MEMORY
from repro.sim.config import DKIP_2048
from repro.sim.runner import run_core
from repro.store import ResultStore, cell_key
from repro.trace.io import save_trace
from repro.workloads import get_workload
from repro.workloads.synth import SynthWorkload

#: Tiny synth points: small footprints keep warm-up and simulation quick.
CHASE_A = "synth(footprint=64K,hot=16K,chase=2)"
CHASE_B = "synth(footprint=64K,hot=16K,chase=8)"


def test_resolve_workloads_accepts_specs_and_canonicalizes():
    resolved = resolve_workloads(("int", CHASE_A, "synth(chase=0)"), Scale.QUICK)
    assert resolved[CHASE_A] == ("synth(footprint=64K,hot=16K,chase=2)",)
    # Default-valued traits elide: the canonical cell name is "synth".
    assert resolved["synth(chase=0)"] == ("synth",)
    assert len(resolved["int"]) == 5


def test_resolve_workloads_error_names_specs():
    with pytest.raises(SpecError, match="unknown workload"):
        resolve_workloads(("quake3",), Scale.QUICK)
    with pytest.raises(SpecError, match=r"grammar: synth\("):
        resolve_workloads(("synth(warp=1)",), Scale.QUICK)


def test_expand_workload_tokens_crosses_axes():
    spec = SweepSpec(
        machines=("r10",),
        workloads=("synth(br=0.2)",),
        workload_axes=(("chase", ("0", "4")), ("mlp", ("1", "2"))),
    )
    assert expand_workload_tokens(spec) == (
        "synth(br=0.2,chase=0,mlp=1)",
        "synth(br=0.2,chase=0,mlp=2)",
        "synth(br=0.2,chase=4,mlp=1)",
        "synth(br=0.2,chase=4,mlp=2)",
    )


def test_expand_workload_tokens_rejects_suite_tokens():
    spec = SweepSpec(
        machines=("r10",),
        workloads=("int",),
        workload_axes=(("chase", ("0", "4")),),
    )
    with pytest.raises(SpecError, match="suite token"):
        expand_workload_tokens(spec)


def test_from_mapping_parses_workload_axes():
    spec = SweepSpec.from_mapping(
        {
            "machines": ["dkip"],
            "workloads": ["synth"],
            "workload_axes": {"chase": [0, 8]},
        }
    )
    assert spec.workload_axes == (("chase", ("0", "8")),)
    with pytest.raises(SpecError, match="axis"):
        SweepSpec.from_mapping(
            {"machines": ["r10"], "workload_axes": {"chase": []}}
        )


def test_sweep_grid_over_synth_specs_cold_then_warm(tmp_path):
    """The acceptance flow: a 2-point synth sweep runs end to end
    through the store cold, then warm with zero re-simulations."""
    spec = SweepSpec(
        name="synths",
        machines=("dkip(llib=1024)",),
        workloads=(CHASE_A, CHASE_B),
        instructions=500,
    )
    store = ResultStore(tmp_path / "store")
    grid = sweep_grid(spec, Scale.QUICK, jobs=1, store=store)
    assert store.writes == 2
    assert set(grid.benches) == {
        "synth(footprint=64K,hot=16K,chase=2)",
        "synth(footprint=64K,hot=16K,chase=8)",
    }
    for bench in grid.benches:
        assert grid.stats(0, 0, bench).committed == 500
        assert grid.stats(0, 0, bench).workload == bench
    warm = sweep_grid(spec, Scale.QUICK, jobs=1, store=store)
    assert store.writes == 2  # zero re-simulations
    assert store.hits == 2
    for bench in grid.benches:
        assert warm.stats(0, 0, bench).to_dict() == grid.stats(0, 0, bench).to_dict()


def test_sweep_cells_share_keyspace_with_direct_runs(tmp_path):
    """A spec-built sweep cell is the *same store cell* as a run over
    the directly-constructed workload twin."""
    store = ResultStore(tmp_path / "store")
    twin = SynthWorkload(footprint=64 * 1024, hot=16 * 1024, chase=2)
    stats = run_core(DKIP_2048, twin, 400)
    store.put(cell_key(DKIP_2048, twin, 400, DEFAULT_MEMORY), stats)
    spec = SweepSpec(
        name="shared",
        machines=("dkip",),
        workloads=(CHASE_A,),
        instructions=400,
    )
    grid = sweep_grid(spec, Scale.QUICK, jobs=1, store=store)
    assert store.writes == 1  # served entirely by the twin's cell
    assert store.hits == 1
    assert grid.stats(0, 0, twin.name).to_dict() == stats.to_dict()


def test_sweep_grid_over_trace_capture(tmp_path):
    """trace(file=...) workloads run through the grid like any other."""
    source = get_workload("eon")
    path = str(tmp_path / "eon.trc.gz")
    save_trace(source, path, 400)
    spec = SweepSpec(
        name="replay",
        machines=("r10(rob=32)",),
        workloads=(f"trace(file={path})",),
        instructions=400,
    )
    store = ResultStore(tmp_path / "store")
    grid = sweep_grid(spec, Scale.QUICK, jobs=1, store=store)
    replay_stats = grid.stats(0, 0, f"trace(file={path})")
    direct_stats = run_core(parse_r10_32(), get_workload("eon"), 400)
    a, b = replay_stats.to_dict(), direct_stats.to_dict()
    a.pop("workload"), b.pop("workload")
    assert a == b


def parse_r10_32():
    from repro.machines import parse_machine

    return parse_machine("r10(rob=32)")


def test_workload_pool_caches_spec_instances():
    pool = WorkloadPool()
    first = pool.get(CHASE_A)
    assert pool.get(CHASE_A) is first
    assert first.traits["chase"] == 2


def test_chase_preset_registered():
    assert "chase" in SWEEP_PRESETS
    spec = SWEEP_PRESETS["chase"].sweep_for(Scale.QUICK)
    assert spec.workload_axes
    assert expand_workload_tokens(spec) == (
        "synth(chase=0)",
        "synth(chase=4)",
        "synth(chase=16)",
    )
    # Canonicalization happens at resolve time: chase=0 is the default
    # point, so its grid cell is plain "synth".
    resolved = resolve_workloads(expand_workload_tokens(spec), Scale.QUICK)
    assert resolved["synth(chase=0)"] == ("synth",)


def test_run_sweep_rows_label_workload_specs(tmp_path):
    spec = SweepSpec(
        name="labels",
        machines=("r10(rob=32)",),
        workloads=(CHASE_A,),
        instructions=400,
    )
    result = run_sweep(spec, Scale.QUICK, jobs=1)
    assert result.rows[0][0] == "R10-32"
    assert result.rows[0][2] == CHASE_A
    assert result.charts  # the generic bar chart renders per token


# ----------------------------------------------------------------------
# CLI end to end
# ----------------------------------------------------------------------


def test_cli_sweep_workload_specs_cold_then_warm(tmp_path, capsys):
    """`dkip-experiments sweep --workloads "synth(...),synth(...)"` runs
    end to end through the store (the issue's acceptance criterion)."""
    store_dir = str(tmp_path / "store")
    argv = [
        "sweep",
        "--machines", "dkip(llib=1024)",
        "--workloads", f"{CHASE_A},{CHASE_B}",
        "--scale", "quick",
        "--instructions", "500",
        "--store", store_dir,
    ]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert "2 simulated" in out
    assert CHASE_A in out and CHASE_B in out
    assert cli.main(argv) == 0
    assert "2 cells cached, 0 simulated" in capsys.readouterr().out


def test_cli_sweep_workload_axes_flag(tmp_path, capsys):
    assert (
        cli.main(
            [
                "sweep",
                "--machines", "r10(rob=32)",
                "--workloads", "synth(footprint=64K,hot=16K)",
                "--workload-axes", "chase=2,8",
                "--scale", "quick",
                "--instructions", "400",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "chase=2" in out and "chase=8" in out


def test_cli_sweep_malformed_workload_axes(capsys):
    assert (
        cli.main(
            [
                "sweep",
                "--machines", "r10",
                "--workloads", "synth",
                "--workload-axes", "chase",
            ]
        )
        == 2
    )
    assert "--workload-axes" in capsys.readouterr().err


def test_cli_sweep_bad_workload_spec_is_clean(capsys):
    assert (
        cli.main(["sweep", "--machines", "r10", "--workloads", "synth(warp=1)"])
        == 2
    )
    assert "grammar: synth(" in capsys.readouterr().err


def test_cli_scenario_file_with_workload_axes(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        json.dumps(
            {
                "name": "wl-axes",
                "machines": ["r10(rob=32)"],
                "workloads": ["synth(footprint=64K,hot=16K)"],
                "workload_axes": {"chase": [2, 8]},
                "instructions": 400,
            }
        )
    )
    assert cli.main(["sweep", str(scenario), "--scale", "quick"]) == 0
    out = capsys.readouterr().out
    assert "wl-axes" in out and "chase=2" in out and "chase=8" in out


def test_cli_workloads_subcommand(capsys):
    assert cli.main(["workloads"]) == 0
    out = capsys.readouterr().out
    assert "workload kinds" in out
    for fragment in ("bench", "synth(", "trace(file=", "mcf", "swim"):
        assert fragment in out
