"""The generic sweep engine: declarative grids, presets, CLI, store reuse."""

from __future__ import annotations

import json

import pytest

from repro.experiments import cli
from repro.experiments.sweep import (
    SCENARIOS,
    SweepSpec,
    expand_machines,
    resolve_workloads,
    run_sweep,
    sweep_grid,
)
from repro.experiments.common import Scale
from repro.experiments.registry import REGISTRY
from repro.machines import SpecError
from repro.sim.config import DKIP_2048
from repro.store import ResultStore

#: Tiny grid used throughout: cheap machines, one short benchmark each.
TINY = SweepSpec(
    name="tiny",
    machines=("r10(rob=32)", "limit(rob=64,histogram=off)"),
    memory=("default",),
    workloads=("mcf", "swim"),
    instructions=600,
)


def test_from_mapping_validates():
    spec = SweepSpec.from_mapping(
        {"machines": ["dkip"], "axes": {"llib": [1024, 2048]}, "workloads": "fp"}
    )
    assert spec.machines == ("dkip",)
    assert spec.axes == (("llib", ("1024", "2048")),)
    assert spec.workloads == ("fp",)
    with pytest.raises(SpecError, match="at least one machine"):
        SweepSpec.from_mapping({})
    with pytest.raises(SpecError, match="unknown sweep key"):
        SweepSpec.from_mapping({"machines": ["r10"], "turbo": True})
    with pytest.raises(SpecError, match="axis"):
        SweepSpec.from_mapping({"machines": ["r10"], "axes": {"llib": []}})
    with pytest.raises(SpecError, match="integer"):
        SweepSpec.from_mapping({"machines": ["r10"], "instructions": "many"})
    with pytest.raises(SpecError, match="positive"):
        SweepSpec.from_mapping({"machines": ["r10"], "instructions": 0})
    with pytest.raises(SpecError, match="positive"):
        sweep_grid(SweepSpec(machines=("r10",), instructions=-5), Scale.QUICK)


def test_expand_machines_crosses_axes_in_product_order():
    spec = SweepSpec(
        machines=("dkip",),
        axes=(("cp", ("INO", "OOO-20")), ("mp", ("INO", "OOO-40"))),
    )
    machines = expand_machines(spec)
    assert [m.axes for m in machines] == [
        (("cp", "INO"), ("mp", "INO")),
        (("cp", "INO"), ("mp", "OOO-40")),
        (("cp", "OOO-20"), ("mp", "INO")),
        (("cp", "OOO-20"), ("mp", "OOO-40")),
    ]
    # Axis-built configs are the with_cp/with_mp twins, bit for bit.
    assert machines[3].config == DKIP_2048.with_cp("OOO-20").with_mp("OOO-40")
    assert (
        machines[3].config.fingerprint()
        == DKIP_2048.with_cp("OOO-20").with_mp("OOO-40").fingerprint()
    )


def test_expand_machines_disambiguates_duplicate_names():
    # iq does not rename, so both expansions keep the default name and
    # labels must fall back to the spec string.
    spec = SweepSpec(machines=("r10(iq=20)", "r10(iq=60)"))
    labels = [m.label for m in expand_machines(spec)]
    assert labels == ["r10(iq=20)", "r10(iq=60)"]


def test_resolve_workloads_tokens():
    resolved = resolve_workloads(("int", "mcf"), Scale.QUICK)
    assert "mcf" in resolved and resolved["mcf"] == ("mcf",)
    assert len(resolved["int"]) == 5  # quick subset
    with pytest.raises(SpecError, match="unknown workload"):
        resolve_workloads(("quake3",), Scale.QUICK)


def test_sweep_grid_runs_and_indexes():
    grid = sweep_grid(TINY, Scale.QUICK, jobs=1)
    assert len(grid.machines) == 2 and len(grid.memories) == 1
    assert grid.benches == ("mcf", "swim")
    for mi in range(2):
        for bench in grid.benches:
            stats = grid.stats(mi, 0, bench)
            assert stats.committed == 600
            assert stats.workload == bench
    assert grid.mean_ipc(0, 0, "mcf") == grid.stats(0, 0, "mcf").ipc


def test_run_sweep_cold_then_warm_store(tmp_path):
    store = ResultStore(tmp_path / "store")
    cold = run_sweep(TINY, Scale.QUICK, store=store, jobs=1)
    assert store.writes == 4  # 2 machines x 2 benchmarks
    warm = run_sweep(TINY, Scale.QUICK, store=store, jobs=1)
    assert store.writes == 4  # nothing recomputed
    assert store.hits == 4
    assert warm.rows == cold.rows
    assert cold.headers[0] == "machine"
    # Generic formatting: one row per (machine, memory, workload token).
    assert len(cold.rows) == 4


def test_sweep_shares_the_figure_store_keyspace(tmp_path):
    """A sweep over a figure's machines reuses the figure's cells."""
    store = ResultStore(tmp_path / "store")
    run_sweep(TINY, Scale.QUICK, store=store, jobs=1)
    writes = store.writes
    again = SweepSpec(
        name="again",
        machines=("r10(rob=32)",),
        workloads=("mcf",),
        instructions=600,
    )
    run_sweep(again, Scale.QUICK, store=store, jobs=1)
    assert store.writes == writes  # fully served from the tiny grid's cells


def test_fig_presets_registered():
    """Every experiment but table1 and sampling is a grid and a table,
    and its grid at any scale carries the experiment's name."""
    grids = [name for name, e in REGISTRY.items() if e.grid is not None]
    assert len(grids) == 15
    assert set(REGISTRY) - set(grids) == {"table1", "sampling"}
    for name in grids:
        assert REGISTRY[name].table is not None
        for scale in Scale:
            assert REGISTRY[name].grid(scale).name == name
    assert set(SCENARIOS) == {"chase"} and not set(SCENARIOS) & set(REGISTRY)


def test_cli_adhoc_sweep_with_svg_and_store(tmp_path, capsys):
    store_dir = tmp_path / "store"
    svg_path = tmp_path / "sweep.svg"
    argv = [
        "sweep",
        "--machines", "r10(rob=32),limit(rob=64,histogram=off)",
        "--workloads", "mcf",
        "--scale", "quick",
        "--instructions", "600",
        "--store", str(store_dir),
        "--svg", str(svg_path),
    ]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert "R10-32" in out
    assert "2 cells cached" not in out and "2 simulated" in out
    assert svg_path.exists() and svg_path.read_text().startswith("<svg")
    # Warm re-run simulates nothing.
    assert cli.main(argv[:-2]) == 0
    out = capsys.readouterr().out
    assert "2 cells cached, 0 simulated" in out


def test_cli_sweep_scenario_file(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        json.dumps(
            {
                "name": "file-sweep",
                "machines": ["r10"],
                "axes": {"rob": [32, 48]},
                "workloads": ["mcf"],
                "instructions": 600,
            }
        )
    )
    assert cli.main(["sweep", str(scenario), "--scale", "quick"]) == 0
    out = capsys.readouterr().out
    assert "file-sweep" in out and "R10-32" in out and "R10-48" in out


def test_cli_sweep_requires_machines(capsys):
    assert cli.main(["sweep"]) == 2
    assert "--machines" in capsys.readouterr().err


def test_cli_sweep_bad_spec_is_a_clean_error(capsys):
    assert cli.main(["sweep", "--machines", "warp-drive"]) == 2
    err = capsys.readouterr().err
    assert "unknown machine kind" in err


def test_cli_sweep_unknown_preset(capsys):
    assert cli.main(["sweep", "fig99"]) == 2
    assert "unknown sweep preset" in capsys.readouterr().err


@pytest.mark.slow
def test_cli_sweep_fig9_preset_matches_direct_run(tmp_path, capsys):
    """The acceptance criterion: `sweep fig9` is the fig9 table."""
    from repro.experiments.registry import get_experiment

    store_dir = str(tmp_path / "store")
    assert cli.main(["sweep", "fig9", "--scale", "quick", "--store", store_dir]) == 0
    out = capsys.readouterr().out
    # The direct harness run against the same warm store must agree cell
    # for cell with what the sweep preset printed.
    direct = get_experiment("fig9")("quick", store=ResultStore(store_dir))
    for row in direct.rows:
        for value in row:
            assert str(value) in out
    assert direct.render().splitlines()[1] in out  # header row, verbatim
