"""The machine-kind registry: construction goes through one table."""

from dataclasses import dataclass

import pytest

from repro.baselines.kilo import KiloCore
from repro.baselines.limit import LimitCore
from repro.baselines.ooo import R10Core
from repro.baselines.runahead import RunaheadCore
from repro.branch import make_predictor
from repro.core.dkip import DkipProcessor
from repro.experiments.common import WorkloadPool, run_cells
from repro.fingerprint import Fingerprintable
from repro.machines import (
    build_machine,
    get_kind,
    kind_of,
    machine_kinds,
    parse_machine,
)
from repro.memory import DEFAULT_MEMORY, MemoryHierarchy
from repro.sim.config import (
    DKIP_2048,
    KILO_1024,
    R10_64,
    CoreConfig,
    LimitMachine,
    RunaheadConfig,
)
from repro.sim.runner import build_core, run_core
from repro.store import ResultStore
from repro.workloads import get_workload


def _build(config):
    hierarchy = MemoryHierarchy(DEFAULT_MEMORY)
    return build_machine(config, iter([]), hierarchy, make_predictor("perceptron"))


def test_all_builtin_kinds_registered():
    kinds = machine_kinds()
    assert {"r10", "kilo", "dkip", "runahead", "limit"} <= set(kinds)
    for kind in kinds.values():
        assert kind.grammar and kind.description


def test_build_machine_instantiates_each_kind():
    assert isinstance(_build(R10_64), R10Core)
    assert isinstance(_build(KILO_1024), KiloCore)
    assert isinstance(_build(DKIP_2048), DkipProcessor)
    assert isinstance(_build(RunaheadConfig()), RunaheadCore)
    assert isinstance(_build(LimitMachine(rob_size=64)), LimitCore)


def test_build_core_delegates_to_registry():
    hierarchy = MemoryHierarchy(DEFAULT_MEMORY)
    core = build_core(R10_64, iter([]), hierarchy, make_predictor("perceptron"))
    assert isinstance(core, R10Core)


def test_kind_of_and_get_kind_agree():
    assert kind_of(DKIP_2048) is get_kind("dkip")
    assert kind_of(LimitMachine()) is get_kind("limit")
    assert get_kind("DKIP") is get_kind("dkip")  # case-insensitive


def test_unregistered_config_raises_type_error():
    with pytest.raises(TypeError):
        build_machine(object(), iter([]), None, None)


def test_get_kind_unknown_lists_registered():
    with pytest.raises(ValueError, match="registered kinds"):
        get_kind("z80")


def test_machines_cli_lists_kinds_and_presets(capsys):
    from repro.experiments.cli import main

    assert main(["machines"]) == 0
    out = capsys.readouterr().out
    for expected in ("dkip(", "r10(", "R10-64", "D-KIP-2048", "Figure 9",
                     "sweep presets", "fig9"):
        assert expected in out


@dataclass(frozen=True)
class _ExternalConfig(Fingerprintable):
    """A machine kind defined outside the package."""

    name: str = "EXT-32"
    rob_size: int = 32
    predictor: str = "perceptron"


def test_a_kind_registered_outside_the_package_with_an_eager_build_runs(
    tmp_path, monkeypatch
):
    from repro.machines import MachineKind, register_machine, registry

    registry.ensure_builtin_kinds()  # the copies below must hold them
    monkeypatch.setattr(registry, "_KINDS", dict(registry._KINDS))
    monkeypatch.setattr(registry, "_BY_CONFIG", dict(registry._BY_CONFIG))
    core = CoreConfig(name="EXT-32", rob_size=32)

    def build(config, trace, hierarchy, predictor, stats=None):
        # Eager: the model class was imported with this module.
        return R10Core(trace, core, hierarchy, predictor, stats)

    register_machine(
        MachineKind(
            name="ext",
            config_cls=_ExternalConfig,
            build=build,
            parse=lambda params: _ExternalConfig(),
            grammar="ext()",
        )
    )
    store = ResultStore(tmp_path)
    cells = [(parse_machine("ext"), "mcf", DEFAULT_MEMORY)]
    (stats,) = run_cells(cells, 400, WorkloadPool(), jobs=1, store=store)
    assert stats.to_dict() == run_core(core, get_workload("mcf"), 400).to_dict()
    (served,) = run_cells(cells, 400, WorkloadPool(), jobs=1, store=store)
    assert store.hits == 1 and served.to_dict() == stats.to_dict()
