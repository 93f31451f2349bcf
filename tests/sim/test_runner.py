"""Unit tests for run orchestration."""

from dataclasses import replace

import pytest

from repro.branch import AlwaysTakenPredictor
from repro.machines import SpecError, parse_machine
from repro.memory import DEFAULT_MEMORY, MemoryHierarchy
from repro.sim.config import DKIP_2048, KILO_1024, R10_64
from repro.sim.runner import build_core, run_core, simulate
from repro.workloads import get_workload


def test_build_core_dispatches_on_config_type():
    from repro.baselines.kilo import KiloCore
    from repro.baselines.ooo import R10Core
    from repro.core.dkip import DkipProcessor

    h = MemoryHierarchy(DEFAULT_MEMORY)
    p = AlwaysTakenPredictor()
    assert isinstance(build_core(R10_64, iter([]), h, p), R10Core)
    assert isinstance(build_core(KILO_1024, iter([]), h, p), KiloCore)
    assert isinstance(build_core(DKIP_2048, iter([]), h, p), DkipProcessor)


def test_build_core_rejects_unknown_config():
    with pytest.raises(TypeError):
        build_core(object(), iter([]), None, None)


def test_simulate_runs_a_materialized_trace():
    workload = get_workload("eon")
    trace = workload.trace(600)
    stats = simulate(R10_64, trace, regions=workload.regions)
    assert stats.committed == 600
    assert stats.config == "R10-64"
    assert stats.branch_predictions > 0


def test_run_core_stamps_workload_name():
    stats = run_core(R10_64, get_workload("eon"), 400)
    assert stats.workload == "eon"
    assert stats.committed == 400


def test_warmup_changes_results():
    workload = get_workload("gzip")
    trace = workload.trace(1_500)
    warm = simulate(R10_64, trace, regions=workload.regions)
    cold = simulate(R10_64, trace)
    assert warm.cycles < cold.cycles  # cold misses hurt


def test_predictor_comes_from_the_machine_config():
    workload = get_workload("eon")
    trace = workload.trace(500)
    always = simulate(replace(R10_64, predictor="always-taken"), trace)
    perceptron = simulate(R10_64, trace)
    assert always.branch_predictions == perceptron.branch_predictions
    assert perceptron.branch_mispredictions <= always.branch_mispredictions


ORACLE_FRONT_ENDS = {
    "r10": parse_machine("r10(predictor=oracle)"),
    "runahead": parse_machine("runahead(predictor=oracle)"),
    "kilo": replace(KILO_1024, core=replace(KILO_1024.core, predictor="oracle")),
    "dkip": replace(
        DKIP_2048,
        cache_processor=replace(DKIP_2048.cache_processor, predictor="oracle"),
    ),
}


@pytest.mark.parametrize("kind", sorted(ORACLE_FRONT_ENDS))
def test_front_end_predictor_reaches_the_core(kind):
    config = ORACLE_FRONT_ENDS[kind]
    assert config.predictor == "oracle"
    stats = run_core(config, get_workload("gcc"), 3_000)
    assert stats.branch_predictions > 0
    assert stats.branch_mispredictions == 0


def test_runahead_oracle_differs_from_the_default_predictor():
    workload = get_workload("gcc")
    default = run_core(parse_machine("runahead"), workload, 3_000)
    oracle = run_core(parse_machine("runahead(predictor=oracle)"), workload, 3_000)
    assert default.branch_mispredictions > 0
    assert oracle.ipc > default.ipc


@pytest.mark.parametrize("kind", ["r10", "runahead"])
def test_bad_predictor_spec_names_the_grammar(kind):
    with pytest.raises(SpecError, match=rf"{kind}: bad predictor spec 'bogus'.*grammar: "):
        parse_machine(f"{kind}(predictor=bogus)")


def test_predictor_spec_is_canonicalized_at_parse_time():
    assert parse_machine("r10(predictor=Static)") == parse_machine("r10(predictor=static)")
    assert parse_machine("runahead(predictor= gshare )").predictor == "gshare"


def test_runs_are_reproducible():
    workload = get_workload("swim")
    a = run_core(DKIP_2048, workload, 800)
    b = run_core(DKIP_2048, workload, 800)
    assert a.cycles == b.cycles
    assert a.llib_insertions == b.llib_insertions
