"""Every figure harness plans the cells its hand-built list used to.

The harnesses declare their grids as :class:`SweepSpec` data and run
them through ``sweep_grid``.  Before that, each built a ``(config,
benchmark, memory)`` list by hand; ``REFERENCE`` restates that code
here, with its constants written out.  A harness must plan exactly the
reference cells, by store digest, at quick and at default scale, so no
stored cell moves.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments import sweep
from repro.experiments.common import Scale, WorkloadPool, suite_names
from repro.experiments.registry import get_experiment
from repro.memory import DEFAULT_MEMORY, TABLE1_CONFIGS
from repro.memory.configs import KB, MB
from repro.sim.config import (
    DKIP_2048,
    KILO_1024,
    R10_64,
    R10_256,
    LimitMachine,
    RunaheadConfig,
)
from repro.store import cell_key

#: Committed instructions per cell at each pinned scale.
INSTRUCTIONS = {Scale.QUICK: 4_000, Scale.DEFAULT: 10_000}


def window_cells(scale, suite):
    windows = (
        (32, 128, 1024, 4096)
        if scale == Scale.QUICK
        else (32, 48, 64, 128, 256, 512, 1024, 2048, 4096)
    )
    mem_names = (
        ("L1-2", "MEM-100", "MEM-400") if scale == Scale.QUICK else tuple(TABLE1_CONFIGS)
    )
    machines = [LimitMachine(rob_size=w, record_histogram=False) for w in windows]
    return [
        (machine, bench, TABLE1_CONFIGS[mem_name])
        for mem_name in mem_names
        for bench in suite_names(suite, scale)
        for machine in machines
    ]


def locality_cells(scale):
    machine = LimitMachine(rob_size=None, record_histogram=True)
    return [(machine, bench, DEFAULT_MEMORY) for bench in suite_names("fp", scale)]


def cache_cells(scale, suite):
    if scale == Scale.QUICK:
        sizes = (64 * KB, 512 * KB, 4 * MB)
        configs = (("INO", "INO"), ("OOO-80", "OOO-40"))
    else:
        sizes = (64 * KB, 256 * KB, 512 * KB, 1 * MB, 4 * MB)
        configs = (
            ("INO", "INO"), ("OOO-20", "INO"), ("OOO-80", "INO"), ("OOO-80", "OOO-40"),
        )
    machines = [R10_256]
    machines += [DKIP_2048.with_cp(cp).with_mp(mp) for cp, mp in configs]
    memories = [DEFAULT_MEMORY.with_l2_size(size) for size in sizes]
    return [
        (machine, name, memory)
        for machine in machines
        for memory in memories
        for name in suite_names(suite, scale)
    ]


def occupancy_cells(scale, suite):
    return [(DKIP_2048, bench, DEFAULT_MEMORY) for bench in suite_names(suite, scale)]


def suite_cells(configs, names):
    return [(config, name, DEFAULT_MEMORY) for config in configs for name in names]


def timer_cells(scale):
    configs = [
        dataclasses.replace(
            DKIP_2048,
            name=f"timer-{timer}",
            rob_timer=timer,
            cache_processor=dataclasses.replace(
                DKIP_2048.cache_processor, rob_size=timer * 4
            ),
        )
        for timer in (4, 8, 16, 32, 64)
    ]
    return suite_cells(configs, suite_names("fp", scale))


def llib_cells(scale):
    configs = [
        dataclasses.replace(DKIP_2048, name=f"llib-{size}", llib_size=size)
        for size in (64, 256, 1024, 2048, 4096)
    ]
    return suite_cells(configs, suite_names("fp", scale) + suite_names("int", scale))


def predictor_cells(scale):
    configs = [
        dataclasses.replace(
            DKIP_2048,
            cache_processor=dataclasses.replace(
                DKIP_2048.cache_processor, predictor=predictor
            ),
        )
        for predictor in ("perceptron", "gshare", "bimodal", "always-taken")
    ]
    return suite_cells(configs, suite_names("int", scale))


def runahead_cells(scale):
    configs = (R10_64, RunaheadConfig(), KILO_1024, DKIP_2048)
    return suite_cells(configs, suite_names("fp", scale))


#: experiment name -> the cell list its harness used to build by hand.
REFERENCE = {
    "fig1": lambda scale: window_cells(scale, "int"),
    "fig2": lambda scale: window_cells(scale, "fp"),
    "fig3": locality_cells,
    "fig11": lambda scale: cache_cells(scale, "int"),
    "fig12": lambda scale: cache_cells(scale, "fp"),
    "fig13": lambda scale: occupancy_cells(scale, "int"),
    "fig14": lambda scale: occupancy_cells(scale, "fp"),
    "ablation-timer": timer_cells,
    "ablation-llib": llib_cells,
    "ablation-predictor": predictor_cells,
    "ablation-runahead": runahead_cells,
}


class Planned(Exception):
    """Raised in place of running the planned cells."""


def digests(cells, instructions, pool):
    return sorted(
        cell_key(config, pool.get(bench), instructions, memory).digest
        for config, bench, memory in cells
    )


@pytest.mark.parametrize("scale", list(INSTRUCTIONS))
@pytest.mark.parametrize("name", list(REFERENCE))
def test_harness_plans_its_hand_built_cells(monkeypatch, name, scale):
    pool = WorkloadPool()
    planned = []

    def capture(cells, num_instructions, workload_pool, **kwargs):
        planned.extend(digests(cells, num_instructions, workload_pool))
        raise Planned

    monkeypatch.setattr(sweep, "run_cells", capture)
    with pytest.raises(Planned):
        get_experiment(name)(scale)
    assert sorted(planned) == digests(REFERENCE[name](scale), INSTRUCTIONS[scale], pool)
