"""Spec grammar: every spec string must equal its dataclass twin.

The contract the store depends on: a machine built from a spec string is
*the same value* as the dataclass the figure harnesses construct — equal
fields, equal name, and therefore a bit-identical store fingerprint.
"""

import json
from dataclasses import replace

import pytest

from repro.baselines.dual import DualConfig
from repro.baselines.ooobp import OooBpConfig
from repro.machines import (
    apply_params,
    get_preset,
    parse_machine,
    parse_memory,
    split_specs,
    load_spec_file,
)
from repro.memory.configs import DEFAULT_MEMORY, KB, MB, TABLE1_CONFIGS
from repro.sim.config import (
    DKIP_2048,
    KILO_1024,
    R10_256,
    R10_64,
    LimitMachine,
    RunaheadConfig,
    SchedulerPolicy,
)
from repro.store import cell_key
from repro.workloads import get_workload

EQUIVALENCE = [
    ("r10", R10_64),
    ("R10-64", R10_64),
    ("r10-64", R10_64),  # presets resolve case-insensitively
    ("r10(rob=64)", R10_64),
    ("r10(rob=256,iq=160)", R10_256),
    ("R10-256", R10_256),
    ("kilo", KILO_1024),
    ("kilo(sliq=1024)", KILO_1024),
    ("KILO-1024", KILO_1024),
    ("dkip", DKIP_2048),
    ("dkip(llib=2048)", DKIP_2048),
    ("D-KIP-2048", DKIP_2048),
    ("dkip(cp=OOO-60)", DKIP_2048.with_cp("OOO-60")),
    ("dkip(cp=ooo-60)", DKIP_2048.with_cp("OOO-60")),  # values upper-case
    ("dkip(cp=INO,mp=OOO-40)", DKIP_2048.with_cp("INO").with_mp("OOO-40")),
    # The predictor ablation's grid: predictor= sets the Cache
    # Processor's field, so perceptron is exactly D-KIP-2048.
    *[
        (
            f"dkip(predictor={predictor})",
            replace(
                DKIP_2048,
                cache_processor=replace(DKIP_2048.cache_processor, predictor=predictor),
            ),
        )
        for predictor in ("gshare", "bimodal", "always-taken")
    ],
    ("dkip(predictor=perceptron)", DKIP_2048),
    ("limit", LimitMachine()),
    ("limit(rob=inf)", LimitMachine()),
    ("limit(rob=64)", LimitMachine(rob_size=64)),
    ("limit(rob=64,histogram=off)", LimitMachine(rob_size=64, record_histogram=False)),
    ("limit(rob=64,predictor=static)", LimitMachine(rob_size=64, predictor="always-taken")),
    ("limit(predictor= GShare-10 )", LimitMachine(predictor="gshare-10")),
    ("runahead", RunaheadConfig()),
    ("runahead-64", RunaheadConfig()),
    (
        "ooo-bp(bp=gshare-14)",
        OooBpConfig(
            name="OOO-BP-64-gshare-14",
            rob_size=64,
            iq_int=40,
            iq_fp=40,
            predictor="gshare-14",
        ),
    ),
    (
        # Equivalent spellings canonicalize: static == always-taken.
        "ooo-bp(bp=static)",
        OooBpConfig(
            name="OOO-BP-64-always-taken",
            rob_size=64,
            iq_int=40,
            iq_fp=40,
            predictor="always-taken",
        ),
    ),
    ("OOO-BP-64-oracle", OooBpConfig(
        name="OOO-BP-64-oracle",
        rob_size=64,
        iq_int=40,
        iq_fp=40,
        predictor="oracle",
    )),
    ("dual", DualConfig()),
    ("dual()", DualConfig()),
    ("DUAL-64", DualConfig()),
    (
        "dual(co=synth(chase=12,footprint=1M))",
        DualConfig(name="DUAL-64+synth(chase=12,footprint=1M)",
                   co="synth(chase=12,footprint=1M)"),
    ),
]


@pytest.mark.parametrize("spec,twin", EQUIVALENCE, ids=[s for s, _ in EQUIVALENCE])
def test_spec_equals_dataclass_twin(spec, twin):
    config = parse_machine(spec)
    assert config == twin
    assert config.fingerprint() == twin.fingerprint()


def test_spec_machines_name_themselves():
    assert parse_machine("r10(rob=128)").name == "R10-128"
    assert parse_machine("kilo(sliq=2048)").name == "KILO-2048"
    assert parse_machine("dkip(llib=8192)").name == "D-KIP-8192"
    assert parse_machine("dkip(predictor=gshare)").name == "D-KIP-2048"
    assert parse_machine("limit(rob=256)").name == "limit-rob-256"
    assert parse_machine("runahead(rob=128)").name == "runahead-128"
    assert parse_machine("r10(rob=32,name=tiny)").name == "tiny"


def test_spec_whitespace_and_extras():
    assert parse_machine("  r10( rob = 256 , iq = 160 )  ") == R10_256
    wide = parse_machine("r10(width=8)")
    assert (wide.fetch_width, wide.issue_width) == (8, 8)
    ino = parse_machine("r10(sched=ino)")
    assert ino.scheduler == SchedulerPolicy.IN_ORDER


def test_preset_spec_strings_round_trip():
    """Each preset's documented spec string parses back to its config."""
    for name in ("R10-64", "R10-256", "KILO-1024", "D-KIP-2048",
                 "limit-rob-inf", "runahead-64", "OOO-BP-64-gshare-14",
                 "OOO-BP-64-oracle", "DUAL-64", "DUAL-64-contended"):
        preset = get_preset(name)
        assert preset is not None
        assert parse_machine(preset.spec) == preset.config


def test_equivalent_limit_predictors_share_a_cell():
    """static and always-taken are one machine, so one stored cell."""
    static = parse_machine("limit(rob=64,predictor=static)")
    taken = parse_machine("limit(rob=64,predictor=always-taken)")
    assert static == taken
    workload = get_workload("swim")
    assert cell_key(static, workload, 2_000, DEFAULT_MEMORY) == cell_key(
        taken, workload, 2_000, DEFAULT_MEMORY
    )


def test_split_specs_respects_parens():
    assert split_specs("r10,dkip(llib=4096,cp=OOO-60),kilo") == [
        "r10",
        "dkip(llib=4096,cp=OOO-60)",
        "kilo",
    ]


def test_apply_params_merges_and_overrides():
    assert apply_params("dkip(cp=INO)", {"llib": "4096"}) == "dkip(cp=INO,llib=4096)"
    assert apply_params("dkip(llib=1024)", {"llib": "4096"}) == "dkip(llib=4096)"
    # Presets resolve through their equivalent spec string first.
    assert parse_machine(apply_params("R10-64", {"rob": "128"})).rob_size == 128


def test_parse_memory_presets_and_grammar():
    assert parse_memory("default") is DEFAULT_MEMORY
    assert parse_memory("MEM-400") is TABLE1_CONFIGS["MEM-400"]
    assert parse_memory("mem-1000") is TABLE1_CONFIGS["MEM-1000"]
    assert parse_memory("mem(lat=800)") == DEFAULT_MEMORY.with_mem_latency(800)
    assert parse_memory("mem(l2=1M)") == DEFAULT_MEMORY.with_l2_size(1 * MB)
    assert parse_memory("mem(l2=64K)") == DEFAULT_MEMORY.with_l2_size(64 * KB)
    combo = parse_memory("mem(lat=800,l2=1M,name=hot)")
    assert combo.mem_latency == 800 and combo.l2_size == 1 * MB
    assert combo.name == "hot"
    perfect = parse_memory("mem(lat=inf)")
    assert perfect.mem_latency is None


def test_load_spec_file_toml_and_json(tmp_path):
    toml = tmp_path / "s.toml"
    toml.write_text(
        'machines = ["dkip"]\nworkloads = ["swim"]\n[axes]\nllib = [1024, 2048]\n'
    )
    data = load_spec_file(toml)
    assert data["machines"] == ["dkip"]
    assert data["axes"]["llib"] == [1024, 2048]

    jsn = tmp_path / "s.json"
    jsn.write_text(json.dumps({"machines": ["r10"], "memory": ["MEM-400"]}))
    data = load_spec_file(jsn)
    assert data["memory"] == ["MEM-400"]
