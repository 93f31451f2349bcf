"""Integration tests asserting the paper's qualitative claims.

Each test reproduces one *shape* from the evaluation at reduced scale:
who wins, roughly by how much, and where the crossovers are.  Absolute
IPC is not asserted (the substrate is synthetic); orderings and ratios
are.
"""

import statistics

import pytest

from repro.baselines.limit import simulate_limit
from repro.memory import (
    DEFAULT_MEMORY,
    MemoryHierarchy,
    TABLE1_CONFIGS,
    warm_caches,
)
from repro.memory.configs import KB, MB
from repro.sim.config import DKIP_2048, KILO_1024, R10_256, R10_64
from repro.sim.runner import run_core, simulate
from repro.workloads import get_workload

N = 6_000
INT_SAMPLE = ("eon", "gcc", "mcf", "twolf", "vpr", "gzip")
FP_SAMPLE = ("swim", "art", "apsi", "galgel", "wupwise", "applu")


def suite_mean(config, names, n=N, memory=DEFAULT_MEMORY):
    ipcs = []
    for name in names:
        ipcs.append(run_core(config, get_workload(name), n, memory=memory).ipc)
    return statistics.mean(ipcs)


@pytest.fixture(scope="module")
def fig9():
    """Shared Figure-9 grid for the comparison tests."""
    grid = {}
    for suite, names in (("int", INT_SAMPLE), ("fp", FP_SAMPLE)):
        for machine in (R10_64, R10_256, KILO_1024, DKIP_2048):
            grid[(suite, machine.name)] = suite_mean(machine, names)
    return grid


# ----------------------------------------------------------------------
# Section 2 (Figures 1-3)
# ----------------------------------------------------------------------

@pytest.mark.slow
def test_window_scaling_recovers_specfp_ipc():
    """Figure 2: at MEM-400, a 4K-entry ROB recovers most of the IPC the
    small window loses on streaming FP code."""
    workload = get_workload("swim")
    trace = workload.trace(N)

    def limit_ipc(mem, rob):
        h = MemoryHierarchy(TABLE1_CONFIGS[mem])
        warm_caches(h, workload.regions)
        return simulate_limit(iter(trace), h, rob, "perceptron").ipc

    small = limit_ipc("MEM-400", 32)
    big = limit_ipc("MEM-400", 4096)
    perfect = limit_ipc("L1-2", 4096)
    assert big > small * 5
    assert big > perfect * 0.7


@pytest.mark.slow
def test_window_scaling_cannot_recover_pointer_chasing():
    """Figure 1: SpecINT improves with window size but — unlike SpecFP —
    stays far from the perfect-cache IPC (serial misses and miss-dependent
    mispredictions remain on the critical path)."""
    workload = get_workload("mcf")
    trace = workload.trace(N)

    def limit_ipc(mem, rob):
        h = MemoryHierarchy(TABLE1_CONFIGS[mem])
        warm_caches(h, workload.regions)
        return simulate_limit(iter(trace), h, rob, "perceptron").ipc

    small = limit_ipc("MEM-400", 32)
    big = limit_ipc("MEM-400", 4096)
    perfect = limit_ipc("L1-2", 4096)
    assert big >= small                  # never detrimental
    assert big < perfect * 0.4           # but recovery stays partial


@pytest.mark.slow
def test_issue_latency_is_trimodal_on_fp():
    """Figure 3: most instructions issue fast; consumers of misses cluster
    at ~1x the memory latency."""
    workload = get_workload("ammp")
    trace = workload.trace(N)
    h = MemoryHierarchy(DEFAULT_MEMORY)
    warm_caches(h, workload.regions)
    result = simulate_limit(iter(trace), h, None, "perceptron")
    hist = result.issue_distance
    assert hist.fraction_below(300) > 0.35
    assert hist.fraction_in(300, 500) > 0.05
    assert hist.fraction_in(700, 900) > 0.005   # the two-miss chains


# ----------------------------------------------------------------------
# Figure 9
# ----------------------------------------------------------------------

@pytest.mark.slow
def test_fig9_fp_ordering(fig9):
    """KILO-class machines far ahead on SpecFP; R10-256 between."""
    r64 = fig9[("fp", "R10-64")]
    r256 = fig9[("fp", "R10-256")]
    kilo = fig9[("fp", "KILO-1024")]
    dkip = fig9[("fp", "D-KIP-2048")]
    assert r64 < r256 < dkip
    assert r64 < r256 < kilo
    assert dkip > r64 * 1.8             # paper: +88% over R10-64
    assert dkip > r256 * 1.3            # paper: +40% over R10-256
    assert abs(dkip - kilo) / kilo < 0.25  # same class of machine


@pytest.mark.slow
def test_fig9_int_ordering(fig9):
    """SpecINT gains compress; the OOO-SLIQ KILO stays slightly ahead."""
    r64 = fig9[("int", "R10-64")]
    r256 = fig9[("int", "R10-256")]
    kilo = fig9[("int", "KILO-1024")]
    dkip = fig9[("int", "D-KIP-2048")]
    assert r64 < r256
    assert dkip > r64                    # large windows never hurt INT
    assert kilo >= dkip * 0.95           # KILO's OOO buffer helps chasing
    assert dkip < r64 * 1.6              # INT gains stay modest


@pytest.mark.slow
def test_fig9_fp_gains_exceed_int_gains(fig9):
    fp_gain = fig9[("fp", "D-KIP-2048")] / fig9[("fp", "R10-64")]
    int_gain = fig9[("int", "D-KIP-2048")] / fig9[("int", "R10-64")]
    assert fp_gain > int_gain * 1.5


# ----------------------------------------------------------------------
# Figure 10
# ----------------------------------------------------------------------

@pytest.mark.slow
def test_fig10_cp_ooo_matters_mp_barely():
    """An OOO CP is worth ~tens of percent; an OOO MP only a few."""
    names = ("swim", "applu", "apsi")
    ino_ino = suite_mean(DKIP_2048.with_cp("INO").with_mp("INO"), names)
    ooo_ino = suite_mean(DKIP_2048.with_cp("OOO-40").with_mp("INO"), names)
    ooo_ooo = suite_mean(DKIP_2048.with_cp("OOO-40").with_mp("OOO-40"), names)
    cp_gain = ooo_ino / ino_ino
    mp_gain = ooo_ooo / ooo_ino
    assert cp_gain > 1.2
    assert mp_gain < cp_gain
    assert mp_gain < 1.25


# ----------------------------------------------------------------------
# Figures 11/12 (+ §4.4)
# ----------------------------------------------------------------------

@pytest.mark.slow
def test_fig12_dkip_is_cache_insensitive_on_fp():
    """The conventional core needs the big cache; the D-KIP tolerates the
    small one (paper: 1.55x vs 1.18x across the sweep)."""
    names = ("swim", "art", "apsi")
    small, big = DEFAULT_MEMORY.with_l2_size(64 * KB), DEFAULT_MEMORY.with_l2_size(4 * MB)
    r10_gain = suite_mean(R10_256, names, memory=big) / suite_mean(
        R10_256, names, memory=small
    )
    dkip_gain = suite_mean(DKIP_2048, names, memory=big) / suite_mean(
        DKIP_2048, names, memory=small
    )
    assert r10_gain > dkip_gain * 1.5


@pytest.mark.slow
def test_fig11_int_scales_with_cache_everywhere():
    names = ("gcc", "mcf", "twolf")
    small, big = DEFAULT_MEMORY.with_l2_size(64 * KB), DEFAULT_MEMORY.with_l2_size(4 * MB)
    for machine in (R10_256, DKIP_2048):
        gain = suite_mean(machine, names, memory=big) / suite_mean(
            machine, names, memory=small
        )
        assert gain > 1.3, f"{machine.name}: {gain:.2f}"


@pytest.mark.slow
def test_cp_share_grows_with_cache_size():
    """§4.4: a bigger L2 turns more instructions high-locality."""
    workload = get_workload("swim")
    trace = workload.trace(N)
    shares = []
    for size in (64 * KB, 4 * MB):
        stats = simulate(
            DKIP_2048, trace, memory=DEFAULT_MEMORY.with_l2_size(size),
            regions=workload.regions,
        )
        shares.append(stats.cp_fraction)
    assert shares[1] > shares[0]


# ----------------------------------------------------------------------
# Figures 13/14
# ----------------------------------------------------------------------

@pytest.mark.slow
def test_fig13_14_llib_pressure_contrast():
    """INT chasing stresses the integer LLIB harder than streaming FP
    stresses the FP one, and registers stay below instructions."""
    mcf = run_core(DKIP_2048, get_workload("mcf"), N)
    swim = run_core(DKIP_2048, get_workload("swim"), N)
    assert mcf.llib_max_instructions_int > 0
    assert swim.llib_max_instructions_fp > 0
    assert mcf.llib_max_registers_int <= mcf.llib_max_instructions_int
    assert swim.llib_max_registers_fp <= swim.llib_max_instructions_fp


@pytest.mark.slow
def test_analyze_stall_overhead_is_small():
    """§3.2: stalling Analyze for in-flight shorts costs ~0.7% IPC —
    assert it stays a small fraction of cycles on FP code."""
    stats = run_core(DKIP_2048, get_workload("applu"), N)
    assert stats.analyze_stall_cycles < stats.cycles * 0.25
