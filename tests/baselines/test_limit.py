"""Unit tests for the idealized (ROB-only) limit simulator."""

from repro.baselines.limit import issue_distance_histogram, simulate_limit
from repro.memory import DEFAULT_MEMORY, MemoryHierarchy, TABLE1_CONFIGS

from tests.conftest import make_alu_chain, make_load_chain, make_loop


def run(trace, rob=64, memory=DEFAULT_MEMORY, predictor="always-taken"):
    return simulate_limit(
        iter(trace),
        MemoryHierarchy(memory),
        rob_size=rob,
        predictor=predictor,
    )


def test_width_bounds_ipc():
    result = run(make_alu_chain(4000, dep=False), rob=None)
    assert 3.5 <= result.ipc <= 4.0


def test_serial_chain_is_ipc_one():
    result = run(make_alu_chain(1000, dep=True), rob=None)
    assert 0.9 <= result.ipc <= 1.05


def test_window_scaling_recovers_independent_misses():
    """Independent misses: IPC grows monotonically with ROB size."""
    from repro.isa import InstructionBuilder

    b = InstructionBuilder()
    trace = []
    for i in range(600):
        trace.append(b.load(1 + (i % 4), 30, addr=0x10_0000 + i * 64))
        trace.append(b.alu(5 + (i % 4), 1 + (i % 4), 30))
        trace.append(b.alu(9 + (i % 8), 29, 30))
    ipcs = [run(trace, rob=w).ipc for w in (32, 128, 1024)]
    assert ipcs[0] < ipcs[1] < ipcs[2]


def test_window_scaling_cannot_help_serial_chains():
    trace = make_load_chain(30, stride=1 << 14)
    small = run(trace, rob=32)
    large = run(trace, rob=4096)
    assert abs(small.cycles - large.cycles) < small.cycles * 0.05


def test_perfect_cache_ignores_memory_pressure():
    trace = make_load_chain(100, stride=1 << 14)
    result = run(trace, rob=32, memory=TABLE1_CONFIGS["L1-2"])
    assert result.cycles < 100 * 10


def test_mispredicted_branches_stall_fetch():
    taken_loop = make_loop(iterations=100, body_alu=3, taken=True)
    not_taken_loop = make_loop(iterations=100, body_alu=3, taken=False)
    good = run(taken_loop)           # always-taken: all correct
    bad = run(not_taken_loop)        # always-taken: all wrong
    assert bad.stats.branch_mispredictions == 100
    assert bad.cycles > good.cycles


def test_issue_distance_histogram_splits_by_dependence():
    from repro.isa import InstructionBuilder

    b = InstructionBuilder()
    trace = []
    for i in range(64):
        trace.append(b.load(1, 30, addr=0x10_0000 + i * (1 << 14)))
        trace.append(b.alu(2, 1, 1))            # waits ~400 cycles
        trace.extend(b.alu(3 + (j % 4), 29, 30) for j in range(8))
    hist = issue_distance_histogram(
        iter(trace), MemoryHierarchy(DEFAULT_MEMORY), "always-taken"
    )
    assert hist.fraction_below(100) > 0.7          # independent work
    assert hist.fraction_in(300, 500) > 0.05       # the miss consumers


def test_commit_bandwidth_respected():
    result = run(make_alu_chain(4000, dep=False), rob=None)
    # 4-wide commit: cycles >= n/4
    assert result.cycles >= 1000


def test_result_reports_memory_stats():
    trace = make_load_chain(10, stride=1 << 14)
    result = run(trace)
    assert result.stats.memory_accesses == 10
    assert result.committed == 10


def test_histogram_bin_width_configurable():
    result = simulate_limit(
        iter(make_alu_chain(100)),
        MemoryHierarchy(DEFAULT_MEMORY),
        rob_size=None,
        predictor="always-taken",
        histogram_bin=50,
    )
    assert result.issue_distance.bin_width == 50
