"""Micro-benchmarks of the simulation substrate itself.

Not a paper figure: these track the simulator's own performance so
regressions in the hot paths (cache access, wakeup, per-cycle overhead,
quiescence fast-forwarding) are visible in the benchmark history.
``benchmarks/compare.py`` (``make bench``) diffs the
``simulator-throughput`` group against the committed
``BENCH_baseline.json`` and fails on regressions.

The core benchmarks run on the paper's default MEM-400 memory system with
two complementary workloads: ``applu`` keeps the pipeline busy (little to
fast-forward), while ``mcf``'s pointer chasing serializes on 400-cycle
misses — the quiescent regime the cycle-skipping engine targets.

The trace-cost benchmarks time what every cell pays before it
simulates: building ``Instruction`` records, generating a workload's
trace, and decoding a captured trace file.
"""

import pytest

from repro.branch import make_predictor
from repro.isa import Instruction
from repro.machines import parse_machine
from repro.memory import DEFAULT_MEMORY, MemoryHierarchy
from repro.sim.batch import BatchRunner
from repro.sim.config import DKIP_2048, KILO_1024, R10_64, RunaheadConfig
from repro.sim.runner import simulate
from repro.trace.io import load_trace, save_trace
from repro.workloads import get_workload

#: (workload, instructions) pairs for the core-throughput benchmarks.
CORE_WORKLOADS = ("applu", "mcf")
CORE_INSTRUCTIONS = 4_000
#: Records per round of the construction and decode benchmarks.
TRACE_RECORDS = 16_000


def _run_core_benchmark(benchmark, config, workload_name):
    workload = get_workload(workload_name)
    trace = workload.trace(CORE_INSTRUCTIONS)

    def run():
        return simulate(config, trace, regions=workload.regions)

    stats = benchmark.pedantic(run, rounds=2, iterations=1)
    assert stats.committed == CORE_INSTRUCTIONS
    return stats


def test_cache_access_throughput(benchmark):
    hierarchy = MemoryHierarchy(DEFAULT_MEMORY)
    addresses = [(i * 191) % (1 << 22) for i in range(10_000)]

    def touch_all():
        for addr in addresses:
            hierarchy.access(addr, now=0)

    benchmark.pedantic(touch_all, rounds=3, iterations=1)


def test_perceptron_throughput(benchmark):
    predictor = make_predictor("perceptron")
    pcs = [(i * 64) & 0xFFFF for i in range(5_000)]

    def predict_all():
        for pc in pcs:
            predictor.update(pc, pc & 1 == 0)

    benchmark.pedantic(predict_all, rounds=3, iterations=1)


@pytest.mark.benchmark(group="simulator-throughput")
@pytest.mark.parametrize("workload_name", CORE_WORKLOADS)
def test_r10_core_cycles_per_second(benchmark, workload_name):
    _run_core_benchmark(benchmark, R10_64, workload_name)


@pytest.mark.benchmark(group="simulator-throughput")
@pytest.mark.parametrize("workload_name", CORE_WORKLOADS)
def test_dkip_core_cycles_per_second(benchmark, workload_name):
    _run_core_benchmark(benchmark, DKIP_2048, workload_name)


@pytest.mark.benchmark(group="simulator-throughput")
@pytest.mark.parametrize("workload_name", CORE_WORKLOADS)
def test_runahead_core_cycles_per_second(benchmark, workload_name):
    """Runahead-64: every episode re-dispatches the instructions it ran
    ahead over, so dispatch, issue and fetch run several times per
    committed instruction."""
    _run_core_benchmark(benchmark, RunaheadConfig(), workload_name)


@pytest.mark.benchmark(group="simulator-throughput")
@pytest.mark.parametrize("workload_name", CORE_WORKLOADS)
def test_kilo_core_cycles_per_second(benchmark, workload_name):
    """KILO-1024: the shared R10 dispatch and issue stages plus the
    pseudo-ROB analysis and the 1024-entry out-of-order SLIQ."""
    _run_core_benchmark(benchmark, KILO_1024, workload_name)


@pytest.mark.benchmark(group="simulator-throughput")
@pytest.mark.parametrize("workload_name", CORE_WORKLOADS)
def test_ooobp_core_cycles_per_second(benchmark, workload_name):
    """Predictor-axis OoO core: exercises the gshare update path and the
    misprediction-stall accounting on top of the baseline pipeline."""
    _run_core_benchmark(
        benchmark, parse_machine("ooo-bp(bp=gshare-12,rob=32)"), workload_name
    )


@pytest.mark.benchmark(group="simulator-throughput")
@pytest.mark.parametrize("workload_name", ("mcf",))
def test_dual_core_cycles_per_second(benchmark, workload_name):
    """Dual-core with shared-L2 arbitration: two pipelines per simulated
    cycle, the heaviest machine kind the sweep layer dispatches."""
    _run_core_benchmark(
        benchmark,
        parse_machine("dual(rob=32,co=synth(chase=8),bp=gshare-10)"),
        workload_name,
    )


@pytest.mark.benchmark(group="simulator-throughput")
def test_batched_grid_throughput(benchmark):
    """One BatchRunner interleaving four cells.  Sweeps run one cell at
    a time through ``run_core``; this times the kernel perfbench's
    tracer test drives."""
    workloads = {name: get_workload(name) for name in CORE_WORKLOADS}
    traces = {
        name: workload.trace(CORE_INSTRUCTIONS)
        for name, workload in workloads.items()
    }

    def run():
        runner = BatchRunner()
        for config in (R10_64, DKIP_2048):
            for name, workload in workloads.items():
                runner.add_simulation(
                    (config.name, name), config, traces[name],
                    regions=workload.regions,
                )
        return runner.run()

    outcomes = benchmark.pedantic(run, rounds=2, iterations=1)
    assert all(outcome == "ok" for outcome, _ in outcomes.values())


@pytest.mark.benchmark(group="simulator-throughput")
@pytest.mark.parametrize("workload_name", ("mcf",))
def test_r10_core_reference_mode(benchmark, workload_name):
    """Tick-every-cycle reference mode: the denominator of the speedup the
    quiescence engine provides (kept in the history so PERFORMANCE.md's
    claims stay checkable)."""
    workload = get_workload(workload_name)
    trace = workload.trace(CORE_INSTRUCTIONS)

    def run():
        return simulate(trace=trace, config=R10_64, regions=workload.regions,
                        fast_forward=False)

    stats = benchmark.pedantic(run, rounds=2, iterations=1)
    assert stats.committed == CORE_INSTRUCTIONS


@pytest.mark.benchmark(group="simulator-throughput")
def test_instruction_construction_throughput(benchmark):
    """The constructor alone, on the field values of a real trace."""
    fields = [
        (i.seq, i.pc, i.op, i.dest, i.srcs, i.addr, i.size, i.taken, i.target)
        for i in get_workload("mcf").trace(TRACE_RECORDS)
    ]

    def build():
        return [Instruction(*values) for values in fields]

    records = benchmark.pedantic(build, rounds=5, iterations=1, warmup_rounds=1)
    assert len(records) == TRACE_RECORDS


@pytest.mark.benchmark(group="simulator-throughput")
@pytest.mark.parametrize("workload_name", ("mcf", "swim"))
def test_trace_generation_throughput(benchmark, workload_name):
    """One quick cell's trace, generated by a fresh workload instance
    (an instance caches the longest trace it generated)."""

    def generate():
        return get_workload(workload_name).trace(CORE_INSTRUCTIONS)

    trace = benchmark.pedantic(generate, rounds=5, iterations=1, warmup_rounds=1)
    assert len(trace) == CORE_INSTRUCTIONS


@pytest.mark.benchmark(group="simulator-throughput")
def test_trace_decode_throughput(benchmark, tmp_path):
    """Decoding a gzipped capture, the read every trace and phase replay
    and every SimPoint analysis makes."""
    path = str(tmp_path / "mcf.trc.gz")
    save_trace(get_workload("mcf"), path, TRACE_RECORDS)

    def decode():
        return list(load_trace(path))

    trace = benchmark.pedantic(decode, rounds=5, iterations=1, warmup_rounds=1)
    assert len(trace) == TRACE_RECORDS
