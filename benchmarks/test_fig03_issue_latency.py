"""Figure 3: the decode→issue distance histogram (execution locality).

Paper shape: ~70% of SpecFP instructions issue within 300 cycles of
decode; a distinct peak sits at ~1x the memory latency; a small residual
at ~2x (chains of two misses).  We assert the trimodal structure; the 2x
peak is smaller than the paper's 4% (documented in REPRODUCTION.md).
"""

from benchmarks.conftest import regenerate
from repro.experiments.common import Scale


def test_fig3_issue_latency(benchmark):
    # Default scale: the quick subset misses ammp, the two-miss workload.
    result = regenerate(benchmark, "fig3", scale=Scale.DEFAULT)
    fractions = {row[0]: row[1] for row in result.rows}
    assert fractions["< 300"] > 0.5
    assert fractions["300-500 (~1x memory)"] > 0.05
    assert fractions["700-900 (~2x memory)"] > 0.001
    assert fractions["< 300"] > fractions["300-500 (~1x memory)"]
