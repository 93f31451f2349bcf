"""Unit tests for memory configurations (the paper's Table 1)."""

from repro.memory import DEFAULT_MEMORY, TABLE1_CONFIGS
from repro.experiments.fig11_12_cache import SIZES_FULL
from repro.memory.configs import KB, MB


def test_table1_has_six_rows():
    assert set(TABLE1_CONFIGS) == {
        "L1-2",
        "L2-11",
        "L2-21",
        "MEM-100",
        "MEM-400",
        "MEM-1000",
    }


def test_table1_values_match_paper():
    assert TABLE1_CONFIGS["L1-2"].l1_size is None
    assert TABLE1_CONFIGS["L1-2"].l1_latency == 2
    assert TABLE1_CONFIGS["L2-11"].l2_latency == 11
    assert TABLE1_CONFIGS["L2-11"].l2_size is None
    assert TABLE1_CONFIGS["L2-21"].l2_latency == 21
    for lat in (100, 400, 1000):
        config = TABLE1_CONFIGS[f"MEM-{lat}"]
        assert config.mem_latency == lat
        assert config.l1_size == 32 * KB
        assert config.l2_size == 512 * KB


def test_default_memory_matches_tables_2_and_3():
    assert DEFAULT_MEMORY.l1_size == 32 * KB
    assert DEFAULT_MEMORY.l1_latency == 2
    assert DEFAULT_MEMORY.l2_size == 512 * KB
    assert DEFAULT_MEMORY.l2_latency == 11
    assert DEFAULT_MEMORY.mem_latency == 400


def test_l2_size_override():
    config = DEFAULT_MEMORY.with_l2_size(2 * MB)
    assert config.l2_size == 2 * MB
    assert config.mem_latency == DEFAULT_MEMORY.mem_latency
    assert config.name != DEFAULT_MEMORY.name


def test_mem_latency_override():
    config = DEFAULT_MEMORY.with_mem_latency(1000)
    assert config.mem_latency == 1000


def test_fig11_sweep_range():
    assert SIZES_FULL[0] == 64 * KB
    assert SIZES_FULL[-1] == 4 * MB
    assert len(SIZES_FULL) == 7
    assert all(b == 2 * a for a, b in zip(SIZES_FULL, SIZES_FULL[1:]))


def test_configs_are_immutable():
    import pytest

    with pytest.raises(AttributeError):
        DEFAULT_MEMORY.l2_size = 0  # type: ignore[misc]
