"""Registry-driven determinism battery over every machine kind.

Unlike the per-feature suites, this battery iterates the machine-kind
registry itself: adding a kind without adding example specs here fails
loudly (``test_every_kind_has_examples``), so new machines cannot dodge
the determinism contract.  For every example of every kind it enforces:

* same-seed bit-identity — two independent ``simulate`` runs on fresh
  hierarchies agree on *every* ``SimStats`` field;
* parse determinism — one spec string always parses to the same config
  value and the same store fingerprint;
* store round-trip — configs survive JSON serialization bit-exactly
  (equal value, equal fingerprint), so warm store cells stay reachable;
* fingerprint distinctness — no two distinct examples (within or across
  kinds) collide in the result store;
* snapshot/restore — a warmed hierarchy snapshot restored into two fresh
  hierarchies yields bit-identical runs.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.machines import parse_machine
from repro.machines.registry import kind_of, machine_kinds
from repro.memory import MemoryHierarchy, warm_caches
from repro.memory.configs import TABLE1_CONFIGS
from repro.sim.runner import simulate
from repro.sim.stats import SimStats
from repro.store.serialize import from_jsonable, to_jsonable
from repro.workloads import get_workload

NUM_INSTRUCTIONS = 400
MEMORY = "MEM-100"
WORKLOAD = "mcf"

#: Example spec strings per registered kind.  Every registered kind MUST
#: appear here — the battery fails loudly otherwise.  Parameters are
#: deliberately non-default so the examples also exercise each kind's
#: parse hook.
KIND_EXAMPLES: dict[str, tuple[str, ...]] = {
    "r10": ("r10(rob=32)",),
    "kilo": ("kilo(sliq=256)",),
    "runahead": ("runahead(rob=32)",),
    "dkip": ("dkip(llib=512)",),
    "limit": ("limit(rob=64)",),
    "ooo-bp": (
        "ooo-bp(bp=gshare-10,rob=32)",
        "ooo-bp(bp=oracle,rob=32)",
    ),
    "dual": (
        "dual(rob=32)",
        "dual(rob=32,co=synth(chase=4),bp=gshare-10)",
    ),
}

ALL_EXAMPLES = [
    (kind, spec) for kind, specs in KIND_EXAMPLES.items() for spec in specs
]
EXAMPLE_IDS = [spec for _, spec in ALL_EXAMPLES]


def examples_for(kind_name: str) -> tuple[str, ...]:
    examples = KIND_EXAMPLES.get(kind_name)
    assert examples, (
        f"machine kind {kind_name!r} is registered but has no examples in "
        "KIND_EXAMPLES — every kind must pass the determinism battery; add "
        "at least one spec string for it in tests/machines/test_machine_battery.py"
    )
    return examples


def fresh_hierarchy(workload) -> MemoryHierarchy:
    hierarchy = MemoryHierarchy(TABLE1_CONFIGS[MEMORY])
    warm_caches(hierarchy, workload.regions)
    return hierarchy


def run_stats(config, hierarchy=None) -> SimStats:
    workload = get_workload(WORKLOAD)
    trace = workload.trace(NUM_INSTRUCTIONS)
    if hierarchy is None:
        hierarchy = fresh_hierarchy(workload)
    return simulate(config, trace, hierarchy=hierarchy)


def stats_diff(a: SimStats, b: SimStats) -> dict:
    return {
        f.name: (getattr(a, f.name), getattr(b, f.name))
        for f in dataclasses.fields(SimStats)
        if getattr(a, f.name) != getattr(b, f.name)
    }


# ----------------------------------------------------------------------
# Coverage: the registry drives the battery, not the other way around
# ----------------------------------------------------------------------


def test_every_kind_has_examples():
    """Registering a machine kind without battery examples fails here."""
    for name in sorted(machine_kinds()):
        examples_for(name)


def test_no_stale_examples():
    """Examples for kinds that no longer exist are a sign of rot."""
    registered = set(machine_kinds())
    stale = set(KIND_EXAMPLES) - registered
    assert not stale, f"KIND_EXAMPLES covers unregistered kinds: {sorted(stale)}"


@pytest.mark.parametrize("kind_name", sorted(KIND_EXAMPLES))
def test_examples_parse_to_their_kind(kind_name):
    for spec in examples_for(kind_name):
        config = parse_machine(spec)
        assert kind_of(config).name == kind_name


# ----------------------------------------------------------------------
# Determinism: same seed, same bits
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind_name,spec", ALL_EXAMPLES, ids=EXAMPLE_IDS)
def test_same_seed_bit_identity(kind_name, spec):
    """Two independent runs of the same spec agree on every statistic."""
    first = run_stats(parse_machine(spec))
    second = run_stats(parse_machine(spec))
    mismatches = stats_diff(first, second)
    assert not mismatches, f"{spec} diverged across same-seed runs: {mismatches}"
    assert first.committed == NUM_INSTRUCTIONS


@pytest.mark.parametrize("kind_name,spec", ALL_EXAMPLES, ids=EXAMPLE_IDS)
def test_parse_determinism_and_fingerprint_stability(kind_name, spec):
    """One spec string: one config value, one store fingerprint."""
    a = parse_machine(spec)
    b = parse_machine(spec)
    assert a == b
    assert a.fingerprint() == b.fingerprint()


@pytest.mark.parametrize("kind_name,spec", ALL_EXAMPLES, ids=EXAMPLE_IDS)
def test_store_serialize_round_trip(kind_name, spec):
    """Configs survive the store's JSON (de)serializer bit-exactly."""
    config = parse_machine(spec)
    revived = from_jsonable(json.loads(json.dumps(to_jsonable(config))))
    assert revived == config
    assert revived.fingerprint() == config.fingerprint()


def test_fingerprints_distinct_across_examples():
    """No two battery examples share a store cell."""
    fingerprints = {}
    for kind_name, spec in ALL_EXAMPLES:
        fp = parse_machine(spec).fingerprint()
        assert fp not in fingerprints, (
            f"fingerprint collision: {spec!r} and {fingerprints[fp]!r}"
        )
        fingerprints[fp] = spec


def test_predictor_axis_changes_fingerprint():
    """The bp axis is part of machine identity — a gshare and an oracle
    ooo-bp (and the equivalent r10) must occupy distinct store cells."""
    gshare = parse_machine("ooo-bp(bp=gshare-10,rob=32)")
    oracle = parse_machine("ooo-bp(bp=oracle,rob=32)")
    r10 = parse_machine("r10(rob=32)")
    assert len({gshare.fingerprint(), oracle.fingerprint(), r10.fingerprint()}) == 3


def test_co_runner_axis_changes_fingerprint():
    solo = parse_machine("dual(rob=32)")
    contended = parse_machine("dual(rob=32,co=synth(chase=4))")
    assert solo.fingerprint() != contended.fingerprint()


# ----------------------------------------------------------------------
# Snapshot/restore: warmed hierarchy state round-trips bit-exactly
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind_name,spec", ALL_EXAMPLES, ids=EXAMPLE_IDS)
def test_snapshot_restore_round_trip(kind_name, spec):
    """Runs from two restores of one warmed-hierarchy snapshot are
    bit-identical (the warm-up memo's reuse path)."""
    workload = get_workload(WORKLOAD)
    snapshot = fresh_hierarchy(workload).snapshot()
    config = parse_machine(spec)

    def restored_run() -> SimStats:
        hierarchy = MemoryHierarchy(TABLE1_CONFIGS[MEMORY])
        hierarchy.restore(snapshot)
        return run_stats(config, hierarchy=hierarchy)

    mismatches = stats_diff(restored_run(), restored_run())
    assert not mismatches, (
        f"{spec} diverged across snapshot restores: {mismatches}"
    )
