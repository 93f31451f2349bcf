"""Behaviour pin: the SHA-256 of every ``SimStats`` record of a fixed grid.

The grid crosses one example spec of every registered machine kind (the
determinism battery's ``KIND_EXAMPLES``, plus the bare limit core) with a
stall-bound benchmark (``mcf``), a busy one (``applu``) and a ``synth``
workload, on two memory systems, through ``run_cells`` — the path every
sweep and harness takes.  Refactors of the engine, the runner or the
dispatch layer must leave every digest untouched.  After an intentional
behaviour change regenerate with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/sim/test_behaviour_pin.py
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib

import repro
from repro.experiments.common import WorkloadPool, run_cells
from repro.machines import parse_machine
from repro.machines.registry import kind_of, machine_kinds
from repro.memory.configs import TABLE1_CONFIGS

PIN = pathlib.Path(repro.__file__).parent / "behaviour_pin.json"

INSTRUCTIONS = 2_000
MACHINES = (
    "r10(rob=32)",
    "r10(rob=32,sched=ino)",
    "kilo(sliq=256)",
    "runahead(rob=32)",
    "dkip(llib=512)",
    "dkip(llib=512,cp=INO,mp=OOO-40)",
    "limit(rob=64)",
    "limit",
    "ooo-bp(bp=gshare-10,rob=32)",
    "ooo-bp(bp=oracle,rob=32)",
    "dual(rob=32)",
    "dual(rob=32,co=synth(chase=4),bp=gshare-10)",
)
WORKLOADS = ("mcf", "applu", "synth(chase=4,mlp=2)")
MEMORIES = ("MEM-100", "MEM-400")


def _cells():
    return [
        (spec, workload, memory)
        for spec in MACHINES
        for workload in WORKLOADS
        for memory in MEMORIES
    ]


def _digest(stats) -> str:
    text = json.dumps(stats.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _pinned_grid() -> dict[str, str]:
    # In-process (jobs=1): $REPRO_FAULT never injects there.
    cells = _cells()
    stats = run_cells(
        [
            (parse_machine(spec), workload, TABLE1_CONFIGS[memory])
            for spec, workload, memory in cells
        ],
        INSTRUCTIONS,
        WorkloadPool(),
        jobs=1,
    )
    return {
        " × ".join(cell): _digest(record) for cell, record in zip(cells, stats)
    }


def test_every_machine_kind_is_pinned():
    pinned = {kind_of(parse_machine(spec)).name for spec in MACHINES}
    missing = sorted(set(machine_kinds()) - pinned)
    assert not missing, f"machine kind(s) {missing} have no pinned example"


def test_behaviour_pin():
    grid = _pinned_grid()
    document = {"instructions": INSTRUCTIONS, "cells": grid}
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        PIN.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    pinned = json.loads(PIN.read_text(encoding="utf-8"))
    drifted = [
        cell
        for cell, value in grid.items()
        if pinned["cells"].get(cell) != value
    ]
    assert pinned == document, (
        f"{len(drifted)} pinned cell(s) changed behaviour, e.g. "
        f"{drifted[:3]}; regenerate with REPRO_UPDATE_GOLDEN=1 only if the "
        "change is intentional"
    )
