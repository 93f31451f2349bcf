"""Declarative machine descriptions: kinds, specs, and named presets.

This package turns the machine zoo into data.  Every simulatable
machine — the paper's four models and the idealized limit core alike —
is constructed through a single registry of named machine *kinds*
(:mod:`repro.machines.registry`), each exposing ``parse`` (spec string →
config dataclass) and ``build`` (config → simulator instance).  A
compact grammar (:mod:`repro.machines.spec`) makes machines writable on
a command line (``"dkip(llib=4096,cp=OOO-60)"``), the preset table
(:mod:`repro.machines.presets`) names the paper's exact configurations,
and TOML/JSON scenario files describe whole sweeps.

The config dataclasses themselves live in :mod:`repro.sim.config`;
their fingerprints — and therefore every result-store key — are
untouched by this layer.  The built-in kinds' grammars, parsers and
presets live in one module, :mod:`repro.machines.builtin`, apart from
their models: a kind's ``build`` imports its model on first use, so
parsing a spec and keying a cell load no simulator.
"""

from repro.grammar import SpecError
from repro.machines.presets import PRESETS, MachinePreset, get_preset, register_preset
from repro.machines.registry import (
    MachineDescription,
    MachineKind,
    build_machine,
    ensure_builtin_kinds,
    get_kind,
    kind_of,
    machine_kinds,
    register_machine,
)
from repro.machines.spec import (
    MEMORY_GRAMMAR,
    apply_params,
    load_spec_file,
    parse_machine,
    parse_machines,
    parse_memories,
    parse_memory,
    split_specs,
)

__all__ = [
    "MEMORY_GRAMMAR",
    "MachineDescription",
    "MachineKind",
    "MachinePreset",
    "PRESETS",
    "SpecError",
    "apply_params",
    "build_machine",
    "ensure_builtin_kinds",
    "get_kind",
    "get_preset",
    "kind_of",
    "load_spec_file",
    "machine_kinds",
    "parse_machine",
    "parse_machines",
    "parse_memories",
    "parse_memory",
    "register_machine",
    "register_preset",
    "split_specs",
]
