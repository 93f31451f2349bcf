"""The machine/memory spec grammar and file loaders.

One compact grammar describes every simulatable machine::

    spec    := PRESET-NAME | KIND | KIND "(" params ")"
    params  := KEY "=" VALUE ("," KEY "=" VALUE)*

``"dkip(llib=4096,cp=OOO-60)"`` parses through the ``dkip`` kind's
``parse`` hook into a :class:`~repro.sim.config.DkipConfig`;
``"R10-256"`` resolves through the preset table; bare ``"kilo"`` is the
kind with all defaults.  Parameter grammars are owned by the kinds
themselves (:mod:`repro.machines.builtin` for the built-in ones); the
surrounding syntax (:func:`split_specs` / :func:`parse_spec_string`)
lives in :mod:`repro.grammar`, shared with the workload layer, and is
re-exported here.  This module owns the preset lookup, the
memory-system grammar, and TOML/JSON scenario-file loading.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path
from typing import Mapping

from repro.grammar import (  # noqa: F401 - split/parse re-exported API
    INF_WORDS,
    SpecError,
    parse_count,
    parse_size,
    parse_spec_string,
    reject_unknown,
    split_specs,
)
from repro.machines.presets import get_preset
from repro.machines.registry import ensure_builtin_kinds, get_kind
from repro.memory.configs import DEFAULT_MEMORY, TABLE1_CONFIGS, MemoryConfig

MEMORY_GRAMMAR = (
    "mem(lat=N|inf, l2=SIZE[K|M]|inf, l2lat=N, l1=SIZE[K|M]|inf, "
    "l1lat=N, line=N, name=STR) or a Table-1 name (L1-2, L2-11, L2-21, "
    "MEM-100, MEM-400, MEM-1000) or 'default'"
)


def parse_machine(spec: str):
    """Parse a machine spec — preset name, bare kind, or ``kind(...)`` —
    into its config dataclass."""
    text = spec.strip()
    if "(" not in text:
        # The built-in kinds register their presets at import time, so
        # the lazily-imported kinds must exist before the preset lookup.
        ensure_builtin_kinds()
        preset = get_preset(text)
        if preset is not None:
            return preset.config
    kind_name, params = parse_spec_string(text)
    try:
        kind = get_kind(kind_name)
    except ValueError as error:
        raise SpecError(f"{error}; or use a preset name (see 'machines')") from None
    try:
        return kind.parse(params)
    except SpecError:
        raise
    except ValueError as error:
        raise SpecError(f"{kind.name}: {error}; grammar: {kind.grammar}") from None


def parse_machines(text: str) -> list:
    """Parse a comma-separated list of machine specs."""
    return [parse_machine(spec) for spec in split_specs(text)]


def apply_params(spec: str, extra: Mapping[str, str]) -> str:
    """Re-render *spec* with *extra* parameters merged in (overriding).

    Sweep axes use this to cross one base machine spec with axis values:
    ``apply_params("dkip(cp=INO)", {"llib": "4096"})`` →
    ``"dkip(cp=INO,llib=4096)"``.  Preset names resolve through their
    equivalent spec string first, so axes apply to presets too.
    """
    text = spec.strip()
    if "(" not in text:
        ensure_builtin_kinds()
        preset = get_preset(text)
        if preset is not None:
            text = preset.spec
    kind, params = parse_spec_string(text)
    params.update({str(k): str(v) for k, v in extra.items()})
    if not params:
        return kind
    body = ",".join(f"{key}={value}" for key, value in params.items())
    return f"{kind}({body})"


# ----------------------------------------------------------------------
# Memory-system specs
# ----------------------------------------------------------------------

_MEMORY_KEYS = frozenset({"lat", "l2", "l2lat", "l1", "l1lat", "line", "name"})


def parse_memory(spec: str) -> MemoryConfig:
    """Parse a memory spec: a Table-1 name, ``default``, or ``mem(...)``.

    Single-knob specs reuse the established naming helpers so e.g.
    ``mem(lat=800)`` fingerprints identically to
    ``DEFAULT_MEMORY.with_mem_latency(800)``.
    """
    text = spec.strip()
    if "(" not in text:
        if text.lower() == "default":
            return DEFAULT_MEMORY
        for name, config in TABLE1_CONFIGS.items():
            if name.lower() == text.lower():
                return config
        raise SpecError(
            f"unknown memory system {spec!r}; grammar: {MEMORY_GRAMMAR}"
        )
    kind, params = parse_spec_string(text)
    if kind.lower() not in ("mem", "memory"):
        raise SpecError(
            f"unknown memory spec kind {kind!r}; grammar: {MEMORY_GRAMMAR}"
        )
    reject_unknown("mem", params, _MEMORY_KEYS, MEMORY_GRAMMAR)
    keys = set(params) - {"name"}
    if keys == {"lat"} and params["lat"].strip().lower() not in INF_WORDS:
        config = DEFAULT_MEMORY.with_mem_latency(
            parse_count("mem", "lat", params["lat"])
        )
    elif keys == {"l2"}:
        size = parse_size("mem", "l2", params["l2"])
        if size is None:
            config = replace(DEFAULT_MEMORY, name="default-l2-inf", l2_size=None)
        else:
            config = DEFAULT_MEMORY.with_l2_size(size)
    else:
        config = DEFAULT_MEMORY
        if "l1" in params:
            config = replace(config, l1_size=parse_size("mem", "l1", params["l1"]))
        if "l1lat" in params:
            config = replace(
                config, l1_latency=parse_count("mem", "l1lat", params["l1lat"])
            )
        if "l2" in params:
            config = replace(config, l2_size=parse_size("mem", "l2", params["l2"]))
        if "l2lat" in params:
            config = replace(
                config, l2_latency=parse_count("mem", "l2lat", params["l2lat"])
            )
        if "lat" in params:
            lat = params["lat"]
            mem_latency = (
                None
                if lat.strip().lower() in INF_WORDS
                else parse_count("mem", "lat", lat)
            )
            config = replace(config, mem_latency=mem_latency)
        if "line" in params:
            config = replace(
                config, line_size=parse_count("mem", "line", params["line"])
            )
        parts = [f"{key}={params[key]}" for key in params if key != "name"]
        config = replace(config, name=f"mem[{','.join(parts)}]")
    if "name" in params:
        config = replace(config, name=params["name"])
    return config


def parse_memories(text: str) -> list[MemoryConfig]:
    """Parse a comma-separated list of memory specs."""
    return [parse_memory(spec) for spec in split_specs(text)]


# ----------------------------------------------------------------------
# Scenario files (TOML/JSON)
# ----------------------------------------------------------------------


def load_spec_file(path: str | Path) -> dict:
    """Load a sweep/scenario description from a ``.toml`` or ``.json``
    file into a plain mapping (the sweep engine validates the contents).

    TOML needs Python ≥ 3.11 (stdlib ``tomllib``); on older
    interpreters use the JSON form, which is always available.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() == ".json":
        data = json.loads(text)
    elif path.suffix.lower() == ".toml":
        try:
            import tomllib
        except ImportError:  # Python 3.10: stdlib tomllib is 3.11+
            raise SpecError(
                f"cannot load {path}: TOML support needs Python >= 3.11 "
                "(tomllib); use the JSON scenario format instead"
            ) from None
        data = tomllib.loads(text)
    else:
        raise SpecError(
            f"unrecognized scenario file suffix {path.suffix!r}; "
            "expected .toml or .json"
        )
    if not isinstance(data, dict):
        raise SpecError(f"scenario file {path} must contain a table/object")
    return data
