"""Round-trip (de)serialization of machine and memory configurations.

The store keeps each cell's full key payload — not just its digest — so
``cache verify`` can rebuild the original configuration objects and
re-run the simulation from nothing but the stored entry.  The tagged
canonical form of :func:`repro.fingerprint.canonical` doubles as the
wire format: every dataclass serializes to ``{"__kind__": <class>,
<field>: <value>, ...}`` and :func:`from_jsonable` inverts it through
the kind registry below.
"""

from __future__ import annotations

import dataclasses
import enum
import typing
from typing import Any

from repro.fingerprint import canonical
from repro.memory.configs import MemoryConfig
from repro.sim.config import (
    CoreConfig,
    DkipConfig,
    DualConfig,
    FuConfig,
    KiloConfig,
    LimitMachine,
    MemoryProcessorConfig,
    OooBpConfig,
    RunaheadConfig,
)

#: Dataclass kinds the store can reconstruct, keyed by class name: the
#: configs of every built-in machine kind, so decoding a stored key
#: never loads the machine registry.
KINDS: dict[str, type] = {
    cls.__name__: cls
    for cls in (
        FuConfig,
        CoreConfig,
        OooBpConfig,
        KiloConfig,
        MemoryProcessorConfig,
        DkipConfig,
        RunaheadConfig,
        LimitMachine,
        DualConfig,
        MemoryConfig,
    )
}


def to_jsonable(obj: Any) -> Any:
    """Serialize a configuration (or any canonicalizable value)."""
    return canonical(obj)


def from_jsonable(data: Any) -> Any:
    """Rebuild the value serialized by :func:`to_jsonable`.

    Tagged dicts become instances of the registered dataclass, with enum
    fields coerced back to their enum type; unknown kinds raise
    ``ValueError`` (the store treats that as corruption).
    """
    if isinstance(data, dict) and "__kind__" in data:
        kind = data["__kind__"]
        cls = KINDS.get(kind)
        if cls is None:
            # Machine kinds registered outside the built-in set (via
            # repro.machines) round-trip through the registry's config
            # classes; the lazy import keeps the store importable first.
            from repro.machines.registry import config_class_named

            cls = config_class_named(kind)
        if cls is None:
            raise ValueError(f"unknown configuration kind {kind!r}")
        hints = typing.get_type_hints(cls)
        kwargs = {}
        for field in dataclasses.fields(cls):
            value = from_jsonable(data[field.name])
            hint = hints.get(field.name)
            if isinstance(hint, type) and issubclass(hint, enum.Enum):
                value = hint(value)
            kwargs[field.name] = value
        return cls(**kwargs)
    if isinstance(data, dict):
        return {key: from_jsonable(value) for key, value in data.items()}
    if isinstance(data, list):
        return [from_jsonable(item) for item in data]
    return data
