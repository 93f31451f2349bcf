"""Deterministic content fingerprints for configurations and results.

The result store (:mod:`repro.store`) addresses every simulation cell by
a digest of *what produced it*: machine configuration, memory
configuration, workload identity, instruction budget and stats-schema
version.  Python's builtin ``hash`` is salted per process, so the digest
here is built from a canonical JSON rendering hashed with SHA-256 —
stable across processes, interpreter versions and machines.

This module deliberately imports nothing from the rest of the package so
that any layer (sim, memory, workloads, store) can use it without
creating an import cycle.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any

#: Bump when the canonicalization rules themselves change incompatibly.
CANON_VERSION = 1


#: Canonical forms of frozen dataclass instances, keyed by identity; the
#: instance is kept beside its form so its id cannot be reused while the
#: entry lives.  Sweeps key hundreds of cells over a few config objects.
_FROZEN_MEMO: dict[int, tuple[Any, dict]] = {}
_FROZEN_MEMO_LIMIT = 256


def canonical(obj: Any) -> Any:
    """Recursively convert *obj* into a canonical JSON-compatible value.

    Handles dataclasses (tagged with their class name so two config types
    with identical fields never collide), enums, mappings and sequences.
    The form of a frozen dataclass instance is computed once and shared,
    so callers must not mutate it.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        frozen = obj.__dataclass_params__.frozen
        if frozen:
            memo = _FROZEN_MEMO.get(id(obj))
            if memo is not None and memo[0] is obj:
                return memo[1]
        out: dict[str, Any] = {"__kind__": type(obj).__name__}
        for field in dataclasses.fields(obj):
            out[field.name] = canonical(getattr(obj, field.name))
        if frozen:
            if len(_FROZEN_MEMO) >= _FROZEN_MEMO_LIMIT:
                _FROZEN_MEMO.pop(next(iter(_FROZEN_MEMO)))
            _FROZEN_MEMO[id(obj)] = (obj, out)
        return out
    if isinstance(obj, enum.Enum):
        return canonical(obj.value)
    if isinstance(obj, dict):
        return {str(key): canonical(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(item) for item in obj]
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    if isinstance(obj, float):
        # repr() round-trips floats exactly; integral floats normalize so
        # 4.0 and 4 fingerprint identically regardless of the source type.
        return int(obj) if obj.is_integer() else obj
    raise TypeError(f"cannot canonicalize {type(obj).__name__!r} for fingerprinting")


def canonical_json(obj: Any) -> str:
    """Canonical JSON text: sorted keys, no whitespace, UTF-8-safe."""
    return json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))


def digest(obj: Any) -> str:
    """Hex SHA-256 of the canonical JSON rendering of *obj*."""
    return digest_canonical(canonical(obj))


def digest_canonical(value: Any) -> str:
    """:func:`digest` of a value that is already canonical (plain dicts
    with string keys, lists and normalized scalars), skipping the walk."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Fingerprintable:
    """Mixin giving (frozen dataclass) configurations a content digest.

    Two instances fingerprint identically iff every field — including
    nested dataclasses and enums — is equal; the class name is mixed in,
    so structurally identical configs of different types stay distinct.
    """

    def fingerprint(self) -> str:
        return digest(self)
