"""The machine-kind registry: every simulatable machine in one table.

A *kind* is one family of machines (``r10``, ``ooo-bp``, ``kilo``,
``runahead``, ``limit``, ``dual``, ``dkip``) described by a
:class:`MachineKind` record:

* ``parse(params) -> config`` builds the kind's frozen config dataclass
  from the key/value parameters of a spec string
  (:func:`repro.machines.spec.parse_machine` handles the surrounding
  grammar);
* ``build(config, trace, hierarchy, predictor, stats) -> core``
  instantiates the simulator — the job the old ``isinstance`` chain in
  ``repro.sim.runner.build_core`` used to do;
* the config's existing :meth:`~repro.fingerprint.Fingerprintable.
  fingerprint` keys the result store, unchanged.

The built-in kinds register from :mod:`repro.machines.builtin`, which
holds their grammars and parsers but not their models: a kind's
``build`` imports its model when first called, so parsing, keying and
serving a cell from the store load no simulator.
:func:`ensure_builtin_kinds` imports that module lazily so this module
stays import-cycle-free and external code can register additional kinds
before or after.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Protocol, runtime_checkable


@runtime_checkable
class MachineDescription(Protocol):
    """What every machine configuration must provide: a display/store
    name and a stable content fingerprint (any frozen
    :class:`~repro.fingerprint.Fingerprintable` dataclass qualifies)."""

    @property
    def name(self) -> str: ...

    def fingerprint(self) -> str: ...


@dataclass(frozen=True)
class MachineKind:
    """One registered machine family."""

    #: Registry key and the kind word of the spec grammar (lowercase).
    name: str
    #: The frozen config dataclass this kind is described by.
    config_cls: type
    #: ``build(config, trace, hierarchy, predictor, stats) -> core``.
    build: Callable[..., Any]
    #: ``parse(params: dict[str, str]) -> config``.
    parse: Callable[[dict[str, str]], Any]
    #: One-line human description (the ``machines`` subcommand).
    description: str = ""
    #: Human-readable spec grammar, e.g. ``"dkip(llib=N, cp=OOO-n, ...)"``.
    grammar: str = ""


_KINDS: dict[str, MachineKind] = {}
_BY_CONFIG: dict[type, MachineKind] = {}

#: Modules that register the built-in kinds when imported.
_BUILTIN_MODULES = ("repro.machines.builtin",)


def register_machine(kind: MachineKind) -> MachineKind:
    """Register *kind* (idempotent; re-registration replaces)."""
    _KINDS[kind.name] = kind
    _BY_CONFIG[kind.config_cls] = kind
    return kind


def ensure_builtin_kinds() -> None:
    """Import the registering modules so the built-in kinds exist."""
    for module in _BUILTIN_MODULES:
        importlib.import_module(module)


def machine_kinds() -> dict[str, MachineKind]:
    """All registered kinds, keyed by name (registration order)."""
    ensure_builtin_kinds()
    return dict(_KINDS)


def get_kind(name: str) -> MachineKind:
    """The kind registered under *name* (case-insensitive)."""
    ensure_builtin_kinds()
    kind = _KINDS.get(name.lower())
    if kind is None:
        raise ValueError(
            f"unknown machine kind {name!r}; registered kinds: "
            f"{', '.join(sorted(_KINDS))}"
        )
    return kind


def kind_of(config: Any) -> MachineKind:
    """The kind whose config class matches *config* (walks the MRO so
    subclassed configs resolve to their base kind)."""
    ensure_builtin_kinds()
    for cls in type(config).__mro__:
        kind = _BY_CONFIG.get(cls)
        if kind is not None:
            return kind
    raise TypeError(f"unknown machine configuration type: {type(config)!r}")


def config_class_named(class_name: str) -> type | None:
    """The registered config dataclass with ``__name__`` *class_name*,
    or ``None`` — the store's deserializer uses this to rebuild configs
    of kinds registered outside the built-in set."""
    ensure_builtin_kinds()
    for cls in _BY_CONFIG:
        if cls.__name__ == class_name:
            return cls
    return None


def build_machine(
    config: Any, trace: Any, hierarchy: Any, predictor: Any, stats: Any = None
):
    """Instantiate the simulator for *config* via the registry — the
    single construction path every runner goes through."""
    return kind_of(config).build(config, trace, hierarchy, predictor, stats)
