"""Lazy package re-exports (PEP 562).

A package ``__init__`` binds the pair :func:`lazy_exports` returns to
its own ``__getattr__`` and ``__dir__``; each re-exported name then
imports its module on first access, so importing one layer loads only
that layer.
"""

from __future__ import annotations

import importlib
from typing import Callable


def lazy_exports(
    namespace: dict, names: dict[str, str]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """Return ``(__getattr__, __dir__)`` for the package globals *namespace*.

    *names* maps each lazily re-exported name to the module it loads
    from; a loaded name is cached in *namespace*.
    """

    def __getattr__(name: str):
        """Load *name* from its module on first access."""
        module = names.get(name)
        if module is None:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            )
        value = namespace[name] = getattr(importlib.import_module(module), name)
        return value

    def __dir__() -> list[str]:
        """List the package's globals and every name in its ``__all__``."""
        return sorted(set(namespace) | set(namespace.get("__all__", ())))

    return __getattr__, __dir__
