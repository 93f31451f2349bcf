"""The shared spec-grammar core: syntax and value coercion.

One compact grammar describes every declaratively-specified object in
the repository — machines (``"dkip(llib=4096,cp=OOO-60)"``), memory
systems (``"mem(lat=800)"``) and workloads (``"synth(chase=8)"``,
``"trace(file=foo.trc.gz)"``)::

    spec    := KIND | KIND "(" params ")"
    params  := KEY "=" VALUE ("," KEY "=" VALUE)*

This module owns the *syntax* (:func:`split_specs`,
:func:`parse_spec_string`) and the *value coercion* helpers
(:func:`parse_count`, :func:`parse_size`, :func:`parse_fraction`, ...)
that the kind-specific ``parse`` hooks share.  It deliberately imports
nothing from the rest of the package so any layer — machines,
workloads, memory, trace — can use it without import cycles.
:mod:`repro.machines.spec` re-exports the syntax helpers for
backwards compatibility.
"""

from __future__ import annotations

import re
from typing import Mapping

#: Multipliers for the size suffixes accepted by :func:`parse_size`.
_SIZE_SUFFIXES = {"k": 1024, "m": 1024 * 1024}

_TRUE_WORDS = frozenset({"1", "true", "yes", "on"})
_FALSE_WORDS = frozenset({"0", "false", "no", "off"})

#: Spellings of *unlimited/absent* accepted wherever a size or bound may
#: be infinite (shared by the memory grammar in :mod:`repro.machines.spec`).
INF_WORDS = frozenset({"inf", "infinite", "none", "unlimited"})
_INF_WORDS = INF_WORDS

_SPEC_RE = re.compile(r"\s*([A-Za-z_][\w.-]*)\s*(?:\((.*)\))?\s*\Z", re.S)


class SpecError(ValueError):
    """A machine/memory/workload spec string failed to parse or validate."""


# ----------------------------------------------------------------------
# Syntax
# ----------------------------------------------------------------------


def split_specs(text: str) -> list[str]:
    """Split a comma-separated spec list at paren depth zero, so
    ``"r10,dkip(llib=4096,cp=OOO-60)"`` yields two specs, not three."""
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for char in text:
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
            if depth < 0:
                raise SpecError(f"unbalanced parentheses in {text!r}")
        if char == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(char)
    if depth != 0:
        raise SpecError(f"unbalanced parentheses in {text!r}")
    parts.append("".join(current))
    return [part.strip() for part in parts if part.strip()]


def parse_spec_string(spec: str) -> tuple[str, dict[str, str]]:
    """Split ``"kind(k=v,...)"`` into ``(kind, params)`` without
    interpreting the values."""
    match = _SPEC_RE.match(spec)
    if match is None or spec.count("(") != spec.count(")"):
        raise SpecError(
            f"malformed spec {spec!r}; expected KIND or KIND(key=value,...)"
        )
    kind, body = match.group(1), match.group(2)
    params: dict[str, str] = {}
    for item in split_specs(body or ""):
        key, sep, value = item.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise SpecError(
                f"malformed parameter {item!r} in {spec!r}; expected key=value"
            )
        if key in params:
            raise SpecError(f"duplicate parameter {key!r} in {spec!r}")
        params[key] = value
    return kind, params


def render_spec(kind: str, params: Mapping[str, object]) -> str:
    """The inverse of :func:`parse_spec_string`: ``kind(k=v,...)``, or
    the bare kind when *params* is empty."""
    if not params:
        return kind
    body = ",".join(f"{key}={value}" for key, value in params.items())
    return f"{kind}({body})"


# ----------------------------------------------------------------------
# Value coercion
# ----------------------------------------------------------------------


def reject_unknown(
    kind: str, params: Mapping[str, str], allowed: frozenset[str] | set[str],
    grammar: str,
) -> None:
    """Raise :class:`SpecError` if *params* contains keys outside *allowed*."""
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise SpecError(
            f"unknown {kind!r} parameter(s) {', '.join(unknown)}; "
            f"grammar: {grammar}"
        )


def parse_count(kind: str, key: str, value: str) -> int:
    """A strictly positive integer (``"40"``, ``"2_048"``)."""
    try:
        count = int(value)
    except ValueError:
        count = None
    if count is None or count <= 0:
        raise SpecError(
            f"{kind}: parameter {key}={value!r} must be a positive integer"
        )
    return count


def parse_nonneg(kind: str, key: str, value: str) -> int:
    """A non-negative integer (``"0"`` allowed — e.g. ``chase=0``)."""
    try:
        count = int(value)
    except ValueError:
        count = None
    if count is None or count < 0:
        raise SpecError(
            f"{kind}: parameter {key}={value!r} must be a non-negative integer"
        )
    return count


def parse_count_or_inf(kind: str, key: str, value: str) -> int | None:
    """A positive integer, or ``inf``/``none`` meaning *unlimited*."""
    if value.strip().lower() in _INF_WORDS:
        return None
    return parse_count(kind, key, value)


def parse_size(kind: str, key: str, value: str) -> int | None:
    """A byte size with an optional ``K``/``M`` suffix, or ``inf``.

    ``"512K"`` → 524288, ``"1M"`` → 1048576, ``"inf"`` → ``None``.
    """
    text = value.strip().lower()
    if text in _INF_WORDS:
        return None
    multiplier = 1
    if text and text[-1] in _SIZE_SUFFIXES:
        multiplier = _SIZE_SUFFIXES[text[-1]]
        text = text[:-1]
    try:
        size = int(text)
    except ValueError:
        size = None
    if size is None or size <= 0:
        raise SpecError(
            f"{kind}: parameter {key}={value!r} must be a positive size "
            "(optionally suffixed K or M) or 'inf'"
        )
    return size * multiplier


def parse_fraction(kind: str, key: str, value: str) -> float:
    """A probability/ratio in ``[0, 1]`` (``"0.05"``, ``"0"``, ``"1"``)."""
    try:
        fraction = float(value)
    except ValueError:
        fraction = None
    if fraction is None or not 0.0 <= fraction <= 1.0:
        raise SpecError(
            f"{kind}: parameter {key}={value!r} must be a fraction in [0, 1]"
        )
    return fraction


def parse_flag(kind: str, key: str, value: str) -> bool:
    """A boolean flag: on/off, true/false, yes/no, 1/0."""
    text = value.strip().lower()
    if text in _TRUE_WORDS:
        return True
    if text in _FALSE_WORDS:
        return False
    raise SpecError(
        f"{kind}: parameter {key}={value!r} must be a boolean "
        "(on/off, true/false, yes/no, 1/0)"
    )


def format_size(size: int) -> str:
    """Render a byte count the way :func:`parse_size` reads it back:
    ``1048576`` → ``"1M"``, ``65536`` → ``"64K"``, ``100`` → ``"100"``."""
    if size % (1024 * 1024) == 0 and size:
        return f"{size // (1024 * 1024)}M"
    if size % 1024 == 0 and size:
        return f"{size // 1024}K"
    return str(size)


def format_value(value: object) -> str:
    """Render a trait value into canonical spec text that round-trips:
    booleans as on/off, floats via ``repr`` (exact), everything else
    via ``str``."""
    if value is True:
        return "on"
    if value is False:
        return "off"
    if isinstance(value, float):
        return repr(value)
    return str(value)
