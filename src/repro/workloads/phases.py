"""SimPoint phases as first-class workloads (the ``phases`` kind).

Two spec forms share the kind word:

* **Single phase** — ``phases(file=PATH,interval=N,index=I)`` replays
  exactly instructions ``[I*N, (I+1)*N)`` of a captured trace through
  the ordinary :class:`~repro.workloads.base.Workload` surface.  Like
  ``trace(...)`` replay it restores the capture's data-region map for
  cache warm-up, ignores the seed (``seed_sensitive=False``), and
  fingerprints over the *decoded trace content* plus the interval
  geometry — deliberately **not** over the clustering parameters, so
  re-analyzing the same capture with a different ``k`` (or clustering
  seed) reuses every phase cell already in the result store.

* **Phase set** — ``phases(file=PATH[,interval=N][,k=K][,seed=S])``
  (no ``index=``) names the whole weighted selection.  It is a
  *sweep-level* token: :func:`expand_phases` runs the SimPoint analysis
  (:func:`repro.simpoint.phases.analyze_trace`) and returns the member
  phase names plus their cluster weights, which the sweep engine crosses
  with the machine/memory axes and folds back into one weighted-mean
  verdict per (machine, memory) cell.  Asking the registry to
  *instantiate* the set form is an error that points at sweeps.

Given a result store, :func:`expand_phases` keeps each selection there
(:func:`repro.store.phase_key`), keyed by the capture's content digest,
the parameters and :func:`analysis_code_digest`, so a warm plan reads a
small record instead of re-analyzing.  The SimPoint analysis (and hence
numpy) is imported lazily, only on a miss; merely registering the kind —
or replaying a single phase — stays stdlib-only like the rest of the
workload layer.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro.fingerprint import digest
from repro.grammar import (
    SpecError,
    parse_count,
    parse_nonneg,
    parse_spec_string,
    render_spec,
    reject_unknown,
)
from repro.isa import Instruction
from repro.trace.io import TraceFormatError, load_trace, read_trace_regions
from repro.trace.kernel import Kernel
from repro.workloads.base import Workload
from repro.workloads.kinds import WorkloadKind, register_workload_kind
from repro.workloads.tracefile import TraceFileWorkload, content_digest_of

if TYPE_CHECKING:
    from repro.store import ResultStore

#: Interval length (instructions) when a spec names none.
DEFAULT_INTERVAL = 1024
#: Cluster count when a phase-set spec names none.
DEFAULT_K = 4

PHASES_GRAMMAR = (
    "phases(file=PATH[.gz],index=I[,interval=N]) — one phase; "
    "phases(file=PATH[.gz][,interval=N][,k=K][,seed=S]) — weighted set "
    "(sweep workload token)"
)

_PARAMS = frozenset({"file", "interval", "index", "k", "seed"})

#: The modules whose code decides a phase selection; their source bytes
#: (and numpy's version) key every stored selection.
_ANALYSIS_MODULES = ("bbv.py", "kmeans.py", "select.py", "phases.py")


def phase_name(path: str, interval: int, index: int) -> str:
    """The canonical single-phase workload spec of one interval."""
    return render_spec("phases", {"file": path, "interval": interval, "index": index})


class PhaseWorkload(TraceFileWorkload):
    """Replay of one SimPoint interval of a captured trace."""

    suite = "phases"
    description = "replays one SimPoint interval of a captured trace"
    spec_kind = "phases"
    spec_grammar = PHASES_GRAMMAR

    def __init__(
        self,
        path,
        index: int,
        interval: int = DEFAULT_INTERVAL,
        seed: int = 0,
    ) -> None:
        if interval <= 0:
            raise SpecError(
                f"phases: interval must be positive, got {interval}; "
                f"grammar: {PHASES_GRAMMAR}"
            )
        if index < 0:
            raise SpecError(
                f"phases: index must be non-negative, got {index}; "
                f"grammar: {PHASES_GRAMMAR}"
            )
        self.index = index
        self.interval = interval
        super().__init__(path, seed=seed)
        # Canonical spec-string name (overrides the trace(...) name the
        # parent set): round-trips through the grammar, pool workers and
        # cache verify rebuild the identical slice from it.
        self.name = phase_name(self.path, interval, index)

    # ------------------------------------------------------------------

    @property
    def start(self) -> int:
        """First instruction of this phase in the capture."""
        return self.index * self.interval

    def _run(self, k: Kernel) -> Iterator[Instruction]:
        # Restore the capture's region map so cache warm-up matches the
        # original run, then stream exactly this phase's slice.
        k.space.regions.extend(read_trace_regions(self.path))
        yield from itertools.islice(
            load_trace(self.path), self.start, self.start + self.interval
        )

    def trace(self, n: int) -> list[Instruction]:
        """The first *n* instructions of this phase's slice.

        A phase is at most one interval long; asking for more — or for a
        slice the capture cannot fill (index past the end, or a partial
        tail interval) — raises :class:`TraceFormatError` naming the
        phase geometry instead of the generic unbounded-generator
        complaint.
        """
        try:
            return Workload.trace(self, n)
        except RuntimeError:
            raise TraceFormatError(
                f"{self.path}: phase index={self.index} covers instructions "
                f"[{self.start}, {self.start + self.interval}) and cannot "
                f"supply {n} instruction(s); the capture is too short or "
                "the requested budget exceeds the interval"
            ) from None

    def fingerprint(self) -> str:
        """Content-addressed identity of this phase's slice.

        Covers the decoded capture content plus the interval geometry
        (interval length and index) — and nothing about *how* the phase
        was selected: neither ``k`` nor the clustering seed participates,
        so re-clustering the same capture reuses every already-simulated
        phase cell from the store.
        """
        return digest(
            {
                "__kind__": type(self).__name__,
                "name": "phases",
                "suite": self.suite,
                "trace_version": self.trace_version,
                "content": self.content_digest(),
                "interval": self.interval,
                "index": self.index,
            }
        )


# ----------------------------------------------------------------------
# Phase-set expansion (the sweep engine's entry point)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseExpansion:
    """One phase-set token expanded to its weighted member phases.

    *names* are canonical single-phase workload names (grid cells, store
    keys); *weights* align with them and sum to 1.  The sweep engine
    stores the expansion next to its grid so formatting layers can fold
    per-phase stats back into the SimPoint weighted estimate.
    """

    token: str
    path: str
    interval: int
    k: int
    seed: int
    num_intervals: int
    total_instructions: int
    names: tuple[str, ...]
    weights: tuple[float, ...]

    @property
    def coverage(self) -> float:
        """Fraction of the capture the member phases simulate."""
        if not self.total_instructions:
            return 0.0
        return len(self.names) * self.interval / self.total_instructions


@functools.cache
def analysis_code_digest() -> str:
    """SHA-256 over the source of the SimPoint analysis and numpy's version.

    Part of every stored selection's key, so editing the analysis or
    changing numpy re-analyzes instead of serving an old selection;
    nothing needs bumping by hand.  Reads files only: neither numpy nor
    :mod:`repro.simpoint` is imported.
    """
    sha = hashlib.sha256()
    simpoint = Path(__file__).resolve().parent.parent / "simpoint"
    for name in _ANALYSIS_MODULES:
        sha.update(name.encode() + b"\0" + (simpoint / name).read_bytes())
    numpy = importlib.util.find_spec("numpy")
    if numpy is None:
        sha.update(b"numpy absent")
    else:
        sha.update((Path(numpy.origin).parent / "version.py").read_bytes())
    return sha.hexdigest()


def expand_phases(
    token: str, store: ResultStore | None = None
) -> PhaseExpansion | None:
    """Expand a phase-*set* spec into its members; ``None`` if *token*
    is not one.

    Returns ``None`` for anything that is not a ``phases(...)`` spec or
    that carries ``index=`` (a single, directly instantiable phase).
    For a genuine set token the selection comes from *store* when it
    holds one for this capture content, these parameters and this
    analysis code; otherwise the SimPoint analysis runs, and its
    selection is stored when a store is given.  Malformed parameters
    raise :class:`SpecError` and unreadable/too-short captures raise the
    analysis layer's typed errors.
    """
    try:
        kind, params = parse_spec_string(token)
    except SpecError:
        return None
    if kind.lower() != "phases" or "index" in params:
        return None
    reject_unknown("phases", params, _PARAMS, PHASES_GRAMMAR)
    if "file" not in params:
        raise SpecError(
            f"phases: missing required parameter 'file'; "
            f"grammar: {PHASES_GRAMMAR}"
        )
    path = params["file"]
    interval = parse_count(
        "phases", "interval", params.get("interval", str(DEFAULT_INTERVAL))
    )
    k = parse_count("phases", "k", params.get("k", str(DEFAULT_K)))
    seed = parse_nonneg("phases", "seed", params.get("seed", "0"))
    selection = None
    if store is not None:
        # The store sits above the workload layer: import it at use.
        from repro.store import phase_key

        content = content_digest_of(path)
        key = phase_key(content, interval, k, seed, analysis_code_digest())
        selection = store.get_phases(key)
    if selection is None:
        # The analysis pulls in numpy; import lazily so the workload
        # layer (single-phase replay, warm plans) stays stdlib-only.
        from repro.simpoint.phases import analyze_trace

        phase_set = analyze_trace(path, interval=interval, k=k, seed=seed)
        selection = {
            "num_intervals": phase_set.num_intervals,
            "total_instructions": phase_set.total_instructions,
            "points": [[p.interval, p.weight] for p in phase_set.points],
        }
        # Store only what was analyzed from the content the key names.
        # The record only spares a later analysis, so a store this
        # process cannot write (a read-only results client) still plans.
        if store is not None and content_digest_of(path) == content:
            try:
                store.put_phases(key, selection)
            except OSError:
                pass
    return PhaseExpansion(
        token=token,
        path=path,
        interval=interval,
        k=k,
        seed=seed,
        num_intervals=selection["num_intervals"],
        total_instructions=selection["total_instructions"],
        names=tuple(
            phase_name(path, interval, index) for index, _ in selection["points"]
        ),
        weights=tuple(weight for _, weight in selection["points"]),
    )


# ----------------------------------------------------------------------
# Kind registration
# ----------------------------------------------------------------------


def _parse_phases(params: dict[str, str], seed: int) -> PhaseWorkload:
    reject_unknown("phases", params, _PARAMS, PHASES_GRAMMAR)
    if "file" not in params:
        raise SpecError(
            f"phases: missing required parameter 'file'; "
            f"grammar: {PHASES_GRAMMAR}"
        )
    interval = parse_count(
        "phases", "interval", params.get("interval", str(DEFAULT_INTERVAL))
    )
    if "index" not in params:
        raise SpecError(
            "phases: a spec without index= names the whole weighted phase "
            "set, which only sweeps can run (it expands to one cell per "
            "selected phase); pass it as a sweep workload token, or add "
            f"index=I to replay a single phase; grammar: {PHASES_GRAMMAR}"
        )
    clustering = sorted(set(params) & {"k", "seed"})
    if clustering:
        raise SpecError(
            f"phases: index= names one concrete interval, so the "
            f"clustering parameter(s) {', '.join(clustering)} do not "
            f"apply; grammar: {PHASES_GRAMMAR}"
        )
    index = parse_nonneg("phases", "index", params["index"])
    return PhaseWorkload(params["file"], index, interval, seed=seed)


register_workload_kind(
    WorkloadKind(
        name="phases",
        parse=_parse_phases,
        grammar=PHASES_GRAMMAR,
        description="replay SimPoint-selected phases of a captured trace "
        "(weighted set as a sweep token)",
        seed_sensitive=False,
    )
)
