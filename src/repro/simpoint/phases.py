"""Phase analysis of captured traces: the front half of SimPoint sampling.

:func:`analyze_trace` runs the whole selection pipeline over one trace
file in a single streaming pass — slice into fixed-size intervals,
profile each interval's basic-block vector (:mod:`repro.simpoint.bbv`),
cluster with k-means (:mod:`repro.simpoint.kmeans`), and choose one
representative interval per cluster with its population weight
(:mod:`repro.simpoint.select`).  The resulting :class:`PhaseSet` is the
contract the workload layer consumes: ``repro.workloads.phases`` turns
each selected interval into a replayable ``phases(...)`` workload and
the sweep engine combines the per-phase IPCs with the set's weights.

Only *complete* intervals are profiled; a partial tail (a capture whose
length is not a multiple of the interval) is dropped from clustering so
every selectable phase can actually supply ``interval`` instructions at
replay time.  Each call analyzes afresh; a sweep given a result store
keeps the selection there (:func:`repro.workloads.phases.expand_phases`),
so a warm plan never comes back here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.grammar import render_spec
from repro.isa import Instruction
from repro.simpoint.bbv import BasicBlockVectors, collect_bbvs
from repro.simpoint.select import SimPoint, choose_simpoints
from repro.trace.io import load_trace


class PhaseAnalysisError(ValueError):
    """A trace cannot be phase-analyzed (empty, or shorter than one interval)."""


@dataclass(frozen=True)
class PhaseSet:
    """The SimPoint selection for one captured trace.

    *points* hold the representative interval indices and their cluster
    weights (summing to 1 over the selected phases); *num_intervals*
    counts the complete intervals profiled, and *total_instructions* the
    capture's full length including any unprofiled partial tail.
    """

    path: str
    interval: int
    k: int  #: requested cluster count (the selection may be smaller)
    seed: int
    num_intervals: int
    total_instructions: int
    points: tuple[SimPoint, ...]

    @property
    def weights(self) -> tuple[float, ...]:
        """Per-phase weights, in :attr:`points` order (sum to 1)."""
        return tuple(point.weight for point in self.points)

    @property
    def coverage(self) -> float:
        """Fraction of the capture the selected phases actually simulate."""
        if not self.total_instructions:
            return 0.0
        return len(self.points) * self.interval / self.total_instructions

    def member_specs(self) -> tuple[str, ...]:
        """Canonical single-phase workload specs, one per selected point.

        These are exactly the names :class:`repro.workloads.phases
        .PhaseWorkload` gives itself, so the sweep engine's cells, the
        result store's keys, and this analysis all agree on identity.
        """
        return tuple(
            render_spec(
                "phases",
                {"file": self.path, "interval": self.interval, "index": p.interval},
            )
            for p in self.points
        )

    def token(self) -> str:
        """The canonical phase-*set* spec (the sweep-level token)."""
        return render_spec(
            "phases",
            {
                "file": self.path,
                "interval": self.interval,
                "k": self.k,
                "seed": self.seed,
            },
        )

    def table_rows(self) -> list[list[object]]:
        """Rows for human-facing phase tables (the ``simpoint`` subcommand).

        Each row is ``[phase, interval, instruction range, weight, spec]``.
        """
        rows: list[list[object]] = []
        for number, (point, spec) in enumerate(zip(self.points, self.member_specs())):
            start, end = point.instruction_range(self.interval)
            rows.append(
                [number, point.interval, f"[{start}, {end})",
                 round(point.weight, 4), spec]
            )
        return rows


def analyze_trace(
    path: str, interval: int = 1024, k: int = 4, seed: int = 0
) -> PhaseSet:
    """Select weighted simulation phases for the capture at *path*.

    One streaming pass: profile BBVs per *interval* instructions, drop
    the partial tail, cluster into at most *k* groups (clamped to the
    interval count), and pick one representative per cluster.  Raises
    :class:`PhaseAnalysisError` when the capture holds no complete
    interval, and :class:`~repro.trace.io.TraceFormatError` for a
    missing or corrupt file.
    """
    if interval <= 0:
        raise PhaseAnalysisError(f"interval must be positive, got {interval}")
    if k <= 0:
        raise PhaseAnalysisError(f"k must be positive, got {k}")
    total = 0

    def counted() -> Iterator[Instruction]:
        """Pass the trace through while counting its total length."""
        nonlocal total
        for instruction in load_trace(path):
            total += 1
            yield instruction

    bbvs = collect_bbvs(counted(), interval_size=interval)
    complete = total // interval
    if complete == 0:
        raise PhaseAnalysisError(
            f"{path}: capture holds {total} instruction(s), fewer than one "
            f"complete interval of {interval}; shrink the interval or "
            "capture a longer trace"
        )
    if total % interval:
        bbvs = BasicBlockVectors(
            interval_size=interval,
            matrix=bbvs.matrix[:complete],
            block_ids=bbvs.block_ids,
        )
    points = tuple(choose_simpoints(bbvs, k=k, seed=seed))
    return PhaseSet(
        path=path,
        interval=interval,
        k=k,
        seed=seed,
        num_intervals=complete,
        total_instructions=total,
        points=points,
    )
