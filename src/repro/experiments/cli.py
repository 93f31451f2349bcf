"""Command-line entry point regenerating the paper's tables and figures.

Usage::

    python -m repro.experiments all
    python -m repro.experiments fig9 fig12 --scale full
    python -m repro.experiments fig3 --csv results/ --json results/
    dkip-experiments fig9 --store .repro-store     # cached, resumable
    dkip-experiments report --store .repro-store   # build REPRODUCTION.md
    dkip-experiments cache stats                   # inspect the store
    dkip-experiments cache verify --sample 3       # catch stale caches
    dkip-experiments machines                      # kinds, grammar, presets
    dkip-experiments workloads                     # workload kinds + benchmarks
    dkip-experiments sweep fig9                    # a named sweep preset
    dkip-experiments sweep scenario.toml           # a declarative file
    dkip-experiments sweep --machines "dkip(llib=8192),R10-256" \
        --memory "MEM-400,mem(lat=800)" --workloads "mcf,swim" \
        --svg sweep.svg                            # an ad-hoc grid
    dkip-experiments sweep --machines dkip \
        --workloads "synth(chase=4),synth(chase=16)"  # workload specs
    dkip-experiments simpoint long.trc.gz --interval 4096 --k 5 \
        --spec-out phases.toml                     # SimPoint phase table
    dkip-experiments simpoint cap.trc.gz --capture mcf \
        --instructions 50000                       # synthesize + analyze
    dkip-experiments profile dkip mcf --instructions 20000 \
        --profile-out dkip-mcf.pstats              # where does time go?
    dkip-experiments submit --machines "dkip,R10-64" --workloads int \
        --service .svc                             # enqueue a sweep job
    dkip-experiments serve --service .svc --workers 4 --once
    dkip-experiments status --service .svc         # per-shard progress
    dkip-experiments results JOBID --service .svc  # grid from the store
    dkip-experiments --list

``profile`` runs one (machine, workload[, memory]) cell under cProfile
and prints simulation throughput, wall time attributed per pipeline
stage, and the hottest functions — the first stop before touching any
hot loop (see PERFORMANCE.md for the cookbook).

``simpoint`` runs the SimPoint phase analysis over a captured trace
(optionally capturing it first with ``--capture WORKLOAD``): it slices
the capture into ``--interval``-instruction intervals, clusters their
basic-block vectors into ``--k`` groups, prints the weighted phase
table, and — with ``--spec-out`` — writes a sweep scenario file whose
``phases(...)`` workload token replays just the selected phases;
``dkip-experiments sweep <file>`` then reports the weighted-mean IPC
estimate per machine (see docs/METHODOLOGY.md).

The result store (``--store DIR``, or the ``REPRO_STORE`` environment
variable) makes every sweep incremental: cells already on disk are not
re-simulated, and a sweep killed mid-flight resumes from the completed
cells.  ``--force`` recomputes and overwrites; ``--no-store`` ignores
any configured store for this invocation.

``report`` assembles every requested experiment (default: all) into one
standalone Markdown document with embedded SVG charts and a
reproduced-vs-paper verdict per figure; on a warm store it only renders.

The service subcommands run sweeps as a shared, sharded job queue
(:mod:`repro.service`): ``submit`` enqueues a content-addressed job into
the ``--service`` spool directory (``$REPRO_SERVICE``), ``serve`` runs
the scheduler plus ``--workers`` worker processes against it (``--once``
drains the queue and exits), and ``status``/``results`` attach from any
client — progress and the finished grid come straight from the shared
store, so duplicate submissions and worker deaths never re-simulate a
completed cell.

The resilience flags (``--cell-timeout``, ``--retries``,
``--max-failures``, ``--failures-json``) activate the fault-tolerant
executor (:mod:`repro.resilience`) for the whole invocation: hung cells
are killed at their deadline, transient failures and dead workers retry
with backoff, and — under ``--max-failures N`` — a sweep completes with
a partial grid (failed cells rendered as ``n/a``) instead of dying,
exiting nonzero with one typed failure record per lost cell.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.experiments.common import Scale, compute_cell
from repro.experiments.registry import EXPERIMENTS, REGISTRY, get_experiment
from repro.resilience import (
    STRICT,
    CellExecutionError,
    ExecutionPolicy,
    FailureReport,
    resilience_context,
)
from repro.store import ResultStore


class UsageError(ValueError):
    """A bad invocation: its message goes to stderr and the exit status is 2."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dkip-experiments",
        description="Regenerate the tables and figures of 'A Decoupled "
        "KILO-Instruction Processor' (HPCA 2006)",
        epilog="cache subcommands: 'cache stats' (store inventory), "
        "'cache prune [--all]' (drop corrupt/stale entries and defective "
        "phase records), "
        "'cache verify [--sample N]' (re-run stored cells and diff).",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=["all"],
        help="experiment names (e.g. fig9 fig12), 'all', 'report "
        "[names...]', 'cache <cmd>', 'machines', 'workloads', 'sweep "
        "[preset|file.toml ...]', 'simpoint TRACE[.gz]', or "
        "'profile MACHINE WORKLOAD [MEMORY]'",
    )
    parser.add_argument(
        "--scale",
        choices=[s.value for s in Scale],
        default=Scale.DEFAULT.value,
        help="runtime/fidelity preset (default: %(default)s)",
    )
    parser.add_argument(
        "--csv",
        metavar="DIR",
        default=None,
        help="also write each experiment's rows as CSV into DIR",
    )
    parser.add_argument(
        "--json",
        metavar="DIR",
        default=None,
        help="also write each experiment result as JSON into DIR",
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="result-store directory; cached cells are reused and new "
        "cells persisted (default: $REPRO_STORE when set, else off)",
    )
    parser.add_argument(
        "--no-store",
        action="store_true",
        help="ignore --store and $REPRO_STORE; always simulate",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="recompute every cell and overwrite store entries",
    )
    parser.add_argument(
        "--sample",
        type=int,
        metavar="N",
        default=None,
        help="cache verify: check N randomly sampled cells (default: all)",
    )
    parser.add_argument(
        "--quarantine",
        action="store_true",
        help="cache verify: move corrupt/schema-stale entries to "
        "<store>/.quarantine/ instead of skipping them",
    )
    parser.add_argument(
        "--all",
        action="store_true",
        dest="prune_all",
        help="cache prune: remove every entry and phase record, not just "
        "corrupt/stale ones",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default="REPRODUCTION.md",
        help="report: output path for the assembled document "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiments and exit"
    )
    sweep = parser.add_argument_group(
        "sweep", "ad-hoc grid sweeps over the declarative machine layer"
    )
    sweep.add_argument(
        "--machines",
        action="append",
        metavar="SPECS",
        default=None,
        help="comma-separated machine specs or preset names, e.g. "
        '"R10-64,dkip(llib=8192)" (repeatable)',
    )
    sweep.add_argument(
        "--memory",
        action="append",
        metavar="SPECS",
        default=None,
        help="comma-separated memory specs: Table-1 names, 'default', or "
        'mem(...) grammar, e.g. "MEM-400,mem(lat=800)" (repeatable)',
    )
    sweep.add_argument(
        "--workloads",
        action="append",
        metavar="SPECS",
        default=None,
        help="comma-separated suite tokens (int, fp, all), benchmark "
        'names, and/or workload specs like "synth(chase=8)" or '
        '"trace(file=foo.trc.gz)" (repeatable; default: int)',
    )
    sweep.add_argument(
        "--axes",
        action="append",
        metavar="KEY=V1,V2,...",
        default=None,
        help="cross an extra machine parameter over the given values, "
        'e.g. --axes "llib=1024,4096" --axes "cp=INO,OOO-40" (repeatable)',
    )
    sweep.add_argument(
        "--workload-axes",
        action="append",
        metavar="KEY=V1,V2,...",
        default=None,
        help="cross an extra workload trait over the given values, e.g. "
        '--workloads synth --workload-axes "chase=0,4,16" (repeatable)',
    )
    sweep.add_argument(
        "--name",
        metavar="STR",
        default=None,
        help="sweep: result/experiment name (default: sweep)",
    )
    sweep.add_argument(
        "--title",
        metavar="STR",
        default=None,
        help="sweep: human title for the result table",
    )
    sweep.add_argument(
        "--instructions",
        type=int,
        metavar="N",
        default=None,
        help="sweep: per-cell committed-instruction budget "
        "(default: the --scale preset)",
    )
    sweep.add_argument(
        "--max-cycles",
        type=int,
        metavar="N",
        default=None,
        help="sweep: deadlock-guard cycle bound forwarded to the engine",
    )
    sweep.add_argument(
        "--svg",
        metavar="PATH",
        default=None,
        help="sweep: also render the result chart as an SVG file",
    )
    simpoint = parser.add_argument_group(
        "simpoint", "SimPoint phase analysis of captured traces"
    )
    simpoint.add_argument(
        "--capture",
        metavar="WORKLOAD",
        default=None,
        help="simpoint: synthesize the trace first by capturing this "
        "benchmark name or workload spec (length: --instructions, "
        "default 50000)",
    )
    simpoint.add_argument(
        "--interval",
        type=int,
        metavar="N",
        default=None,
        help="simpoint: instructions per interval/phase (default: 1024)",
    )
    simpoint.add_argument(
        "--k",
        type=int,
        metavar="K",
        default=None,
        help="simpoint: number of clusters, i.e. at most K selected "
        "phases (default: 4)",
    )
    simpoint.add_argument(
        "--phase-seed",
        type=int,
        metavar="S",
        default=None,
        help="simpoint: k-means clustering seed (default: 0)",
    )
    simpoint.add_argument(
        "--spec-out",
        metavar="PATH",
        default=None,
        help="simpoint: write a sweep scenario file (TOML) whose "
        "phases(...) token replays the selected phases; machines come "
        "from --machines (default: dkip)",
    )
    profile = parser.add_argument_group(
        "profile", "cProfile one cell and attribute time to pipeline stages"
    )
    profile.add_argument(
        "--profile-out",
        metavar="PATH",
        default=None,
        help="profile: also dump raw cProfile data to PATH (load with "
        "pstats or snakeviz)",
    )
    profile.add_argument(
        "--sort",
        choices=("tottime", "cumtime", "ncalls"),
        default="tottime",
        help="profile: hot-function table ordering (default: %(default)s)",
    )
    service = parser.add_argument_group(
        "service",
        "sharded sweep service over one shared result store "
        "(serve / submit / status / results)",
    )
    service.add_argument(
        "--service",
        metavar="DIR",
        default=None,
        help="service spool directory (default: $REPRO_SERVICE; the "
        "shared store defaults to DIR/store unless --store is given)",
    )
    service.add_argument(
        "--workers",
        type=int,
        metavar="N",
        default=2,
        help="serve: worker processes to run (default: %(default)s)",
    )
    service.add_argument(
        "--once",
        action="store_true",
        help="serve: exit once every submitted job has completed",
    )
    service.add_argument(
        "--poll",
        type=float,
        metavar="SECONDS",
        default=0.2,
        help="serve/submit --wait: poll interval (default: %(default)s)",
    )
    service.add_argument(
        "--lease",
        type=float,
        metavar="SECONDS",
        default=30.0,
        help="serve: heartbeat staleness after which a worker's shard "
        "is requeued (default: %(default)s)",
    )
    service.add_argument(
        "--shards",
        type=int,
        metavar="N",
        default=4,
        help="submit: work units the grid is split into per dispatch "
        "(default: %(default)s)",
    )
    service.add_argument(
        "--wait",
        action="store_true",
        help="submit: block until the job completes, printing progress "
        "(a scheduler must be serving the spool)",
    )
    resilience = parser.add_argument_group(
        "resilience",
        "fault tolerance for long sweeps (any of these flags activates "
        "the resilient execution policy for the whole invocation)",
    )
    resilience.add_argument(
        "--cell-timeout",
        type=float,
        metavar="SECONDS",
        default=None,
        help="per-cell wall-clock deadline; an overdue cell's worker is "
        "killed and the cell retried (default: no deadline)",
    )
    resilience.add_argument(
        "--retries",
        type=int,
        metavar="N",
        default=None,
        help="retry budget per cell for transient failures, worker "
        f"deaths and timeouts (default: {STRICT.retries})",
    )
    resilience.add_argument(
        "--max-failures",
        type=int,
        metavar="N",
        default=None,
        help="final cell failures tolerated before aborting; 0 = "
        "fail-fast (the default), negative = never abort",
    )
    resilience.add_argument(
        "--failures-json",
        metavar="PATH",
        default=None,
        help="write the machine-readable failure report to PATH",
    )
    return parser


def resolve_policy(args) -> ExecutionPolicy | None:
    """The execution policy the resilience flags describe, if any.

    ``None`` (no flag given) keeps today's behaviour exactly: strict
    fail-fast execution with no ambient failure report.
    """
    flags = (args.cell_timeout, args.retries, args.max_failures,
             args.failures_json)
    if all(flag is None for flag in flags):
        return None
    if args.cell_timeout is not None and args.cell_timeout <= 0:
        raise ValueError(
            f"--cell-timeout must be positive, got {args.cell_timeout}"
        )
    if args.retries is not None and args.retries < 0:
        raise ValueError(f"--retries must be >= 0, got {args.retries}")
    max_failures: int | None = STRICT.max_failures
    if args.max_failures is not None:
        max_failures = None if args.max_failures < 0 else args.max_failures
    return ExecutionPolicy(
        cell_timeout=args.cell_timeout,
        retries=STRICT.retries if args.retries is None else args.retries,
        max_failures=max_failures,
    )


def _finalize_failures(
    args, policy: ExecutionPolicy, report: FailureReport, status: int
) -> int:
    """Write ``--failures-json``, summarize failures, cap the exit code."""
    if args.failures_json:
        report.write_json(args.failures_json, policy)
        print(f"[failure report written to {args.failures_json}]")
    if not report.failures:
        return status
    print(f"cell failures: {report.summary()}", file=sys.stderr)
    for failure in report.failures:
        print(f"  {failure.describe()}", file=sys.stderr)
    # Nonzero but capped: leave the upper range to the shell (126+) and
    # keep the per-experiment failure count (<=255) distinguishable.
    return max(status, min(len(report.failures), 125))


def resolve_store(args) -> ResultStore | None:
    """The store this invocation should use, honouring ``--no-store``."""
    if args.no_store:
        return None
    directory = args.store or os.environ.get("REPRO_STORE", "").strip() or None
    return ResultStore(directory) if directory else None


def run_cache_command(args, words) -> int:
    """Dispatch ``dkip-experiments cache <stats|prune|verify>``."""
    command = words[0] if words else "stats"
    if command not in ("stats", "prune", "verify"):
        raise UsageError(
            f"unknown cache command {command!r}; expected stats, prune or verify"
        )
    store = resolve_store(args)
    if store is None:
        raise UsageError(
            "no result store configured; pass --store DIR or set $REPRO_STORE"
        )

    if command == "stats":
        summary = store.summary()
        print(f"store root      {summary['root']}")
        print(f"entries         {summary['entries']}")
        print(f"corrupt         {summary['corrupt']}")
        print(f"stale schema    {summary['stale_schema']}")
        print(f"size            {summary['bytes']} bytes")
        print(f"phase records   {summary['phase_records']}")
        print(f"phase defective {summary['phase_defective']}")
        for kind, count in summary["machines"].items():
            print(f"  machine {kind:<24s} {count}")
        for name, count in summary["workloads"].items():
            print(f"  workload {name:<23s} {count}")
        return 0

    if command == "prune":
        removed = store.prune(everything=args.prune_all)
        what = "entries" if args.prune_all else "corrupt/stale entries"
        print(f"pruned {removed} {what} from {store.root}")
        return 0

    # Fresh sampling entropy per invocation: repeated --sample N runs
    # cover different cells over time instead of re-checking one subset.
    reports = store.verify(
        compute_cell,
        sample=args.sample,
        rng_seed=None,
        quarantine=args.quarantine,
    )
    stale = 0
    quarantined = 0
    for report in reports:
        line = f"{report['status']:<6s} {report['cell']} [{report['digest'][:12]}]"
        if report["status"] == "quarantined":
            quarantined += 1
            line += f"  {report.get('detail', '')}"
        elif report["status"] != "ok":
            stale += 1
            line += f"  {report.get('detail', '')}"
        print(line)
    print(f"verified {len(reports) - quarantined} cell(s), {stale} stale/errored")
    if quarantined:
        print(
            f"quarantined {quarantined} corrupt/stale entrie(s) to "
            f"{store.root / '.quarantine'}"
        )
    return 1 if stale else 0


def _write_result_files(result, args) -> None:
    """Honour ``--csv``/``--json`` for one experiment result."""
    if args.csv:
        path = result.write_csv(args.csv)
        print(f"[csv written to {path}]")
        print()
    if args.json:
        path = result.write_json(args.json)
        print(f"[json written to {path}]")
        print()


def _write_sweep_svg(path: str, result, spec) -> bool:
    """Render *result* through *spec* into an SVG file at *path*.

    Returns False (after a clean stderr message) when the path is
    unwritable — the sweep already ran, so this must not traceback.
    """
    from repro.report.build import figure_svg

    document = figure_svg(spec, result) if spec is not None else None
    if document is None:
        print(f"no chart to render for {result.name}; {path} not written",
              file=sys.stderr)
        return True
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(document)
    except OSError as error:
        print(f"cannot write svg {path}: {error}", file=sys.stderr)
        return False
    print(f"[svg written to {path}]")
    return True


def _adhoc_sweep_mapping(args) -> dict:
    """The sweep mapping the ad-hoc ``--machines/...`` flags describe.

    Raises :class:`~repro.machines.SpecError` on malformed axis flags.
    """
    from repro.machines import SpecError, split_specs

    def parse_axis_flags(chunks, flag):
        axes: dict[str, list[str]] = {}
        for chunk in chunks or []:
            key, sep, values = chunk.partition("=")
            if not sep or not key.strip() or not values.strip():
                raise SpecError(
                    f"malformed {flag} {chunk!r}; expected KEY=V1,V2,..."
                )
            axes[key.strip()] = split_specs(values)
        return axes

    return {
        "name": args.name or "sweep",
        "title": args.title or "",
        "machines": [
            s for chunk in args.machines for s in split_specs(chunk)
        ],
        "memory": [
            s for chunk in args.memory or [] for s in split_specs(chunk)
        ],
        "workloads": [
            s for chunk in args.workloads or [] for s in split_specs(chunk)
        ],
        "axes": parse_axis_flags(args.axes, "--axes"),
        "workload_axes": parse_axis_flags(
            args.workload_axes, "--workload-axes"
        ),
        "instructions": args.instructions,
        "max_cycles": args.max_cycles,
    }


def _named_sweeps(args, words, command: str) -> list[tuple[object, object]]:
    """The grids a ``sweep`` or ``submit`` invocation names, as
    ``(SweepSpec, runner or None)`` pairs.

    A word is a scenario file (``.toml``/``.json``, or any path) or a
    sweep preset at ``--scale``, which brings its figure-grade runner
    when it has one; with no words the ad-hoc ``--machines/...`` flags
    describe one grid.  Every word is read before any grid runs.
    """
    from repro.experiments.sweep import SweepSpec, get_sweep_preset

    if not words:
        if not args.machines:
            raise UsageError(
                f"{command} needs --machines SPECS, a preset name, or a "
                "scenario file; see 'dkip-experiments machines' for the "
                "grammar"
            )
        return [(SweepSpec.from_mapping(_adhoc_sweep_mapping(args)), None)]
    sweeps = []
    for word in words:
        if word.endswith((".toml", ".json")) or os.path.sep in word:
            sweeps.append((SweepSpec.from_file(word), None))
        else:
            preset = get_sweep_preset(word)
            sweeps.append((preset.sweep_for(Scale(args.scale)), preset.runner))
    return sweeps


def run_sweep_command(args, words) -> int:
    """Dispatch ``dkip-experiments sweep [preset|file ...]`` and ad-hoc
    ``--machines/--memory/--workloads/--axes`` grids."""
    from repro.experiments.sweep import figure_spec_for, run_sweep

    scale = Scale(args.scale)
    store = resolve_store(args)
    adhoc_flags = (
        args.machines, args.memory, args.workloads, args.axes,
        args.workload_axes, args.name, args.title,
        args.instructions, args.max_cycles,
    )
    if words and any(flag is not None for flag in adhoc_flags):
        print(
            "note: --machines/--memory/--workloads/--axes/--workload-axes/"
            "--name/--title/--instructions/--max-cycles are ignored when "
            "presets or scenario files are named",
            file=sys.stderr,
        )
    runs: list[tuple[object, object]] = []  # (result, figure spec)
    for spec, runner in _named_sweeps(args, words, "sweep"):
        if runner is None:
            result = run_sweep(spec, scale, store=store, force=args.force)
        else:
            result = runner(scale, store=store, force=args.force)
        # A figure-grade runner's result renders as its registered figure.
        registered = REGISTRY.get(result.name) if runner else None
        runs.append(
            (result, registered.spec if registered else figure_spec_for(spec))
        )
    status = 0
    for result, figure in runs:
        print(result.render())
        print()
        _write_result_files(result, args)
        if args.svg:
            path = args.svg
            if len(runs) > 1:
                root, suffix = os.path.splitext(path)
                path = f"{root}-{result.name}{suffix}"
            if not _write_sweep_svg(path, result, figure):
                status = 2
    if store is not None:
        print(
            f"store {store.root}: {store.hits} cells cached, "
            f"{store.writes} simulated"
        )
    return status


def _write_phase_spec(path: str, phase_set, machines: list[str]) -> None:
    """Write a sweep scenario file replaying *phase_set*'s selection.

    Plain TOML written by hand (the stdlib only reads it); string values
    go through ``json.dumps``, whose escaping is valid TOML for the
    paths the workload grammar accepts.
    """
    import json

    stem = os.path.splitext(os.path.basename(phase_set.path))[0]
    stem = stem[:-4] if stem.endswith(".trc") else stem
    title = (
        f"SimPoint phase sweep of {os.path.basename(phase_set.path)} "
        f"(interval={phase_set.interval}, k={phase_set.k})"
    )
    lines = [
        "# Written by `dkip-experiments simpoint`; run with:",
        f"#   dkip-experiments sweep {path} --store .repro-store",
        f"name = {json.dumps(f'phases-{stem}')}",
        f"title = {json.dumps(title)}",
        f"machines = [{', '.join(json.dumps(m) for m in machines)}]",
        f"workloads = [{json.dumps(phase_set.token())}]",
        "# One whole interval per phase cell (the weighted estimate",
        "# assumes complete phases).",
        f"instructions = {phase_set.interval}",
        "",
    ]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines))


def run_simpoint_command(args, words) -> int:
    """Dispatch ``dkip-experiments simpoint TRACE``: phase analysis.

    Optionally captures the trace first (``--capture``), then slices,
    clusters and prints the weighted phase table; ``--spec-out`` also
    writes a ready-to-sweep scenario file.
    """
    from repro.machines import split_specs
    from repro.simpoint.phases import analyze_trace
    from repro.trace.io import save_trace
    from repro.viz.ascii import table
    from repro.workloads import get_workload
    from repro.workloads.phases import DEFAULT_INTERVAL, DEFAULT_K

    if len(words) != 1:
        raise UsageError(
            "usage: dkip-experiments simpoint TRACE[.gz] [--capture "
            "WORKLOAD] [--instructions N] [--interval N] [--k K] "
            "[--phase-seed S] [--spec-out FILE] [--machines SPECS]"
        )
    path = words[0]
    interval = args.interval if args.interval is not None else DEFAULT_INTERVAL
    k = args.k if args.k is not None else DEFAULT_K
    seed = args.phase_seed if args.phase_seed is not None else 0
    if args.capture:
        length = args.instructions if args.instructions is not None else 50_000
        written = save_trace(get_workload(args.capture), path, length)
        print(f"captured {written} instructions of {args.capture!r} to {path}")
    phase_set = analyze_trace(path, interval=interval, k=k, seed=seed)
    print(
        table(
            ["phase", "interval", "instructions", "weight", "workload spec"],
            phase_set.table_rows(),
            title=f"SimPoint phases of {path} "
            f"[interval={interval}, k={k}, seed={seed}]",
        )
    )
    print()
    print(
        f"capture: {phase_set.total_instructions} instructions, "
        f"{phase_set.num_intervals} complete interval(s) of {interval}"
    )
    print(
        f"selected {len(phase_set.points)} phase(s) covering "
        f"{phase_set.coverage:.1%} of the capture; weighted-IPC estimate "
        "= sum(weight x phase IPC)"
    )
    print(f"sweep token: {phase_set.token()}")
    if args.spec_out:
        machines = [
            spec for chunk in args.machines or ["dkip"]
            for spec in split_specs(chunk)
        ]
        try:
            _write_phase_spec(args.spec_out, phase_set, machines)
        except OSError as error:
            raise UsageError(f"cannot write {args.spec_out}: {error}") from error
        print(f"[phase spec written to {args.spec_out}]")
        print(f"run it: dkip-experiments sweep {args.spec_out} --store DIR")
    return 0


def run_machines_command(args, words) -> int:
    """Dispatch ``dkip-experiments machines``: kinds, grammar, presets."""
    from repro.experiments.sweep import SWEEP_PRESETS
    from repro.machines import MEMORY_GRAMMAR, PRESETS, machine_kinds

    print("machine kinds — spec grammar: KIND(key=value,...) or bare KIND")
    for kind in machine_kinds().values():
        print(f"  {kind.name:<10s}{kind.description}")
        print(f"  {'':<10s}{kind.grammar}")
    print()
    print("named presets (paper provenance):")
    for preset in PRESETS.values():
        print(f"  {preset.name:<14s}{preset.spec:<24s}{preset.provenance}")
    print()
    print("sweep presets (dkip-experiments sweep <name>):")
    for sweep_preset in SWEEP_PRESETS.values():
        print(f"  {sweep_preset.name:<14s}{sweep_preset.description}")
    print()
    print("memory spec grammar:")
    print(f"  {MEMORY_GRAMMAR}")
    return 0


def run_workloads_command(args, words) -> int:
    """Dispatch ``dkip-experiments workloads``: kinds, grammar, benchmarks."""
    from repro.workloads import SPECFP_NAMES, SPECINT_NAMES, workload_kinds

    print("workload kinds — spec grammar: KIND(key=value,...) or bare KIND")
    for kind in workload_kinds().values():
        print(f"  {kind.name:<10s}{kind.description}")
        print(f"  {'':<10s}{kind.grammar}")
    print()
    print("named benchmarks (bare name or bench(name=...)):")
    print(f"  int: {', '.join(SPECINT_NAMES)}")
    print(f"  fp:  {', '.join(SPECFP_NAMES)}")
    print()
    print("suite tokens for sweeps: int, fp, all")
    print(
        "capture a trace for the trace(...) kind with "
        "repro.trace.io.save_trace(workload, path, n)"
    )
    print(
        "turn a capture into weighted SimPoint phases with "
        "'dkip-experiments simpoint TRACE'; the phases(...) set form "
        "(no index=) is a sweep token that expands to one weighted "
        "cell per selected phase"
    )
    return 0


#: Human stage names for the per-file time attribution of ``profile``.
#: Files not listed fall back to their ``package/module`` path, so new
#: modules show up unnamed rather than vanishing.
_PROFILE_STAGES = {
    "pipeline/fetch.py": "fetch + branch redirect",
    "pipeline/queues.py": "issue queues (wakeup/select)",
    "pipeline/fu.py": "functional units",
    "pipeline/lsq.py": "load/store queues",
    "pipeline/entry.py": "in-flight entries (rename)",
    "pipeline/regstate.py": "register state",
    "pipeline/core.py": "event queue + run loop",
    "branch": "branch prediction",
    "memory": "memory hierarchy",
    "core": "D-KIP model (analyze/extract/MP)",
    "baselines/limit.py": "limit core (one-pass)",
    "baselines": "baseline core model",
    "sim/stats.py": "stats + histograms",
    "workloads": "trace generation",
    "trace": "trace generation",
    "isa": "isa (latencies, operands)",
}


def _profile_stage(filename: str) -> str:
    """Map a profiled code object's file to a pipeline-stage label."""
    marker = f"{os.sep}repro{os.sep}"
    index = filename.rfind(marker)
    if index < 0:
        return "python runtime + other"
    subpath = filename[index + len(marker):].replace(os.sep, "/")
    return (
        _PROFILE_STAGES.get(subpath)
        or _PROFILE_STAGES.get(subpath.split("/", 1)[0])
        or subpath
    )


def run_profile_command(args, words) -> int:
    """Dispatch ``dkip-experiments profile MACHINE WORKLOAD [MEMORY]``.

    Runs one cell under :mod:`cProfile` and prints (a) a run summary
    with simulation throughput, (b) wall time attributed per pipeline
    stage — exclusive time grouped by the module that implements the
    stage — and (c) the hottest individual functions.  This is the
    entry point the performance cookbook in PERFORMANCE.md builds on;
    ``--profile-out`` keeps the raw profile for offline digging.
    """
    import cProfile
    import pstats
    import time

    from repro.machines import parse_machine, parse_memory
    from repro.sim.runner import simulate
    from repro.viz.ascii import table
    from repro.workloads import get_workload

    if not 1 < len(words) < 4:
        raise UsageError(
            "usage: dkip-experiments profile MACHINE WORKLOAD [MEMORY] "
            "[--instructions N] [--profile-out FILE] [--sort KEY]"
        )
    config = parse_machine(words[0])
    workload = get_workload(words[1])
    memory = parse_memory(words[2] if len(words) == 3 else "default")
    instructions = args.instructions if args.instructions is not None else 20_000
    trace = workload.trace(instructions)

    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    stats = simulate(config, trace, memory=memory, regions=workload.regions)
    profiler.disable()
    elapsed = time.perf_counter() - started

    label = getattr(config, "name", words[0])
    print(
        f"{label} × {words[1]} × {memory.name}: "
        f"{stats.committed} instructions, {stats.cycles} cycles, "
        f"IPC {stats.ipc:.3f}"
    )
    print(
        f"wall {elapsed:.3f}s — "
        f"{stats.cycles / elapsed / 1e3:.0f}k cycles/s, "
        f"{stats.committed / elapsed / 1e3:.0f}k instructions/s"
    )
    print()

    profile = pstats.Stats(profiler)
    total = sum(row[2] for row in profile.stats.values()) or 1.0
    stages: dict[str, tuple[float, int]] = {}
    for (filename, _lineno, _name), (_cc, ncalls, tottime, _ct, _callers) in (
        profile.stats.items()
    ):
        stage = _profile_stage(filename)
        seconds, calls = stages.get(stage, (0.0, 0))
        stages[stage] = (seconds + tottime, calls + ncalls)
    stage_rows = [
        [stage, f"{seconds:.3f}", f"{100 * seconds / total:5.1f}%", str(calls)]
        for stage, (seconds, calls) in sorted(
            stages.items(), key=lambda item: item[1][0], reverse=True
        )
    ]
    print(
        table(
            ["stage", "seconds", "share", "calls"],
            stage_rows,
            title="per-stage attribution (exclusive time by module)",
        )
    )
    print()

    sort_index = {"tottime": 2, "cumtime": 3, "ncalls": 1}[args.sort]
    hot = sorted(
        profile.stats.items(), key=lambda item: item[1][sort_index], reverse=True
    )[:15]
    hot_rows = []
    for (filename, lineno, name), (_cc, ncalls, tottime, cumtime, _callers) in hot:
        where = _profile_stage(filename)
        base = os.path.basename(filename)
        hot_rows.append(
            [f"{base}:{lineno}({name})", str(ncalls),
             f"{tottime:.3f}", f"{cumtime:.3f}", where]
        )
    print(
        table(
            ["function", "ncalls", "tottime", "cumtime", "stage"],
            hot_rows,
            title=f"hottest functions (by {args.sort})",
        )
    )
    if args.profile_out:
        try:
            profiler.dump_stats(args.profile_out)
        except OSError as error:
            raise UsageError(f"cannot write {args.profile_out}: {error}") from error
        print(f"\n[raw profile written to {args.profile_out}]")
    return 0


def _resolve_service(args):
    """The service spool (``--service``/``$REPRO_SERVICE``) and its store.

    Returns ``(queue, store)``; raises :class:`UsageError` when no spool
    directory is configured.  Without an explicit ``--store`` the shared
    store lives inside the spool (``<service>/store``), so every worker
    and client agrees on one ledger by construction.
    """
    from repro.service import ServiceQueue

    directory = (
        args.service or os.environ.get("REPRO_SERVICE", "").strip() or None
    )
    if directory is None:
        raise UsageError(
            "no service directory configured; pass --service DIR or set "
            "$REPRO_SERVICE"
        )
    queue = ServiceQueue(directory)
    queue.ensure()
    store = resolve_store(args) or ResultStore(queue.root / "store")
    return queue, store


def _match_job(queue, word: str):
    """The one job of *queue* whose id starts with *word*."""
    job = queue.match_job(word)
    if job is None:
        raise UsageError(f"no unique job matches {word!r}")
    return job


def run_serve_command(args, words) -> int:
    """Dispatch ``dkip-experiments serve``: scheduler + N local workers.

    The scheduler loop runs in this process; each ``--workers`` slot is
    a separate OS process polling the same spool, so a worker death is a
    real process death and the store is genuinely shared.  A worker that
    exits while the drain flag is down is replaced in its slot under a
    fresh name, so ``status`` tells the new worker from the dead one's
    orphaned claim.  ``--once`` drains every submitted job and exits
    (the smoke-test mode) with the count of failed and lost cells,
    capped at 125, as its status; a job that failed to plan counts one.
    Without it the service runs until interrupted.
    """
    import multiprocessing
    import time

    from repro.service import FAILED, Scheduler, worker_main

    queue, store = _resolve_service(args)
    queue.clear_stop()
    scheduler = Scheduler(queue, store, lease=args.lease)

    def spawn(slot: int, restart: int) -> multiprocessing.Process:
        suffix = f".{restart}" if restart else ""
        name = f"worker-{slot}{suffix}@{os.getpid()}"
        process = multiprocessing.Process(
            target=worker_main,
            args=(str(queue.root),),
            kwargs={"store_root": str(store.root), "poll": args.poll, "name": name},
            name=name,
            daemon=True,
        )
        process.start()
        return process

    processes = [spawn(slot, 0) for slot in range(max(0, args.workers))]
    restarts = [0] * len(processes)
    print(
        f"serving {queue.root} with {len(processes)} worker(s); "
        f"store {store.root}",
        flush=True,
    )
    try:
        while True:
            for event in scheduler.poll_once():
                print(event, flush=True)
            if args.once and scheduler.drained():
                break
            for slot, process in enumerate(processes):
                if process.is_alive() or queue.stop_requested():
                    continue
                process.join()
                restarts[slot] += 1
                processes[slot] = spawn(slot, restarts[slot])
                print(
                    f"{process.name} exited with status {process.exitcode}; "
                    f"slot {slot} restarted as {processes[slot].name}",
                    flush=True,
                )
            time.sleep(args.poll)
    except KeyboardInterrupt:
        pass
    finally:
        queue.request_stop()
        for process in processes:
            process.join(timeout=10.0)
        for process in processes:  # pragma: no cover - last resort
            if process.is_alive():
                process.terminate()
    if not args.once:
        return 0
    failures = 0
    for job in queue.iter_jobs():
        if job.state == FAILED:
            failures += 1
        else:
            summary = job.summary()
            failures += summary["failed"] + summary["lost"]
    return min(failures, 125)


def run_submit_command(args, words) -> int:
    """Dispatch ``dkip-experiments submit``: enqueue sweep jobs.

    Every named grid is planned against the spool's store first, through
    the same :func:`~repro.experiments.sweep.plan_grid` that ``sweep``
    runs, so a grid ``sweep`` would reject never reaches the queue, and
    a phase-set token's selection is stored for the scheduler to read.
    Job ids are content-addressed over the canonical sweep mapping and
    scale, so resubmitting the same grid attaches to the in-flight job
    (or, once done, re-enqueues it to complete instantly off the warm
    store).  ``--wait`` then follows the job to completion.
    """
    from repro.experiments.sweep import plan_grid
    from repro.service import FAILED, job_status, submit_job, wait_for_job

    queue, store = _resolve_service(args)
    specs = [spec for spec, _runner in _named_sweeps(args, words, "submit")]
    for spec in specs:
        plan_grid(spec, args.scale, store)
    retries = args.retries if args.retries is not None else 2
    jobs = []
    for spec in specs:
        mapping = spec.to_mapping()
        job, outcome = submit_job(
            queue, mapping, args.scale, shards=args.shards, retries=retries
        )
        jobs.append(job)
        print(f"job {job.job_id[:12]} {outcome} ({mapping['name']})")
    if not args.wait:
        return 0
    status = 0
    for job in jobs:
        last = None

        def progress(current, job=job, seen=[last]):
            snapshot = job_status(queue, store, current)
            key = (snapshot["stored"], snapshot["failed"], snapshot["lost"])
            if key != seen[0]:
                seen[0] = key
                print(
                    f"job {current.job_id[:12]}: {snapshot['stored']}/"
                    f"{snapshot['cells']} cells stored, "
                    f"{snapshot['failed']} failed",
                    flush=True,
                )

        final = wait_for_job(queue, job.job_id, poll=args.poll, on_progress=progress)
        if final is None:  # pragma: no cover - no timeout configured
            continue
        print(final.summary_line())
        if final.state == FAILED:
            status = 1
    return status


def run_status_command(args, words) -> int:
    """Dispatch ``dkip-experiments status [JOB...]``: live job progress.

    With no arguments every job in the spool is listed; job-id prefixes
    narrow it.  Progress counts come from validated store reads and the
    failure taxonomy from the shard reports, so any client can attach to
    a running sweep.
    """
    from repro.service import format_status, job_status

    queue, store = _resolve_service(args)
    if words:
        jobs = [_match_job(queue, word) for word in words]
    else:
        jobs = queue.iter_jobs()
    if not jobs:
        print(f"no jobs submitted to {queue.root}")
        return 0
    for job in jobs:
        for line in format_status(job_status(queue, store, job)):
            print(line)
    return 0


def run_results_command(args, words) -> int:
    """Dispatch ``dkip-experiments results JOB``: the grid, read-only.

    Collects the job's cells from the shared store — never simulating —
    and renders them through the standard sweep formatter; cells still
    in flight (or failed) appear as ``n/a``.  Exits 1 while the grid is
    incomplete so scripts can poll for completion.
    """
    from repro.service import collect_results

    queue, store = _resolve_service(args)
    if len(words) != 1:
        raise UsageError(
            "usage: dkip-experiments results JOBID [--service DIR]; see "
            "'dkip-experiments status' for job ids"
        )
    job = _match_job(queue, words[0])
    result, missing = collect_results(queue, store, job)
    print(result.render())
    print()
    _write_result_files(result, args)
    if missing:
        print(
            f"{missing} cell(s) not yet in the store (job state: "
            f"{job.state}); re-run once the sweep completes",
            file=sys.stderr,
        )
        return 1
    return 0


def run_report_command(args, words) -> int:
    """Dispatch ``dkip-experiments report [names...]``."""
    from repro.report import build_report

    names = words or None
    if names is not None and "all" in names:
        names = None  # same semantics as the plain run path
    if args.csv or args.json:
        print(
            "note: --csv/--json apply to plain experiment runs; the report "
            "subcommand only writes --out",
            file=sys.stderr,
        )
    store = resolve_store(args)
    document = build_report(names, Scale(args.scale), store=store, force=args.force)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(document)
    figures = document.count("<svg")
    print(f"wrote {args.out} ({len(document)} chars, {figures} figures)")
    if store is not None:
        print(
            f"store {store.root}: {store.hits} cells cached, "
            f"{store.writes} simulated"
        )
    return 0


#: The first word of a subcommand -> its handler, ``handler(args, words)``
#: with *words* the words after it.  Any other first word names an
#: experiment, which :func:`run_experiments` runs.
COMMANDS = {
    "cache": run_cache_command,
    "report": run_report_command,
    "sweep": run_sweep_command,
    "machines": run_machines_command,
    "workloads": run_workloads_command,
    "simpoint": run_simpoint_command,
    "profile": run_profile_command,
    "serve": run_serve_command,
    "submit": run_submit_command,
    "status": run_status_command,
    "results": run_results_command,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        width = max(len(name) for name in REGISTRY)
        for name, experiment in REGISTRY.items():
            print(f"{name:<{width}}  {experiment.paper:<12}  {experiment.description}")
        return 0
    names = list(args.experiments) or ["all"]
    try:
        policy = resolve_policy(args)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    if policy is None:
        # No resilience flag: today's strict path, byte-for-byte.
        return _dispatch(args, names)
    with resilience_context(policy) as report:
        try:
            status = _dispatch(args, names)
        except CellExecutionError as error:
            print(f"aborted: {error}", file=sys.stderr)
            status = 1
    return _finalize_failures(args, policy, report, status)


def _dispatch(args, names: list[str]) -> int:
    """Route one parsed invocation to its subcommand or experiment runs.

    The one exit for a bad invocation: a usage error, a malformed spec,
    an unknown name or an unreadable or unwritable file (every one a
    :class:`ValueError` or :class:`OSError`) prints its message and
    exits 2.
    """
    handler = COMMANDS.get(names[0])
    try:
        if handler is None:
            return run_experiments(args, names)
        return handler(args, names[1:])
    except (ValueError, OSError) as error:
        print(error, file=sys.stderr)
        return 2


def run_experiments(args, names: list[str]) -> int:
    """Run the named experiments (``all``: every registered one) in order.

    A failing experiment is named and the rest still run; the exit
    status counts the failures.  An unknown name raises ``ValueError``.
    """
    if "all" in names:
        names = list(EXPERIMENTS)
    scale = Scale(args.scale)
    store = resolve_store(args)
    failed: list[str] = []
    for name in names:
        runner = get_experiment(name)
        try:
            result = runner(scale, store=store, force=args.force)
        except Exception as error:  # noqa: BLE001 - continue with the rest
            print(f"experiment {name} failed: {error}", file=sys.stderr)
            failed.append(name)
            continue
        print(result.render())
        print()
        _write_result_files(result, args)
        if not result.rows:
            failed.append(name)
    if failed:
        print(f"failed experiments: {', '.join(failed)}", file=sys.stderr)
    # The exit status is a single byte; cap so e.g. 256 failures do not
    # wrap around to a "successful" zero.
    return min(len(failed), 255)


if __name__ == "__main__":
    raise SystemExit(main())
