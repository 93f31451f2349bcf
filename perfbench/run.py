#!/usr/bin/env python3
"""End-to-end benchmark of the experiments CLI, with a traced layer split.

Run one workload::

    python3 perfbench/run.py --workload report-cold --seed 1 --seconds 10 --trace 0

Every workload runs the way a user runs it: fresh CLI processes started
through ``shim.py`` (``python -m repro.experiments`` plus a set-up
timestamp), ``REPRO_JOBS=2`` and no other inherited ``REPRO_*``
variable, one process tree at a time.  A run repeats the workload's
commands until ``--seconds`` have passed (at least once), checks the
output of every pass, scales its times to a reference host speed
(:class:`HostSpeed`), and prints the medians as one JSON object on the
last line of standard output.  ``--trace 1`` adds one traced pass and
reports the per-layer metrics instead.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from layers import LAYERS, layer_metrics
from tracer import load_records

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SHIM = os.path.join(HERE, "shim.py")
PINNED = os.path.join(HERE, "pinned")
REPRODUCTION = os.path.join(ROOT, "REPRODUCTION.md")

#: A run must end within 180 s; no launch outlives this budget.
RUN_BUDGET_S = 170.0
#: Start probes (set-up and first-cell latency samples) per run.
START_SAMPLES = 5
#: On every core, the host-speed probe runs every SAMPLE_PERIOD_S for
#: PROBE_STEPS steps over a table of PROBE_TABLE entries (about a
#: millisecond, under 3% of the core).
SAMPLE_PERIOD_S = 0.05
PROBE_STEPS = 800
PROBE_TABLE = 50_000
#: Fewest probe samples an interval is judged by (about 1.6 s on two
#: cores); shorter intervals borrow the samples nearest to them.
MIN_WINDOW = 64
#: The probe's time on the 2-CPU VM the benchmark was written on, when no
#: other machine loaded its host.  ``ref_s`` are host seconds times
#: REFERENCE_PROBE_MS over the probe's :func:`busy_mean` while they
#: passed, so they read about as seconds on that VM.
REFERENCE_PROBE_MS = 0.8

REPORT = ["report", "fig9", "fig13", "contention", "ablation-predictor",
          "sampling", "--scale", "quick"]
FIG1 = ["fig1", "--scale", "default"]
SUBMIT = [
    "submit",
    "--machines", "R10-64,R10-256,KILO-1024,D-KIP-2048,runahead-64,OOO-BP-64-gshare-14",
    "--workloads", "mcf,gcc,twolf,vpr,swim,art,apsi,wupwise",
    "--memory", "MEM-100,MEM-400",
    "--scale", "quick",
]
SERVE = ["serve", "--workers", "2", "--once", "--poll", "0.05"]
SERVICE_CELLS = 96

#: ``setup_s`` is scaled like the other times; the benchmark format fixes
#: its unit as ``s``.
END_TO_END_UNITS = {
    "wall_s": "ref_s",
    "setup_s": "s",
    "first_cell_s": "ref_s",
    "cells_per_min": "cells/ref_min",
    "peak_rss_mb": "MiB",
}


# ----------------------------------------------------------------------
# Launching CLI processes
# ----------------------------------------------------------------------


@dataclass
class Launch:
    """One finished CLI process tree."""

    started: float  #: ``time.monotonic()`` at launch
    started_wall: float  #: ``time.time()`` at launch (store mtimes are wall clock)
    ended: float
    status: int
    peak_rss_mb: float  #: largest resident set of the process and its reaped children
    dispatched: float | None  #: when the CLI started dispatching
    output: str

    @property
    def wall_s(self) -> float:
        return self.ended - self.started

    @property
    def setup_s(self) -> float:
        return (self.dispatched or self.ended) - self.started

    def problems(self, what: str) -> list[str]:
        if self.status != 0:
            tail = " | ".join(self.output.strip().splitlines()[-3:])
            return [f"{what} exited with status {self.status}: {tail}"]
        return []


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _stop_group(pgid: int, timeout: float = 5.0) -> None:
    """Kill every process of group *pgid* and wait until none is left, so
    that nothing of one launch outlives it or slows the next (at most
    *timeout* seconds)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.005)


class Run:
    """The scratch directory, environment and time budget of one run."""

    def __init__(self, workload: str, seed: int) -> None:
        self.dir = os.path.join(HERE, ".runs", f"{workload}-{seed}-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.deadline = time.monotonic() + RUN_BUDGET_S
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        # The seed fixes string hashing in every CLI process; outputs must
        # not depend on it, and the checks would catch it if they did.
        env.update(REPRO_JOBS="2", PYTHONPATH=SRC, PYTHONHASHSEED=str(seed % 2**32))
        self.env = env
        self._serial = 0

    def path(self, stem: str) -> str:
        """A fresh path in the run directory."""
        self._serial += 1
        return os.path.join(self.dir, f"{stem}-{self._serial}")

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def launch(self, args: list[str], trace_dir: str | None = None,
               reads: str | None = None, until_entry: str | None = None) -> Launch:
        """Run one CLI command to completion and measure it.

        With *until_entry* (a store directory) the process tree is killed
        as soon as the first entry lands in that store.
        """
        mark = self.path("mark")
        log = self.path("log")
        started = time.monotonic()
        started_wall = time.time()
        command = [sys.executable, SHIM, "--mark", mark, "--launched", repr(started)]
        if trace_dir:
            command += ["--trace-dir", trace_dir]
        if reads:
            command += ["--reads", reads]
        command += ["--", *args]
        with open(log, "w+", encoding="utf-8") as handle:
            process = subprocess.Popen(
                command, cwd=ROOT, env=self.env, stdout=handle,
                stderr=subprocess.STDOUT, start_new_session=True,
            )
            timer = threading.Timer(max(0.0, self.remaining()), _kill_group, (process.pid,))
            timer.start()
            try:
                outcome = None
                while until_entry is not None and outcome is None:
                    if entry_times(until_entry):
                        _kill_group(process.pid)
                        break
                    pid, status, usage = os.wait4(process.pid, os.WNOHANG)
                    if pid:
                        outcome = status, usage
                    else:
                        time.sleep(0.01)
                if outcome is None:
                    outcome = os.wait4(process.pid, 0)[1:]
            except BaseException:
                # Interrupted (SIGTERM, Ctrl-C): stop the tree before leaving.
                _kill_group(process.pid)
                process.wait()
                _stop_group(process.pid)
                raise
            finally:
                timer.cancel()
            status, usage = outcome
            ended = time.monotonic()
            process.returncode = os.waitstatus_to_exitcode(status)
            _stop_group(process.pid)
            handle.seek(0)
            output = handle.read()
        try:
            with open(mark, encoding="utf-8") as handle:
                dispatched = float(handle.read())
        except (OSError, ValueError):
            dispatched = None
        return Launch(started, started_wall, ended, process.returncode,
                      usage.ru_maxrss / 1024, dispatched, output)


# ----------------------------------------------------------------------
# Output checks and store inspection
# ----------------------------------------------------------------------


def entry_times(store: str) -> list[float]:
    """Modification times (wall clock) of every entry of a result store."""
    paths = glob.glob(os.path.join(store, "objects", "*", "*.json"))
    return sorted(os.stat(path).st_mtime for path in paths)


def landing(times: list[float], launched_wall: float) -> tuple[float | None, float | None]:
    """First-entry latency and entries/minute between first and last write."""
    if not times:
        return None, None
    span = times[-1] - times[0]
    rate = (len(times) - 1) / span * 60 if len(times) > 1 and span > 0 else None
    return times[0] - launched_wall, rate


def report_sections(document: str) -> list[str]:
    """The ``## `name` — ...`` experiment sections of a report document."""
    sections: list[list[str]] = []
    current: list[str] | None = None
    for line in document.splitlines():
        if line.startswith("## `"):
            current = [line]
            sections.append(current)
        elif line.startswith("## ") or line == "---":
            current = None
        elif current is not None:
            current.append(line)
    return ["\n".join(section).rstrip() for section in sections]


def report_problems(path: str, expected: int) -> list[str]:
    """Every section of the written report must appear in REPRODUCTION.md."""
    try:
        with open(path, encoding="utf-8") as handle:
            sections = report_sections(handle.read())
    except OSError as error:
        return [f"report not written: {error}"]
    with open(REPRODUCTION, encoding="utf-8") as handle:
        committed = handle.read()
    problems = [
        f"section {section.splitlines()[0]!r} differs from REPRODUCTION.md"
        for section in sections
        if section not in committed
    ]
    if len(sections) != expected:
        problems.append(f"{len(sections)} report sections, expected {expected}")
    return problems


def rows_problems(path: str, pinned: str) -> list[str]:
    """A ``--json`` result must carry exactly the pinned headers and rows."""
    try:
        with open(path, encoding="utf-8") as handle:
            result = json.load(handle)
    except (OSError, ValueError) as error:
        return [f"result {os.path.basename(path)} unreadable: {error}"]
    with open(os.path.join(PINNED, pinned), encoding="utf-8") as handle:
        expected = json.load(handle)
    if result["headers"] != expected["headers"] or result["rows"] != expected["rows"]:
        return [f"rows of {os.path.basename(path)} differ from pinned/{pinned}"]
    return []


def store_counts(output: str) -> tuple[int, int] | None:
    """``(cached, simulated)`` from the CLI's closing store line."""
    match = re.search(r"store .*: (\d+) cells cached, (\d+) simulated", output)
    return (int(match.group(1)), int(match.group(2))) if match else None


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


@dataclass
class Pass:
    """One execution of a workload's commands (host seconds, unscaled)."""

    started: float  #: ``time.monotonic()`` at the launch of the first command
    wall_s: float
    setup_s: float
    first_cell_s: float | None
    cells_per_min: float | None
    peak_rss_mb: float
    cells: int
    problems: list[str] = field(default_factory=list)


class ReportCold:
    """``report`` of five experiments into an empty store."""

    sections = 5

    def prepare(self, run: Run) -> list[str]:
        return []

    def start_probe(self, run: Run) -> tuple[float, float | None, float, Pass | None]:
        """Set-up and first-cell latency of one launch, its launch time,
        and the whole pass when the probe is one."""
        store = run.path("store")
        launch = run.launch([*REPORT, "--store", store, "--out", run.path("report")],
                            until_entry=store)
        first = landing(entry_times(store), launch.started_wall)[0]
        return launch.setup_s, first, launch.started, None

    def report(self, run: Run, store: str, trace_dir=None, reads=None):
        out = run.path("report") + ".md"
        launch = run.launch([*REPORT, "--store", store, "--out", out],
                            trace_dir=trace_dir, reads=reads)
        problems = launch.problems("report") + report_problems(out, self.sections)
        return launch, problems

    def run_pass(self, run: Run, trace_dir: str | None = None) -> Pass:
        store = run.path("store")
        launch, problems = self.report(run, store, trace_dir)
        times = entry_times(store)
        counts = store_counts(launch.output)
        if counts is None or counts[1] != len(times) or not times:
            problems.append(f"store line {counts} does not match {len(times)} entries")
        first, rate = landing(times, launch.started_wall)
        return Pass(launch.started, launch.wall_s, launch.setup_s, first, rate,
                    launch.peak_rss_mb, len(times), problems)


class ReportWarm(ReportCold):
    """The same ``report`` against a store one untimed cold pass filled."""

    def prepare(self, run: Run) -> list[str]:
        self.store = run.path("store")
        launch, problems = self.report(run, self.store)
        self.entries = entry_times(self.store)
        return problems

    def start_probe(self, run: Run) -> tuple[float, float | None, float, Pass | None]:
        # The first cell a warm report serves is a store hit, so its probe
        # is a whole pass, which counts as one.
        warm = self.run_pass(run)
        return warm.setup_s, warm.first_cell_s, warm.started, warm

    def run_pass(self, run: Run, trace_dir: str | None = None) -> Pass:
        reads = None if trace_dir else run.path("reads")
        launch, problems = self.report(run, self.store, trace_dir, reads)
        counts = store_counts(launch.output)
        if counts is None or counts[1] != 0 or entry_times(self.store) != self.entries:
            problems.append(f"warm report wrote to the store: {counts}")
        first = rate = None
        cells = counts[0] if counts else 0
        if reads:
            try:
                with open(reads, encoding="utf-8") as handle:
                    served_first, served_last, cells = json.load(handle)
            except (OSError, ValueError):
                problems.append("no store hits recorded")
            else:
                first = served_first - launch.started
                if cells > 1 and served_last > served_first:
                    rate = (cells - 1) / (served_last - served_first) * 60
        return Pass(launch.started, launch.wall_s, launch.setup_s, first, rate,
                    launch.peak_rss_mb, cells, problems)


class Fig1Window:
    """``fig1`` at default scale into an empty store."""

    def prepare(self, run: Run) -> list[str]:
        return []

    def start_probe(self, run: Run) -> tuple[float, float | None, float, Pass | None]:
        store = run.path("store")
        launch = run.launch([*FIG1, "--store", store], until_entry=store)
        first = landing(entry_times(store), launch.started_wall)[0]
        return launch.setup_s, first, launch.started, None

    def run_pass(self, run: Run, trace_dir: str | None = None) -> Pass:
        store = run.path("store")
        rows = run.path("json")
        launch = run.launch([*FIG1, "--store", store, "--json", rows], trace_dir=trace_dir)
        problems = launch.problems("fig1")
        problems += rows_problems(os.path.join(rows, "fig1.json"), "fig1-window.json")
        times = entry_times(store)
        if not times:
            problems.append("fig1 stored no cells")
        first, rate = landing(times, launch.started_wall)
        return Pass(launch.started, launch.wall_s, launch.setup_s, first, rate,
                    launch.peak_rss_mb, len(times), problems)


class ServiceDrain:
    """``submit`` a 96-cell grid to an empty spool, then drain it with ``serve``."""

    def prepare(self, run: Run) -> list[str]:
        return []

    def start_probe(self, run: Run) -> tuple[float, float | None, float, Pass | None]:
        spool = run.path("spool")
        store = os.path.join(spool, "store")
        submit = run.launch([*SUBMIT, "--service", spool])
        serve = run.launch([*SERVE, "--service", spool], until_entry=store)
        first = landing(entry_times(store), submit.started_wall)[0]
        return submit.wall_s + serve.setup_s, first, submit.started, None

    def run_pass(self, run: Run, trace_dir: str | None = None) -> Pass:
        spool = run.path("spool")
        submit = run.launch([*SUBMIT, "--service", spool], trace_dir=trace_dir)
        serve = run.launch([*SERVE, "--service", spool], trace_dir=trace_dir)
        problems = submit.problems("submit") + serve.problems("serve")
        done = re.search(
            r"job \w+ done: (\d+) cells, (\d+) simulated, \d+ cached, (\d+) failed",
            serve.output,
        )
        if done is None or done.groups() != (str(SERVICE_CELLS), str(SERVICE_CELLS), "0"):
            problems.append(f"job did not end with {SERVICE_CELLS} simulated, 0 failed")
        job = re.search(r"^job (\w+) new", submit.output, re.MULTILINE)
        if job is None:
            problems.append("submit printed no new job id")
        else:
            rows = run.path("json")
            results = run.launch(
                ["results", job.group(1), "--service", spool, "--json", rows])
            problems += results.problems("results")
            problems += rows_problems(os.path.join(rows, "sweep.json"), "service-drain.json")
        times = entry_times(os.path.join(spool, "store"))
        first, rate = landing(times, submit.started_wall)
        return Pass(submit.started, serve.ended - submit.started,
                    submit.wall_s + serve.setup_s, first, rate,
                    max(submit.peak_rss_mb, serve.peak_rss_mb), SERVICE_CELLS, problems)


WORKLOADS = {
    "report-cold": ReportCold,
    "report-warm": ReportWarm,
    "fig1-window": Fig1Window,
    "service-drain": ServiceDrain,
}


# ----------------------------------------------------------------------
# Host record
# ----------------------------------------------------------------------


class _Slot:
    __slots__ = ("tag", "ready", "value")

    def __init__(self, tag: int, ready: int, value: int) -> None:
        self.tag, self.ready, self.value = tag, ready, value


def probe_ms(table: dict[int, int]) -> float:
    """Thread CPU time of one fixed probe loop over *table*, in milliseconds."""
    start = time.thread_time()
    queue: list[_Slot] = []
    hits = 0
    for step in range(PROBE_STEPS):
        key = step * 7919 % PROBE_TABLE
        value = table[key]
        queue.append(_Slot(key, step + (value & 7), value))
        if len(queue) > 64:
            slot = queue.pop(0)
            if slot.ready <= step:
                hits += slot.value & 1
            table[slot.tag] = (slot.value + hits) % 1000003
    return (time.thread_time() - start) * 1e3


def busy_ticks(core: int) -> int:
    """Clock ticks *core* has spent on anything but idling since boot
    (user, nice, system, irq and softirq time in ``/proc/stat``)."""
    prefix = f"cpu{core} "
    with open("/proc/stat", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(prefix):
                user, nice, system, _idle, _iowait, irq, softirq = map(int, line.split()[1:8])
                return user + nice + system + irq + softirq
    return 0


def busy_mean(samples: list[tuple[float, float, int]]) -> float:
    """Mean probe time of *samples*, each weighted by how busy its core
    was, without the fastest and slowest tenth of them."""
    kept = sorted(samples, key=lambda sample: sample[1])
    cut = len(kept) // 10
    kept = kept[cut:len(kept) - cut]
    weight = sum(busy for _, _, busy in kept)
    if not weight:
        return statistics.fmean(ms for _, ms, _ in kept)
    return sum(ms * busy for _, ms, busy in kept) / weight


class HostSpeed:
    """The host-speed probe, sampled on every core while a run measures.

    The benchmark's cores are shared with other machines, whose load
    slows each core here by up to half, for seconds to minutes at a time
    and not on every core alike.  One thread pinned to each core times a
    fixed pure-Python loop of the simulator's kind (object, list and
    dictionary traffic over a table larger than the core's caches) every
    SAMPLE_PERIOD_S, in thread CPU time, so that waiting for the core does
    not count but a slower core does, and notes how many clock ticks the
    core was busy since its last sample.  :meth:`factor` is how much
    slower than the reference the cores ran over an interval, weighted by
    how busy each was (a workload of one process runs on one core at a
    time); dividing a time measured over the interval by that factor
    removes most of the other machines' load from the metrics.
    """

    def __init__(self) -> None:
        #: ``(time.monotonic(), probe milliseconds, busy ticks)`` per sample
        self.samples: list[tuple[float, float, int]] = []
        self._stop = threading.Event()
        self._threads = [threading.Thread(target=self._sample, args=(core,), daemon=True)
                         for core in sorted(os.sched_getaffinity(0))]

    def __enter__(self) -> HostSpeed:
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()

    def _sample(self, core: int) -> None:
        os.sched_setaffinity(0, {core})  # 0: this thread only
        table = {i: i * 2654435761 % 1000003 for i in range(PROBE_TABLE)}
        busy = busy_ticks(core)
        while not self._stop.wait(SAMPLE_PERIOD_S):
            ms = probe_ms(table)
            now_busy = busy_ticks(core)
            self.samples.append((time.monotonic(), ms, now_busy - busy))
            busy = now_busy

    def factor(self, start: float, seconds: float) -> float:
        """The probes' :func:`busy_mean` over ``[start, start + seconds]``
        (at least the MIN_WINDOW samples nearest to it) over
        REFERENCE_PROBE_MS."""
        samples = list(self.samples)
        end = start + seconds
        window = [sample for sample in samples if start <= sample[0] <= end]
        if len(window) < MIN_WINDOW:
            middle = start + seconds / 2
            window = sorted(samples, key=lambda sample: abs(sample[0] - middle))[:MIN_WINDOW]
        return busy_mean(window) / REFERENCE_PROBE_MS if window else 1.0


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` if the checkout has one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as handle:
                return handle.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
                for line in handle:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "none"


def source_digest() -> str:
    """Digest of every source file: the code identity where git is absent."""
    sha = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        sha.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as handle:
            sha.update(handle.read())
    return sha.hexdigest()[:12]


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------


def median(values) -> float:
    present = [value for value in values if value is not None]
    return statistics.median(present) if present else 0.0


def print_split(metrics: dict, overhead: float, traced_wall: float, untraced: float) -> None:
    process_s = metrics["tracing.process_s"][0]
    print(f"layer split (self time; shares of {process_s:.2f} s summed over all processes):")
    shares = sorted(((metrics[f"share.{layer}"][0], layer) for layer in LAYERS), reverse=True)
    for share, layer in shares:
        if share > 0:
            print(f"  {layer:<12} {share * process_s:8.3f} s {share:7.1%}")
    uncovered = 1.0 - metrics["tracing.coverage_frac"][0]
    print(f"  uncovered (interpreter start, imports, argument parsing, waiting) "
          f"{uncovered * process_s:.3f} s {uncovered:.1%}")
    print(f"tracing overhead: traced pass {traced_wall:.3f} ref_s vs untraced median "
          f"{untraced:.3f} ref_s ({overhead:+.1%})")


def measure(name: str, args: argparse.Namespace) -> dict:
    workload = WORKLOADS[name]()
    run = Run(name, args.seed)
    try:
        with HostSpeed() as host:
            run.launch(["--list"])  # untimed: writes the bytecode caches
            problems = workload.prepare(run)
            passes: list[Pass] = []
            start = time.monotonic()
            while True:
                passes.append(workload.run_pass(run))
                elapsed = time.monotonic() - start
                wall = passes[-1].wall_s
                reserve = wall * (2.5 if args.trace else 1.5) + 2 * START_SAMPLES
                if elapsed >= args.seconds or run.remaining() < reserve:
                    break
            # Every pass is a set-up and first-cell sample; start probes
            # top them up to START_SAMPLES.
            starts = [(p.setup_s, p.first_cell_s, p.started) for p in passes]
            while len(starts) < START_SAMPLES and run.remaining() > 20:
                setup, first, started, whole = workload.start_probe(run)
                starts.append((setup, first, started))
                if whole is not None:
                    passes.append(whole)
            if args.trace:
                trace_dir = run.path("trace")
                traced = workload.run_pass(run, trace_dir=trace_dir)

        def ref_s(seconds: float | None, started: float) -> float | None:
            return None if seconds is None else seconds / host.factor(started, seconds)

        for number, p in enumerate(passes, 1):
            factor = host.factor(p.started, p.wall_s)
            first = f"{p.first_cell_s:.3f} s" if p.first_cell_s is not None else "-"
            rate = f"{p.cells_per_min:.1f}" if p.cells_per_min is not None else "-"
            state = "ok" if not p.problems else "FAILED: " + "; ".join(p.problems)
            print(f"pass {number}: wall {p.wall_s:.3f} s = {p.wall_s / factor:.3f} ref_s "
                  f"(host x{factor:.3f}), setup {p.setup_s:.3f} s, first cell {first}, "
                  f"{rate} cells/min, peak rss {p.peak_rss_mb:.1f} MiB, {p.cells} cells, "
                  f"{state}")
        print(f"setup samples: {', '.join(f'{s:.3f}' for s, _, _ in starts)} s; first-cell "
              f"samples: {', '.join(f'{f:.3f}' for _, f, _ in starts if f is not None)} s")
        probes = sorted(ms for _, ms, _ in host.samples) or [0.0]
        print(f"host: commit {git_commit()}, src {source_digest()}, python "
              f"{platform.python_version()}, nproc {os.cpu_count()}, load1 "
              f"{os.getloadavg()[0]:.2f}, probe median {median(probes):.3f} ms over "
              f"{len(host.samples)} samples (p10 {probes[len(probes) // 10]:.3f}, p90 "
              f"{probes[len(probes) * 9 // 10]:.3f}; reference {REFERENCE_PROBE_MS} ms)")

        metrics = {
            "wall_s": median(ref_s(p.wall_s, p.started) for p in passes),
            "setup_s": median(ref_s(setup, started) for setup, _, started in starts),
            "first_cell_s": median(ref_s(first, started) for _, first, started in starts),
            "cells_per_min": median(
                p.cells_per_min * host.factor(p.started, p.wall_s)
                for p in passes if p.cells_per_min is not None),
            "peak_rss_mb": max(p.peak_rss_mb for p in passes),
        }
        output = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                  for name, value in metrics.items()}
        if args.trace:
            passes.append(traced)
            layered = layer_metrics(load_records(trace_dir))
            traced_ref = ref_s(traced.wall_s, traced.started)
            overhead = traced_ref / metrics["wall_s"] - 1 if metrics["wall_s"] else 0.0
            layered["tracing.overhead_frac"] = (overhead, "ratio")
            print_split(layered, overhead, traced_ref, metrics["wall_s"])
            output = {name: {"value": value, "unit": unit}
                      for name, (value, unit) in layered.items()}
        failed = sum(p.cells or 1 for p in passes if p.problems)
        if problems:
            print("set-up FAILED: " + "; ".join(problems))
            failed += 1
        return {
            "correct": failed == 0,
            "attempted": sum(p.cells or 1 for p in passes) + (1 if problems else 0),
            "failed": failed,
            "metrics": output,
        }
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)


def _terminate(signum: int, _frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    needed = [os.path.join(SRC, "repro", "experiments", "cli.py"), REPRODUCTION]
    missing = [path for path in needed if not os.path.exists(path)]
    if missing:
        print(f"perfbench: not a checkout of the repository (missing "
              f"{', '.join(missing)})", file=sys.stderr)
        return 2
    print(f"perfbench {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}", flush=True)
    # A terminated run still stops the process tree it is waiting on.
    signal.signal(signal.SIGTERM, _terminate)
    result = measure(args.workload, args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
