"""Layer wrappers for the traced run, and the per-layer metrics they yield.

:func:`install` wraps the public entry points of every simulator layer
in spans of a :class:`tracer.Tracer`, from outside the package: each
wrapper replaces the function on its defining module or class and on
every ``repro`` module that imported it by name, so nothing under
``src/`` changes.  A call into the span that is already innermost
(``PhaseWorkload.trace`` calling ``Workload.trace``, ``validated``
calling ``get``, ``run_core`` calling ``simulate``, ``run()`` built on
``drive()``) folds into it.  Counts come from return values and public
attributes only.

:func:`layer_metrics` folds the records of every process of one traced
pass into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import os
import sys
import weakref

#: The layers of the split.  A span belongs to the layer its name starts
#: with, except the trace-file readers and writers, which count with the
#: SimPoint layer they serve.
LAYERS = (
    "experiments", "workloads", "memory", "machines", "sim", "pipeline",
    "limit", "store", "simpoint", "resilience", "service", "report",
)

#: Imported before wrapping, so that every module importing a wrapped
#: function by name is loaded when the names are replaced.
_MODULES = (
    "repro.experiments.cli",
    "repro.experiments.registry",
    "repro.experiments.sweep",
    "repro.baselines.limit",
    "repro.memory.shared",
    "repro.pipeline.core",
    "repro.report.build",
    "repro.resilience.executor",
    "repro.service.client",
    "repro.service.scheduler",
    "repro.service.worker",
    "repro.sim.batch",
    "repro.simpoint.phases",
    "repro.store.store",
    "repro.trace.io",
    "repro.workloads",
)


def layer_of(span: str) -> str:
    """The layer span *span* belongs to."""
    return "simpoint" if span == "trace.io" else span.split(".", 1)[0]


def _span(tracer, name, fn, after=None):
    """*fn* run inside span *name*; ``after(result, *args, **kwargs)`` counts."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.current() == name:
            return fn(*args, **kwargs)
        tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end()
        if after is not None:
            after(result, *args, **kwargs)
        return result

    return traced


class _Resumptions:
    """Generator proxy: every resumption runs inside span *name*.

    ``on_stop`` receives the generator's return value.  A resumption from
    inside an open span of the same name folds into it and leaves the
    counting to that span.
    """

    def __init__(self, tracer, name, generator, on_stop=None):
        self._tracer = tracer
        self._name = name
        self._generator = generator
        self._on_stop = on_stop

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        tracer = self._tracer
        if tracer.current() == self._name:
            return self._generator.send(value)
        tracer.begin(self._name)
        try:
            return self._generator.send(value)
        except StopIteration as stop:
            if self._on_stop is not None:
                self._on_stop(stop.value)
            raise
        finally:
            tracer.end()

    def throw(self, *args):
        return self._generator.throw(*args)

    def close(self):
        self._generator.close()


class _Decoded:
    """Iterator proxy charging the time of every item to ``trace.io``."""

    def __init__(self, tracer, iterator):
        self._tracer = tracer
        self._iterator = iterator

    def __iter__(self):
        return self

    def __next__(self):
        clock = self._tracer.clock
        start = clock()
        try:
            return next(self._iterator)
        finally:
            self._tracer.account("trace.io", clock() - start)

    def close(self):
        self._iterator.close()


def _subclasses(cls):
    found = {}
    pending = [cls]
    while pending:
        klass = pending.pop()
        if klass not in found:
            found[klass] = None
            pending.extend(klass.__subclasses__())
    return list(found)


def install(tracer):
    """Wrap every layer entry point in spans of *tracer*.

    Returns a callable that undoes every replacement.
    """
    for name in _MODULES:
        importlib.import_module(name)
    from repro.baselines import limit
    from repro.experiments import common, registry, sweep
    from repro.machines import registry as machines
    from repro.memory import warmup
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.pipeline.core import CycleCore
    from repro.report import build
    from repro.resilience.executor import ResilientExecutor
    from repro.service import client
    from repro.service.queue import ServiceQueue
    from repro.service.scheduler import Scheduler
    from repro.sim import runner
    from repro.sim.batch import BatchRunner
    from repro.simpoint import phases
    from repro.store import store
    from repro.trace import io
    from repro.workloads.base import Workload

    undo = []

    def rebind(original, replacement):
        for module_name, module in list(sys.modules.items()):
            if module is None or module_name.split(".", 1)[0] != "repro":
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    undo.append(functools.partial(setattr, module, attr, original))

    def function(module, attr, name, after=None):
        original = getattr(module, attr)
        rebind(original, _span(tracer, name, original, after))

    def method(cls, attr, name, after=None, wrap=None):
        for klass in _subclasses(cls):
            original = vars(klass).get(attr)
            if original is None:
                continue
            replacement = wrap(original) if wrap else _span(tracer, name, original, after)
            setattr(klass, attr, replacement)
            undo.append(functools.partial(setattr, klass, attr, original))

    def resumed(name, on_stop=None):
        def wrap(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                stop = on_stop(*args) if on_stop else None
                return _Resumptions(tracer, name, original(*args, **kwargs), stop)

            return wrapper

        return wrap

    # workloads: a call generates when its instance has not yet been
    # asked for that many instructions (Workload.trace caches the longest).
    requested: dict[int, list] = {}

    def after_trace(result, workload, n, *args, **kwargs):
        tracer.note(
            "workloads.traced",
            f"{type(workload).__name__}:{workload.name}:{workload.seed}",
        )
        entry = requested.get(id(workload))
        if entry is None or entry[0]() is not workload:
            requested[id(workload)] = [weakref.ref(workload), n]
        elif n > entry[1]:
            entry[1] = n
        else:
            return
        tracer.count("workloads.trace_gens")

    method(Workload, "trace", "workloads.trace", after_trace)

    # memory, machines, sim glue
    function(warmup, "warm_caches", "memory.warmup")
    method(MemoryHierarchy, "snapshot", "memory.snapshot")
    method(MemoryHierarchy, "restore", "memory.restore")
    function(machines, "build_machine", "machines.build")
    function(runner, "simulate", "sim.glue")
    function(runner, "run_core", "sim.glue")
    method(BatchRunner, "add_simulation", "sim.glue")
    method(BatchRunner, "stream", None, wrap=resumed("sim.glue"))

    # pipeline (run and every resumption of drive) and the limit core
    def count_cell(core, stats):
        tracer.count("pipeline.cells")
        tracer.count("pipeline.cycles", stats.cycles)
        tracer.count("pipeline.committed", stats.committed)
        tracer.count("pipeline.ff_cycles", core.cycles_fast_forwarded)

    def after_limit(result, *args, **kwargs):
        tracer.count("limit.cells")
        tracer.count("limit.committed", result.committed)
        tracer.count("branch.predictions", result.stats.branch_predictions)

    method(CycleCore, "run", "pipeline.run",
           lambda stats, core, *args, **kwargs: count_cell(core, stats))
    method(CycleCore, "drive", None, wrap=resumed(
        "pipeline.run", lambda core, *args: lambda stats: count_cell(core, stats)))
    function(limit, "simulate_limit", "limit.run", after_limit)

    # store: validated() is a read like get(), and folds the get() inside it
    def hit(found):
        if found:
            tracer.count("store.hits")

    function(store, "cell_key", "store.key")
    method(store.ResultStore, "get", "store.get",
           lambda stats, *args, **kwargs: hit(stats is not None))
    method(store.ResultStore, "validated", "store.get",
           lambda found, *args, **kwargs: hit(found))
    method(store.ResultStore, "put", "store.put",
           lambda path, *args, **kwargs: tracer.count("store.put_bytes", os.path.getsize(path)))

    # simpoint and the trace-file readers and writers
    function(phases, "analyze_trace", "simpoint.analyze")
    load_trace = io.load_trace
    rebind(load_trace, functools.wraps(load_trace)(
        lambda *args, **kwargs: _Decoded(tracer, load_trace(*args, **kwargs))))
    for attr in ("dump_trace", "save_trace", "read_trace_regions"):
        function(io, attr, "trace.io")

    # resilience: the executor's own report counts its retries
    def executor_run(original):
        traced = _span(tracer, "resilience.run", original)

        @functools.wraps(original)
        def run(executor, *args, **kwargs):
            before = executor.report.retries
            try:
                return traced(executor, *args, **kwargs)
            finally:
                tracer.count("resilience.retries", executor.report.retries - before)

        return run

    method(ResilientExecutor, "run", None, wrap=executor_run)

    # experiments: planning and every registered harness
    function(sweep, "plan_grid", "experiments.plan")
    for name, experiment in list(registry.REGISTRY.items()):
        harness = _span(tracer, "experiments.harness", experiment.run)
        registry.REGISTRY[name] = dataclasses.replace(experiment, run=harness)
        registry.EXPERIMENTS[name] = harness
        undo.append(functools.partial(registry.REGISTRY.__setitem__, name, experiment))
        undo.append(functools.partial(
            registry.EXPERIMENTS.__setitem__, name, experiment.run))

    # service
    function(client, "submit_job", "service.submit")
    method(Scheduler, "poll_once", "service.schedule",
           lambda events, *args, **kwargs: tracer.count(
               "service.requeues", sum("requeue" in event for event in events)))
    method(ServiceQueue, "claim", "service.claim")
    method(ServiceQueue, "finish_claim", "service.claim")
    method(ServiceQueue, "heartbeat", "service.heartbeat")
    function(common, "compute_cell", "service.cell")

    # report rendering
    function(build, "build_report", "report.render")

    def uninstall():
        for step in reversed(undo):
            step()

    return uninstall


def layer_metrics(records: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, ``name -> (value, unit)``, of one traced pass.

    *records* are the per-process records of every process the pass ran.
    Times are summed self times; shares and coverage are taken over the
    summed lifetime of all processes (``tracing.process_s``).
    """
    spans: dict[str, list] = {}
    counts: dict[str, float] = {}
    sets: dict[str, set] = {}
    for record in records:
        for name, (calls, total, own) in record["spans"].items():
            entry = spans.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        for name, value in record["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for name, values in record["sets"].items():
            sets.setdefault(name, set()).update(values)

    def own(*names):
        return sum(spans[name][2] for name in names if name in spans)

    def calls(*names):
        return sum(spans[name][0] for name in names if name in spans)

    def count(name):
        return counts.get(name, 0)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    def lifetime(group):
        return sum(record["ended"] - record["started"] for record in group)

    def covered(group):
        return sum(entry[2] for record in group for entry in record["spans"].values())

    process_s = lifetime(records)
    cells = count("pipeline.cells") + count("limit.cells")
    kcycles = count("pipeline.cycles") / 1e3
    pipeline_s = own("pipeline.run")
    limit_s = own("limit.run")
    pool = [r for r in records if r["forked_under"] == "resilience.run"]
    workers = [r for r in records if "service.claim" in r["spans"]]
    metrics = {
        "workloads.trace_s": (own("workloads.trace"), "s"),
        "workloads.trace_calls": (calls("workloads.trace"), "count"),
        "workloads.trace_gens": (count("workloads.trace_gens"), "count"),
        "workloads.cells_per_trace": (
            ratio(cells, len(sets.get("workloads.traced", ()))), "cells/trace"),
        "memory.warmup_s": (own("memory.warmup"), "s"),
        "memory.warmup_calls": (calls("memory.warmup"), "count"),
        "memory.restore_s": (own("memory.restore"), "s"),
        "memory.restore_calls": (calls("memory.restore"), "count"),
        "machines.build_s": (own("machines.build"), "s"),
        "sim.glue_s": (own("sim.glue"), "s"),
        "pipeline.run_s": (pipeline_s, "s"),
        "pipeline.cells": (count("pipeline.cells"), "count"),
        "pipeline.sim_kcycles": (kcycles, "kcycles"),
        "pipeline.ff_frac": (
            ratio(count("pipeline.ff_cycles"), count("pipeline.cycles")), "ratio"),
        "pipeline.kcycles_per_s": (ratio(kcycles, pipeline_s), "kcycles/s"),
        "pipeline.kinstr_per_s": (
            ratio(count("pipeline.committed") / 1e3, pipeline_s), "kinstr/s"),
        "limit.run_s": (limit_s, "s"),
        "limit.cells": (count("limit.cells"), "count"),
        "limit.kinstr_per_s": (
            ratio(count("limit.committed") / 1e3, limit_s), "kinstr/s"),
        "branch.predictions": (count("branch.predictions"), "count"),
        "store.key_s": (own("store.key"), "s"),
        "store.get_s": (own("store.get"), "s"),
        "store.get_calls": (calls("store.get"), "count"),
        "store.hit_frac": (ratio(count("store.hits"), calls("store.get")), "ratio"),
        "store.put_s": (own("store.put"), "s"),
        "store.put_calls": (calls("store.put"), "count"),
        "store.put_kb": (count("store.put_bytes") / 1024, "KiB"),
        "simpoint.analyze_s": (own("simpoint.analyze"), "s"),
        "trace.io_s": (own("trace.io"), "s"),
        "resilience.wait_s": (own("resilience.run"), "s"),
        "resilience.busy_frac": (ratio(covered(pool), lifetime(pool)), "ratio"),
        "resilience.retries": (count("resilience.retries"), "count"),
        "experiments.plan_s": (own("experiments.plan"), "s"),
        "experiments.harness_s": (own("experiments.harness"), "s"),
        "service.submit_s": (own("service.submit"), "s"),
        "service.schedule_s": (own("service.schedule"), "s"),
        "service.claim_s": (own("service.claim"), "s"),
        "service.heartbeat_s": (own("service.heartbeat"), "s"),
        "service.cell_s": (own("service.cell"), "s"),
        "service.idle_frac": (
            1.0 - ratio(covered(workers), lifetime(workers)) if workers else 0.0,
            "ratio"),
        "service.requeues": (count("service.requeues"), "count"),
        "report.render_s": (own("report.render"), "s"),
    }
    by_layer = dict.fromkeys(LAYERS, 0.0)
    for name, entry in spans.items():
        by_layer[layer_of(name)] += entry[2]
    for layer, seconds in by_layer.items():
        metrics[f"share.{layer}"] = (ratio(seconds, process_s), "ratio")
    metrics["tracing.process_s"] = (process_s, "s")
    metrics["tracing.coverage_frac"] = (ratio(sum(by_layer.values()), process_s), "ratio")
    return metrics
