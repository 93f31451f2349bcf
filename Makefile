# Convenience targets; everything assumes the in-repo source layout and
# sets PYTHONPATH accordingly.

PYTHON ?= python

.PHONY: test lint bench bench-smoke bench-baseline experiments reproduce import-check sweep-smoke workload-smoke chaos-smoke simpoint-smoke contention-smoke perf-smoke serve-smoke

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# Static checks (CI runs the same commands).
lint:
	ruff check src tests benchmarks examples

# Opt-in benchmark regression gate: runs the simulator-throughput
# pytest-benchmark group and fails on >25% mean-time regressions against
# benchmarks/BENCH_baseline.json.
bench:
	$(PYTHON) benchmarks/compare.py

# Non-blocking throughput signal: tiny-scale run, machine-readable
# verdict in bench-report.json, always exits 0 (CI uploads the report as
# an artifact instead of gating on it).
bench-smoke:
	$(PYTHON) benchmarks/compare.py --no-gate --report-json bench-report.json

# Refresh the committed baseline after an intentional performance change.
bench-baseline:
	$(PYTHON) benchmarks/compare.py --update

# The scenario engine end to end: a tiny ad-hoc machine grid cold into
# a fresh .sweep-store (every cell simulates, and the chart renders to
# sweep.svg), then warm (every cell comes from the store).  Each run
# gates on its own exit status, then a grep checks its log.  CI runs
# this target.
SWEEP_SMOKE_GRID = --machines "r10(rob=32),dkip(llib=4096)" \
  --workloads "mcf,swim" --scale quick --store .sweep-store
sweep-smoke:
	rm -rf .sweep-store sweep.svg
	mkdir .sweep-store
	PYTHONPATH=src $(PYTHON) -m repro.experiments sweep $(SWEEP_SMOKE_GRID) \
	  --svg sweep.svg > .sweep-store/cold.log \
	  || { cat .sweep-store/cold.log; exit 1; }
	grep ": 0 cells cached, 4 simulated" .sweep-store/cold.log
	test -s sweep.svg
	PYTHONPATH=src $(PYTHON) -m repro.experiments sweep $(SWEEP_SMOKE_GRID) \
	  > .sweep-store/warm.log || { cat .sweep-store/warm.log; exit 1; }
	grep ": 4 cells cached, 0 simulated" .sweep-store/warm.log

# The workload layer end to end: a 2-point synth sweep cold into a
# fresh .workload-store, then warm (spec-built workloads hit their own
# cached cells).  Each run gates on its exit status and its log.  CI
# runs this target.
WORKLOAD_SMOKE_GRID = --machines "dkip(llib=1024)" \
  --workloads "synth(chase=4),synth(chase=16)" \
  --scale quick --instructions 2000 --store .workload-store
workload-smoke:
	rm -rf .workload-store
	mkdir .workload-store
	PYTHONPATH=src $(PYTHON) -m repro.experiments sweep $(WORKLOAD_SMOKE_GRID) \
	  > .workload-store/cold.log || { cat .workload-store/cold.log; exit 1; }
	grep ": 0 cells cached, 2 simulated" .workload-store/cold.log
	PYTHONPATH=src $(PYTHON) -m repro.experiments sweep $(WORKLOAD_SMOKE_GRID) \
	  > .workload-store/warm.log || { cat .workload-store/warm.log; exit 1; }
	grep ": 2 cells cached, 0 simulated" .workload-store/warm.log

# The SimPoint pipeline end to end: capture a small trace, select
# weighted phases (writing the .toml phase spec), then run the phase
# sweep cold into a fresh .simpoint-store, which must then hold the one
# phase selection it planned, and warm (the warm run simulates zero
# cells — every phase cell resumes from the store).  The same check
# gates in CI.
simpoint-smoke:
	rm -rf .simpoint-store
	PYTHONPATH=src $(PYTHON) -m repro.experiments simpoint \
	  .simpoint-trace.trc.gz --capture mcf --instructions 8000 \
	  --interval 1000 --k 3 --machines "dkip(llib=1024)" \
	  --spec-out .simpoint-phases.toml
	PYTHONPATH=src $(PYTHON) -m repro.experiments sweep \
	  .simpoint-phases.toml --scale quick --store .simpoint-store
	PYTHONPATH=src $(PYTHON) -m repro.experiments cache stats \
	  --store .simpoint-store | grep -x "phase records   1"
	PYTHONPATH=src $(PYTHON) -m repro.experiments sweep \
	  .simpoint-phases.toml --scale quick --store .simpoint-store \
	  | grep ", 0 simulated"

# The dual-core machine kind end to end: the curated co-runner x
# predictor contention grid cold into a fresh .contention-store, then
# warm (dual/ooo-bp configs round-trip the store like every other
# kind).  Each run gates on its exit status and its log.  CI runs this
# target.
contention-smoke:
	rm -rf .contention-store
	mkdir .contention-store
	PYTHONPATH=src $(PYTHON) -m repro.experiments sweep contention \
	  --scale quick --store .contention-store > .contention-store/cold.log \
	  || { cat .contention-store/cold.log; exit 1; }
	grep ": 0 cells cached, 8 simulated" .contention-store/cold.log
	PYTHONPATH=src $(PYTHON) -m repro.experiments sweep contention \
	  --scale quick --store .contention-store > .contention-store/warm.log \
	  || { cat .contention-store/warm.log; exit 1; }
	grep ": 8 cells cached, 0 simulated" .contention-store/warm.log

# The fault-tolerant executor under deterministic chaos: the battery in
# tests/resilience/ plus one CLI run into a fresh .chaos-store where 40%
# of cell attempts are killed mid-flight and the sweep must still exit 0
# with a full grid.  Under this seed the pool's two workers start on the
# mcf and gcc cells, whose first attempts survive, and the swim cell's
# first attempt kills its worker: so the one worker death the failure
# report must count comes after the first result, and its replacement
# is forked after that result's store write.  On Python 3.12 and later
# a fork while a second thread is alive prints a DeprecationWarning
# ("multi-threaded"); the run shows them all (`-W always`, since `-W
# error` silences this one) and the grep requires none.  `cache verify`
# then re-simulates every stored cell and must find 0 stale or errored.
# Then the serve-smoke grid drained twice, each time by two worker
# processes into a fresh spool.  In the first drain every first cell
# attempt fails transiently, which the in-worker retries must heal; in
# the second every generation-0 first attempt kills its worker, which
# `serve` must replace so the requeued cells still run.  `serve --once`
# exits with the count of failed and lost cells, so each drain gates on
# its status; its output goes to a log the grep then checks.  The same
# check gates in CI.
chaos-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest tests/resilience -x -q
	rm -rf .chaos-store
	mkdir .chaos-store
	REPRO_JOBS=2 REPRO_FAULT="cell:kill:0.4,seed=11" \
	  PYTHONPATH=src $(PYTHON) -W always::DeprecationWarning \
	  -m repro.experiments sweep \
	  --machines "r10(rob=32)" --workloads "mcf,gcc,swim" \
	  --scale quick --instructions 2000 --store .chaos-store --retries 8 \
	  --failures-json .chaos-store/failures.json 2> .chaos-store/sweep.err \
	  || { cat .chaos-store/sweep.err; exit 1; }
	grep -x '  "worker_deaths": 1' .chaos-store/failures.json
	! grep "multi-threaded" .chaos-store/sweep.err
	PYTHONPATH=src $(PYTHON) -m repro.experiments cache verify \
	  --store .chaos-store > .chaos-store/verify.log \
	  || { cat .chaos-store/verify.log; exit 1; }
	grep ", 0 stale/errored" .chaos-store/verify.log
	rm -rf .chaos-svc .chaos-kill-svc
	PYTHONPATH=src $(PYTHON) -m repro.experiments submit $(SERVE_SMOKE_GRID) \
	  --service .chaos-svc
	REPRO_FAULT="cell:transient@#0" \
	  PYTHONPATH=src $(PYTHON) -m repro.experiments serve \
	  --service .chaos-svc --workers 2 --once > .chaos-svc/serve.log \
	  || { cat .chaos-svc/serve.log; exit 1; }
	grep ", 0 failed" .chaos-svc/serve.log
	PYTHONPATH=src $(PYTHON) -m repro.experiments submit $(SERVE_SMOKE_GRID) \
	  --service .chaos-kill-svc
	REPRO_FAULT="cell:kill@#0" \
	  PYTHONPATH=src $(PYTHON) -m repro.experiments serve \
	  --service .chaos-kill-svc --workers 2 --once --lease 2 \
	  > .chaos-kill-svc/serve.log || { cat .chaos-kill-svc/serve.log; exit 1; }
	grep ", 0 failed" .chaos-kill-svc/serve.log

# The pool executor end to end: the same small grid in-process and on
# a two-worker REPRO_JOBS=2 pool, asserting the result rows are
# byte-identical; the same for the Figure-1 window sweep, whose limit
# cells settle on the driver's settle thread while the freed workers
# already run their next ones; the same for the sampling experiment, each run into
# its own fresh store, so captures and SimPoint selections made on pool
# workers are checked against the in-process path; then the Figure-1
# and Figure-2 sweeps and the contention grid into one fresh store,
# whose cells reach each worker grouped by trace and memory, windows
# ascending, so the limit core's memos, its window shortcut and the
# warm-up memo hit, re-simulated by `cache verify` in digest order, so
# they mostly miss: every cell must match; then one profiled cell,
# leaving profile.pstats for CI to upload.  The limit cells cover the
# limit core's branch-verdict and pair memos, hits and misses, across
# pool workers; the SpecFP traces add pairs where no window frees the
# ROB; the contention grid's dual cells add the shared-L2 arbiter.  The
# same check gates in CI.
PERF_SMOKE_GRID = --machines "r10(rob=32),dkip(llib=4096),ooo-bp(bp=gshare-10,rob=24),limit(rob=32),limit(rob=256),limit(rob=64,predictor=gshare-10)" \
  --workloads "mcf,swim" --scale quick --instructions 2000 \
  --name perfsmoke --no-store
perf-smoke:
	rm -rf .perf-serial .perf-pool .perf-serial-store .perf-pool-store \
	  .perf-fig1-store
	REPRO_JOBS=1 \
	  PYTHONPATH=src $(PYTHON) -m repro.experiments sweep $(PERF_SMOKE_GRID) \
	  --csv .perf-serial
	REPRO_JOBS=2 \
	  PYTHONPATH=src $(PYTHON) -m repro.experiments sweep $(PERF_SMOKE_GRID) \
	  --csv .perf-pool
	cmp .perf-serial/perfsmoke.csv .perf-pool/perfsmoke.csv
	REPRO_JOBS=1 \
	  PYTHONPATH=src $(PYTHON) -m repro.experiments fig1 --scale quick \
	  --no-store --csv .perf-serial
	REPRO_JOBS=2 \
	  PYTHONPATH=src $(PYTHON) -m repro.experiments fig1 --scale quick \
	  --no-store --csv .perf-pool
	cmp .perf-serial/fig1.csv .perf-pool/fig1.csv
	REPRO_JOBS=1 \
	  PYTHONPATH=src $(PYTHON) -m repro.experiments sampling --scale quick \
	  --store .perf-serial-store --csv .perf-serial
	REPRO_JOBS=2 \
	  PYTHONPATH=src $(PYTHON) -m repro.experiments sampling --scale quick \
	  --store .perf-pool-store --csv .perf-pool
	cmp .perf-serial/sampling.csv .perf-pool/sampling.csv
	REPRO_JOBS=2 \
	  PYTHONPATH=src $(PYTHON) -m repro.experiments fig1 --scale quick \
	  --store .perf-fig1-store
	REPRO_JOBS=2 \
	  PYTHONPATH=src $(PYTHON) -m repro.experiments fig2 --scale quick \
	  --store .perf-fig1-store
	PYTHONPATH=src $(PYTHON) -m repro.experiments sweep contention \
	  --scale quick --store .perf-fig1-store
	PYTHONPATH=src $(PYTHON) -m repro.experiments cache verify \
	  --store .perf-fig1-store > .perf-fig1-store/verify.log \
	  || { cat .perf-fig1-store/verify.log; exit 1; }
	grep ", 0 stale/errored" .perf-fig1-store/verify.log
	PYTHONPATH=src $(PYTHON) -m repro.experiments profile dkip mcf \
	  --instructions 4000 --profile-out profile.pstats

# The sweep service end to end: submit a 2x2 grid into a spool, drain
# it with a scheduler plus two worker processes, then resubmit the
# identical grid — the warm pass must complete the job with zero
# simulations off the shared store.  Then submit Figure 3 by name,
# drain it, and sweep fig3 on the spool's store: all 5 of its limit
# cells must be cached, so the service stored exactly the cells the
# figure plans.  The same check gates in CI.
SERVE_SMOKE_GRID = --machines "r10(rob=32),dkip(llib=4096)" \
  --workloads "mcf,swim" --scale quick --instructions 2000 --shards 2
serve-smoke:
	rm -rf .serve-svc
	PYTHONPATH=src $(PYTHON) -m repro.experiments submit $(SERVE_SMOKE_GRID) \
	  --service .serve-svc
	PYTHONPATH=src $(PYTHON) -m repro.experiments serve \
	  --service .serve-svc --workers 2 --once
	PYTHONPATH=src $(PYTHON) -m repro.experiments submit $(SERVE_SMOKE_GRID) \
	  --service .serve-svc
	PYTHONPATH=src $(PYTHON) -m repro.experiments serve \
	  --service .serve-svc --workers 2 --once | grep ", 0 simulated"
	PYTHONPATH=src $(PYTHON) -m repro.experiments submit fig3 --scale quick \
	  --service .serve-svc
	PYTHONPATH=src $(PYTHON) -m repro.experiments serve \
	  --service .serve-svc --workers 2 --once
	PYTHONPATH=src $(PYTHON) -m repro.experiments sweep fig3 --scale quick \
	  --store .serve-svc/store > .serve-svc/fig3.log \
	  || { cat .serve-svc/fig3.log; exit 1; }
	grep ": 5 cells cached, 0 simulated" .serve-svc/fig3.log
	PYTHONPATH=src $(PYTHON) -m repro.experiments status --service .serve-svc

# Regenerate every paper table/figure at quick scale.
experiments:
	PYTHONPATH=src $(PYTHON) -m repro.experiments all --scale quick

# Build REPRODUCTION.md: every registered figure as embedded SVG with a
# reproduced-vs-paper verdict.  Cells cache in .repro-store, so the
# first run simulates (~half a minute) and re-runs render in under 5s.
reproduce:
	PYTHONPATH=src $(PYTHON) -m repro.experiments report --scale quick --store .repro-store --out REPRODUCTION.md

# A warm rebuild simulates nothing, so it imports no simulator: the full
# quick report, in-process on the warm .repro-store (run `make
# reproduce` first), must leave no module of repro.pipeline, repro.core
# or repro.baselines, nor repro.sim.runner or repro.resilience.executor,
# loaded.  table1 builds cache hierarchies to validate Table 1, so
# repro.memory.hierarchy may load.  The check reads sys.modules, not
# `-X importtime`, which prints no line for a module loaded through a
# package __getattr__.  The same check gates in CI.
define IMPORT_CHECK
import sys
from repro.experiments.cli import main
assert main(["report", "--scale", "quick", "--store", ".repro-store",
             "--out", ".import-check.md"]) == 0
loaded = sorted(
    name for name in sys.modules
    if ".".join(name.split(".")[:2]) in ("repro.pipeline", "repro.core", "repro.baselines")
    or name in ("repro.sim.runner", "repro.resilience.executor")
)
if loaded:
    sys.exit("the warm report loaded simulator modules: " + ", ".join(loaded))
print("import-check: the warm report loaded no simulator module")
endef
export IMPORT_CHECK

import-check:
	PYTHONPATH=src $(PYTHON) -c "$$IMPORT_CHECK"
