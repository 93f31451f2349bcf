"""Run the experiments CLI as ``python -m repro.experiments`` does, timing set-up.

Usage::

    python3 perfbench/shim.py --mark FILE --launched T [--trace-dir DIR]
        [--reads FILE] -- CLI-ARGS...

T is the launcher's ``time.monotonic()`` at launch.  Once the CLI is
imported, just before ``main()`` dispatches, the shim writes
``time.monotonic()`` to FILE.  ``--trace-dir`` installs the layer
wrappers first (the traced run).  ``--reads`` writes ``[first, last, count]`` of the store hits served --
the cells a warm report reads instead of simulating.
"""

from __future__ import annotations

import argparse
import atexit
import json
import time


def _record_reads(path: str) -> None:
    from repro.store.store import ResultStore

    get = ResultStore.get
    served: list = []

    def counted_get(self, key):
        stats = get(self, key)
        if stats is not None:
            now = time.monotonic()
            if not served:
                served.extend((now, now, 0))
            served[1] = now
            served[2] += 1
        return stats

    def write() -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(served, handle)

    ResultStore.get = counted_get
    atexit.register(write)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--mark", required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--trace-dir")
    parser.add_argument("--reads")
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    from repro.experiments.cli import main as cli_main

    if args.trace_dir:
        import layers
        import tracer

        layers.install(tracer.Tracer(args.trace_dir, started=args.launched))
    if args.reads:
        _record_reads(args.reads)
    with open(args.mark, "w", encoding="utf-8") as handle:
        handle.write(repr(time.monotonic()))
    return cli_main(cli_args)


if __name__ == "__main__":
    raise SystemExit(main())
