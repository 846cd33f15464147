"""The server process of the ``served_mixed`` workload.

Usage::

    python3 benchmarks/e2e/server.py DB_ROOT [--trace PATH]

Opens the durable store at ``DB_ROOT`` with
``ReproServer.open(..., query_workers=2)``, prints ``ready <port>``
once it listens, and serves until SIGTERM.  With ``--trace`` the
server installs the layer tracer on SIGUSR1 (sent after the load
generator has seeded the catalog, so set-up stays out of the trace),
prints ``tracing``, and on SIGTERM writes its spans, counts and
counter changes to ``PATH`` before exiting.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("root")
    parser.add_argument("--trace")
    args = parser.parse_args(argv)
    from harness import ROOT

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.api import ReproServer

    server = ReproServer.open(args.root, query_workers=2)
    tracer = None
    before: dict[str, int] = {}
    if args.trace:
        import tracing

        tracer = tracing.Tracer()

    def start_tracing() -> None:
        before.update(tracing.program_counters())
        tracer.install()
        print("tracing", flush=True)

    async def serve() -> None:
        await server.start()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        loop.add_signal_handler(signal.SIGTERM, stop.set)
        if tracer is not None:
            loop.add_signal_handler(signal.SIGUSR1, start_tracing)
        print(f"ready {server.port}", flush=True)
        try:
            await stop.wait()
        finally:
            await server.stop()

    asyncio.run(serve())
    if tracer is not None:
        tracer.uninstall()
        for name, value in tracing.program_counters().items():
            tracer.counter_deltas[name] = value - before.get(name, 0)
        tracer.dump(args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
