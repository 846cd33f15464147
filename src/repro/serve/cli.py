"""The ``repro serve`` subcommand: run and poke at a database server.

Usage::

    python -m repro.cli serve start mydb            # serve a durable store
    python -m repro.cli serve start --memory        # ephemeral catalog
    python -m repro.cli serve ping --port 7471
    python -m repro.cli serve info --port 7471
    python -m repro.cli serve query --port 7471 'EXISTS t. Event(t)'
    python -m repro.cli serve query --port 7471 'EXPLAIN Event(t)'
    python -m repro.cli serve ask --port 7471 'EXISTS t. Event(t)'

``start`` holds the store's exclusive single-writer lock for the
server's lifetime and runs until interrupted (SIGINT shuts down
cleanly: in-flight commit groups finish their fsync, then the engine
closes).  The client subcommands are thin wrappers over
:class:`~repro.serve.client.SyncClient`.
"""

from __future__ import annotations

import argparse
import asyncio

from repro.core.errors import ReproError
from repro.query.parser import Directive, split_directive
from repro.serve.client import SyncClient
from repro.serve.server import DEFAULT_HOST, ReproServer


def serve_main(argv: list[str]) -> int:
    """Entry point for ``repro serve ...``; returns the exit status."""
    parser = argparse.ArgumentParser(
        prog="repro.cli serve",
        description="Concurrent temporal-database server "
        "(MVCC snapshot reads, group commit)",
    )
    sub = parser.add_subparsers(dest="action", required=True)

    start = sub.add_parser("start", help="run a server until interrupted")
    start.add_argument(
        "path", nargs="?", default=None, help="database directory"
    )
    start.add_argument(
        "--memory",
        action="store_true",
        help="serve an ephemeral in-memory catalog (no path)",
    )
    start.add_argument("--host", default=DEFAULT_HOST)
    start.add_argument(
        "--port", type=int, default=0, help="TCP port (0 = ephemeral)"
    )
    start.add_argument(
        "--query-workers",
        type=int,
        default=4,
        metavar="N",
        help="threads evaluating queries concurrently",
    )

    for action, needs_text in (
        ("ping", False),
        ("info", False),
        ("query", True),
        ("ask", True),
    ):
        client_parser = sub.add_parser(
            action, help=f"send one {action!r} request to a server"
        )
        client_parser.add_argument("--host", default=DEFAULT_HOST)
        client_parser.add_argument("--port", type=int, required=True)
        if needs_text:
            client_parser.add_argument("text", help="the query text")

    args = parser.parse_args(argv)
    try:
        if args.action == "start":
            return _start(args)
        return _client_action(args)
    except ReproError as exc:
        print(f"error: {exc}")
        return 1


def _start(args: argparse.Namespace) -> int:
    if args.memory == (args.path is not None):
        print("error: give exactly one of PATH or --memory")
        return 2
    if args.memory:
        server = ReproServer(
            host=args.host,
            port=args.port,
            query_workers=args.query_workers,
        )
        label = "(in-memory)"
    else:
        server = ReproServer.open(
            args.path,
            host=args.host,
            port=args.port,
            query_workers=args.query_workers,
        )
        label = args.path

    async def main() -> None:
        await server.start()
        print(
            f"serving {label} on {server.host}:{server.port} "
            f"(version {server.catalog.version})",
            flush=True,
        )
        try:
            await server._stop_event.wait()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    return 0


def _client_action(args: argparse.Namespace) -> int:
    with SyncClient(args.host, port=args.port) as client:
        if args.action == "ping":
            payload = client.ping()
            print(
                f"pong (version {payload['version']}, "
                f"protocol {payload['protocol']})"
            )
        elif args.action == "info":
            payload = client.info()
            kind = "durable" if payload["persistent"] else "in-memory"
            print(f"{kind} catalog @ version {payload['version']}")
            if not payload["relations"]:
                print("(no relations)")
            for name, size in payload["relations"].items():
                print(f"{name}: {size} generalized tuple(s)")
        elif args.action == "ask":
            print("true" if client.ask(args.text) else "false")
        elif split_directive(args.text)[0] in (
            Directive.EXPLAIN,
            Directive.EXPLAIN_ANALYZE,
        ):
            print(client.explain(args.text)[0])
        else:  # query
            result = client.query(args.text)
            print(
                f"result{result.schema}: {len(result)} generalized tuple(s)"
            )
            for t in result.tuples[:20]:
                print(f"  {t}")
            if len(result) > 20:
                print(f"  ... and {len(result) - 20} more")
    return 0
