"""Clients for the served database: blocking sockets and asyncio.

:class:`SyncClient` is the workhorse — a plain blocking TCP socket
speaking the newline-delimited JSON protocol, safe to use from worker
threads (one client per thread; a single client is not thread-safe).
:class:`Client` is the asyncio twin for event-loop callers.

Both raise the *same* exceptions the in-process API raises: a served
``query`` against an unknown relation raises
:class:`~repro.core.errors.EvaluationError` exactly like
``Database.query`` would, because the server ships the exception class
name and the client re-raises it
(:func:`repro.serve.protocol.raise_remote`).  Protocol-level failures
raise :class:`~repro.core.errors.ServeError`.

Example::

    from repro.serve import SyncClient

    with SyncClient(port=server.port) as client:
        client.commit([
            {"op": "create", "name": "Event", "temporal": ["t"]},
            {"op": "insert", "name": "Event", "lrps": ["0 + 10n"]},
        ])
        pinned = client.snapshot()           # pin the committed version
        assert client.ask("EXISTS t. Event(t) & t >= 20")
"""

from __future__ import annotations

import asyncio
import itertools
import socket
from typing import Any

from repro.core.errors import ServeError
from repro.core.relations import GeneralizedRelation
from repro.serve import protocol
from repro.storage import jsonio


class SyncClient:
    """A blocking client connection to a :class:`~repro.serve.server.
    ReproServer`.

    Not thread-safe: share nothing, one client per thread.  Usable as
    a context manager; :meth:`close` is idempotent.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        *,
        port: int,
        timeout: float = 60.0,
    ) -> None:
        try:
            self._sock: socket.socket | None = socket.create_connection(
                (host, port), timeout=timeout
            )
        except OSError as exc:
            raise ServeError(
                f"cannot connect to {host}:{port}: {exc}"
            ) from None
        self._rfile = self._sock.makefile("rb")
        self._ids = itertools.count(1)

    def _call(self, op: str, **fields: Any) -> dict[str, Any]:
        if self._sock is None:
            raise ServeError("client is closed")
        request = {"id": next(self._ids), "op": op, **fields}
        try:
            self._sock.sendall(protocol.encode_frame(request))
            line = self._rfile.readline(protocol.MAX_FRAME_BYTES + 2)
        except OSError as exc:
            raise ServeError(f"connection failed: {exc}") from None
        if not line:
            raise ServeError("connection closed by server")
        response = protocol.decode_frame(line)
        if not response.get("ok"):
            protocol.raise_remote(response.get("error") or {})
        return response

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------

    def ping(self) -> dict[str, Any]:
        """Round-trip liveness probe; returns version + protocol info."""
        return self._call("ping")

    def info(self) -> dict[str, Any]:
        """Catalog summary of the visible version (pin-aware)."""
        return self._call("info")

    def names(self) -> list[str]:
        """Relation names in the visible version."""
        return list(self._call("names")["names"])

    def snapshot(self) -> int:
        """Pin this connection to the current committed version.

        All subsequent reads on this connection see exactly the pinned
        version — later commits (from anyone, including this client)
        stay invisible until :meth:`release`.  Returns the pinned
        version token.
        """
        return int(self._call("snapshot")["version"])

    def release(self) -> int:
        """Unpin; reads follow the latest committed version again."""
        return int(self._call("release")["version"])

    def relation(self, name: str) -> GeneralizedRelation:
        """Fetch one relation of the visible version."""
        payload = self._call("relation", name=name)
        return jsonio.relation_from_dict(payload["relation"])

    def query(self, text: str) -> GeneralizedRelation:
        """Evaluate an open query; returns the result relation.

        For a ``MINIMIZE``/``MAXIMIZE`` directive the returned relation
        is the argopt restriction; use :meth:`optimize` to get the
        scalar verdict (value, witness, certificate).  ``EXPLAIN``
        answers carry no relation, so they raise
        :class:`~repro.core.errors.ServeError`; use :meth:`explain`.
        """
        payload = self._call("query", text=text)
        return jsonio.relation_from_dict(_face(payload, "result"))

    def optimize(self, text: str) -> dict[str, Any]:
        """Run a ``MINIMIZE``/``MAXIMIZE`` query; returns the verdict.

        ``text`` must carry the directive (``"MINIMIZE t : Event(t)"``).
        Returns the optimum payload — the JSON form of
        :meth:`repro.optimize.core.OptimizationResult.to_dict`:
        ``sense``, ``objective``, ``status``, exact ``value`` (or
        ``"-inf"``/``"+inf"``), ``witness`` point, ``argopt`` tuple
        text and the unboundedness ``certificate`` when there is one.
        """
        return _face(self._call("query", text=text), "optimum")

    def explain(self, text: str) -> tuple[str, dict[str, Any] | None]:
        """Run an ``EXPLAIN [ANALYZE]`` query; returns ``(plan, trace)``.

        ``text`` must carry the directive.  ``plan`` is ``str()`` of
        the in-process answer's :class:`~repro.plan.report.PlanReport`
        (for ``EXPLAIN ANALYZE``, of its ``plan()``); ``trace`` is
        :meth:`QueryTrace.to_dict
        <repro.query.explain.QueryTrace.to_dict>` — span tree and
        timings — for ``EXPLAIN ANALYZE`` and ``None`` otherwise.
        """
        payload = self._call("query", text=text)
        return _face(payload, "plan"), payload.get("trace")

    def ask(self, text: str) -> bool:
        """Evaluate a closed (yes/no) query."""
        return bool(self._call("ask", text=text)["answer"])

    def commit(self, mutations: list[dict]) -> dict[str, Any]:
        """Submit one transaction; returns ``{"version", "records"}``.

        Blocks until the transaction's commit group is durable (the
        group's single fsync completed); a transaction the server
        aborts raises its original error, and leaves every other
        member of the group untouched.
        """
        payload = self._call("commit", mutations=mutations)
        return {
            "version": int(payload["version"]),
            "records": int(payload["records"]),
        }

    def append(self, name: str, tuples) -> dict[str, Any]:
        """Append a batch of tuples to ``name`` as one transaction.

        ``tuples`` may hold :class:`~repro.core.tuples.GeneralizedTuple`
        values or jsonio tuple entries; the batch rides the server's
        group commit, so concurrent appenders share one fsync and one
        materialized-view refresh.  Returns ``{"version", "records"}``.
        """
        payload = self._call(
            "append", name=name, tuples=_tuple_entries(tuples)
        )
        return {
            "version": int(payload["version"]),
            "records": int(payload["records"]),
        }

    def install_program(self, text: str, *, verify: bool = False) -> dict:
        """Install a deductive program from its text form.

        The server materializes the program's IDB predicates as views
        in the committed catalog (see :meth:`Database.install_program
        <repro.query.database.Database.install_program>`).  Returns
        ``{"version", "views", "mode"}`` where ``mode`` is
        ``"recompute"`` or ``"adopt"``.
        """
        payload = self._call("install_program", text=text, verify=verify)
        return {
            "version": int(payload["version"]),
            "views": list(payload["views"]),
            "mode": payload["mode"],
        }

    def views(self) -> dict[str, int]:
        """Materialized views of the visible version, with watermarks."""
        return {
            str(name): int(token)
            for name, token in self._call("views")["views"].items()
        }

    def close(self) -> None:
        """Close the connection (idempotent)."""
        if self._sock is not None:
            try:
                self._rfile.close()
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> SyncClient:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class Client:
    """The asyncio client: the same operations, awaitable.

    Create with :meth:`connect`; one outstanding request at a time per
    client (the protocol answers in order, so callers wanting
    pipelining open several clients).
    """

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count(1)

    @classmethod
    async def connect(
        cls, host: str = "127.0.0.1", *, port: int
    ) -> Client:
        """Open a connection to a running server."""
        try:
            reader, writer = await asyncio.open_connection(
                host, port, limit=protocol.MAX_FRAME_BYTES
            )
        except OSError as exc:
            raise ServeError(
                f"cannot connect to {host}:{port}: {exc}"
            ) from None
        return cls(reader, writer)

    async def _call(self, op: str, **fields: Any) -> dict[str, Any]:
        request = {"id": next(self._ids), "op": op, **fields}
        self._writer.write(protocol.encode_frame(request))
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ServeError("connection closed by server")
        response = protocol.decode_frame(line)
        if not response.get("ok"):
            protocol.raise_remote(response.get("error") or {})
        return response

    async def ping(self) -> dict[str, Any]:
        """Round-trip liveness probe; returns version + protocol info."""
        return await self._call("ping")

    async def info(self) -> dict[str, Any]:
        """Catalog summary of the visible version (pin-aware)."""
        return await self._call("info")

    async def names(self) -> list[str]:
        """Relation names in the visible version."""
        return list((await self._call("names"))["names"])

    async def snapshot(self) -> int:
        """Pin this connection to the current committed version."""
        return int((await self._call("snapshot"))["version"])

    async def release(self) -> int:
        """Unpin; reads follow the latest committed version again."""
        return int((await self._call("release"))["version"])

    async def relation(self, name: str) -> GeneralizedRelation:
        """Fetch one relation of the visible version."""
        payload = await self._call("relation", name=name)
        return jsonio.relation_from_dict(payload["relation"])

    async def query(self, text: str) -> GeneralizedRelation:
        """Evaluate an open query; returns the result relation."""
        payload = await self._call("query", text=text)
        return jsonio.relation_from_dict(_face(payload, "result"))

    async def optimize(self, text: str) -> dict[str, Any]:
        """Run a ``MINIMIZE``/``MAXIMIZE`` query; returns the verdict.

        The awaitable twin of :meth:`SyncClient.optimize`.
        """
        return _face(await self._call("query", text=text), "optimum")

    async def explain(self, text: str) -> tuple[str, dict[str, Any] | None]:
        """Run an ``EXPLAIN [ANALYZE]`` query; returns ``(plan, trace)``.

        The awaitable twin of :meth:`SyncClient.explain`.
        """
        payload = await self._call("query", text=text)
        return _face(payload, "plan"), payload.get("trace")

    async def ask(self, text: str) -> bool:
        """Evaluate a closed (yes/no) query."""
        return bool((await self._call("ask", text=text))["answer"])

    async def commit(self, mutations: list[dict]) -> dict[str, Any]:
        """Submit one transaction; resolves after its group's fsync."""
        payload = await self._call("commit", mutations=mutations)
        return {
            "version": int(payload["version"]),
            "records": int(payload["records"]),
        }

    async def append(self, name: str, tuples) -> dict[str, Any]:
        """Append a batch of tuples to ``name`` as one transaction."""
        payload = await self._call(
            "append", name=name, tuples=_tuple_entries(tuples)
        )
        return {
            "version": int(payload["version"]),
            "records": int(payload["records"]),
        }

    async def install_program(
        self, text: str, *, verify: bool = False
    ) -> dict:
        """Install a deductive program from its text form."""
        payload = await self._call(
            "install_program", text=text, verify=verify
        )
        return {
            "version": int(payload["version"]),
            "views": list(payload["views"]),
            "mode": payload["mode"],
        }

    async def views(self) -> dict[str, int]:
        """Materialized views of the visible version, with watermarks."""
        return {
            str(name): int(token)
            for name, token in (await self._call("views"))["views"].items()
        }

    async def close(self) -> None:
        """Close the connection (idempotent)."""
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (OSError, ConnectionError):
            pass

    async def __aenter__(self) -> Client:
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()


#: Why a ``query`` answer lacks the face a client method asked for.
_MISSING_FACE = {
    "result": "query() got an EXPLAIN answer, which has no result "
    "relation (use explain() for those)",
    "optimum": "optimize() needs a MINIMIZE/MAXIMIZE query; got a plain "
    "query (use query() for those)",
    "plan": "explain() needs an EXPLAIN [ANALYZE] query (use query() "
    "for others)",
}


def _face(payload: dict[str, Any], key: str) -> Any:
    """One face of a ``query`` answer; a missing one raises ServeError."""
    try:
        return payload[key]
    except KeyError:
        raise ServeError(_MISSING_FACE[key]) from None


def _tuple_entries(tuples) -> list[dict]:
    """Normalize append() items to jsonio tuple entries for the wire."""
    from repro.core.errors import ReproTypeError
    from repro.core.tuples import GeneralizedTuple

    entries: list[dict] = []
    for value in tuples:
        if isinstance(value, GeneralizedTuple):
            entries.append(jsonio.tuple_to_dict(value))
        elif isinstance(value, dict):
            entries.append(value)
        else:
            raise ReproTypeError(
                "append items must be GeneralizedTuple values or jsonio "
                f"tuple entries, not {type(value).__name__}"
            )
    return entries
