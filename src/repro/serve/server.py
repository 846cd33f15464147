"""The asyncio server: MVCC snapshot reads + group-committed writes.

:class:`ReproServer` serves one
:class:`~repro.query.catalog.VersionedCatalog` to many concurrent TCP
clients over the newline-delimited JSON protocol of
:mod:`repro.serve.protocol`.  The concurrency story:

* **reads never block** — every ``query``/``ask``/``relation`` request
  resolves a :class:`~repro.query.catalog.CatalogVersion` (the
  connection's pinned snapshot, or the latest committed version: one
  lock-free pointer read) and evaluates it on a thread pool.  An
  in-flight commit is invisible to running reads and running reads
  never delay the commit;
* **writes group-commit** — every ``commit`` request enqueues its
  transaction with the :class:`GroupCommitBatcher`.  A single drainer
  collects whatever transactions are in flight, applies them in
  arrival order through
  :meth:`~repro.query.catalog.VersionedCatalog.commit_mutations`
  (one WAL append run + **one** fsync for the whole group) and acks
  each client only after the fsync.  A transaction that fails to
  apply aborts alone; the rest of its group still commits.

The server emits ``serve.*`` metrics (connections gauge, request
counter + latency histogram, per-group batch-size histogram, error
counter) into the global registry and wraps every request in a
``serve.request`` span when tracing is enabled.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from repro.core.errors import ReproError, ServeError
from repro.core.negation import DEFAULT_MAX_EXTENSIONS
from repro.core.normalize import DEFAULT_MAX_TUPLES
from repro.core.relations import GeneralizedRelation
from repro.obs import metrics, span
from repro.obs.metrics import COUNTERS
from repro.query.catalog import (
    CatalogVersion,
    Snapshot,
    TxnResult,
    VersionedCatalog,
)
from repro.query.explain import QueryTrace
from repro.serve import protocol
from repro.storage import jsonio

#: Default bind address — serving is loopback-only unless overridden.
DEFAULT_HOST = "127.0.0.1"


class GroupCommitBatcher:
    """Funnel concurrent transactions into single-fsync commit groups.

    Clients :meth:`submit` a transaction (one mutation list) and await
    its :class:`~repro.query.catalog.TxnResult`.  One drainer task
    pulls the first waiting transaction, then greedily drains every
    other transaction already queued — everything that arrived while
    the previous group was fsyncing — and commits them as one group on
    a dedicated single-thread executor.  Group size therefore adapts
    to load: idle servers commit singletons immediately, loaded
    servers amortize one fsync over many writers.
    """

    def __init__(
        self, catalog: VersionedCatalog, executor: ThreadPoolExecutor
    ) -> None:
        self._catalog = catalog
        self._executor = executor
        self._queue: asyncio.Queue = asyncio.Queue()
        self._task: asyncio.Task | None = None

    def start(self) -> None:
        """Spawn the drainer task on the running event loop."""
        self._task = asyncio.get_running_loop().create_task(self._drain())

    async def stop(self) -> None:
        """Cancel the drainer; already-submitted groups are abandoned."""
        if self._task is not None:
            self._task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._task
            self._task = None

    async def submit(self, mutations: list[dict]) -> TxnResult:
        """Enqueue one transaction; resolves after its group's fsync."""
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._queue.put_nowait((list(mutations), future))
        return await future

    async def _drain(self) -> None:
        loop = asyncio.get_running_loop()
        registry = metrics()
        while True:
            group = [await self._queue.get()]
            while not self._queue.empty():
                group.append(self._queue.get_nowait())
            batches = [mutations for mutations, _future in group]
            started = time.perf_counter()
            try:
                results = await loop.run_in_executor(
                    self._executor,
                    self._catalog.commit_mutations,
                    batches,
                )
            except Exception as exc:  # engine crash / storage failure
                for _mutations, future in group:
                    if not future.done():
                        future.set_exception(exc)
                continue
            registry.histogram("serve.commit.batch_txns").observe(len(group))
            registry.histogram("serve.commit.seconds").observe(
                time.perf_counter() - started
            )
            COUNTERS["serve.commits"] += len(group)
            for (_mutations, future), result in zip(group, results):
                if not future.done():
                    future.set_result(result)


class ReproServer:
    """A multi-client temporal-database server over one catalog.

    Construct over an existing :class:`~repro.query.catalog.
    VersionedCatalog` (or none, for an ephemeral in-memory catalog),
    or use :meth:`ReproServer.open` to open a durable store directly.
    ``port=0`` (the default) binds an ephemeral port — read
    :attr:`port` after :meth:`start`.

    Lifecycle: ``await start()`` binds and begins accepting;
    ``await stop()`` closes connections and (when the server opened
    the store itself) the engine.  :meth:`run_forever` is the
    blocking-coroutine form the CLI uses; :meth:`start_in_thread` /
    :meth:`stop_in_thread` run the whole loop on a daemon thread for
    tests, benchmarks and embedding.
    """

    def __init__(
        self,
        catalog: VersionedCatalog | None = None,
        *,
        host: str = DEFAULT_HOST,
        port: int = 0,
        max_tuples: int = DEFAULT_MAX_TUPLES,
        max_extensions: int = DEFAULT_MAX_EXTENSIONS,
        query_workers: int = 4,
    ) -> None:
        self._catalog = catalog if catalog is not None else VersionedCatalog()
        self.host = host
        self._requested_port = port
        self.max_tuples = max_tuples
        self.max_extensions = max_extensions
        self._query_workers = max(1, query_workers)
        self._owns_engine = False
        self._server: asyncio.AbstractServer | None = None
        self._batcher: GroupCommitBatcher | None = None
        self._query_pool: ThreadPoolExecutor | None = None
        self._commit_pool: ThreadPoolExecutor | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._thread: threading.Thread | None = None

    @classmethod
    def open(
        cls,
        path: str,
        *,
        create: bool = True,
        host: str = DEFAULT_HOST,
        port: int = 0,
        max_tuples: int = DEFAULT_MAX_TUPLES,
        max_extensions: int = DEFAULT_MAX_EXTENSIONS,
        query_workers: int = 4,
    ) -> ReproServer:
        """Open the durable store at ``path`` and serve it.

        Takes the store's exclusive single-writer lock (so a second
        server — or any other :class:`~repro.storage.engine.
        StorageEngine` — on the same root fails with
        :class:`~repro.core.errors.StorageError`); the served catalog
        starts at the recovered committed state.  The engine is owned
        by the server and closed by :meth:`stop`.
        """
        from repro.storage.engine import StorageEngine

        engine = StorageEngine.open(path, create=create)
        catalog = VersionedCatalog(engine=engine, base=engine.relations)
        server = cls(
            catalog,
            host=host,
            port=port,
            max_tuples=max_tuples,
            max_extensions=max_extensions,
            query_workers=query_workers,
        )
        server._owns_engine = True
        return server

    @classmethod
    def for_database(
        cls,
        db,
        *,
        host: str = DEFAULT_HOST,
        port: int = 0,
        query_workers: int = 4,
    ) -> ReproServer:
        """Serve an already-open :class:`~repro.query.database.Database`.

        The server shares the database's transactional core, so served
        commits and in-process snapshots observe one version history.
        The caller keeps ownership of the database (and closes it).
        """
        return cls(
            db._core,
            host=host,
            port=port,
            max_tuples=db.max_tuples,
            max_extensions=db.max_extensions,
            query_workers=query_workers,
        )

    @property
    def catalog(self) -> VersionedCatalog:
        """The served transactional core."""
        return self._catalog

    @property
    def port(self) -> int:
        """The bound TCP port (after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise ServeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket and start the commit drainer."""
        if self._server is not None:
            raise ServeError("server is already started")
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._query_pool = ThreadPoolExecutor(
            max_workers=self._query_workers,
            thread_name_prefix="serve-query",
        )
        self._commit_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-commit"
        )
        self._batcher = GroupCommitBatcher(self._catalog, self._commit_pool)
        self._batcher.start()
        self._server = await asyncio.start_server(
            self._handle,
            self.host,
            self._requested_port,
            limit=protocol.MAX_FRAME_BYTES,
        )

    async def stop(self) -> None:
        """Stop accepting, drain workers, release the store (if owned)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._batcher is not None:
            await self._batcher.stop()
            self._batcher = None
        for pool in (self._query_pool, self._commit_pool):
            if pool is not None:
                pool.shutdown(wait=True)
        self._query_pool = None
        self._commit_pool = None
        engine = self._catalog.engine
        if self._owns_engine and engine is not None:
            engine.close()

    async def run_forever(self) -> None:
        """Start, then serve until :meth:`request_stop` (or cancel)."""
        await self.start()
        try:
            await self._stop_event.wait()
        finally:
            await self.stop()

    def request_stop(self) -> None:
        """Ask a running :meth:`run_forever` loop to shut down.

        Thread-safe: callable from signal handlers and other threads.
        """
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)

    def start_in_thread(self) -> ReproServer:
        """Run the server's event loop on a daemon thread.

        Blocks until the listening socket is bound (or raises the
        startup failure).  Pair with :meth:`stop_in_thread`.
        """
        ready = threading.Event()
        failures: list[BaseException] = []

        def runner() -> None:
            async def main() -> None:
                try:
                    await self.start()
                except BaseException as exc:  # surface to caller
                    failures.append(exc)
                    ready.set()
                    return
                ready.set()
                try:
                    await self._stop_event.wait()
                finally:
                    await self.stop()

            asyncio.run(main())

        self._thread = threading.Thread(
            target=runner, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not ready.wait(timeout=30):
            raise ServeError("server did not start within 30s")
        if failures:
            self._thread.join(timeout=10)
            self._thread = None
            raise failures[0]
        return self

    def stop_in_thread(self) -> None:
        """Shut down a :meth:`start_in_thread` server and join it."""
        if self._thread is None:
            return
        self.request_stop()
        self._thread.join(timeout=30)
        self._thread = None

    def __enter__(self) -> ReproServer:
        return self.start_in_thread()

    def __exit__(self, *exc_info) -> None:
        self.stop_in_thread()

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        registry = metrics()
        registry.gauge("serve.connections").inc()
        pinned: CatalogVersion | None = None
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(
                        protocol.encode_frame(
                            protocol.error_payload(
                                None, ServeError("frame too large")
                            )
                        )
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                started = time.perf_counter()
                request_id: Any = None
                try:
                    request = protocol.decode_frame(line)
                    request_id = request.get("id")
                    response, pinned = await self._dispatch(
                        request, request_id, pinned
                    )
                except ReproError as exc:
                    COUNTERS["serve.errors"] += 1
                    response = protocol.error_payload(request_id, exc)
                COUNTERS["serve.requests"] += 1
                registry.histogram("serve.request.seconds").observe(
                    time.perf_counter() - started
                )
                writer.write(protocol.encode_frame(response))
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            registry.gauge("serve.connections").dec()
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    def _view(self, pinned: CatalogVersion | None) -> CatalogVersion:
        """The version a read runs against: the pin, or the latest."""
        return pinned if pinned is not None else self._catalog.current()

    def _snapshot_of(self, version: CatalogVersion) -> Snapshot:
        return Snapshot(
            version,
            max_tuples=self.max_tuples,
            max_extensions=self.max_extensions,
            plans=self._catalog.plans,
        )

    async def _dispatch(
        self,
        request: dict[str, Any],
        request_id: Any,
        pinned: CatalogVersion | None,
    ) -> tuple[dict[str, Any], CatalogVersion | None]:
        op = request.get("op")
        if not isinstance(op, str):
            raise ServeError(f"malformed request: missing op in {request!r}")
        with span("serve.request", op=op):
            payload, pinned = await self._dispatch_op(request, op, pinned)
        payload["id"] = request_id
        payload["ok"] = True
        return payload, pinned

    async def _dispatch_op(
        self,
        request: dict[str, Any],
        op: str,
        pinned: CatalogVersion | None,
    ) -> tuple[dict[str, Any], CatalogVersion | None]:
        loop = asyncio.get_running_loop()
        if op == "ping":
            return {
                "pong": True,
                "version": self._catalog.version,
                "protocol": protocol.PROTOCOL_VERSION,
            }, pinned
        if op == "info":
            view = self._view(pinned)
            return {
                "version": view.version,
                "pinned": pinned is not None,
                "persistent": self._catalog.engine is not None,
                "relations": {
                    name: len(view.relation(name)) for name in view.names
                },
            }, pinned
        if op == "names":
            view = self._view(pinned)
            return {
                "version": view.version,
                "names": list(view.names),
            }, pinned
        if op == "snapshot":
            pinned = self._catalog.current()
            return {"version": pinned.version}, pinned
        if op == "release":
            pinned = None
            return {"version": self._catalog.version}, pinned
        if op == "relation":
            view = self._view(pinned)
            rel = view.relation(_field(request, "name", str))
            return {
                "version": view.version,
                "relation": jsonio.relation_to_dict(rel),
            }, pinned
        if op == "query":
            snap = self._snapshot_of(self._view(pinned))
            text = _field(request, "text", str)
            COUNTERS["serve.queries"] += 1
            payload = await loop.run_in_executor(
                self._query_pool, _run_query, snap, text
            )
            return payload, pinned
        if op == "ask":
            snap = self._snapshot_of(self._view(pinned))
            text = _field(request, "text", str)
            COUNTERS["serve.queries"] += 1
            answer = await loop.run_in_executor(
                self._query_pool, snap.ask, text
            )
            return {"version": snap.version, "answer": bool(answer)}, pinned
        if op == "commit":
            mutations = request.get("mutations")
            if not isinstance(mutations, list):
                raise ServeError(
                    "commit needs 'mutations': a list of mutation objects"
                )
            result = await self._batcher.submit(mutations)
            if result.error is not None:
                raise result.error
            return {
                "version": result.version,
                "records": result.records,
            }, pinned
        if op == "append":
            # Streaming ingest: one transaction of structural inserts.
            # Rides the group-commit batcher, so concurrent appenders
            # share one fsync *and* (with a program installed) view
            # refresh is amortized over every batch in the group.
            name = _field(request, "name", str)
            tuples = request.get("tuples")
            if not isinstance(tuples, list):
                raise ServeError(
                    "append needs 'tuples': a list of tuple entries"
                )
            mutations = [
                {"op": "insert", "name": name, "tuple": entry}
                for entry in tuples
            ]
            COUNTERS["serve.appends"] += 1
            metrics().histogram("serve.append.tuples").observe(len(tuples))
            result = await self._batcher.submit(mutations)
            if result.error is not None:
                raise result.error
            return {
                "version": result.version,
                "records": result.records,
            }, pinned
        if op == "install_program":
            from repro.deductive import Program

            text = _field(request, "text", str)
            program = Program.from_text(text)
            verify = bool(request.get("verify", False))

            def install():
                return self._catalog.install_program(
                    program,
                    max_tuples=self.max_tuples,
                    max_extensions=self.max_extensions,
                    verify=verify,
                )

            # The commit pool serializes with the group-commit drainer's
            # executor thread, so installation never races a commit.
            version, report = await loop.run_in_executor(
                self._commit_pool, install
            )
            return {
                "version": version.version,
                "views": list(version.view_watermarks),
                "mode": report.mode if report is not None else "adopt",
            }, pinned
        if op == "views":
            view = self._view(pinned)
            return {
                "version": view.version,
                "views": dict(view.view_watermarks),
            }, pinned
        raise ServeError(f"unknown op {op!r}")


def _field(request: dict[str, Any], name: str, kind: type) -> Any:
    value = request.get(name)
    if not isinstance(value, kind):
        raise ServeError(
            f"op {request.get('op')!r} needs {name!r} of type "
            f"{kind.__name__}"
        )
    return value


def _run_query(snap: Snapshot, text: str) -> dict[str, Any]:
    """Worker-thread body for a ``query`` op: evaluate + serialize.

    :meth:`Snapshot.query` answers every directive exactly as
    :meth:`Database.query <repro.query.database.Database.query>` does;
    this ships each answer's faces:

    * a plain query: ``result`` (the relation);
    * ``MINIMIZE``/``MAXIMIZE``: ``result`` (the argopt restriction)
      and ``optimum`` (the scalar verdict — value, witness point,
      argopt provenance or unboundedness certificate;
      ``docs/optimization.md``);
    * ``EXPLAIN``: ``plan``, the rendered
      :class:`~repro.plan.report.PlanReport`;
    * ``EXPLAIN ANALYZE``: ``result``, ``plan`` (the same rendered
      report) and ``trace`` (:meth:`QueryTrace.to_dict
      <repro.query.explain.QueryTrace.to_dict>`, timings included).
    """
    from repro.optimize import OptimizationResult

    answer = snap.query(text)
    payload: dict[str, Any] = {"version": snap.version}
    if isinstance(answer, GeneralizedRelation):
        payload["result"] = jsonio.relation_to_dict(answer)
    elif isinstance(answer, OptimizationResult):
        payload["result"] = jsonio.relation_to_dict(
            answer.argopt_restriction()
        )
        payload["optimum"] = answer.to_dict()
    elif isinstance(answer, QueryTrace):
        payload["result"] = jsonio.relation_to_dict(answer.result)
        payload["plan"] = str(answer.plan())
        # Through to_json so any non-JSON span attribute ships as repr.
        payload["trace"] = json.loads(answer.to_json(indent=None))
    else:  # EXPLAIN: a PlanReport
        payload["plan"] = str(answer)
    return payload
