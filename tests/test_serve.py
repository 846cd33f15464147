"""Integration tests for the serving layer: server, clients, protocol.

Every test drives a real ``ReproServer`` over TCP on an ephemeral
loopback port — no mocked transport — because the concurrency claims
(snapshot pinning across connections, group-committed concurrent
writers, abort isolation inside a commit group) only mean something
end to end.
"""

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.errors import (
    EvaluationError,
    ParseError,
    ReproError,
    SchemaError,
    ServeError,
    StorageError,
)
from repro.obs import metrics
from repro.query.catalog import VersionedCatalog
from repro.query.database import Database
from repro.serve import (
    Client,
    GroupCommitBatcher,
    ReproServer,
    SyncClient,
    protocol,
)
from repro.serve.cli import serve_main
from repro.storage.engine import StorageEngine


def _create(name: str) -> dict:
    return {"op": "create", "name": name, "temporal": ["t"], "data": []}


def _insert(name: str, offset: int, period: int = 10) -> dict:
    return {
        "op": "insert",
        "name": name,
        "lrps": [f"{offset} + {period}n"],
        "constraints": "t >= 0",
        "data": [],
    }


@pytest.fixture
def server():
    with ReproServer() as srv:
        yield srv


@pytest.fixture
def client(server):
    with SyncClient(port=server.port) as c:
        yield c


class TestBasicOps:
    def test_ping(self, client):
        payload = client.ping()
        assert payload["pong"] is True
        assert payload["protocol"] == protocol.PROTOCOL_VERSION
        assert payload["version"] == 0

    def test_commit_query_roundtrip(self, client):
        result = client.commit([_create("Ev"), _insert("Ev", 2)])
        assert result == {"version": 1, "records": 1}
        assert client.ask("EXISTS t. Ev(t) & t >= 12")
        rel = client.query("EXISTS t. Ev(t) & t >= 0")
        assert not rel.is_empty()
        fetched = client.relation("Ev")
        assert sorted(fetched.enumerate(0, 25)) == [(2,), (12,), (22,)]

    def test_info_and_names(self, client):
        client.commit([_create("Ev"), _insert("Ev", 1)])
        info = client.info()
        assert info["persistent"] is False
        assert info["relations"] == {"Ev": 1}
        assert client.names() == ["Ev"]

    def test_errors_keep_their_type_across_the_wire(self, client):
        client.commit([_create("Ev")])
        with pytest.raises(SchemaError):
            client.commit([_create("Ev")])
        with pytest.raises(EvaluationError):
            client.commit([_insert("Nope", 1)])
        with pytest.raises(ParseError):
            client.ask("EXISTS t. Unknown(t)")
        with pytest.raises(ReproError):
            client.relation("Nope")

    def test_protocol_errors(self, client):
        with pytest.raises(ServeError, match="unknown op"):
            client._call("frobnicate")
        with pytest.raises(ServeError, match="needs 'text'"):
            client._call("ask")
        with pytest.raises(ServeError, match="mutations"):
            client._call("commit", mutations="not-a-list")

    def test_aborted_txn_leaves_others_committed(self, server, client):
        client.commit([_create("Ev")])
        with pytest.raises(EvaluationError):
            client.commit([_insert("Ev", 1), _insert("Ghost", 2)])
        # the aborted transaction left no trace, the catalog still moves
        assert client.relation("Ev").is_empty()
        client.commit([_insert("Ev", 3)])
        assert len(client.relation("Ev")) == 1


class TestSnapshots:
    def test_pinned_connection_ignores_later_commits(self, server):
        with SyncClient(port=server.port) as a:
            a.commit([_create("Ev"), _insert("Ev", 0)])
            pinned = a.snapshot()
            with SyncClient(port=server.port) as b:
                b.commit([_insert("Ev", 5)])
                assert len(b.relation("Ev")) == 2
            assert len(a.relation("Ev")) == 1
            assert not a.ask("EXISTS t. Ev(t) & t = 5")
            assert a.info()["version"] == pinned
            released = a.release()
            assert released > pinned
            assert len(a.relation("Ev")) == 2

    def test_snapshot_repin_advances(self, client):
        client.commit([_create("Ev")])
        first = client.snapshot()
        client.commit([_insert("Ev", 1)])
        second = client.snapshot()
        assert second > first
        assert len(client.relation("Ev")) == 1


class TestConcurrentWriters:
    def test_concurrent_commits_all_land(self, tmp_path):
        root = str(tmp_path / "db")
        with ReproServer.open(root) as server:
            with SyncClient(port=server.port) as seed:
                seed.commit([_create("Ev")])
            results: dict[int, dict] = {}

            def writer(i: int) -> None:
                with SyncClient(port=server.port) as c:
                    results[i] = c.commit([_insert("Ev", 100 + i, 1000)])

            threads = [
                threading.Thread(target=writer, args=(i,)) for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            versions = sorted(r["version"] for r in results.values())
            assert versions == list(range(2, 10))  # distinct, monotone
        # every concurrently committed transaction is durable
        with Database.open(root, create=False) as db:
            assert len(db.relation("Ev")) == 8
            assert db.version == 9

    def test_queued_transactions_commit_as_one_group(self, tmp_path):
        # Eight transactions queued before the drainer first runs are
        # one group: one batch observation of 8, one engine call.  No
        # clock is read, so the check cannot flake on a slow machine.
        root = str(tmp_path / "db")
        engine = StorageEngine.open(root)
        catalog = VersionedCatalog(engine=engine, base=engine.relations)
        catalog.commit_mutations([[_create("Ev")]])
        batches = metrics().histogram("serve.commit.batch_txns")
        count, total = batches.count, batches.total

        async def main():
            with ThreadPoolExecutor(max_workers=1) as pool:
                batcher = GroupCommitBatcher(catalog, pool)
                submits = [
                    asyncio.ensure_future(
                        batcher.submit([_insert("Ev", 100 + i, 1000)])
                    )
                    for i in range(8)
                ]
                await asyncio.sleep(0)  # every submit is now queued
                batcher.start()
                try:
                    return await asyncio.wait_for(
                        asyncio.gather(*submits), timeout=60
                    )
                finally:
                    await batcher.stop()

        try:
            results = asyncio.run(main())
        finally:
            engine.close()
        assert (batches.count - count, batches.total - total) == (1, 8)
        assert all(r.error is None for r in results)
        # distinct and monotone in submission order
        assert [r.version for r in results] == list(range(2, 10))
        with Database.open(root, create=False) as db:
            assert len(db.relation("Ev")) == 8
            assert db.version == 9

    def test_reader_not_blocked_by_a_held_commit(self, tmp_path, monkeypatch):
        # A commit parked inside the catalog's write lock must not stop
        # a reader on another connection: the read answers (the socket
        # timeout is its only bound) from the pre-commit version.
        root = str(tmp_path / "db")
        with ReproServer.open(root) as server:
            with SyncClient(port=server.port) as seed:
                seed.commit([_create("Ev"), _insert("Ev", 0)])
            engine = server.catalog.engine
            commit_many = engine.commit_many
            entered, release = threading.Event(), threading.Event()

            def held_commit_many(*args, **kwargs):
                entered.set()
                release.wait(timeout=60)
                return commit_many(*args, **kwargs)

            monkeypatch.setattr(engine, "commit_many", held_commit_many)
            landed = {}

            def writer() -> None:
                with SyncClient(port=server.port) as c:
                    landed.update(c.commit([_insert("Ev", 5)]))

            thread = threading.Thread(target=writer)
            thread.start()
            try:
                assert entered.wait(timeout=60), "commit never started"
                with SyncClient(port=server.port, timeout=10) as reader:
                    assert len(reader.relation("Ev")) == 1
                    assert not reader.ask("EXISTS t. Ev(t) & t = 5")
                    assert reader.ping()["version"] == 1
                assert not landed
            finally:
                release.set()
                thread.join(timeout=60)
            assert not thread.is_alive()
            assert landed == {"version": 2, "records": 1}
            with SyncClient(port=server.port) as reader:
                assert reader.ask("EXISTS t. Ev(t) & t = 5")

    def test_served_root_is_single_writer(self, tmp_path):
        root = str(tmp_path / "db")
        with ReproServer.open(root) as server:
            with SyncClient(port=server.port) as c:
                c.ping()
            with pytest.raises(StorageError, match="locked by another"):
                StorageEngine.open(root)
        # released on server stop
        StorageEngine.open(root).close()


class TestAsyncClient:
    def test_async_roundtrip(self, server):
        async def main() -> None:
            async with await Client.connect(port=server.port) as c:
                assert (await c.ping())["pong"] is True
                await c.commit([_create("Ev"), _insert("Ev", 4)])
                assert await c.ask("EXISTS t. Ev(t) & t >= 4")
                pinned = await c.snapshot()
                rel = await c.relation("Ev")
                assert len(rel) == 1
                assert await c.release() == pinned
                assert await c.names() == ["Ev"]

        asyncio.run(main())


class TestServeCli:
    def test_ping_info_query(self, server, capsys):
        with SyncClient(port=server.port) as c:
            c.commit([_create("Ev"), _insert("Ev", 7)])
        port = str(server.port)
        assert serve_main(["ping", "--port", port]) == 0
        assert "pong" in capsys.readouterr().out
        assert serve_main(["info", "--port", port]) == 0
        out = capsys.readouterr().out
        assert "in-memory catalog @ version 1" in out
        assert "Ev: 1 generalized tuple(s)" in out
        assert serve_main(["ask", "--port", port,
                           "EXISTS t. Ev(t) & t >= 7"]) == 0
        assert "true" in capsys.readouterr().out
        assert serve_main(["query", "--port", port,
                           "EXISTS t. Ev(t) & t >= 0"]) == 0
        assert "generalized tuple(s)" in capsys.readouterr().out

    def test_connection_refused_is_clean(self, capsys):
        assert serve_main(["ping", "--port", "1"]) == 1
        assert "error:" in capsys.readouterr().out

    def test_start_requires_exactly_one_target(self, capsys):
        assert serve_main(["start"]) == 2
        assert "exactly one" in capsys.readouterr().out
