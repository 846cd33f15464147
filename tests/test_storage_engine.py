"""Tests for the durable storage engine: open/commit/compact/recover."""

import os

import pytest

from repro.core.errors import RecoveryError, SchemaError, StorageError
from repro.obs import metrics
from repro.query.database import Database
from repro.storage.engine import StorageEngine

WINDOW = (-40, 120)


def catalog_points(db: Database) -> dict[str, set]:
    """The finite-window image of every relation — recovery's oracle."""
    return {
        name: db.relation(name).snapshot(*WINDOW) for name in db.names
    }


def populate(db: Database) -> None:
    db.create("Train", temporal=["dep", "arr"], data=["service"])
    trains = db.relation("Train")
    trains.add_tuple(["2 + 60n", "80 + 60n"], "dep = arr - 78", ["slow"])
    trains.add_tuple(["46 + 60n", "110 + 60n"], "dep = arr - 64", ["express"])
    db.create("Fires", temporal=["t"])
    db.relation("Fires").add_tuple(["2 + 6n"], "t >= 0")


class TestOpenAndCommit:
    def test_open_initializes_empty(self, tmp_path):
        with Database.open(str(tmp_path / "db")) as db:
            assert db.names == ()
            assert db.persistent
            assert db.storage is not None

    def test_create_false_requires_existing(self, tmp_path):
        with pytest.raises(StorageError, match="no database"):
            Database.open(str(tmp_path / "missing"), create=False)

    def test_refuses_foreign_directory(self, tmp_path):
        (tmp_path / "stuff.txt").write_text("not a database")
        with pytest.raises(StorageError, match="non-empty"):
            Database.open(str(tmp_path))

    def test_commit_and_reopen(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database.open(path)
        populate(db)
        assert db.commit() == 2  # one put per relation
        before = catalog_points(db)
        db.close()
        with Database.open(path) as again:
            assert again.names == ("Train", "Fires")
            assert catalog_points(again) == before

    def test_commit_is_idempotent_when_unchanged(self, tmp_path):
        path = str(tmp_path / "db")
        with Database.open(path) as db:
            populate(db)
            assert db.commit() > 0
            assert db.commit() == 0
        # ... and straight after recovery too: the recovered encoding is
        # the committed encoding, so nothing spuriously re-persists.
        with Database.open(path) as again:
            assert again.commit() == 0

    def test_only_changed_relations_are_rewritten(self, tmp_path):
        with Database.open(str(tmp_path / "db")) as db:
            populate(db)
            db.commit()
            db.relation("Fires").add_tuple(["5 + 6n"], "t >= 12")
            assert db.commit() == 1  # Train untouched -> one put

    def test_drop_persists(self, tmp_path):
        path = str(tmp_path / "db")
        with Database.open(path) as db:
            populate(db)
            db.commit()
            db.drop("Fires")
            assert db.commit() == 1  # one drop record
        with Database.open(path) as again:
            assert again.names == ("Train",)

    def test_uncommitted_work_is_lost(self, tmp_path):
        path = str(tmp_path / "db")
        with Database.open(path) as db:
            populate(db)
            db.commit()
            db.relation("Fires").add_tuple(["1 + 6n"], "t >= 0")
            db.create("Extra", temporal=["t"])
            # no commit
        with Database.open(path) as again:
            assert set(again.names) == {"Train", "Fires"}
            assert not again.relation("Fires").contains([1])

    def test_many_transactions_replay_in_order(self, tmp_path):
        path = str(tmp_path / "db")
        with Database.open(path) as db:
            db.create("Seq", temporal=["t"])
            for i in range(7):
                db.relation("Seq").add_tuple([str(i)])
                db.commit()
        with Database.open(path) as again:
            assert sorted(again.relation("Seq").enumerate(0, 10)) == [
                (i,) for i in range(7)
            ]

    def test_in_memory_database_rejects_commit(self):
        db = Database()
        assert not db.persistent
        with pytest.raises(SchemaError, match="in-memory"):
            db.commit()
        with pytest.raises(SchemaError, match="in-memory"):
            db.compact()
        db.close()  # close is a harmless no-op without a store


class TestCompaction:
    def test_compact_truncates_wal_preserves_state(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database.open(path)
        populate(db)
        db.commit()
        before = catalog_points(db)
        wal_before = db.storage.info()["wal_bytes"]
        assert wal_before > 0
        snapshot = db.compact()
        assert db.storage.info()["wal_bytes"] == 0
        assert db.storage.info()["snapshot"] == snapshot
        db.close()
        with Database.open(path) as again:
            assert catalog_points(again) == before

    def test_commits_after_compaction_replay_over_snapshot(self, tmp_path):
        path = str(tmp_path / "db")
        with Database.open(path) as db:
            populate(db)
            db.commit()
            db.compact()
            db.relation("Fires").add_tuple(["3 + 6n"], "t >= 0")
            db.commit()
            expected = catalog_points(db)
        with Database.open(path) as again:
            assert catalog_points(again) == expected

    def test_compact_ignores_uncommitted_changes(self, tmp_path):
        path = str(tmp_path / "db")
        with Database.open(path) as db:
            populate(db)
            db.commit()
            committed = catalog_points(db)
            db.create("Uncommitted", temporal=["t"])
            db.compact()  # compacts the committed state only
        with Database.open(path) as again:
            assert "Uncommitted" not in again
            assert catalog_points(again) == committed

    def test_name_order_survives_compaction(self, tmp_path):
        path = str(tmp_path / "db")
        with Database.open(path) as db:
            db.create("C", temporal=["t"])
            db.create("A", temporal=["t"])
            db.commit()
            db.compact()
        with Database.open(path) as again:
            assert again.names == ("C", "A")

    def test_repeated_compaction_keeps_one_snapshot(self, tmp_path):
        path = str(tmp_path / "db")
        with Database.open(path) as db:
            populate(db)
            db.commit()
            db.compact()
            db.relation("Fires").add_tuple(["4 + 6n"], "t >= 0")
            db.commit()
            db.compact()
            snapshots = os.listdir(
                os.path.join(path, "snapshots")
            )
            assert len(snapshots) == 1


def _keys(relations) -> dict:
    """Each relation's canonical tuple keys, in tuple order."""
    return {
        name: [t.canonical_key() for t in rel]
        for name, rel in relations.items()
    }


class TestRecoveredOrder:
    def test_store_without_recorded_names_recovers_as_written(
        self, tmp_path
    ):
        # A store whose commit markers and snapshot carry no "names"
        # (the format before the field existed): the snapshot lists
        # its relations by sorted name, and replay keeps a replaced
        # relation's slot and appends new names.
        from repro.core.relations import GeneralizedRelation, Schema
        from repro.storage import jsonio
        from repro.storage.wal import encode_record

        def rel(*offsets):
            out = GeneralizedRelation.empty(Schema.make(temporal=["t"]))
            for offset in offsets:
                out.add_tuple([f"{offset} + 7n"], "t >= 0")
            return out

        snap = {"Z": rel(3, 1), "A": rel(2)}
        later = {"M": rel(5, 4), "A": rel(6, 2)}
        root = tmp_path / "db"
        (root / "snapshots").mkdir(parents=True)
        name = "snapshot-000000000002.json"
        (root / "snapshots" / name).write_bytes(encode_record({
            "format": 1,
            "snapshot_lsn": 2,
            "relations": {
                n: jsonio.relation_to_dict(r) for n, r in snap.items()
            },
        }))
        (root / "MANIFEST").write_bytes(encode_record(
            {"format": 1, "snapshot": name, "snapshot_lsn": 2}
        ))
        records = [
            {"lsn": 3, "txn": 2, "op": "put", "name": "M",
             "relation": jsonio.relation_to_dict(later["M"])},
            {"lsn": 4, "txn": 2, "op": "commit", "ops": 1},
            {"lsn": 5, "txn": 3, "op": "put", "name": "A",
             "relation": jsonio.relation_to_dict(later["A"])},
            {"lsn": 6, "txn": 3, "op": "drop", "name": "Z"},
            {"lsn": 7, "txn": 3, "op": "commit", "ops": 2},
        ]
        (root / "wal.log").write_bytes(
            b"".join(encode_record(r) for r in records)
        )
        with StorageEngine.open(str(root), create=False) as engine:
            assert tuple(engine.relations) == ("A", "M")
            assert _keys(engine.relations) == _keys(
                {"A": later["A"], "M": later["M"]}
            )
            assert engine.version == 3

    def test_names_not_a_permutation_is_recovery_error(self, tmp_path):
        from repro.storage.wal import encode_record

        path = str(tmp_path / "db")
        with Database.open(path) as db:
            db.create("A", temporal=["t"])
            db.commit()
        with open(os.path.join(path, "wal.log"), "ab") as handle:
            handle.write(encode_record(
                {"lsn": 9, "txn": 9, "op": "commit", "ops": 0,
                 "names": ["A", "B"]}
            ))
        with pytest.raises(RecoveryError, match="permutation"):
            StorageEngine.open(path)


def _wal_records(path: str) -> list[dict]:
    from repro.storage.wal import scan_wal

    with open(os.path.join(path, "wal.log"), "rb") as handle:
        return scan_wal(handle.read()).records


def _satisfiable_keys(relations) -> dict:
    """Each relation's canonical keys of satisfiable tuples, in order."""
    return {
        name: [t.canonical_key() for t in rel if t.closure() is not None]
        for name, rel in relations.items()
    }


class TestAddRecords:
    def test_append_stream_logs_adds_and_every_prefix_reopens_live(
        self, tmp_path
    ):
        from repro.deductive.scenarios import (
            edge_batches,
            reachability_program,
        )

        path = str(tmp_path / "db")
        with Database.open(path) as db:
            db.create("Edge", temporal=["t"], data=["src", "dst"])
            db.install_program(reachability_program(4))
            first = len(_wal_records(path))
            batches = edge_batches(6, 6, 3, seed=13)
            for index, batch in enumerate(batches):
                db.append_stream("Edge", batch)
                live = db.storage.relations
                assert tuple(live) == db.names == ("Edge", "Reach")
                copy = _copy(path, tmp_path / f"prefix-{index}")
                with StorageEngine.open(copy, create=False) as again:
                    assert tuple(again.relations) == tuple(live)
                    assert _keys(again.relations) == _keys(live)
            appended = _wal_records(path)[first:]
        written = [r for r in appended if r["op"] != "commit"]
        assert {(r["op"], r["name"]) for r in written} == {
            ("add", "Edge"),
            ("add", "Reach"),
        }
        edges = [r for r in written if r["name"] == "Edge"]
        assert sum(len(r["tuples"]) for r in edges) == sum(map(len, batches))

    def test_replace_and_retraction_stay_puts(self, tmp_path):
        from repro.core.relations import GeneralizedRelation

        path = str(tmp_path / "db")
        with Database.open(path) as db:
            populate(db)
            db.commit()
            schema = db.relation("Fires").schema
            db.register("Fires", GeneralizedRelation.empty(schema))
            db.relation("Train").add_tuple(
                ["3 + 60n", "90 + 60n"], "dep = arr - 87", ["late"]
            )
            db.commit()
        ops = [(r["op"], r.get("name")) for r in _wal_records(path)]
        assert ops[-3:] == [("add", "Train"), ("put", "Fires"), ("commit", None)]

    def test_add_to_missing_relation_is_recovery_error(self, tmp_path):
        from repro.storage.wal import encode_record

        path = str(tmp_path / "db")
        with Database.open(path) as db:
            db.create("A", temporal=["t"])
            db.commit()
        with open(os.path.join(path, "wal.log"), "ab") as handle:
            handle.write(encode_record(
                {"lsn": 9, "txn": 9, "op": "add", "name": "B", "tuples": []}
            ))
            handle.write(encode_record(
                {"lsn": 10, "txn": 9, "op": "commit", "ops": 1}
            ))
        with pytest.raises(RecoveryError, match="'B'"):
            StorageEngine.open(path)

    def test_uncommitted_add_is_discarded(self, tmp_path):
        from repro.storage.wal import encode_record

        path = str(tmp_path / "db")
        with Database.open(path) as db:
            db.create("A", temporal=["t"])
            db.commit()
        with open(os.path.join(path, "wal.log"), "ab") as handle:
            handle.write(encode_record(
                {"lsn": 9, "txn": 9, "op": "add", "name": "B", "tuples": []}
            ))
        with StorageEngine.open(path) as engine:
            assert tuple(engine.relations) == ("A",)

    def test_unsatisfiable_tuples_left_out_of_put_add_and_snapshot(
        self, tmp_path
    ):
        from repro.core.dbm import DBM
        from repro.core.tuples import GeneralizedTuple

        def unsat(offset):
            dbm = DBM(1)
            dbm.add_upper(0, offset - 1)
            dbm.add_lower(0, offset)
            return GeneralizedTuple.make([f"{offset} + 5n"], dbm=dbm)

        path = str(tmp_path / "db")
        with Database.open(path) as db:
            db.create("R", temporal=["t"])
            rel = db.relation("R")
            rel.add_tuple(["1 + 5n"], "t >= 0")
            rel.add(unsat(2))
            db.commit()
            rel.add(unsat(3))
            rel.add_tuple(["4 + 5n"], "t >= 0")
            db.commit()
            live = dict(db.storage.relations)
            records = [r for r in _wal_records(path) if r["op"] != "commit"]
            assert [r["op"] for r in records] == ["put", "add"]
            assert len(records[0]["relation"]["tuples"]) == 1
            assert len(records[1]["tuples"]) == 1
            with StorageEngine.open(
                _copy(path, tmp_path / "logged"), create=False
            ) as again:
                assert _keys(again.relations) == _satisfiable_keys(live)
            db.compact()
        with Database.open(path) as again:
            assert _keys(again.storage.relations) == _satisfiable_keys(live)
            assert len(again.relation("R")) == 2


def _copy(path: str, target) -> str:
    """A copy of the store at ``path``, which another engine may hold."""
    import shutil

    shutil.copytree(path, target, ignore=shutil.ignore_patterns("LOCK"))
    return str(target)


class TestEngineLifecycle:
    def test_closed_engine_rejects_operations(self, tmp_path):
        engine = StorageEngine.open(str(tmp_path / "db"))
        engine.close()
        with pytest.raises(StorageError, match="closed"):
            engine.commit_many([], [])
        engine.close()  # idempotent

    def test_corrupt_manifest_is_recovery_error(self, tmp_path):
        path = str(tmp_path / "db")
        StorageEngine.open(path).close()
        with open(os.path.join(path, "MANIFEST"), "wb") as handle:
            handle.write(b"garbage\n")
        with pytest.raises(RecoveryError, match="manifest"):
            StorageEngine.open(path)

    def test_corrupt_snapshot_is_recovery_error(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database.open(path)
        populate(db)
        db.commit()
        snapshot = db.compact()
        db.close()
        snapshot_path = os.path.join(path, "snapshots", snapshot)
        with open(snapshot_path, "r+b") as handle:
            handle.seek(20)
            handle.write(b"XXXX")
        with pytest.raises(RecoveryError, match="snapshot"):
            Database.open(path)

    def test_torn_wal_tail_is_repaired_on_open(self, tmp_path):
        path = str(tmp_path / "db")
        with Database.open(path) as db:
            populate(db)
            db.commit()
            expected = catalog_points(db)
        wal = os.path.join(path, "wal.log")
        with open(wal, "ab") as handle:
            handle.write(b"0badc0de 999 {torn")  # a torn tail
        with Database.open(path) as again:
            assert catalog_points(again) == expected
        # the tail was truncated away, so a further reopen is clean too
        with Database.open(path) as final:
            assert catalog_points(final) == expected

    def test_metrics_are_recorded(self, tmp_path):
        with Database.open(str(tmp_path / "db")) as db:
            populate(db)
            db.commit()
            db.compact()
        snap = metrics().snapshot()
        assert snap["counters"]["storage.wal.records_appended"] >= 3
        assert snap["counters"]["storage.wal.bytes_appended"] > 0
        assert snap["counters"]["storage.snapshots_written"] >= 1
        assert snap["histograms"]["storage.recovery.seconds"]["count"] >= 1
        assert snap["histograms"]["storage.commit.seconds"]["count"] >= 1
        assert snap["histograms"]["storage.snapshot.seconds"]["count"] >= 1

    def test_info_shape(self, tmp_path):
        with Database.open(str(tmp_path / "db")) as db:
            populate(db)
            db.commit()
            info = db.storage.info()
        assert info["format"] == 1
        assert info["relations"] == {"Train": 2, "Fires": 1}
        assert info["wal_bytes"] > 0
        assert info["snapshot"] is None

    def test_data_values_round_trip(self, tmp_path):
        path = str(tmp_path / "db")
        with Database.open(path) as db:
            db.create("Mixed", temporal=["t"], data=["a", "b"])
            db.relation("Mixed").add_tuple(["3n"], "t >= 0", ["x", 7])
            db.relation("Mixed").add_tuple(["5n"], "t >= 0", [None, -2])
            db.commit()
            expected = catalog_points(db)
        with Database.open(path) as again:
            assert catalog_points(again) == expected
