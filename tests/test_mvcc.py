"""MVCC semantics: snapshot isolation and group-commit equivalence.

Three families:

* snapshot pinning — a reader holding a snapshot taken before (or
  during) a group commit sees exactly the pre-commit catalog,
  cross-checked point-for-point against the finite-window oracle;
* group-commit equivalence — committing N transactions as one group
  produces the same committed catalog as committing them one at a
  time (hypothesis-driven over random mutation batches, including
  batches that abort);
* version tokens — monotone, and stable for pinned snapshots.
"""

import threading

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baseline.finite import FiniteRelation
from repro.core.relations import GeneralizedRelation, Schema
from repro.query.catalog import VersionedCatalog, apply_mutations
from repro.query.database import Database

WINDOW = (0, 60)


def _points(relation: GeneralizedRelation) -> set[tuple]:
    return set(FiniteRelation.materialize(relation, *WINDOW).rows)


def _insert(name: str, offset: int, period: int = 7) -> dict:
    return {
        "op": "insert",
        "name": name,
        "lrps": [f"{offset} + {period}n"],
        "constraints": "t >= 0",
        "data": [],
    }


def _create(name: str) -> dict:
    return {"op": "create", "name": name, "temporal": ["t"], "data": []}


class TestSnapshotPinning:
    def test_snapshot_pinned_before_group_commit_sees_old_state(
        self, tmp_path
    ):
        db = Database.open(str(tmp_path / "db"))
        db.create("Ev", temporal=["t"])
        db.relation("Ev").add_tuple(["0 + 10n"], "t >= 0", [])
        db.commit()

        pinned = db.snapshot()
        oracle = _points(pinned.relation("Ev"))

        core = db._core
        results = core.commit_mutations(
            [[_insert("Ev", 3)], [_insert("Ev", 5)], [_create("New")]]
        )
        assert all(r.ok for r in results)

        # the pin still shows exactly the pre-commit catalog ...
        assert pinned.names == ("Ev",)
        assert _points(pinned.relation("Ev")) == oracle
        assert pinned.ask("EXISTS t. Ev(t) & t >= 10")
        assert not pinned.ask("EXISTS t. Ev(t) & t = 3")
        # ... while a fresh snapshot shows the committed batch
        fresh = db.snapshot()
        assert fresh.names == ("Ev", "New")
        assert _points(fresh.relation("Ev")) > oracle
        db.close()

    def test_snapshot_pinned_mid_commit_is_never_torn(self, tmp_path):
        # Every transaction inserts into BOTH relations; a torn read
        # would catch a state where only one of the pair landed.
        db = Database.open(str(tmp_path / "db"))
        db.create("A", temporal=["t"])
        db.create("B", temporal=["t"])
        db.commit()
        core = db._core

        stop = threading.Event()
        failures: list[str] = []

        def writer() -> None:
            for i in range(25):
                core.commit_mutations(
                    [[_insert("A", 100 + i, 1000),
                      _insert("B", 100 + i, 1000)]]
                )
            stop.set()

        thread = threading.Thread(target=writer)
        thread.start()
        last_version = -1
        while not stop.is_set():
            snap = db.snapshot()
            a = len(snap.relation("A"))
            b = len(snap.relation("B"))
            if a != b:
                failures.append(f"torn read: |A|={a} |B|={b}")
            if snap.version < last_version:
                failures.append("version went backwards")
            last_version = snap.version
        thread.join()
        db.close()
        assert not failures, failures

    def test_working_mutations_invisible_to_snapshots(self, tmp_path):
        db = Database.open(str(tmp_path / "db"))
        db.create("Ev", temporal=["t"])
        db.commit()
        snap = db.snapshot()
        db.relation("Ev").add_tuple(["4n"], "t >= 0", [])  # uncommitted
        assert _points(snap.relation("Ev")) == set()
        assert _points(db.snapshot().relation("Ev")) == set()
        db.commit()
        assert _points(db.snapshot().relation("Ev")) != set()
        assert _points(snap.relation("Ev")) == set()
        db.close()


# Abstract mutation programs for the equivalence property: op codes
# over two relation names, translated to JSON-shaped mutations.  Some
# batches are invalid (insert/drop on a missing relation) — they must
# abort identically in both commit modes.
_name = st.sampled_from(["A", "B"])
_mutation = st.one_of(
    st.tuples(st.just("create"), _name),
    st.tuples(st.just("insert"), _name, st.integers(0, 9),
              st.sampled_from([3, 5, 8])),
    st.tuples(st.just("drop"), _name),
)
_batches = st.lists(
    st.lists(_mutation, min_size=1, max_size=4), min_size=1, max_size=6
)


def _translate(op) -> dict:
    if op[0] == "create":
        return _create(op[1])
    if op[0] == "insert":
        return _insert(op[1], op[2], op[3])
    return {"op": "drop", "name": op[1]}


class TestGroupCommitEquivalence:
    @given(_batches)
    # A no-op batch that only reorders names, then a later insert.
    @example([[("create", "B"), ("create", "A")],
              [("drop", "B"), ("create", "B")],
              [("insert", "A", 3, 5)]])
    @settings(max_examples=60, deadline=None)
    def test_group_equals_sequential(self, programs):
        batches = [[_translate(op) for op in batch] for batch in programs]

        grouped = VersionedCatalog()
        group_results = grouped.commit_mutations(batches)

        sequential = VersionedCatalog()
        seq_results = [
            sequential.commit_mutations([batch])[0] for batch in batches
        ]

        # same per-transaction outcomes (which aborted, what changed)
        assert [r.ok for r in group_results] == [r.ok for r in seq_results]
        assert [r.records for r in group_results] == [
            r.records for r in seq_results
        ]
        # same committed catalog, relation by relation, point by point
        g, s = grouped.current(), sequential.current()
        assert g.names == s.names
        for name in g.names:
            assert g.relation(name) == s.relation(name)
            assert _points(g.relation(name)) == _points(s.relation(name))
        assert g.version == s.version

    def test_group_equals_sequential_durably(self, tmp_path):
        batches = [
            [_create("A"), _insert("A", 1)],
            [_insert("A", 2), _insert("A", 4)],
            [_insert("Missing", 9)],  # aborts alone
            [_create("B"), _insert("B", 0, 5)],
            [{"op": "drop", "name": "A"}],
        ]
        with Database.open(str(tmp_path / "grp")) as grp:
            results = grp._core.commit_mutations(batches)
        with Database.open(str(tmp_path / "seq")) as seq:
            seq_results = [
                seq._core.commit_mutations([b])[0] for b in batches
            ]
        assert [r.ok for r in results] == [r.ok for r in seq_results]
        # both stores recover to the same catalog
        with Database.open(str(tmp_path / "grp"), create=False) as grp:
            with Database.open(str(tmp_path / "seq"), create=False) as seq:
                assert grp.names == seq.names
                for name in grp.names:
                    assert _points(grp.relation(name)) == _points(
                        seq.relation(name)
                    )
                assert grp.version == seq.version


class TestVersionTokens:
    def test_versions_are_monotone_per_commit(self, tmp_path):
        db = Database.open(str(tmp_path / "db"))
        assert db.version == 0
        db.create("Ev", temporal=["t"])
        db.commit()
        v1 = db.version
        db.relation("Ev").add_tuple(["2n"], "t >= 0", [])
        db.commit()
        assert db.version > v1
        db.commit()  # no-op: no new version
        assert db.version == v1 + 1
        db.close()

    def test_group_assigns_one_version_per_transaction(self):
        core = VersionedCatalog()
        results = core.commit_mutations(
            [[_create("A")], [_insert("A", 1)], [_insert("A", 1)],
             [_insert("A", 2)]]
        )
        versions = [r.version for r in results if r.ok]
        # the third txn is a no-op (duplicate tuple) and reads as its
        # predecessor's version; the rest strictly increase
        assert versions == [1, 2, 2, 3]
        assert core.version == 3

    def test_recovered_version_token_continues(self, tmp_path):
        root = str(tmp_path / "db")
        with Database.open(root) as db:
            db.create("Ev", temporal=["t"])
            db.commit()
            before = db.version
        with Database.open(root, create=False) as db:
            assert db.version == before
            db.relation("Ev").add_tuple(["9n"], "t >= 0", [])
            db.commit()
            assert db.version > before

    def test_apply_mutations_is_pure(self):
        schema = Schema.make(("t",), ())
        base = {"Ev": GeneralizedRelation.empty(schema)}
        out = apply_mutations(base, [_insert("Ev", 3)])
        assert len(base["Ev"]) == 0
        assert len(out["Ev"]) == 1
        assert out["Ev"] is not base["Ev"]
