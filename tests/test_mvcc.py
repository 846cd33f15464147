"""MVCC semantics: snapshot isolation and group-commit equivalence.

Three families:

* snapshot pinning — a reader holding a snapshot taken before (or
  during) a group commit sees exactly the pre-commit catalog,
  cross-checked point-for-point against the finite-window oracle;
* group-commit equivalence — committing N transactions as one group
  produces the same outcomes and the same committed catalog as
  committing them one at a time, as the states they build
  (``commit_state``) and on a durable catalog, before and after
  reopening (hypothesis-driven over random mutation batches, including
  batches that abort);
* version tokens — monotone, and stable for pinned snapshots.
"""

import tempfile
import threading

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baseline.finite import FiniteRelation
from repro.core.errors import ReproError
from repro.core.relations import GeneralizedRelation, Schema
from repro.query.catalog import VersionedCatalog, apply_mutations
from repro.query.database import Database
from repro.storage.engine import StorageEngine

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


def _tuples(relations) -> dict:
    """Each relation's schema and canonical tuple keys, in tuple order."""
    return {
        name: (rel.schema, [t.canonical_key() for t in rel])
        for name, rel in relations.items()
    }


def _by_state(core: VersionedCatalog, batches) -> list[tuple]:
    """Commit each batch through ``commit_state`` of the state that
    ``apply_mutations`` builds from the committed one; outcomes as
    :func:`_outcomes` reads them."""
    outcomes = []
    for batch in batches:
        try:
            state = apply_mutations(core.current().relations, batch)
        except ReproError:
            outcomes.append((False, 0, None))
            continue
        version, records = core.commit_state(state)
        outcomes.append((True, records, version.version))
    return outcomes


def _outcomes(results) -> list[tuple]:
    """``(ok, records, version)`` per transaction; an aborted one reads
    no version, because a group reports its final token there."""
    return [(r.ok, r.records, r.version if r.ok else None) for r in results]


class TestGroupCommitEquivalence:
    @given(_batches)
    # A no-op batch that only reorders names, then a later insert.
    @example([[("create", "B"), ("create", "A")],
              [("drop", "B"), ("create", "B")],
              [("insert", "A", 3, 5)]])
    # Re-create a relation equal to the committed one, tuples in
    # another order: a no-op on every path, which keeps the old order.
    @example([[("create", "A"), ("insert", "A", 1, 10),
               ("insert", "A", 2, 10)],
              [("drop", "A"), ("create", "A"), ("insert", "A", 2, 10),
               ("insert", "A", 1, 10)],
              [("create", "B")]])
    # Drop and re-create a relation with new contents: it moves to the
    # end of the name order, and the reopened store must move it too.
    @example([[("create", "B"), ("create", "A")],
              [("drop", "B"), ("create", "B"), ("insert", "B", 1, 5)]])
    # Re-create a relation equal to the committed one while another
    # changes: the equal one keeps its object but still moves.
    @example([[("create", "B"), ("create", "A"), ("create", "C")],
              [("drop", "B"), ("create", "B"), ("insert", "A", 1, 5)]])
    @settings(max_examples=60, deadline=None)
    def test_group_equals_sequential(self, programs):
        batches = [[_translate(op) for op in batch] for batch in programs]

        grouped = VersionedCatalog()
        want = _outcomes(grouped.commit_mutations(batches))
        g = grouped.current()

        sequential = VersionedCatalog()
        seq = [sequential.commit_mutations([batch])[0] for batch in batches]
        by_state = VersionedCatalog()
        state_outcomes = _by_state(by_state, batches)
        with tempfile.TemporaryDirectory() as root:
            engine = StorageEngine.open(root)
            durable = VersionedCatalog(engine=engine, base=engine.relations)
            durable_outcomes = _outcomes(durable.commit_mutations(batches))
            d = durable.current()
            engine.close()
            with StorageEngine.open(root, create=False) as reopened:
                recovered = (
                    tuple(reopened.relations),
                    _tuples(reopened.relations),
                    reopened.version,
                )

        # same per-transaction outcomes (which aborted, what changed,
        # which version each committed as)
        assert _outcomes(seq) == want
        assert state_outcomes == want
        assert durable_outcomes == want
        # same committed catalog: names, tuples and their order
        for other in (sequential.current(), by_state.current(), d):
            assert other.names == g.names
            assert _tuples(other.relations) == _tuples(g.relations)
            assert other.version == g.version
        assert recovered == (g.names, _tuples(g.relations), g.version)
        for name in g.names:
            assert _points(g.relation(name)) == _points(
                sequential.current().relation(name)
            )

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


class TestCommitCopies:
    """A commit copies a relation only where a writer still holds it."""

    @staticmethod
    def _counting(monkeypatch) -> list:
        copies = []
        copy = GeneralizedRelation.copy

        def counting(relation):
            copies.append(relation)
            return copy(relation)

        monkeypatch.setattr(GeneralizedRelation, "copy", counting)
        return copies

    def test_one_copy_per_changed_relation_per_commit(self, monkeypatch):
        copies = self._counting(monkeypatch)
        core = VersionedCatalog()
        core.commit_mutations([[_create("Ev")]])
        for offset in range(5):
            (result,) = core.commit_mutations([[_insert("Ev", offset)]])
            assert result.ok
        # The create commits its fresh relation; each insert copies
        # once, in apply_mutations, and the commit copies nothing more.
        assert len(copies) == 5
        assert len(core.current().relation("Ev")) == 5

    def test_commit_state_copies_only_the_changed_working_object(
        self, monkeypatch
    ):
        schema = Schema.make(("t",), ())
        core = VersionedCatalog()
        kept = GeneralizedRelation.empty(schema)
        core.commit_state({"A": kept, "B": GeneralizedRelation.empty(schema)})
        working = dict(core.current().relations)
        working["B"] = working["B"].copy()
        working["B"].add_tuple(["3 + 7n"], "t >= 0", [])
        copies = self._counting(monkeypatch)
        version, records = core.commit_state(working)
        assert records == 1
        assert copies == [working["B"]]
        assert version.relation("A") is working["A"]
        assert version.relation("B") is not working["B"]


class TestKeptDataDomain:
    """A relation keeps its active data domain across adds, copies and
    commits; a pinned snapshot's domain never grows."""

    @staticmethod
    def _fresh_scan(relation: GeneralizedRelation) -> set:
        return {value for t in relation for value in t.data}

    def test_domain_follows_adds_and_copies(self):
        rel = GeneralizedRelation.empty(
            Schema.make(temporal=["t"], data=["s"])
        )
        assert rel.active_data_domain() == set()
        rel.add_tuple(["0 + 5n"], "t >= 0", ["a"])
        assert rel.active_data_domain() == {"a"}
        copy = rel.copy()
        rel.add_tuple(["1 + 5n"], "t >= 0", ["b"])
        copy.add_tuple(["2 + 5n"], "t >= 0", ["c"])
        copy.add_tuple(["3 + 5n"], "t >= 0", ["a"])
        for relation in (rel, copy):
            assert relation.active_data_domain() == self._fresh_scan(relation)
        assert rel.active_data_domain() == {"a", "b"}
        assert copy.active_data_domain() == {"a", "c"}

    def test_pinned_snapshot_does_not_see_a_committed_value(self, tmp_path):
        db = Database.open(str(tmp_path / "db"))
        db.create("Ev", temporal=["t"], data=["s"])
        db.relation("Ev").add_tuple(["0 + 10n"], "t >= 0", ["old"])
        db.commit()
        pinned = db.snapshot()
        assert pinned.relation("Ev").active_data_domain() == {"old"}
        db.relation("Ev").add_tuple(["3 + 10n"], "t >= 0", ["new"])
        db.commit()
        fresh = db.snapshot()
        assert pinned.relation("Ev").active_data_domain() == {"old"}
        assert fresh.relation("Ev").active_data_domain() == {"old", "new"}
        for snap in (pinned, fresh):
            relation = snap.relation("Ev")
            assert relation.active_data_domain() == self._fresh_scan(relation)
        # The complement of a data selection reads the domain.
        query = 'EXISTS t. Ev(t, s) & ~(s = "old")'
        assert pinned.query(query).is_empty()
        (only,) = fresh.query(query).tuples
        assert only.data == ("new",)
        db.close()
