"""Incremental view maintenance through the versioned catalog.

The contract under test: after *every* commit — streamed append
batches, group-committed mutations, full-state commits, crash-reopen
— each materialized view denotes exactly the point set a from-scratch
evaluation of the installed program derives from the committed EDB.
Plus the transactional trimmings: watermarks, snapshot pinning, view
protection, adoption on reopen, and the wire-level ``append`` /
``install_program`` / ``views`` ops.
"""

import pytest

from repro.core import algebra
from repro.core.errors import SchemaError
from repro.core.negation import DEFAULT_MAX_EXTENSIONS
from repro.core.normalize import DEFAULT_MAX_TUPLES
from repro.core.relations import GeneralizedRelation
from repro.core.simplify import simplify_relation
from repro.deductive.incremental import (
    DIRTY,
    ViewMaintainer,
    insert_delta,
    seminaive_stratum,
)
from repro.deductive.scenarios import (
    EDGE_SCHEMA,
    edge_batches,
    edge_relation,
    edge_tuple,
    reachability_program,
)
from repro.fuzz.ivm import run_ivm_case
from repro.obs.metrics import COUNTERS
from repro.query import Database
from repro.query.catalog import _input_deltas, apply_mutations
from repro.storage import jsonio
from repro.serve import ReproServer, SyncClient


def assert_views_match_recompute(db: Database) -> None:
    """Every installed view equals a from-scratch naive evaluation."""
    program = db.program
    oracle_db = Database()
    for name in db.names:
        if name not in db.view_names:
            oracle_db.register(name, db.relation(name))
    oracle = program.evaluate(oracle_db, strategy="naive")
    for name in db.view_names:
        assert algebra.equivalent(
            db.relation(name), oracle.relation(name)
        ), f"maintained view {name} diverged from recompute"


def fresh_db(window: int = 4) -> Database:
    db = Database()
    db.create("Edge", temporal=["t"], data=["src", "dst"])
    db.install_program(reachability_program(window))
    return db


class TestAppendStream:
    def test_views_match_recompute_after_every_batch(self):
        # Each insert-only batch must fold in by delta evaluation: a
        # refresh that silently recomputed would still match the
        # oracle, so the refresh-mode counters are checked too.
        names = ("deductive.refresh.incremental", "deductive.refresh.recompute")
        db = fresh_db()
        for batch in edge_batches(5, 4, 3, seed=11):
            before = [COUNTERS[name] for name in names]
            db.append_stream("Edge", batch)
            after = [COUNTERS[name] for name in names]
            assert (after[0] - before[0], after[1] - before[1]) == (1, 0)
            assert_views_match_recompute(db)

    def test_append_lands_all_tuples(self):
        db = fresh_db()
        batch = edge_batches(4, 1, 3, seed=0)[0]
        # One transaction: a positive record count (Edge + the
        # refreshed view), and every tuple of the batch visible.
        assert db.append_stream("Edge", batch) > 0
        got = db.relation("Edge").snapshot(0, 48)
        want = edge_relation([batch]).snapshot(0, 48)
        assert got == want

    def test_append_to_unknown_relation(self):
        from repro.core.errors import EvaluationError

        db = fresh_db()
        batch = edge_batches(4, 1, 1, seed=0)[0]
        with pytest.raises(EvaluationError, match="unknown relation"):
            db.append_stream("Nope", batch)

    def test_watermark_advances_with_each_append(self):
        db = fresh_db()
        seen = [db.views()["Reach"]]
        for batch in edge_batches(4, 3, 2, seed=3):
            db.append_stream("Edge", batch)
            seen.append(db.views()["Reach"])
        assert seen == sorted(set(seen)), "watermarks must be monotone"

    def test_untouched_view_watermark_stays(self, tmp_path):
        # A commit that never touches the program's inputs must not
        # pretend to have refreshed the view.
        with Database.open(tmp_path / "db") as db:
            db.create("Edge", temporal=["t"], data=["src", "dst"])
            db.install_program(reachability_program(4))
            db.append_stream("Edge", edge_batches(4, 1, 2, seed=1)[0])
            before = db.views()["Reach"]
            db.create("Other", temporal=["t"])
            db.relation("Other").add_tuple(["5n"], "t >= 0", [])
            db.commit()
            assert db.views()["Reach"] == before
            assert db.snapshot().version > before


#: Two paths n0 -> n2 found in the same round, one schedule inside the
#: other: the round's delta must drop the subsumed derivation.
OVERLAPPING = [
    edge_tuple(3, 24, "n0", "n1"),
    edge_tuple(5, 24, "n1", "n2"),
    edge_tuple(3, 24, "n0", "n3"),
    edge_tuple(5, 48, "n3", "n2"),
]


def assert_canonical(rel: GeneralizedRelation) -> None:
    """``rel`` is a fixpoint of simplification: no empty, no subsumed."""
    assert simplify_relation(rel).tuples == rel.tuples


class TestCanonicalViews:
    """Views and deltas grow by plain union; they must stay canonical."""

    def test_view_canonical_after_every_batch(self):
        db = fresh_db()
        for batch in edge_batches(6, 8, 3, seed=5):
            db.append_stream("Edge", batch)
            assert_canonical(db.relation("Reach"))

    def test_overlapping_derivations_stay_canonical(self):
        db = fresh_db()
        db.append_stream("Edge", OVERLAPPING)
        assert_canonical(db.relation("Reach"))
        db.append_stream("Edge", [edge_tuple(7, 24, "n2", "n4")])
        assert_canonical(db.relation("Reach"))
        assert_views_match_recompute(db)

    def test_accumulated_deltas_canonical(self):
        maintainer = ViewMaintainer(
            reachability_program(4),
            {"Edge": EDGE_SCHEMA},
            max_tuples=DEFAULT_MAX_TUPLES,
            max_extensions=DEFAULT_MAX_EXTENSIONS,
        )
        (layer,) = maintainer.strata
        rules = list(maintainer.program.rules)
        state = {
            "Edge": GeneralizedRelation.empty(EDGE_SCHEMA),
            "Reach": GeneralizedRelation.empty(
                maintainer.view_schemas["Reach"]
            ),
        }
        folded = 0
        for batch in [OVERLAPPING, *edge_batches(6, 6, 3, seed=21)]:
            seed = {"Edge": insert_delta(EDGE_SCHEMA, batch)}
            edge = state["Edge"].copy()
            for gtuple in batch:
                edge.add(gtuple)
            state["Edge"] = edge
            deltas, _stats = seminaive_stratum(
                state,
                rules,
                maintainer.view_schemas,
                set(layer),
                seed,
                max_iterations=maintainer.max_iterations,
                simplify=True,
                max_tuples=maintainer.max_tuples,
                max_extensions=maintainer.max_extensions,
            )
            for delta in deltas.values():
                assert_canonical(delta)
                folded += 1
            assert_canonical(state["Reach"])
        assert folded > 0


class TestInputDeltas:
    """Classification of a commit's input changes by ``_input_deltas``."""

    @pytest.fixture
    def maintainer(self):
        return ViewMaintainer(
            reachability_program(4),
            {"Edge": EDGE_SCHEMA},
            max_tuples=DEFAULT_MAX_TUPLES,
            max_extensions=DEFAULT_MAX_EXTENSIONS,
        )

    @pytest.fixture
    def subtractions(self, monkeypatch):
        """Record every ``algebra.subtract`` call the classifier makes."""
        calls = []
        real = algebra.subtract

        def counting(r1, r2):
            calls.append((r1, r2))
            return real(r1, r2)

        monkeypatch.setattr(algebra, "subtract", counting)
        return calls

    @staticmethod
    def classify(maintainer, old, new):
        return _input_deltas(
            maintainer, {"Edge": old}, {"Edge": new}, ["Edge"]
        ).get("Edge")

    def test_prefix_path_matches_full_path(self, maintainer, subtractions):
        batches = edge_batches(5, 2, 4, seed=30)
        old = edge_relation(batches[:1])
        appended = old.copy()
        for gtuple in batches[1]:
            appended.add(gtuple)
        # Same tuples, appended ones first: not an identity prefix.
        reordered = GeneralizedRelation(
            EDGE_SCHEMA, list(batches[1]) + list(old)
        )
        fast = self.classify(maintainer, old, appended)
        assert len(subtractions) == 1
        subtractions.clear()
        full = self.classify(maintainer, old, reordered)
        assert len(subtractions) == 2
        assert isinstance(fast, GeneralizedRelation)
        assert fast.tuples == full.tuples
        assert algebra.equivalent(
            fast, simplify_relation(algebra.subtract(appended, old))
        )

    def test_put_missing_a_point_is_dirty(self, maintainer):
        batches = edge_batches(5, 2, 3, seed=31)
        old = edge_relation(batches)
        put = {
            "op": "put",
            "name": "Edge",
            "relation": jsonio.relation_to_dict(edge_relation(batches[:1])),
        }
        state = apply_mutations({"Edge": old}, [put])
        assert _input_deltas(
            maintainer, {"Edge": old}, state, ["Edge"]
        ) == {"Edge": DIRTY}

    def test_reregistered_relation_missing_a_point_is_dirty(
        self, maintainer
    ):
        old = edge_relation(edge_batches(5, 2, 3, seed=32))
        tuples = old.tuples
        for missing in (0, len(tuples) - 1):
            rebuilt = GeneralizedRelation(
                EDGE_SCHEMA, tuples[:missing] + tuples[missing + 1:]
            )
            assert self.classify(maintainer, old, rebuilt) is DIRTY

    def test_reinserting_covered_tuple_yields_no_delta(self, maintainer):
        old = GeneralizedRelation(
            EDGE_SCHEMA, [edge_tuple(3, 24, "n0", "n1")]
        )
        again = old.copy()
        again.add(edge_tuple(3, 24, "n0", "n1"))  # the same schedule
        again.add(edge_tuple(27, 48, "n0", "n1"))  # a sub-schedule
        assert len(again) == 2
        assert _input_deltas(
            maintainer, {"Edge": old}, {"Edge": again}, ["Edge"]
        ) == {}

    def test_rebuilt_relation_takes_full_path(self, maintainer, subtractions):
        batches = edge_batches(5, 3, 3, seed=33)
        old = edge_relation(batches[:2])
        # A superset built from fresh tuple objects: same points as an
        # append, but no identity prefix.
        rebuilt = jsonio.relation_from_dict(
            jsonio.relation_to_dict(edge_relation(batches))
        )
        delta = self.classify(maintainer, old, rebuilt)
        assert len(subtractions) == 2
        assert isinstance(delta, GeneralizedRelation)
        assert algebra.equivalent(
            delta, algebra.subtract(edge_relation(batches), old)
        )


class TestDirtyPath:
    def test_retraction_recomputes_views(self, tmp_path):
        # Shrinking the EDB is not an insert-only delta: the catalog
        # must classify it DIRTY and recompute, not union-fold.
        with Database.open(tmp_path / "db") as db:
            db.create("Edge", temporal=["t"], data=["src", "dst"])
            db.install_program(reachability_program(4))
            batches = edge_batches(4, 3, 3, seed=7)
            for batch in batches:
                db.append_stream("Edge", batch)
            db.register("Edge", edge_relation(batches[:-1]))
            db.commit()
            assert_views_match_recompute(db)

    def test_grow_then_shrink_sequence(self, tmp_path):
        with Database.open(tmp_path / "db") as db:
            db.create("Edge", temporal=["t"], data=["src", "dst"])
            db.install_program(reachability_program(4))
            batches = edge_batches(5, 4, 2, seed=9)
            db.append_stream("Edge", batches[0])
            db.append_stream("Edge", batches[1])
            db.register("Edge", edge_relation([batches[0]]))
            db.commit()
            assert_views_match_recompute(db)
            db.append_stream("Edge", batches[2])
            assert_views_match_recompute(db)


class TestSnapshotPinning:
    def test_pinned_snapshot_is_isolated_from_appends(self, tmp_path):
        with Database.open(tmp_path / "db") as db:
            db.create("Edge", temporal=["t"], data=["src", "dst"])
            db.install_program(reachability_program(4))
            batches = edge_batches(4, 2, 3, seed=2)
            db.append_stream("Edge", batches[0])
            pinned = db.snapshot()
            before_edge = pinned.relation("Edge").snapshot(0, 48)
            before_reach = pinned.relation("Reach").snapshot(0, 48)
            db.append_stream("Edge", batches[1])
            # The pin still sees the old EDB *and* the old view —
            # never a view ahead of its base relations.
            assert pinned.relation("Edge").snapshot(0, 48) == before_edge
            assert pinned.relation("Reach").snapshot(0, 48) == before_reach
            fresh = db.snapshot()
            assert fresh.version > pinned.version
            assert fresh.relation("Edge").snapshot(0, 48) >= before_edge


class TestDurability:
    def test_views_survive_reopen_and_are_adopted(self, tmp_path):
        root = tmp_path / "db"
        program = reachability_program(4)
        batches = edge_batches(4, 3, 2, seed=4)
        with Database.open(root) as db:
            db.create("Edge", temporal=["t"], data=["src", "dst"])
            db.install_program(program)
            for batch in batches:
                db.append_stream("Edge", batch)
            reach = db.relation("Reach").snapshot(0, 48)
            watermarks = db.views()
        with Database.open(root, create=False) as db:
            # Persisted views are adopted: no recomputation report.
            report = db.install_program(reachability_program(4))
            assert report is None
            assert db.relation("Reach").snapshot(0, 48) == reach
            assert db.views() == watermarks
            assert_views_match_recompute(db)

    def test_verify_forces_recompute_on_reopen(self, tmp_path):
        root = tmp_path / "db"
        with Database.open(root) as db:
            db.create("Edge", temporal=["t"], data=["src", "dst"])
            db.install_program(reachability_program(4))
            db.append_stream("Edge", edge_batches(4, 1, 2, seed=6)[0])
        with Database.open(root, create=False) as db:
            report = db.install_program(
                reachability_program(4), verify=True
            )
            assert report is not None and report.mode == "recompute"
            assert_views_match_recompute(db)

    def test_append_then_reopen_views_consistent(self, tmp_path):
        root = tmp_path / "db"
        with Database.open(root) as db:
            db.create("Edge", temporal=["t"], data=["src", "dst"])
            db.install_program(reachability_program(3))
            db.append_stream("Edge", edge_batches(5, 1, 3, seed=8)[0])
        with Database.open(root, create=False) as db:
            db.install_program(reachability_program(3))
            db.append_stream("Edge", edge_batches(5, 1, 3, seed=18)[0])
            assert_views_match_recompute(db)


class TestViewProtection:
    def test_create_register_drop_guarded(self):
        db = fresh_db()
        with pytest.raises(SchemaError):
            db.create("Reach", temporal=["t"], data=["src", "dst"])
        with pytest.raises(SchemaError):
            db.register("Reach", edge_relation([]))
        with pytest.raises(SchemaError):
            db.drop("Reach")

    def test_append_stream_into_view_guarded(self):
        db = fresh_db()
        batch = edge_batches(4, 1, 1, seed=0)[0]
        with pytest.raises(SchemaError):
            db.append_stream("Reach", batch)

    def test_idb_clash_with_existing_relation(self):
        db = Database()
        db.create("Reach", temporal=["t"], data=["src", "dst"])
        db.create("Edge", temporal=["t"], data=["src", "dst"])
        db.relation("Reach").add_tuple(["1"], "", ["a", "b"])
        db.relation("Edge").add_tuple(["2"], "", ["a", "b"])
        # Adoption requires a matching schema; a matching schema is
        # adopted, a different one must raise.
        clashing = Database()
        clashing.create("Reach", temporal=["t", "u"])
        clashing.create("Edge", temporal=["t"], data=["src", "dst"])
        with pytest.raises(SchemaError):
            clashing.install_program(reachability_program(3))


class TestServeOps:
    @pytest.fixture
    def server(self):
        with ReproServer() as srv:
            yield srv

    @pytest.fixture
    def client(self, server):
        with SyncClient(port=server.port) as c:
            yield c

    def _setup(self, client):
        client.commit(
            [
                {
                    "op": "create",
                    "name": "Edge",
                    "temporal": ["t"],
                    "data": ["src", "dst"],
                }
            ]
        )
        program_text = (
            "declare Reach(t:T, src:D, dst:D)\n"
            "Reach(t, x, y) <- Edge(t, x, y)\n"
            "Reach(t, x, z) <- EXISTS s. EXISTS u. (Reach(s, x, u) "
            "& Edge(t, u, z) & s <= t & t <= s + 4)\n"
        )
        return client.install_program(program_text)

    def test_install_append_views_roundtrip(self, client):
        installed = self._setup(client)
        assert installed["views"] == ["Reach"]
        batch = edge_batches(4, 1, 3, seed=12)[0]
        result = client.append("Edge", batch)
        assert result["records"] > 0
        views = client.views()
        assert set(views) == {"Reach"}
        assert views["Reach"] == result["version"]
        assert client.ask(
            "EXISTS t. EXISTS x. EXISTS y. Reach(t, x, y)"
        )

    def test_wire_mutation_into_view_aborts(self, client):
        self._setup(client)
        with pytest.raises(SchemaError):
            client.commit(
                [
                    {
                        "op": "insert",
                        "name": "Reach",
                        "lrps": ["1 + 4n"],
                        "constraints": "t >= 0",
                        "data": ["a", "b"],
                    }
                ]
            )

    def test_pinned_client_sees_old_views(self, server):
        with SyncClient(port=server.port) as a:
            self._setup(a)
            a.append("Edge", edge_batches(4, 1, 2, seed=13)[0])
            a.snapshot()
            pinned_views = a.views()
            with SyncClient(port=server.port) as b:
                b.append("Edge", edge_batches(4, 1, 2, seed=14)[0])
                assert b.views()["Reach"] > pinned_views["Reach"]
            assert a.views() == pinned_views


class TestFuzzIvmLeg:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_cases_agree(self, seed):
        result = run_ivm_case(seed)
        assert result.status == "ok", result.summary()
        assert result.batches > 0
        assert not result.failing

    def test_durable_step_reports_a_recovery_that_reorders_tuples(
        self, monkeypatch
    ):
        decode = jsonio.relation_from_dict

        def reversed_decode(payload):
            rel = decode(payload)
            return GeneralizedRelation(rel.schema, rel.tuples[::-1])

        monkeypatch.setattr(jsonio, "relation_from_dict", reversed_decode)
        result = run_ivm_case(0)
        assert result.status == "divergent", result.summary()
        assert [d.kind for d in result.divergences] == ["durable"]

    def test_durable_step_reports_a_replay_that_ignores_marker_names(
        self, monkeypatch
    ):
        from repro.storage import engine

        restore = engine._restore_order

        def ignoring_markers(payloads, names, where):
            if not where.startswith("txn"):
                restore(payloads, names, where)

        monkeypatch.setattr(engine, "_restore_order", ignoring_markers)
        result = run_ivm_case(0)
        assert result.status == "divergent", result.summary()
        (divergence,) = result.divergences
        assert divergence.kind == "durable"
        assert "lists relations" in divergence.detail

    def test_shaped_view_is_compared_with_the_naive_fixpoint(
        self, monkeypatch
    ):
        from repro.deductive.incremental import RuleBodies

        run = RuleBodies.run

        def dropping_hop(store, rule, *args, **kwargs):
            result = run(store, rule, *args, **kwargs)
            if rule.head_name == "Hop":
                return GeneralizedRelation.empty(result.schema)
            return result

        monkeypatch.setattr(RuleBodies, "run", dropping_hop)
        result = run_ivm_case(0)
        assert result.status == "divergent", result.summary()
        (divergence,) = result.divergences
        assert divergence.kind == "ivm"
        assert "view 'Hop'" in divergence.detail

    def test_cli_flag_runs_ivm_cases(self, capsys):
        from repro.fuzz.cli import fuzz_main

        assert fuzz_main(["--budget", "0", "--ivm", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 case(s)" in out
