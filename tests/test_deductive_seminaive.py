"""Semi-naive evaluation: equivalence with the naive oracle + strata.

The semi-naive strategy must be *observationally* equivalent to the
naive fixpoint — same point sets for every IDB relation, on every
program, on every database.  These tests pin that down on hand-built
programs, on seeded random temporal-graph workloads, and as a
hypothesis property; plus the differentiation machinery itself
(occurrence classification, brittle fallbacks) and the stratification
edge cases the incremental layer leans on.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import algebra
from repro.core.errors import EvaluationError
from repro.deductive import Program
from repro.deductive.incremental import (
    DIRTY,
    RuleBodies,
    delta_name,
    occurrences,
)
from repro.deductive.rules import Rule
from repro.deductive.scenarios import (
    EDGE_SCHEMA,
    edge_batches,
    edge_relation,
    reachability_program,
)
from repro.query import Database
from repro.query.parser import parse_query


def assert_same_idb(program: Program, db: Database) -> None:
    """Evaluate both strategies and compare every IDB as a point set."""
    fast = program.evaluate(db, strategy="seminaive")
    slow = program.evaluate(db, strategy="naive")
    for name in program.idb_names:
        assert algebra.equivalent(
            fast.relation(name), slow.relation(name)
        ), f"strategies disagree on {name}"


def edge_db(seed: int, n_nodes: int = 5, n_batches: int = 4) -> Database:
    db = Database()
    db.register(
        "Edge",
        edge_relation(edge_batches(n_nodes, n_batches, 3, seed=seed)),
    )
    return db


class TestStrategyEquivalence:
    def test_recursive_reachability(self):
        assert_same_idb(reachability_program(4), edge_db(1))

    def test_nonrecursive_program(self):
        db = Database()
        db.create("Perform", temporal=["t1", "t2"], data=["robot"])
        db.relation("Perform").add_tuple(
            ["2 + 10n", "5 + 10n"], "t1 = t2 - 3", ["r1"]
        )
        program = Program()
        program.declare("Busy", temporal=["t"], data=["r"])
        program.rule(
            "Busy(t, r) <- EXISTS a. EXISTS b. "
            "(Perform(a, b, r) & a <= t & t <= b)"
        )
        assert_same_idb(program, db)

    def test_program_with_negation(self):
        db = edge_db(2, n_nodes=4)
        program = Program.from_text(
            "declare Reach(t:T, src:D, dst:D)\n"
            "declare Idle(t:T, src:D, dst:D)\n"
            "Reach(t, x, y) <- Edge(t, x, y)\n"
            "Reach(t, x, z) <- EXISTS s. EXISTS u. (Reach(s, x, u) "
            "& Edge(t, u, z) & s <= t & t <= s + 3)\n"
            "Idle(t, x, y) <- Edge(t, x, y) & ~Reach(t, y, x)\n"
        )
        assert_same_idb(program, db)

    def test_constants_in_heads(self):
        db = edge_db(3, n_nodes=3, n_batches=2)
        program = Program.from_text(
            'declare Tagged(t:T, label:D)\n'
            'Tagged(t, "seen") <- EXISTS x. EXISTS y. Edge(t, x, y)\n'
        )
        assert_same_idb(program, db)

    def test_empty_edb(self):
        db = Database()
        db.create("Edge", temporal=["t"], data=["src", "dst"])
        assert_same_idb(reachability_program(3), db)

    @pytest.mark.parametrize("seed", range(5))
    def test_seeded_workloads(self, seed):
        rng = random.Random(seed)
        db = edge_db(
            seed,
            n_nodes=rng.randint(3, 6),
            n_batches=rng.randint(2, 4),
        )
        assert_same_idb(reachability_program(rng.randint(2, 5)), db)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        window=st.integers(2, 5),
        n_nodes=st.integers(3, 6),
    )
    def test_property_seminaive_equals_naive(self, seed, window, n_nodes):
        db = edge_db(seed, n_nodes=n_nodes, n_batches=3)
        assert_same_idb(reachability_program(window), db)

    def test_unknown_strategy_rejected(self):
        from repro.core.errors import ReproValueError

        with pytest.raises(ReproValueError):
            reachability_program(3).evaluate(edge_db(0), strategy="eager")


class TestDifferentiation:
    """Delta bodies as :class:`RuleBodies` builds them for ``H(t)``."""

    def _deltas(self, text: str, changing):
        """The delta body queries of ``H(t) <- text``, or ``None``."""
        from repro.core.relations import Schema

        schema = Schema.make(temporal=["t"])
        rule = Rule.parse(f"H(t) <- {text}")
        rule.bind({"P": schema, "Q": schema, "H": schema})
        bodies = RuleBodies()
        positions = bodies.delta_occurrences(rule, changing)
        if positions is None:
            return None
        return [bodies._body(rule, p).query for p in positions]

    def _body(self, text: str):
        from repro.core.relations import Schema

        schemas = {
            "P": Schema.make(temporal=["t"]),
            "Q": Schema.make(temporal=["t"]),
        }
        return parse_query(text, schemas)

    def test_one_delta_query_per_positive_occurrence(self):
        deltas = self._deltas("P(t) & Q(t)", {"P": object(), "Q": object()})
        assert deltas is not None and len(deltas) == 2

    def test_substitution_redirects_one_atom(self):
        deltas = self._deltas("P(t) & P(t)", {"P": object()})
        assert len(deltas) == 2
        for query in deltas:
            names = [occ.name for occ in occurrences(query)]
            assert names.count(delta_name("P")) == 1
            assert names.count("P") == 1

    def test_negated_occurrence_not_differentiated(self):
        assert self._deltas("P(t) & ~Q(t)", {"Q": object()}) == []

    def test_brittle_positive_occurrence_forces_fallback(self):
        # A positive occurrence under double negation distributes over
        # neither unions nor deltas: the whole body must be re-run.
        assert self._deltas("P(t) & ~(~Q(t))", {"Q": object()}) is None

    def test_forall_is_brittle(self):
        assert self._deltas("FORALL s. (Q(s) | P(t))", {"Q": object()}) is None

    def test_untouched_body_is_skippable(self):
        assert self._deltas("P(t)", {"Q": object()}) == []

    def test_occurrence_polarity(self):
        body = self._body("P(t) & ~Q(t)")
        by_name = {occ.name: occ for occ in occurrences(body)}
        assert not by_name["P"].negated and not by_name["P"].brittle
        assert by_name["Q"].negated and by_name["Q"].brittle


class TestRebindAcrossDatabases:
    def test_same_program_two_edb_shapes(self):
        # Binding is keyed to the schema mapping: evaluating one
        # Program against a database whose EDB schema differs must
        # re-parse the rule bodies, not silently reuse the stale parse.
        program = Program.from_text(
            "declare Out(t:T)\nOut(t) <- EXISTS x. Ev(t, x)\n"
        )
        db1 = Database()
        db1.create("Ev", temporal=["t", "x"])
        db1.relation("Ev").add_tuple(["3", "4"], "", [])
        r1 = program.evaluate(db1).relation("Out")
        assert r1.snapshot(0, 10) == {(3,)}

        db2 = Database()
        db2.create("Ev", temporal=["t"], data=["x"])
        db2.relation("Ev").add_tuple(["7"], "", ["a"])
        r2 = program.evaluate(db2).relation("Out")
        assert r2.snapshot(0, 10) == {(7,)}

        # And back again: the first shape still evaluates correctly.
        assert program.evaluate(db1).relation("Out").snapshot(0, 10) == {
            (3,)
        }


class TestStratification:
    def test_negation_cycle_error_text(self):
        program = Program.from_text(
            "declare P(t:T)\n"
            "declare Q(t:T)\n"
            "P(t) <- Ev(t) & ~Q(t)\n"
            "Q(t) <- Ev(t) & ~P(t)\n"
        )
        db = Database()
        db.create("Ev", temporal=["t"])
        with pytest.raises(EvaluationError, match="not stratifiable"):
            program.evaluate(db)

    def test_self_negation_rejected(self):
        program = Program.from_text(
            "declare P(t:T)\nP(t) <- Ev(t) & ~P(t)\n"
        )
        db = Database()
        db.create("Ev", temporal=["t"])
        with pytest.raises(EvaluationError, match="cycle through negation"):
            program.evaluate(db)

    def test_negating_earlier_stratum_view(self):
        # A later stratum may negate an earlier stratum's IDB: the
        # negated view must be complete before the negation reads it.
        db = Database()
        db.create("Ev", temporal=["t"])
        db.relation("Ev").add_tuple(["5n"], "t >= 0", [])
        program = Program.from_text(
            "declare Covered(t:T)\n"
            "declare Gap(t:T)\n"
            "Covered(t) <- Ev(t)\n"
            "Gap(t) <- Tick(t) & ~Covered(t)\n"
        )
        db.create("Tick", temporal=["t"])
        db.relation("Tick").add_tuple(["n"], "t >= 0", [])
        strata = program.stratify(db.schemas())
        flat = [name for layer in strata for name in layer]
        assert flat.index("Covered") < flat.index("Gap")
        result = program.evaluate(db)
        got = result.relation("Gap").snapshot(0, 12)
        assert got == {(t,) for t in range(13) if t % 5 != 0}
        assert_same_idb(program, db)

    def test_stratum_order_deterministic(self):
        program_text = (
            "declare A(t:T)\n"
            "declare B(t:T)\n"
            "declare C(t:T)\n"
            "A(t) <- Ev(t)\n"
            "B(t) <- Ev(t) & ~A(t)\n"
            "C(t) <- B(t)\n"
        )
        db = Database()
        db.create("Ev", temporal=["t"])
        reference = Program.from_text(program_text).stratify(db.schemas())
        for _ in range(5):
            again = Program.from_text(program_text).stratify(db.schemas())
            assert again == reference
        assert reference == [["A"], ["B", "C"]]


class TestDirtySentinel:
    def test_dirty_is_identity_not_equality(self):
        # DIRTY is a sentinel compared with `is`; it must never compare
        # equal to a real delta relation.
        from repro.core.relations import GeneralizedRelation

        assert DIRTY is DIRTY
        assert DIRTY is not GeneralizedRelation.empty(EDGE_SCHEMA)
