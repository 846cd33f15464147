"""Tests for first-order query evaluation (Section 4, Theorem 4.1)."""

import itertools

import pytest

from repro.core.errors import EvaluationError
from repro.query import Database


def ticks_db() -> Database:
    db = Database()
    db.create("Even", temporal=["t"])
    db.relation("Even").add_tuple(["2n"])
    db.create("Third", temporal=["t"])
    db.relation("Third").add_tuple(["3n"])
    return db


def robots_db() -> Database:
    """The paper's Table 1 database."""
    db = Database()
    db.create("Perform", temporal=["t1", "t2"], data=["robot", "task"])
    perform = db.relation("Perform")
    perform.add_tuple(
        ["2 + 2n", "4 + 2n"], "t1 = t2 - 2 & t1 >= -1", ["robot1", "task1"]
    )
    perform.add_tuple(
        ["6 + 10n", "7 + 10n"], "t1 = t2 - 1 & t1 >= 10", ["robot2", "task2"]
    )
    perform.add_tuple(["10n", "3 + 10n"], "t1 = t2 - 3", ["robot2", "task1"])
    return db


class TestAtomicQueries:
    def test_open_atom_returns_relation(self):
        db = ticks_db()
        res = db.query("Even(t)")
        assert res.schema.names == ("t",)
        assert res.contains([4]) and not res.contains([3])

    def test_constant_argument(self):
        db = ticks_db()
        assert db.ask("Even(4)")
        assert not db.ask("Even(5)")

    def test_successor_in_argument(self):
        db = ticks_db()
        res = db.query("Even(t + 1)")
        # t + 1 even  <=>  t odd
        assert res.contains([3]) and not res.contains([4])

    def test_repeated_variable(self):
        db = Database()
        db.create("Pair", temporal=["a", "b"])
        db.relation("Pair").add_tuple(["2n", "2n"])
        res = db.query("Pair(t, t)")
        assert res.contains([4]) and not res.contains([3])

    def test_repeated_variable_with_offsets(self):
        db = Database()
        db.create("Pair", temporal=["a", "b"])
        db.relation("Pair").add_tuple(["n", "n"], "a = b - 5")
        res = db.query("Pair(t, t + 5)")
        assert res.contains([0]) and res.contains([7])
        empty = db.query("Pair(t, t + 4)")
        assert empty.is_empty()

    def test_comparison_atoms(self):
        db = ticks_db()
        assert db.ask("EXISTS t. Even(t) & t >= 100")
        assert db.ask("3 <= 4") and not db.ask("4 < 4")

    def test_unknown_predicate(self):
        db = ticks_db()
        from repro.query.ast import Pred, TempVar

        with pytest.raises(EvaluationError):
            db.query(Pred("Nope", (TempVar("t"),)))


class TestBooleanStructure:
    def test_conjunction_is_intersection(self):
        db = ticks_db()
        res = db.query("Even(t) & Third(t)")
        assert res.contains([6]) and not res.contains([2])

    def test_disjunction_is_union(self):
        db = ticks_db()
        res = db.query("Even(t) | Third(t)")
        assert res.contains([2]) and res.contains([3])
        assert not res.contains([1])

    def test_negation_is_complement(self):
        db = ticks_db()
        res = db.query("~Even(t)")
        assert res.contains([3]) and not res.contains([4])

    def test_or_aligns_different_variables(self):
        db = ticks_db()
        res = db.query("Even(t) | Third(u)")
        assert res.schema.names == ("t", "u")
        assert res.contains([2, 1])  # left disjunct, u universal
        assert res.contains([1, 3])  # right disjunct, t universal
        assert not res.contains([1, 1])

    def test_implication(self):
        db = ticks_db()
        # every multiple of 6 is even
        assert db.ask("FORALL t. (Even(t) & Third(t)) -> Even(t)")
        assert not db.ask("FORALL t. Third(t) -> Even(t)")


class TestQuantifiers:
    def test_exists_projects(self):
        db = Database()
        db.create("Pair", temporal=["a", "b"])
        db.relation("Pair").add_tuple(["2n", "3n"], "a <= b")
        res = db.query("EXISTS b. Pair(a, b)")
        assert res.schema.names == ("a",)
        assert res.contains([2])

    def test_exists_over_infinite_domain(self):
        """Quantification genuinely ranges over all of Z."""
        db = ticks_db()
        assert db.ask("EXISTS t. Even(t) & t >= 1000000")
        assert db.ask("EXISTS t. Even(t) & t <= -1000000")

    def test_forall_true_statement(self):
        db = ticks_db()
        # every even time has an even successor's successor
        assert db.ask("FORALL t. Even(t) -> Even(t + 2)")
        assert not db.ask("FORALL t. Even(t) -> Even(t + 1)")

    def test_forall_over_z_is_false_for_bounded(self):
        db = ticks_db()
        assert not db.ask("FORALL t. Even(t)")
        assert db.ask("FORALL t. Even(t) | ~Even(t)")

    def test_vacuous_exists(self):
        db = ticks_db()
        assert db.ask("EXISTS u. EXISTS t. Even(t)")

    def test_ask_requires_closed(self):
        db = ticks_db()
        with pytest.raises(EvaluationError):
            db.ask("Even(t)")

    def test_data_quantification(self):
        db = robots_db()
        assert db.ask('EXISTS r. EXISTS t1. EXISTS t2. Perform(t1, t2, r, "task2")')
        assert not db.ask(
            'EXISTS r. EXISTS t1. EXISTS t2. Perform(t1, t2, r, "task9")'
        )


class TestRobotQueries:
    """Queries over the paper's Table 1."""

    def test_who_performs_task2(self):
        db = robots_db()
        res = db.query('EXISTS t1. EXISTS t2. Perform(t1, t2, r, "task2")')
        assert res.contains([], ["robot2"])
        assert not res.contains([], ["robot1"])

    def test_start_times_of_task2(self):
        db = robots_db()
        res = db.query('EXISTS t2. EXISTS r. Perform(t, t2, r, "task2")')
        points = sorted(x for (x,) in res.snapshot(0, 40))
        assert points == [16, 26, 36]

    def test_robot1_always_busy_with_task1(self):
        db = robots_db()
        assert db.ask(
            'FORALL t1. FORALL t2. FORALL k. '
            '(Perform(t1, t2, "robot1", k)) -> k = "task1"'
        )

    def test_example_4_1(self):
        """The paper's Example 4.1 formula evaluates (to false on Table 1:
        robot2's task2 intervals have length 1 < 5, so the antecedent is
        never satisfied, making the implication vacuously true)."""
        db = robots_db()
        text = """
        EXISTS x. EXISTS y. EXISTS t1. EXISTS t2.
        FORALL t3. FORALL t4. FORALL z.
          (Perform(t1, t2, x, "task2")
             & t1 <= t3 & t3 <= t4 & t4 <= t2 & t1 + 5 <= t2)
          -> ~Perform(t3, t4, y, z)
        """
        assert db.ask(text)

    def test_example_4_1_with_long_task(self):
        """Make the antecedent satisfiable: add a robot3 doing task2 for
        6 time units while robot1 works inside that window; the formula
        still holds because there exists a robot (robot3 vs. a y choice)
        ... and fails when every robot overlaps."""
        db = robots_db()
        db.relation("Perform").add_tuple(
            ["20n", "6 + 20n"], "t1 = t2 - 6", ["robot3", "task2"]
        )
        text = """
        EXISTS x. EXISTS y. EXISTS t1. EXISTS t2.
        FORALL t3. FORALL t4. FORALL z.
          (Perform(t1, t2, x, "task2")
             & t1 <= t3 & t3 <= t4 & t4 <= t2 & t1 + 5 <= t2)
          -> ~Perform(t3, t4, y, z)
        """
        # robot1 performs task1 on [2,4], [4,6] ... inside [0,6]; but the
        # quantifier choice y = robot2 works: robot2's task1 runs on
        # [10n, 10n+3] which intersects [0, 6] at [0, 3] — and its task2
        # at [16, 17]... we need SOME y never performing inside [t1,t2].
        # With x = robot3, t1 = 20, t2 = 26: robot2 task1 covers [20, 23]
        # and robot1 covers [20, 22] etc.  Check the engine's verdict
        # against brute-force reasoning below.
        assert db.ask(text) == self._brute_force_4_1(db)

    @staticmethod
    def _brute_force_4_1(db) -> bool:
        """Windowed reference evaluation of Example 4.1.

        The periods involved divide 20, so if a witness (x, t1, t2)
        exists at all, one exists with t1 in a single period window;
        checking [-40, 40] is exhaustive for this database.
        """
        perform = db.relation("Perform")
        lo, hi = -40, 40
        snapshot = perform.snapshot(lo - 20, hi + 20)
        robots = {"robot1", "robot2", "robot3"}
        busy = {(t3, t4, y) for (t3, t4, y, _z) in snapshot}
        task2 = {
            (t1, t2, x) for (t1, t2, x, z) in snapshot if z == "task2"
        }
        for t1 in range(lo, hi):
            for t2 in range(t1 + 5, hi):
                if not any((t1, t2, x) in task2 for x in robots):
                    continue
                for y in robots:
                    if not any(
                        (t3, t4, y) in busy
                        for t3 in range(t1, t2 + 1)
                        for t4 in range(t3, t2 + 1)
                    ):
                        return True
        return False


class TestDataEquality:
    def test_var_const(self):
        db = robots_db()
        res = db.query(
            'EXISTS t1. EXISTS t2. EXISTS k. '
            'Perform(t1, t2, r, k) & k = "task2"'
        )
        assert res.contains([], ["robot2"]) and not res.contains([], ["robot1"])

    def test_var_var(self):
        db = Database()
        db.create("P", data=["a"])
        db.relation("P").add_tuple([], data=["x"])
        db.create("Q", data=["b"])
        db.relation("Q").add_tuple([], data=["x"])
        db.relation("Q").add_tuple([], data=["y"])
        res = db.query("P(a) & Q(b) & a = b")
        assert res.contains([], ["x", "x"])
        assert not res.contains([], ["x", "y"])


class TestDatabaseCatalog:
    def test_create_register_drop(self):
        db = Database()
        db.create("R", temporal=["t"])
        assert "R" in db and db.names == ("R",)
        with pytest.raises(Exception):
            db.create("R", temporal=["t"])
        db.drop("R")
        assert "R" not in db
        with pytest.raises(EvaluationError):
            db.relation("R")
        with pytest.raises(EvaluationError):
            db.drop("R")

    def test_active_domain(self):
        db = robots_db()
        assert "robot1" in db.active_data_domain()

    def test_repr(self):
        db = ticks_db()
        assert "Even" in repr(db)

    def test_untraced_query_renders_no_schema(self, monkeypatch):
        # Schema text is for span attributes; with tracing off no path
        # may pay for it.
        from repro.core.relations import Schema

        db = robots_db()
        query = 'EXISTS t2. Perform(t1, t2, r, "task1") & t1 >= 0'
        expected = db.query(query)

        def refuse(self):
            raise AssertionError("Schema.__str__ called untraced")

        monkeypatch.setattr(Schema, "__str__", refuse)
        assert db.query(query) == expected
        assert db.ask(
            'EXISTS t1. EXISTS t2. Perform(t1, t2, "robot2", "task2")'
        )
