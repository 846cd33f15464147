"""Tests for query plan explanation."""

import pytest

from repro.query import Database
from repro.query.explain import PlanNode, explain_plan


def db_fixture() -> Database:
    db = Database()
    db.create("Even", temporal=["t"])
    db.relation("Even").add_tuple(["2n"])
    db.create("Perform", temporal=["t1", "t2"], data=["robot", "task"])
    db.relation("Perform").add_tuple(
        ["2 + 2n", "4 + 2n"], "t1 = t2 - 2", ["robot1", "task1"]
    )
    return db


class TestExplain:
    def test_scan_plan(self):
        plan = explain_plan(db_fixture(), "Even(t)", optimize=False)
        assert plan.operator == "scan"
        assert "Even" in plan.detail
        assert plan.out_tuples == 1
        assert not plan.children

    def test_join_plan(self):
        plan = explain_plan(db_fixture(), "Even(t) & t >= 0", optimize=False)
        assert plan.operator == "join"
        assert len(plan.children) == 2
        ops = {child.operator for child in plan.children}
        assert ops == {"scan", "compare"}

    def test_projection_plan(self):
        plan = explain_plan(db_fixture(), "EXISTS t. Even(t)", optimize=False)
        assert plan.operator == "project"
        assert "∃t" in plan.detail
        assert plan.children[0].operator == "scan"

    def test_forall_rewrites(self):
        plan = explain_plan(
            db_fixture(), "FORALL t. Even(t) | ~Even(t)", optimize=False
        )
        # ∀ becomes ~∃~; the forall node wraps the rewritten subtree.
        assert plan.operator == "forall"
        assert plan.children[0].operator == "complement"
        assert plan.children[0].children[0].operator == "project"

    def test_negation_pushing_recorded(self):
        plan = explain_plan(
            db_fixture(), "~(Even(t) & Even(t + 1))", optimize=False
        )
        # De Morgan: the complement node rewrites to a union of
        # per-atom complements — no complement over the conjunction.
        assert plan.operator == "complement"
        (union,) = plan.children
        assert union.operator == "union"
        assert all(c.operator == "complement" for c in union.children)
        # the pushed-in complements sit directly over scans
        for comp in union.children:
            assert comp.children[0].operator == "scan"

    def test_sizes_reported(self):
        plan = explain_plan(
            db_fixture(),
            'EXISTS t1. EXISTS t2. Perform(t1, t2, r, "task1")',
            optimize=False,
        )
        assert plan.out_tuples >= 1
        assert "robot" in plan.out_schema or "r:D" in plan.out_schema

    def test_render(self):
        plan = explain_plan(db_fixture(), "Even(t) & t >= 0", optimize=False)
        text = str(plan)
        assert "join" in text and "scan" in text
        # children indented under the root
        lines = text.splitlines()
        assert lines[1].startswith("  ")

    def test_string_and_ast_inputs(self):
        db = db_fixture()
        text_plan = explain_plan(db, "Even(t)", optimize=False)
        ast_plan = explain_plan(db, db.parse("Even(t)"), optimize=False)
        assert text_plan.operator == ast_plan.operator

    def test_plan_matches_query_result(self):
        db = db_fixture()
        plan = explain_plan(db, "Even(t) & t >= 0 & t <= 10", optimize=False)
        result = db.query("Even(t) & t >= 0 & t <= 10")
        assert plan.out_tuples == len(result)
