"""Tests for query plan explanation on the naive plan.

With the optimizer off, ``EXPLAIN`` is the executed naive
``PlanReport``: the direct calculus-to-algebra translation, whose
nodes carry the provenance labels of the query syntax they implement
and the output sizes observed when the plan ran.
"""

from repro.plan.report import PlanReport
from repro.query import Database


def db_fixture() -> Database:
    db = Database()
    db.create("Even", temporal=["t"])
    db.relation("Even").add_tuple(["2n"])
    db.create("Perform", temporal=["t1", "t2"], data=["robot", "task"])
    db.relation("Perform").add_tuple(
        ["2 + 2n", "4 + 2n"], "t1 = t2 - 2", ["robot1", "task1"]
    )
    return db


def explain(db: Database, query) -> PlanReport:
    report = db.explain(query, optimize=False)
    assert isinstance(report, PlanReport)
    assert not report.optimized and report.plan is report.naive
    return report


def ops(node) -> list[str]:
    """The node's label stack: the query operators it implements."""
    return [op for op, _ in node.labels]


def labeled_children(node) -> list:
    """The nearest labeled descendants: the node's query-level children."""
    out = []
    for child in node.children:
        out.extend([child] if child.labels else labeled_children(child))
    return out


class TestExplain:
    def test_scan_plan(self):
        report = explain(db_fixture(), "Even(t)")
        root = report.plan
        assert ops(root) == ["scan"]
        assert "Even" in root.labels[0][1]
        assert report.annotations[id(root)] == 1
        assert not labeled_children(root)

    def test_join_plan(self):
        root = explain(db_fixture(), "Even(t) & t >= 0").plan
        assert ops(root) == ["join"]
        children = labeled_children(root)
        assert len(children) == 2
        assert {ops(child)[0] for child in children} == {"scan", "compare"}

    def test_projection_plan(self):
        root = explain(db_fixture(), "EXISTS t. Even(t)").plan
        assert ops(root) == ["project"]
        assert "∃t" in root.labels[0][1]
        assert ops(labeled_children(root)[0]) == ["scan"]

    def test_forall_rewrites(self):
        root = explain(db_fixture(), "FORALL t. Even(t) | ~Even(t)").plan
        # ∀ becomes ~∃~: the forall label stacks on the complement,
        # which sits over the projection.
        assert ops(root) == ["forall", "complement"]
        (inner,) = labeled_children(root)
        assert ops(inner)[0] == "project"

    def test_negation_pushing_recorded(self):
        root = explain(db_fixture(), "~(Even(t) & Even(t + 1))").plan
        # De Morgan: the complement rewrites to a union of per-atom
        # complements — no complement over the conjunction.
        assert ops(root) == ["complement", "union"]
        complements = labeled_children(root)
        assert len(complements) == 2
        assert all(ops(c) == ["complement"] for c in complements)
        # the pushed-in complements sit directly over scans
        for comp in complements:
            (scan,) = labeled_children(comp)
            assert ops(scan) == ["scan"]

    def test_sizes_reported(self):
        report = explain(
            db_fixture(), 'EXISTS t1. EXISTS t2. Perform(t1, t2, r, "task1")'
        )
        assert report.annotations[id(report.plan)] >= 1
        assert "r:D" in str(report.plan.schema)
        # every node of the executed plan carries its size
        assert set(report.annotations) == {
            id(node) for node in report.plan.walk()
        }

    def test_render(self):
        text = str(explain(db_fixture(), "Even(t) & t >= 0"))
        assert "← join" in text and "← scan" in text
        assert "-> 1 tuple(s)" in text
        # the plan root is indented under the header, children deeper
        lines = text.splitlines()
        assert lines[0].startswith("plan [naive] for:")
        assert lines[1].startswith("  join")
        assert lines[2].startswith("    ")

    def test_string_and_ast_inputs(self):
        db = db_fixture()
        text_report = explain(db, "Even(t)")
        ast_report = explain(db, db.parse("Even(t)"))
        assert str(text_report) == str(ast_report)

    def test_plan_matches_query_result(self):
        db = db_fixture()
        report = explain(db, "Even(t) & t >= 0 & t <= 10")
        result = db.query("Even(t) & t >= 0 & t <= 10")
        assert report.annotations[id(report.plan)] == len(result)
