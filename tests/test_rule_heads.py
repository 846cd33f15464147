"""Rule heads: every head shape derives exactly its expected points.

A rule's head is the root of its body's compiled plan
(:meth:`repro.query.planner.Planner.plan_rule`): a product with one
singleton per constant, a projection onto the head's argument order and
a rename onto the head schema.  Each head shape below is checked
against explicit points, with the plan rewrite passes on and off, on
both :meth:`Program.evaluate` strategies and on a view maintained
across an append.
"""

from __future__ import annotations

import pytest

from repro.core.lrp import LRP
from repro.core.tuples import GeneralizedTuple
from repro.deductive import Program
from repro.perf.config import overrides
from repro.plan import nodes as ir
from repro.query import Database
from repro.query.evaluator import Evaluator

PROGRAM = """\
declare P(a:T, b:T, who:D)
declare At(k:T, a:T)
declare Tag(a:T, tag:D)
declare Who(who:D)
declare Same(a:T, b:T, who:D)
declare Lit(k:T, a:T)
P(b, a, w) <- Q(a, b, w)
At(4, a) <- EXISTS b. EXISTS w. Q(a, b, w)
Tag(a, "seen") <- EXISTS b. Q(a, b, "x")
Who(w) <- Q(a, b, w) & a >= 8
Same(a, b, who) <- Q(a, b, who)
Lit(4, a) <- Q(a, b, _h0)
"""

WINDOW = (0, 20)

#: Q's points in the window: ``x`` every 10 from 2 (``b = a + 3``) and
#: the single point ``(7, 8, y)``.
EXPECTED = {
    # a swap whose head attributes reuse the body's variable names
    "P": {(5, 2, "x"), (15, 12, "x"), (8, 7, "y")},
    # a temporal constant
    "At": {(4, 2), (4, 12), (4, 7)},
    # a data constant
    "Tag": {(2, "seen"), (12, "seen")},
    # the temporal variables dropped
    "Who": {("x",)},
    # the head identical to its body's only atom
    "Same": {(2, 5, "x"), (12, 15, "x"), (7, 8, "y")},
    # a temporal constant beside a body variable named like its column
    "Lit": {(4, 2), (4, 12), (4, 7)},
}

#: What appending ``(16, 17, z)`` to Q adds.
APPENDED = {
    "P": {(17, 16, "z")},
    "At": {(4, 16)},
    "Tag": set(),
    "Who": {("z",)},
    "Same": {(16, 17, "z")},
    "Lit": {(4, 16)},
}


def _edb() -> Database:
    db = Database()
    db.create("Q", temporal=["a", "b"], data=["who"])
    q = db.relation("Q")
    q.add_tuple([LRP.make(2, 10), LRP.make(5, 10)], "b = a + 3", ["x"])
    q.add_tuple([7, 8], "", ["y"])
    return db


def _points(db, name: str) -> set:
    return db.relation(name).snapshot(*WINDOW)


@pytest.fixture(params=[True, False], ids=["optimized", "naive-plan"])
def optimize(request):
    with overrides(optimize=request.param):
        yield request.param


@pytest.mark.parametrize("strategy", ["seminaive", "naive"])
def test_evaluate_derives_each_head_shape(optimize, strategy):
    db = _edb()
    out = Program.from_text(PROGRAM).evaluate(db, strategy=strategy)
    for name, points in EXPECTED.items():
        assert _points(out, name) == points, name
    assert out.relation("Same") is not out.relation("Q")
    assert out.relation("Same").tuples is not out.relation("Q").tuples


def test_maintained_views_derive_each_head_shape(optimize):
    db = _edb()
    db.install_program(Program.from_text(PROGRAM))
    for name, points in EXPECTED.items():
        assert _points(db, name) == points, name
    db.append_stream("Q", [GeneralizedTuple.make([16, 17], data=("z",))])
    for name, points in EXPECTED.items():
        assert _points(db, name) == points | APPENDED[name], name
    current = db.snapshot()
    assert current.relation("Same") is not current.relation("Q")


def test_head_is_the_plan_root():
    """The rename is the root; constants enter as singleton literals."""
    db = _edb()
    program = Program.from_text(PROGRAM)
    program.stratify(db.schemas())
    rules = {rule.head_name: rule for rule in program.rules}
    evaluator = Evaluator.of(db, optimize=False)

    def plan(name: str) -> ir.PlanNode:
        rule = rules[name]
        head = (rule.head_args, program.schema(name))
        return evaluator.compile(rule.body_query, head=head).rewritten

    for name in EXPECTED:
        root = plan(name)
        assert isinstance(root, ir.Rename)
        assert root.schema == program.schema(name)
    at = plan("At").child
    assert isinstance(at, ir.Project)
    literal = at.child.right
    assert literal.token == ("singleton", "_h0", 4, "temporal")
    ((lrps, _dbm, data),) = [t.canonical_key() for t in literal.relation]
    assert lrps == (LRP.point(4),) and data == ()
    # The constant's column steps around the body's variable ``_h0``.
    assert plan("Lit").child.child.right.token[:2] == ("singleton", "__h0")
    # Same columns in the same order: no projection under the rename.
    assert not isinstance(plan("Same").child, ir.Project)
