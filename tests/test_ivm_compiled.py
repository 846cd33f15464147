"""Compiled rule bodies: each body is planned once, and every fire runs
exactly the plan per-fire lowering would have built.

A :class:`~repro.deductive.incremental.ViewMaintainer` compiles each
(rule, occurrence) body once and reruns only ``finish_plan``'s
``reorder-joins`` + ``window-joins`` + ``dedup-subtrees`` passes per
fire when the body has a join chain they could reorder.  These tests pin that contract:

* at every fire the executed plan's key equals a fresh
  ``Planner.plan_query`` (+ ``optimize_plan``) on the same relations;
* views are tuple-identical (lrps, DBM, data, order) to per-fire
  lowering, with the optimizer on and off;
* ``Planner.plan_query`` runs at most once per distinct body;
* flipping ``optimize`` between commits runs the matching plan, and a
  body that lowers to a bare literal never leaks its literal relation.
"""

from __future__ import annotations

import pytest

from repro.core import algebra
from repro.core.lrp import LRP
from repro.core.relations import GeneralizedRelation
from repro.deductive import Program
from repro.deductive.incremental import RuleBodies
from repro.deductive.scenarios import (
    edge_batches,
    edge_relation,
    reachability_program,
)
from repro.perf.config import overrides
from repro.plan import nodes as ir
from repro.plan.engine import NativeEngine
from repro.plan.rewrite import optimize_plan
from repro.query import Database
from repro.query.evaluator import Evaluator
from repro.query.planner import Planner

#: A recursive rule whose body is a chain of three positive atoms (no
#: selection or projection between them), so ``reorder-joins`` decides
#: per fire from the current delta sizes.
THREE_ATOM = (
    "declare Walk(t:T, src:D, dst:D)\n"
    "Walk(t, x, y) <- Edge(t, x, y)\n"
    "Walk(t, x, z) <- Walk(t, x, y) & Edge(t, y, z) & Mark(t, z)\n"
)


def rows(rel: GeneralizedRelation) -> list[tuple]:
    """A relation's tuples as (lrps, DBM, data) keys, in stored order."""
    return [gtuple.canonical_key() for gtuple in rel.tuples]


class FireSpy:
    """Records every compiled fire: executed vs freshly planned keys."""

    def __init__(self, monkeypatch) -> None:
        self.fires: list[tuple[tuple, tuple]] = []
        self.compiled: list = []
        self.bodies: set[tuple] = set()
        self.planner_calls = 0
        self._fresh = False
        self._executed: list[ir.PlanNode] = []
        spy = self
        plan_query = Planner.plan_query
        engine_run = NativeEngine.run
        evaluator_run = Evaluator.run
        bodies_run = RuleBodies.run

        def counting_plan_query(planner, query):
            if not spy._fresh:
                spy.planner_calls += 1
            return plan_query(planner, query)

        def recording_engine_run(engine, plan, ctx):
            spy._executed.append(plan)
            return engine_run(engine, plan, ctx)

        def checked_run(evaluator, compiled):
            spy.compiled.append(compiled)
            spy._fresh = True
            try:
                want = Planner(evaluator.relations).plan_query(compiled.query)
                if compiled.optimize:
                    domain = evaluator.data_domain | compiled.constants
                    want, _ = optimize_plan(
                        want,
                        relations=evaluator.relations,
                        domain_size=len(domain),
                    )
            finally:
                spy._fresh = False
            spy._executed.clear()
            result = evaluator_run(evaluator, compiled)
            (executed,) = spy._executed
            spy.fires.append((executed.key(), want.key()))
            return result

        def recording_bodies_run(store, rule, occurrence, *args, **kwargs):
            spy.bodies.add((id(rule), occurrence))
            return bodies_run(store, rule, occurrence, *args, **kwargs)

        monkeypatch.setattr(Planner, "plan_query", counting_plan_query)
        monkeypatch.setattr(NativeEngine, "run", recording_engine_run)
        monkeypatch.setattr(Evaluator, "run", checked_run)
        monkeypatch.setattr(RuleBodies, "run", recording_bodies_run)


def per_fire_lowering(monkeypatch) -> None:
    """Make every compiled fire re-plan its query, as before compiling."""
    monkeypatch.setattr(
        Evaluator, "run", lambda evaluator, compiled: evaluator.evaluate(
            compiled.query
        )
    )


def reach_stream(program: Program, batches, *, marks=None) -> dict:
    """Stream ``batches`` into a fresh database; views after each batch."""
    db = Database()
    db.create("Edge", temporal=["t"], data=["src", "dst"])
    if marks is not None:
        db.create("Mark", temporal=["t"], data=["node"])
        mark = GeneralizedRelation.empty(db.relation("Mark").schema)
        for offset, node in marks:
            mark.add_tuple([LRP.make(offset, 24)], data=(node,))
        db.register("Mark", mark)
    db.install_program(program)
    history = []
    for batch in batches:
        db.append_stream("Edge", batch)
        history.append({name: rows(db.relation(name)) for name in db.view_names})
    return {"history": history, "db": db}


MARKS = [(k, f"n{k % 5}") for k in range(0, 24, 2)]

STREAMS = [
    ("reach", lambda: reachability_program(4), None, (5, 5, 3, 11)),
    ("reach-wide", lambda: reachability_program(6), None, (4, 4, 2, 5)),
    ("three-atom", lambda: Program.from_text(THREE_ATOM), MARKS, (5, 5, 3, 3)),
]


@pytest.fixture(params=[False, True], ids=["naive", "optimized"])
def optimize(request):
    with overrides(optimize=request.param):
        yield request.param


@pytest.mark.parametrize(
    "make_program,marks,sizes",
    [stream[1:] for stream in STREAMS],
    ids=[stream[0] for stream in STREAMS],
)
class TestCompiledFires:
    def batches(self, sizes):
        nodes, count, size, seed = sizes
        return edge_batches(nodes, count, size, seed=seed)

    def test_every_fire_runs_the_freshly_planned_plan(
        self, monkeypatch, optimize, make_program, marks, sizes
    ):
        spy = FireSpy(monkeypatch)
        reach_stream(make_program(), self.batches(sizes), marks=marks)
        assert spy.fires
        for executed, fresh in spy.fires:
            assert executed == fresh
        assert all(c.optimize is optimize for c in spy.compiled)
        # One lowering per distinct (rule, occurrence) body.
        assert spy.planner_calls <= len(spy.bodies)

    def test_views_match_per_fire_lowering(
        self, monkeypatch, optimize, make_program, marks, sizes
    ):
        batches = self.batches(sizes)
        compiled = reach_stream(make_program(), batches, marks=marks)
        with monkeypatch.context() as patch:
            per_fire_lowering(patch)
            lowered = reach_stream(make_program(), batches, marks=marks)
        assert compiled["history"] == lowered["history"]
        if marks is None:
            got = compiled["db"].relation("Reach")
            oracle_db = Database()
            oracle_db.register("Edge", edge_relation(batches))
            want = make_program().evaluate(oracle_db, strategy="naive")
            assert algebra.equivalent(got, want.relation("Reach"))


def test_three_atom_body_reorders_per_fire(monkeypatch):
    """The three-atom body takes the per-fire reorder path and uses it."""
    from repro.query import evaluator as evaluator_module

    finished = []
    finish_plan = evaluator_module.finish_plan

    def recording_finish_plan(staged, relations=None, domain_size=0):
        plan, reports = finish_plan(staged, relations, domain_size)
        if relations is not None:
            finished.append((staged, plan.key(), reports[0].rewrites))
        return plan, reports

    monkeypatch.setattr(evaluator_module, "finish_plan", recording_finish_plan)
    spy = FireSpy(monkeypatch)
    with overrides(optimize=True):
        reach_stream(
            Program.from_text(THREE_ATOM),
            edge_batches(5, 5, 3, seed=3),
            marks=MARKS,
        )
    assert any(c.reorders for c in spy.compiled)
    assert not all(c.reorders for c in spy.compiled)
    # reorder-joins rewrote some fires, and the order it picked for one
    # staged body changed with the relation sizes from fire to fire.
    assert any(rewrites for _staged, _key, rewrites in finished)
    orders: dict[int, set] = {}
    for staged, key, _ in finished:
        orders.setdefault(id(staged), set()).add(key)
    assert max(len(keys) for keys in orders.values()) > 1
    # More fires than lowerings: reordering never re-plans the body.
    assert len(spy.fires) > spy.planner_calls


def test_seminaive_evaluate_plans_each_body_once(monkeypatch):
    """``Program.evaluate`` lowers a body once per evaluation, not per round."""
    spy = FireSpy(monkeypatch)
    db = Database()
    db.register("Edge", edge_relation(edge_batches(6, 3, 3, seed=4)))
    program = reachability_program(4)
    out = program.evaluate(db, strategy="seminaive")
    assert len(spy.fires) > len(spy.bodies)
    assert spy.planner_calls <= len(spy.bodies)
    naive = program.evaluate(db, strategy="naive")
    assert algebra.equivalent(out.relation("Reach"), naive.relation("Reach"))


class TestStaleness:
    def test_optimize_flip_between_commits_runs_matching_plan(
        self, monkeypatch
    ):
        spy = FireSpy(monkeypatch)
        db = Database()
        db.create("Edge", temporal=["t"], data=["src", "dst"])
        db.install_program(reachability_program(4))
        batches = edge_batches(5, 4, 3, seed=8)
        for index, batch in enumerate(batches):
            setting = index % 2 == 0
            start = len(spy.compiled)
            with overrides(optimize=setting):
                db.append_stream("Edge", batch)
            fired = spy.compiled[start:]
            assert fired
            for compiled in fired:
                assert compiled.optimize is setting
                if not setting:
                    # Unoptimized, the stored plan is the lowered one.
                    assert compiled.passes == ()
        for executed, fresh in spy.fires:
            assert executed == fresh
        oracle = Database()
        oracle.register("Edge", edge_relation(batches))
        want = reachability_program(4).evaluate(oracle, strategy="naive")
        assert algebra.equivalent(
            db.relation("Reach"), want.relation("Reach")
        )

    def test_literal_body_is_never_mutated_or_aliased(
        self, monkeypatch, tmp_path
    ):
        spy = FireSpy(monkeypatch)
        program = Program.from_text(
            "declare Reach(t:T, src:D, dst:D)\n"
            "declare Tag(x:D)\n"
            "Reach(t, x, y) <- Edge(t, x, y)\n"
            'Tag(x) <- x = "a"\n'
        )
        batches = edge_batches(4, 4, 2, seed=6)
        tags = []
        with Database.open(tmp_path / "db") as db:
            db.create("Edge", temporal=["t"], data=["src", "dst"])
            db.install_program(program)
            (literal,) = [
                c.rewritten
                for c in spy.compiled
                if isinstance(c.rewritten, ir.Literal)
            ]
            pristine = rows(literal.relation)
            tags.append(rows(db.relation("Tag")))
            for index, batch in enumerate(batches):
                db.append_stream("Edge", batch)
                # Shrinking Edge is a non-insert change: the stratum
                # holding Tag recomputes and fires its literal again.
                db.register("Edge", edge_relation(batches[:index]))
                db.commit()
                tags.append(rows(db.relation("Tag")))
                assert db.relation("Tag") is not literal.relation
                assert rows(literal.relation) == pristine
        fired = [c for c in spy.compiled if c.rewritten is literal]
        assert len(fired) > 2
        assert all(tag == tags[0] for tag in tags)
        ((_lrps, _dbm, data),) = tags[0]
        assert data == ("a",)
