"""One plan per query shape: query texts compile once, bind per call.

A catalog's :class:`~repro.query.evaluator.ShapeStore` keys a query
text by its shape (literals lifted into slots), the optimize setting,
the read schemas and the objective, and every call binds its own
literals into the shared plan.  These tests pin that contract on the
end-to-end templates (``benchmarks/e2e/queries.py`` and both
``served.py`` reads), with the optimizer on and off:

* the executed plan's key equals a fresh lowering's (``Planner`` +
  ``optimize_plan`` on the parsed text) at every call;
* answers are identical to evaluating the parsed text;
* ``EXPLAIN`` reports the bound plan that ran;
* dropping and recreating a relation with another schema recompiles;
* a data constant absent from the database still joins the domain;
* threads reading one shape through two snapshots agree;
* ``Planner.plan_query`` runs at most once per shape.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

from repro.obs import tracing
from repro.obs.metrics import get_registry
from repro.optimize import parse_objective
from repro.perf.config import overrides
from repro.plan import nodes as ir
from repro.plan.engine import NativeEngine
from repro.plan.rewrite import optimize_plan
from repro.query import Database
from repro.query import evaluator as evaluator_module
from repro.query.evaluator import MAX_SHAPES, Evaluator
from repro.query.parser import Directive, query_shape, split_directive
from repro.query.planner import Planner

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
if str(E2E) not in sys.path:
    sys.path.append(str(E2E))

import queries  # noqa: E402
import served  # noqa: E402

#: ``(k, v)`` constant pairs each template is asked with.
PAIRS = ((0, "svc0"), (120, "svc3"), (-45, "svc7"), (3000, "nosuch"))


def template_texts() -> list[tuple[str, str, str]]:
    """``(template, call, text)`` for every template and constant pair."""
    return [
        (name, call, text.format(k=k, v=v))
        for name, call, text in queries.TEMPLATES
        for k, v in PAIRS
    ]


def served_texts() -> list[tuple[str, str, str]]:
    """Both ``served_mixed`` reads over a few constants."""
    out = []
    for k in (0, 120, 360):
        out.append(("served_query", "query", served.QUERY.format(k=k)))
        for s, m in (("line0", 20), ("line3", 60)):
            text = served.ASK.format(s=s, k=k, m=m)
            out.append(("served_ask", "ask", text))
    return out


def query_db() -> Database:
    return queries.Inputs(queries.SMOKE_SIZES["query_hot"], 0).build()


def trains_db() -> Database:
    inputs = served.Inputs(0, seconds=4.0, smoke=True)
    db = Database()
    db.create("Train", temporal=["dep", "arr"], data=["service"])
    db.append_stream("Train", inputs.trains)
    return db


def cases():
    return [(query_db, text) for text in template_texts()] + [
        (trains_db, text) for text in served_texts()
    ]


def answer(reader, call: str, text: str, **options):
    if call == "ask":
        return reader.ask(text, **options)
    return reader.query(text, **options)


def comparable(result):
    """An answer as a value: relation rows in order, or the optimum."""
    if isinstance(result, bool):
        return result
    if hasattr(result, "status"):
        return (result.status, result.value)
    return (result.schema, [t.canonical_key() for t in result.tuples])


def split(text: str):
    """``(objective, body)`` of a text, the objective ``None`` unless
    it optimizes."""
    directive, body = split_directive(text)
    if directive is Directive.QUERY:
        return None, body
    return parse_objective(body)


def fresh_plan(db, text: str, optimize: bool) -> ir.PlanNode:
    """The plan a fresh lowering of ``text`` executes on ``db`` now."""
    objective, body = split(text)
    query = db.parse(body)
    evaluator = Evaluator.of(db, optimize=optimize)
    plan = Planner(evaluator.relations).plan_query(query)
    if objective is not None:
        plan = evaluator_module._under_objective(plan, objective, "min")
    if not optimize:
        return plan
    domain = evaluator.data_domain | evaluator_module._data_constants(query)
    return optimize_plan(
        plan, relations=evaluator.relations, domain_size=len(domain)
    )[0]


def uncached(db, call: str, text: str, optimize: bool):
    """Evaluate the parsed text: the path without the shape store."""
    objective, body = split(text)
    evaluator = Evaluator.of(db, optimize=optimize)
    query = db.parse(body)
    if objective is not None:
        return evaluator.optimize_query(query, objective, "min")
    if call == "ask":
        return evaluator.ask(query)
    return evaluator.evaluate(query)


class ExecutedPlans:
    """Records every plan the engine runs."""

    def __init__(self, monkeypatch) -> None:
        self.plans: list[ir.PlanNode] = []
        run = NativeEngine.run

        def recording(engine, plan, ctx):
            self.plans.append(plan)
            return run(engine, plan, ctx)

        monkeypatch.setattr(NativeEngine, "run", recording)

    def last(self) -> ir.PlanNode:
        return self.plans[-1]


def counter(name: str) -> int:
    return get_registry().snapshot()["counters"].get(name, 0)


@pytest.fixture(params=[True, False], ids=["optimized", "naive"])
def optimize(request):
    with overrides(optimize=request.param):
        yield request.param


# ----------------------------------------------------------------------
# bound plans and answers
# ----------------------------------------------------------------------


def test_bound_plan_keys_match_fresh_lowering(monkeypatch, optimize):
    executed = ExecutedPlans(monkeypatch)
    for make_db, (name, call, text) in cases():
        db = make_db()
        for _ in range(2):  # the miss, then a hit
            answer(db, call, text)
            want = fresh_plan(db, text, optimize)
            assert executed.last().key() == want.key(), (name, text)


def test_answers_match_the_uncached_path(optimize):
    dbs = {query_db: query_db(), trains_db: trains_db()}
    for make_db, (name, call, text) in cases() * 2:
        db = dbs[make_db]
        got = comparable(answer(db, call, text))
        want = comparable(uncached(db, call, text, optimize))
        assert got == want, (name, text)


def test_planning_runs_once_per_shape(monkeypatch, optimize):
    calls = []
    plan_query = Planner.plan_query

    def counting(planner, query):
        calls.append(query)
        return plan_query(planner, query)

    monkeypatch.setattr(Planner, "plan_query", counting)
    for make_db in (query_db, trains_db):
        db = make_db()
        texts = [case for made, case in cases() if made is make_db]
        plans = counter("planner.plans")
        hits = counter("planner.shape_hits")
        calls.clear()
        for _name, call, text in texts:
            answer(db, call, text)
        shapes = {query_shape(split(text)[1]).key for _n, _c, text in texts}
        assert len(calls) == len(shapes)
        assert counter("planner.plans") - plans == len(shapes)
        assert counter("planner.shape_hits") - hits == len(texts) - len(shapes)
        assert len(db.plans) == len(shapes)


# ----------------------------------------------------------------------
# EXPLAIN
# ----------------------------------------------------------------------


def test_explain_reports_the_bound_plan_that_ran(monkeypatch, optimize):
    executed = ExecutedPlans(monkeypatch)
    db = query_db()
    for name, _call, text in template_texts():
        db.query(text)  # compile the shape with other constants first
    for name, _call, text in template_texts():
        report = db.query(f"EXPLAIN {text}")
        assert report.plan is executed.last()
        assert report.plan.key() == fresh_plan(db, text, optimize).key()
        assert report.optimized is optimize
        assert report.query == str(db.parse(split(text)[1]))
        for plan in (report.plan, report.naive):
            for node in plan.walk():
                assert not ir.holds_slot(node.labels), (name, node.labels)
                assert not ir.holds_slot(node.params()), (name, node)


def test_explain_analyze_shows_the_shape_hit():
    db = query_db()
    text = queries.TEMPLATES[0][2]
    first = db.query(f"EXPLAIN ANALYZE {text.format(k=5, v='svc1')}")
    again = db.query(f"EXPLAIN ANALYZE {text.format(k=9, v='svc2')}")
    assert first.root.attrs["shape_hit"] is False
    assert again.root.attrs["shape_hit"] is True
    with tracing() as recorder:
        db.query(text.format(k=11, v="svc4"))
    (evaluate,) = recorder.root.find("query.evaluate")
    assert evaluate.attrs["shape_hit"] is True


# ----------------------------------------------------------------------
# invalidation, the domain, literals kept in the key, the bound
# ----------------------------------------------------------------------


def test_schema_change_recompiles():
    db = Database()
    db.create("P", temporal=["a", "x"])
    db.relation("P").add_tuple(["3n", "3n + 1"], "a >= 0 & a <= 9 & x = a + 1")
    text = "EXISTS x. P(a, x) & a >= {k}"
    before = comparable(db.query(text.format(k=3)))
    plans = counter("planner.plans")
    db.drop("P")
    db.create("P", temporal=["a"], data=["x"])
    db.relation("P").add_tuple(["3n"], "a >= 0 & a <= 30", ["u"])
    after = db.query(text.format(k=3))
    assert counter("planner.plans") == plans + 1
    assert comparable(after) != before
    assert comparable(after) == comparable(
        uncached(db, "query", text.format(k=3), True)
    )


def test_unknown_data_constant_joins_the_domain():
    db = query_db()
    for text in ('~(x = "{v}")', 'x = x | ~(x = "{v}")'):
        for v in ("svc5", "nosuch"):
            got = db.query(text.format(v=v))
            want = uncached(db, "query", text.format(v=v), True)
            assert comparable(got) == comparable(want), (text, v)
    values = {t.data[0] for t in db.query('x = x | ~(x = "nosuch")')}
    assert "nosuch" in values


def test_compared_literals_stay_in_the_key():
    db = query_db()
    assert query_shape("T(a) & 1 <= 2").key != query_shape("T(a) & 2 <= 1").key
    assert query_shape('"a" = "b"').values == ()
    assert not db.ask("EXISTS a. T(a) & 2 <= 1")
    assert db.ask("EXISTS a. T(a) & 1 <= 2")
    assert db.query('x = "svc1" & "a" = "a"').tuples
    assert not db.query('x = "svc1" & "a" = "b"').tuples


def test_literal_results_are_never_shared():
    db = query_db()
    first = db.query("1 <= 2")
    first.add(next(iter(db.query("1 <= 2"))))
    assert comparable(db.query("1 <= 2")) == comparable(
        uncached(db, "query", "1 <= 2", True)
    )
    assert db.query("1 <= 2") is not db.query("1 <= 2")


def test_store_holds_at_most_max_shapes():
    db = query_db()
    for i in range(MAX_SHAPES + 5):
        db.query(f"T(a) & a >= 0{' & a >= 1' * i}")
    assert len(db.plans) == MAX_SHAPES


# ----------------------------------------------------------------------
# concurrency
# ----------------------------------------------------------------------


def test_snapshots_on_concurrent_threads_agree():
    """Two snapshots, four threads (more than the cores a CI box has),
    a short switch interval: every read agrees with the uncached path,
    and the shared store ends holding each shape once."""
    db = trains_db()
    texts = [(call, text) for _name, call, text in served_texts()]
    want = [
        comparable(uncached(db, call, text, True)) for call, text in texts
    ]
    snapshots = [db.snapshot(), db.snapshot()]
    assert snapshots[0].plans is snapshots[1].plans is db.plans
    barrier = threading.Barrier(4, timeout=30)
    got: list[list] = [[] for _ in range(4)]
    errors = []

    def read(index: int) -> None:
        snapshot = snapshots[index % 2]
        try:
            barrier.wait()
            for _ in range(3):
                got[index].append(
                    [
                        comparable(answer(snapshot, call, text))
                        for call, text in texts
                    ]
                )
        except Exception as exc:  # reported below, not swallowed
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=read, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for rounds in got:
        assert rounds == [want] * 3
    shapes = {query_shape(text).key for _call, text in texts}
    assert len(db.plans) == len(shapes)
