"""The one counter store: what the benchmark reads, spans, and plans.

Every count lives in :data:`repro.obs.metrics.COUNTERS`.  These tests
pin three properties of it:

* after one round of the end-to-end ``query_hot`` templates the
  snapshot holds every ``perf.*`` name ``benchmarks/e2e/metrics.py``
  reads, so the benchmark's kernel and prefilter metrics measure work
  and never a missing name;
* a traced operation's ``span.perf`` is exactly the store's change
  over that operation;
* no counter feeds planning: a join chain and every e2e template get
  the same plan after ``reset_metrics()``, after the prefilter skip
  counters have grown by 20,000 each, and from a second database.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.obs import span, tracing
from repro.obs.metrics import COUNTERS, get_registry, reset_metrics
from repro.perf.config import overrides
from repro.perf.kernel import kernel_active
from repro.plan import nodes as ir
from repro.query import Database

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
if str(E2E) not in sys.path:
    sys.path.append(str(E2E))

import queries  # noqa: E402

#: The prefilter skip counters a cost model once read its pair
#: selectivity from.
PREFILTER_SKIPS = (
    "perf.prefilter_lrp_skip",
    "perf.prefilter_interval_skip",
    "perf.prefilter_negation_skip",
    "perf.prefilter_subtract_skip",
)


def hot_round():
    """The smoke ``query_hot`` database and one round of its templates."""
    inputs = queries.Inputs(queries.SMOKE_SIZES["query_hot"], 0)
    return inputs.build(), inputs.round()


def run(db, call: str, text: str):
    return db.ask(text) if call == "ask" else db.query(text)


def moved(before: dict, after: dict) -> dict:
    return {
        name: value - before.get(name, 0)
        for name, value in after.items()
        if value != before.get(name, 0)
    }


# ----------------------------------------------------------------------
# the benchmark's counter contract
# ----------------------------------------------------------------------


def test_snapshot_holds_every_perf_name_the_benchmark_reads():
    db, texts = hot_round()
    with overrides(prefilter_enabled=True):
        reset_metrics()
        for _name, call, text, _k in texts:
            run(db, call, text)
    counters = get_registry().snapshot()["counters"]
    wanted = ["perf.closure_full", "perf.closure_incremental"]
    if kernel_active():
        # The python backend never batches, so it counts no fallback.
        wanted += ["perf.kernel.batch_dbms", "perf.kernel.scalar_fallbacks"]
    missing = [name for name in wanted if not counters.get(name)]
    assert not missing, missing
    assert any(
        value for name, value in counters.items()
        if name.startswith("perf.prefilter_")
    )


def test_span_perf_is_the_store_delta():
    db, texts = hot_round()
    for _name, call, text, _k in texts:
        before = dict(COUNTERS)
        with tracing(), span("test.operation") as operation:
            run(db, call, text)
        delta = moved(before, dict(COUNTERS))
        assert delta, text
        assert operation.perf == delta, text


# ----------------------------------------------------------------------
# plans do not depend on counter history
# ----------------------------------------------------------------------

#: A chain the greedy join order once flipped on: from ``A`` (2
#: tuples), joining ``B`` (100 tuples, sharing ``b``) wins at pair
#: selectivity 0.05, and the cross product with ``C`` (10 tuples) at
#: 0.3, the prior a cost model fed by the skip counters used before
#: any prefilter had fired.
CHAIN = "A(a, b) & B(b, c) & C(c)"


def chain_db() -> Database:
    db = Database()
    db.create("A", temporal=["a", "b"])
    db.create("B", temporal=["b", "c"])
    db.create("C", temporal=["c"])
    for i in range(2):
        db.relation("A").add_tuple([f"{i} + 300n", f"{i + 1} + 300n"])
    for i in range(100):
        db.relation("B").add_tuple([f"{i} + 300n", f"{i + 2} + 300n"])
    for i in range(10):
        db.relation("C").add_tuple([f"{i} + 300n"])
    return db


def template_texts() -> list[str]:
    return [
        text.format(k=k, v=v)
        for _name, _call, text in queries.TEMPLATES
        for k, v in ((0, "svc0"), (120, "svc3"))
    ]


def plan_keys(db, texts) -> list:
    """The key of the plan each text runs (``EXPLAIN`` takes every
    directive, ``MINIMIZE`` included)."""
    return [
        db.query(f"EXPLAIN {text}", optimize=True).plan.key()
        for text in texts
    ]


@pytest.mark.parametrize(
    "make_db, texts",
    [(chain_db, [CHAIN]), (lambda: hot_round()[0], template_texts())],
    ids=["chain", "templates"],
)
def test_plans_ignore_counter_history(make_db, texts):
    first, second = make_db(), make_db()
    reset_metrics()
    cold = plan_keys(first, texts)
    for name in PREFILTER_SKIPS:
        COUNTERS[name] += 20_000
    assert plan_keys(second, texts) == cold
    assert plan_keys(first, texts) == cold
    reset_metrics()
    assert plan_keys(second, texts) == cold


def test_chain_joins_the_shared_attribute_first():
    plan = chain_db().plan(CHAIN, optimize=True).plan
    scans = [node.name for node in plan.walk() if isinstance(node, ir.Scan)]
    assert scans == ["A", "B", "C"]
