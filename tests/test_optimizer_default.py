"""The optimizer is on by default: optimized plans must equal naive ones.

The end-to-end benchmark (``benchmarks/e2e``) runs every query with
the default optimizer setting, so these tests keep the naive,
unrewritten plan covered on the same workloads:

* every distinct ``query_hot``/``query_cold`` text (smoke sizes, seeds
  0-3) gives the same answer digest with ``optimize=False`` and
  ``optimize=True``;
* so do the ``served_mixed`` ``ASK``/``QUERY`` reads on a pinned
  :class:`~repro.query.catalog.Snapshot`;
* the reachability view of ``stream_ingest``, maintained with the
  optimizer on, equals the program's naive evaluation with it off.

A planning-cost guard, with no timing, checks that rewriting stays
cheap: no ``dataclasses.fields`` call while rewriting, exact
per-pass node counts, and the rewritten plans' structural keys pinned
to the ones the rewrite passes produced before their structure was
cached.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import sys
from pathlib import Path

import pytest

from repro.api import Database, Program
from repro.optimize import parse_objective
from repro.perf.config import overrides
from repro.plan import nodes as ir
from repro.plan import rewrite
from repro.plan.cost import CostModel
from repro.query.evaluator import Evaluator
from repro.query.parser import Directive, split_directive

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
if str(E2E) not in sys.path:
    sys.path.append(str(E2E))

import queries  # noqa: E402
import served  # noqa: E402
import stream  # noqa: E402
from queries import SMOKE_SIZES, Inputs, summarize  # noqa: E402

SEEDS = (0, 1, 2, 3)


def _answer(reader, call: str, text: str, optimize: bool):
    if call == "ask":
        return reader.ask(text, optimize=optimize)
    return reader.query(text, optimize=optimize)


def _mismatches(reader, reads) -> list[str]:
    """Texts whose naive and optimized answers differ."""
    out = []
    for call, text, k in reads:
        naive = summarize(_answer(reader, call, text, False), k)
        optimized = summarize(_answer(reader, call, text, True), k)
        if naive != optimized:
            out.append(f"{text}: naive {naive}, optimized {optimized}")
    return out


# ----------------------------------------------------------------------
# optimized == naive on the e2e workloads
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(SMOKE_SIZES))
@pytest.mark.parametrize("seed", SEEDS)
def test_query_templates_optimized_equals_naive(workload, seed):
    inputs = Inputs(SMOKE_SIZES[workload], seed)
    db = inputs.build()
    distinct = inputs.distinct()
    assert {name for name, *_ in distinct} == {
        name for name, _call, _text in queries.TEMPLATES
    }
    reads = [(call, text, k) for _name, call, text, k in distinct]
    assert _mismatches(db, reads) == []


@pytest.mark.parametrize("seed", SEEDS)
def test_served_reads_optimized_equals_naive_on_a_snapshot(seed):
    inputs = served.Inputs(seed, seconds=4.0, smoke=True)
    db = Database()
    db.create("Train", temporal=["dep", "arr"], data=["service"])
    db.append_stream("Train", inputs.trains)
    snapshot = db.snapshot()
    reads = sorted({(call, text, k) for _due, call, text, k in inputs.reads})
    assert {call for call, _text, _k in reads} == {"ask", "query"}
    assert _mismatches(snapshot, reads) == []


@pytest.mark.parametrize("seed", SEEDS)
def test_reachability_view_matches_naive_evaluation(seed):
    count, nodes, batches, edges = stream.SMOKE_SIZE
    rng = random.Random(seed)
    window = (0, 4 * stream.PERIOD - 1)
    for shape in stream._shapes(count, nodes, batches, edges):
        batches_in = stream._stream(shape, nodes, rng)
        db = Database()
        db.create("Edge", temporal=["t"], data=["src", "dst"])
        with overrides(optimize=True):
            db.install_program(Program.from_text(stream.PROGRAM))
            for batch in batches_in:
                db.append_stream("Edge", batch)
        view = set(db.relation("Reach").enumerate(*window))
        edb = Database()
        edb.register("Edge", db.relation("Edge"))
        with overrides(optimize=False):
            naive = Program.from_text(stream.PROGRAM).evaluate(
                edb, strategy="naive"
            ).relation("Reach")
        assert view == set(naive.enumerate(*window))
        assert view == stream.reach_oracle(batches_in)


# ----------------------------------------------------------------------
# scan subplans filter on the data value first
# ----------------------------------------------------------------------


def test_data_selections_sit_below_temporal_selections_and_renames():
    db, smoke = _smoke_queries()
    evaluator = Evaluator.of(db, optimize=True)
    sunk = set()
    for name, query in smoke:
        _naive, plan, _passes = evaluator.plan(query)
        for node in plan.walk():
            if isinstance(node, (ir.SelectData, ir.SelectDataEqual)):
                below = [type(n).__name__ for n in node.child.walk()]
                assert "Select" not in below and "Rename" not in below, (
                    name, below
                )
                sunk.add(name)
    # The answers of these plans are checked against the naive ones by
    # test_query_templates_optimized_equals_naive.
    assert sunk == {"select_join", "negated_projection", "closed_ask", "minimize"}


def test_minimize_template_plans_alike_on_every_explain_face():
    inputs = Inputs(SMOKE_SIZES["query_hot"], 0)
    db = inputs.build()
    texts = [text for name, _call, text, _k in inputs.distinct()
             if name == "minimize"]
    assert texts
    for text in texts[:2]:
        explained = db.explain(text)
        assert str(explained) == str(db.query("EXPLAIN " + text))
        assert explained.plan.op == "optimize"
        assert db.plan(text).plan.key() == explained.plan.key()
        traced = db.trace(text).plan()
        analyzed = db.query("EXPLAIN ANALYZE " + text).plan()
        assert str(traced) == str(analyzed) == str(explained)


# ----------------------------------------------------------------------
# planning-cost guard (deterministic: counts, never timings)
# ----------------------------------------------------------------------

#: ``sha256`` prefixes of the rewritten plans' ``repr(key())`` lines,
#: per template, over the smoke ``query_hot`` texts of seed 0.  Pinned
#: from the rewrite passes before nodes cached their structure, then
#: re-pinned for ``exists_join`` and ``closed_ask`` when their
#: cross-side comparison (``c <= a + 40``, ``c >= a + 30``) became a
#: join condition, and for the four templates with a data constant when
#: scan subplans began filtering on the data value before the temporal
#: selection; a change here means a rewrite now builds a different plan.
GOLDEN_KEYS = {
    "select_join": "2de5ca99b579d6c0",
    "exists_join": "10eee2c8e5df81d7",
    "negated_projection": "02cba2bd32d74e5f",
    "closed_ask": "f938614cdb894531",
    "minimize": "6516ebd8ca79c509",
    "data_negation": "c4b98da5bb8d633b",
}


def _smoke_queries():
    """``(db, [(template, query AST)])`` of the smoke ``query_hot`` texts."""
    inputs = Inputs(SMOKE_SIZES["query_hot"], 0)
    db = inputs.build()
    out = []
    for name, _call, text, _k in inputs.distinct():
        directive, body = split_directive(text)
        if directive is not Directive.QUERY:
            _objective, body = parse_objective(body)
        out.append((name, db.parse(body)))
    return db, out


def _lower(db, query) -> ir.PlanNode:
    naive, _plan, _passes = Evaluator.of(db, optimize=False).plan(query)
    return naive


def _walk_count(node: ir.PlanNode) -> int:
    return sum(1 for _ in node.walk())


def test_rewriting_never_inspects_dataclass_fields(monkeypatch):
    db, smoke = _smoke_queries()
    relations = {name: db.relation(name) for name in db.names}
    for _name, query in smoke:  # warm-up: every node class seen once
        rewrite.optimize_plan(_lower(db, query), relations=relations)
    plans = [_lower(db, query) for _name, query in smoke]

    calls = []
    real_fields = dataclasses.fields

    def counting_fields(obj):
        calls.append(obj)
        return real_fields(obj)

    monkeypatch.setattr(dataclasses, "fields", counting_fields)
    monkeypatch.setattr(ir, "fields", counting_fields)
    for plan in plans:
        rewrite.optimize_plan(plan, relations=relations)
    assert calls == []


def test_pass_reports_count_nodes_exactly():
    db, smoke = _smoke_queries()
    relations = {name: db.relation(name) for name in db.names}
    domain_size = len(Evaluator.of(db).data_domain)
    pipeline = (
        ("fold-constants", rewrite.fold_constants),
        ("fuse-selects", rewrite.fuse_selects),
        ("push-selects", rewrite.push_selects),
        ("push-projects", rewrite.push_projects),
        ("collapse-projects", rewrite.collapse_projects),
        (
            "reorder-joins",
            lambda plan: rewrite.reorder_joins(
                plan, CostModel(relations, domain_size)
            ),
        ),
        ("window-joins", rewrite.window_joins),
        ("dedup-subtrees", rewrite.dedup_subtrees),
    )
    for _name, query in smoke:
        naive = _lower(db, query)
        final, reports = rewrite.optimize_plan(
            naive, relations=relations, domain_size=domain_size
        )
        assert [r.name for r in reports] == [name for name, _ in pipeline]
        root = _lower(db, query)
        for report, (_name, run) in zip(reports, pipeline):
            assert report.nodes_before == _walk_count(root)
            root, count = run(root)
            assert report.rewrites == count
            assert report.nodes_after == _walk_count(root)
        assert root.key() == final.key()
        assert final.size() == _walk_count(final)


def test_rewritten_plan_keys_match_golden():
    db, smoke = _smoke_queries()
    evaluator = Evaluator.of(db, optimize=True)
    keys: dict[str, list[str]] = {}
    for name, query in smoke:
        _naive, plan, _passes = evaluator.plan(query)
        keys.setdefault(name, []).append(repr(plan.key()))
    digests = {
        name: hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
        for name, lines in keys.items()
    }
    assert digests == GOLDEN_KEYS
