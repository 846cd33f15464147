"""Tests for the span-tracing layer (`repro.obs.trace`).

Covers the no-op fast path (tracing disabled must cost one identity
check per algebra operation), span-tree structure, the structural cost
attributes the algebra attaches, determinism of the tree shape across
worker counts, and the render/JSON exports.
"""

import json
import threading
import time

from repro.core import algebra
from repro.core.relations import GeneralizedRelation, Schema
from repro.obs import (
    NULL_SPAN,
    TraceRecorder,
    active_recorder,
    render_flamegraph,
    span,
    tracing,
    tracing_enabled,
)
from repro.query.database import Database


def trains_relation() -> GeneralizedRelation:
    """The paper's Figure 1 / Example 2.4 train schedule."""
    rel = GeneralizedRelation.empty(
        Schema.make(temporal=["dep", "arr"], data=["service"])
    )
    rel.add_tuple(["2 + 60n", "80 + 60n"], "dep = arr - 78", ["slow"])
    rel.add_tuple(["46 + 60n", "110 + 60n"], "dep = arr - 64", ["express"])
    return rel


def trains_db() -> Database:
    db = Database()
    db.register("Train", trains_relation())
    return db


class TestDisabledPath:
    def test_span_is_null_singleton_when_off(self):
        assert active_recorder() is None
        assert not tracing_enabled()
        assert span("algebra.union") is NULL_SPAN
        assert span("anything", attr=1) is NULL_SPAN

    def test_null_span_is_inert(self):
        with span("x") as sp:
            sp.set(a=1)
        assert sp is NULL_SPAN
        assert not sp.enabled

    def test_algebra_untouched_when_off(self):
        rel = trains_relation()
        out = algebra.intersect(rel, rel)
        assert len(out) == len(rel)
        assert active_recorder() is None

    def test_noop_recorder_overhead(self):
        # The disabled path is one global load + identity check; even a
        # very slow interpreter does 200k of those in well under 2 s.
        start = time.perf_counter()
        for _ in range(200_000):
            span("algebra.union")
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0
        # And every call returns the shared singleton — no allocation.
        assert span("algebra.union") is span("algebra.join")


class TestSpanTree:
    def test_nesting_and_attributes(self):
        with tracing(TraceRecorder()) as rec:
            with span("outer", depth=0) as outer:
                with span("inner") as inner:
                    inner.set(marked=True)
                outer.set(done=True)
        root = rec.root
        assert root is outer
        assert root.name == "outer"
        assert root.attrs == {"depth": 0, "done": True}
        assert [child.name for child in root.children] == ["inner"]
        assert root.children[0].attrs == {"marked": True}
        assert root.wall_ms >= 0.0
        assert root.self_ms <= root.wall_ms

    def test_recorder_uninstalled_after_block(self):
        with tracing(TraceRecorder()):
            assert tracing_enabled()
        assert not tracing_enabled()

    def test_recorders_stack(self):
        with tracing(TraceRecorder()) as outer_rec:
            with tracing(TraceRecorder()) as inner_rec:
                with span("x"):
                    pass
            assert active_recorder() is outer_rec
        assert inner_rec.root.name == "x"
        assert outer_rec.root is None

    def test_interleaved_threads_keep_their_own_recorders(self):
        # A enters, B enters, A exits, B exits: with one process-wide
        # slot, A's exit would reinstate nothing for B and B's exit
        # would reinstate A's recorder for good.
        a_in, b_in, a_out = (threading.Event() for _ in range(3))
        recorders: dict[str, TraceRecorder] = {}
        leftovers: dict[str, bool] = {}

        def thread_a() -> None:
            with tracing(TraceRecorder()) as rec:
                recorders["a"] = rec
                a_in.set()
                b_in.wait(5)
                with span("a"):
                    pass
            leftovers["a"] = tracing_enabled()
            a_out.set()

        def thread_b() -> None:
            a_in.wait(5)
            with tracing(TraceRecorder()) as rec:
                recorders["b"] = rec
                b_in.set()
                a_out.wait(5)
                with span("b"):
                    pass
            leftovers["b"] = tracing_enabled()

        threads = [threading.Thread(target=f) for f in (thread_a, thread_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
            assert not thread.is_alive()
        with span("after"):
            pass
        assert [r.name for r in recorders["a"].roots] == ["a"]
        assert [r.name for r in recorders["b"].roots] == ["b"]
        assert leftovers == {"a": False, "b": False}
        assert not tracing_enabled()

    def test_error_recorded_and_reraised(self):
        rec = TraceRecorder()
        try:
            with tracing(rec), span("boom"):
                raise RuntimeError("no")
        except RuntimeError:
            pass
        else:  # pragma: no cover
            raise AssertionError("exception swallowed")
        assert rec.root.attrs["error"] == "RuntimeError"

    def test_walk_and_find(self):
        with tracing(TraceRecorder()) as rec:
            with span("a"):
                with span("b"):
                    pass
                with span("b"):
                    pass
        names = [sp.name for sp in rec.root.walk()]
        assert names == ["a", "b", "b"]
        assert len(rec.root.find("b")) == 2


class TestAlgebraSpans:
    def test_intersect_attrs(self):
        rel = trains_relation()
        with tracing(TraceRecorder()) as rec:
            out = algebra.intersect(rel, rel)
        root = rec.root
        assert root.name == "algebra.intersect"
        assert root.attrs["input_tuples"] == 2 * len(rel)
        assert root.attrs["output_tuples"] == len(out)
        # The pairs formed: each tuple meets only its own data bucket.
        assert root.attrs["pairs_examined"] == len(rel)
        assert root.perf["perf.pair_candidates"] == len(rel)
        assert root.attrs["schema_width"] == len(rel.schema)

    def test_product_is_one_join(self):
        s1 = Schema.make(temporal=["a"])
        s2 = Schema.make(temporal=["b"], data=["d"])
        r1 = GeneralizedRelation.empty(s1)
        r1.add_tuple(["2n"], "a >= 0")
        r1.add_tuple(["1 + 3n"])
        r2 = GeneralizedRelation.empty(s2)
        for value in ("x", "y", "z"):
            r2.add_tuple(["5n"], data=[value])
        with tracing(TraceRecorder()) as rec:
            out = algebra.product(r1, r2)
        root = rec.root
        assert root.name == "algebra.product"
        assert [child.name for child in root.children] == ["algebra.join"]
        assert root.attrs["output_tuples"] == len(out) == 6
        assert root.attrs["pairs_examined"] == len(r1) * len(r2)
        assert root.children[0].attrs["pairs_examined"] == 6

    def test_project_attrs(self):
        rel = trains_relation()
        with tracing(TraceRecorder()) as rec:
            out = algebra.project(rel, ["dep"])
        root = rec.root
        assert root.name == "algebra.project"
        assert root.attrs["input_tuples"] == len(rel)
        assert root.attrs["output_tuples"] == len(out)
        assert "pairs_examined" not in root.attrs

    def test_perf_deltas_scoped_to_span(self):
        rel = trains_relation()
        with tracing(TraceRecorder()) as rec:
            algebra.intersect(rel, rel)
        assert all(v >= 0 for v in rec.root.perf.values())


class TestExports:
    def test_to_dict_and_json(self):
        rel = trains_relation()
        with tracing(TraceRecorder()) as rec:
            algebra.union(rel, rel)
        data = rec.root.to_dict()
        assert data["name"] == "algebra.union"
        assert "wall_ms" in data
        round_trip = json.loads(rec.root.to_json())
        assert round_trip["name"] == data["name"]
        recorder_doc = json.loads(rec.to_json())
        assert recorder_doc["traces"][0]["name"] == "algebra.union"

    def test_flamegraph_render(self):
        with tracing(TraceRecorder()) as rec:
            with span("query.evaluate"):
                algebra.project(trains_relation(), ["dep"])
        text = render_flamegraph(rec.root)
        assert "query.evaluate" in text
        assert "algebra.project" in text
        assert "ms" in text
