"""EXPLAIN ANALYZE, the query directives, and the redesigned API.

The acceptance case: on the paper's Figure 1 / Example 2.4 train
schedule, EXPLAIN ANALYZE must return a span tree whose per-operator
structural counts agree with :mod:`repro.analysis.counters`.
"""

import json
import warnings

import pytest

import repro
import repro.api
from repro.analysis.counters import measure_binary, measure_unary
from repro.core import algebra
from repro.core.errors import (
    ConstraintError,
    EvaluationError,
    NormalizationLimitError,
    ParseError,
    ReproError,
    ReproTypeError,
    ReproValueError,
    SchemaError,
)
from repro.core.relations import GeneralizedRelation, Schema
from repro.obs import TraceRecorder, tracing
from repro.query import (
    Database,
    Directive,
    QueryTrace,
    explain_analyze,
    split_directive,
)
from repro.plan.report import PlanReport


def trains_db() -> Database:
    db = Database()
    db.create("Train", temporal=["dep", "arr"], data=["service"])
    trains = db.relation("Train")
    trains.add_tuple(["2 + 60n", "80 + 60n"], "dep = arr - 78", ["slow"])
    trains.add_tuple(["46 + 60n", "110 + 60n"], "dep = arr - 64", ["express"])
    return db


TRAIN_QUERY = 'EXISTS d. EXISTS a. Train(d, a, "slow") & d >= 60'


class TestCountsMatchAnalysisCounters:
    """Span attributes == the structural CostReport, same operation."""

    def test_binary_operation(self):
        trains = trains_db().relation("Train")
        with tracing(TraceRecorder()) as rec:
            result, report = measure_binary(algebra.intersect, trains, trains)
        sp = rec.root
        assert sp.name == "algebra.intersect"
        assert sp.attrs["input_tuples"] == report.input_tuples
        assert sp.attrs["output_tuples"] == report.output_tuples
        assert sp.attrs["schema_width"] == report.schema_width
        assert sp.attrs["pairs_examined"] == report.counters["pairs_examined"]
        assert report.output_tuples == len(result)

    def test_unary_operation(self):
        trains = trains_db().relation("Train")
        with tracing(TraceRecorder()) as rec:
            result, report = measure_unary(
                lambda r: algebra.project(r, ["dep"]), trains
            )
        sp = rec.root
        assert sp.name == "algebra.project"
        assert sp.attrs["input_tuples"] == report.input_tuples
        assert sp.attrs["output_tuples"] == report.output_tuples == len(result)

    def test_query_span_counts(self):
        db = trains_db()
        trace = db.trace(TRAIN_QUERY)
        root = trace.root
        assert root.name == "query.evaluate"
        assert root.attrs["out_tuples"] == len(trace.result)
        # Every query node's recorded out_tuples is consistent with the
        # algebra spans that produced it.
        for sp in root.walk():
            if sp.name.startswith("algebra."):
                assert sp.attrs["output_tuples"] >= 0
            if sp.name.startswith("query.") and "out_tuples" in sp.attrs:
                assert sp.attrs["out_tuples"] >= 0


class TestExplainAnalyze:
    def test_returns_query_trace(self):
        db = trains_db()
        trace = explain_analyze(db, TRAIN_QUERY)
        assert isinstance(trace, QueryTrace)
        assert not trace.result.is_empty()

    def test_annotated_plan(self):
        trace = trains_db().trace(TRAIN_QUERY)
        report = trace.plan()
        assert isinstance(report, PlanReport)
        # Every node of the plan that ran carries its observed size.
        assert set(report.annotations) == {
            id(node) for node in report.plan.walk()
        }
        assert report.annotations[id(report.plan)] == len(trace.result)
        assert "tuple(s)" in str(report)
        # Per-node timings and algebra summaries live in the span tree.
        assert any(sp.name.startswith("algebra.") for sp in trace.root.walk())
        assert trace.root.wall_ms > 0

    def test_plan_only_matches_plain_explain(self):
        # db.trace(q).plan() is the report db.explain(q) gives: same
        # tree, same sizes, with the optimizer off and on.
        db = trains_db()
        for optimize in (False, True):
            analyzed = db.trace(TRAIN_QUERY, optimize=optimize).plan()
            plain = db.explain(TRAIN_QUERY, optimize=optimize)
            assert analyzed.optimized is plain.optimized is optimize
            assert str(analyzed) == str(plain)
            assert analyzed.to_dict() == plain.to_dict()

    def test_flamegraph_and_json(self):
        trace = trains_db().trace(TRAIN_QUERY)
        text = trace.flamegraph()
        assert "query.evaluate" in text
        doc = json.loads(trace.to_json())
        assert doc["trace"]["name"] == "query.evaluate"
        assert doc["query"]


class TestDirectives:
    def test_split_plain(self):
        assert split_directive("Even(t)") == (Directive.QUERY, "Even(t)")

    def test_split_explain(self):
        directive, rest = split_directive("EXPLAIN Even(t)")
        assert directive is Directive.EXPLAIN
        assert rest == "Even(t)"

    def test_split_explain_analyze(self):
        directive, rest = split_directive("explain  analyze Even(t)")
        assert directive is Directive.EXPLAIN_ANALYZE
        assert rest == "Even(t)"

    def test_explain_named_predicate_untouched(self):
        # A relation actually called Explain must stay queryable.
        directive, rest = split_directive("Explain(t)")
        assert directive is Directive.QUERY
        assert rest == "Explain(t)"

    def test_query_routes_directives(self):
        db = trains_db()
        for optimize in (False, True):
            assert isinstance(
                db.query("EXPLAIN " + TRAIN_QUERY, optimize=optimize),
                PlanReport,
            )
        assert isinstance(db.query("EXPLAIN ANALYZE " + TRAIN_QUERY), QueryTrace)
        plain = db.query(TRAIN_QUERY)
        assert isinstance(plain, GeneralizedRelation)


class TestDatabaseCreateRedesign:
    def test_keyword_form(self):
        db = Database()
        rel = db.create("R", temporal=["t"], data=["d"])
        assert list(rel.schema.temporal_names) == ["t"]
        assert list(rel.schema.data_names) == ["d"]

    def test_keyword_form_warns_nothing(self):
        db = Database()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            db.create("R", temporal=["t"])

    def test_positional_columns_rejected(self):
        db = Database()
        with pytest.raises(TypeError):
            db.create("R", ["t1", "t2"], ["d"])
        assert "R" not in db.names


class TestErrorHierarchy:
    def test_every_library_error_is_repro_error(self):
        for exc in (
            ConstraintError,
            EvaluationError,
            NormalizationLimitError,
            ParseError,
            SchemaError,
            ReproTypeError,
            ReproValueError,
        ):
            assert issubclass(exc, ReproError)

    def test_dual_inheritance(self):
        assert issubclass(ReproValueError, ValueError)
        assert issubclass(ReproTypeError, TypeError)

    def test_raise_sites_use_hierarchy(self):
        from repro.core.lrp import LRP

        with pytest.raises(ReproError):
            LRP(offset=0, period=-1)
        with pytest.raises(ValueError):  # old handlers keep working
            LRP(offset=0, period=-1)

    def test_parse_errors_catchable_at_base(self):
        db = trains_db()
        with pytest.raises(ReproError):
            db.ask("Train(")


class TestApiFacade:
    def test_all_exports_resolve(self):
        for name in repro.api.__all__:
            assert getattr(repro.api, name) is not None, name

    def test_fuzzer_and_server_load_on_first_use(self):
        import subprocess
        import sys

        probe = (
            "import sys, repro.api; "
            "print(sorted(m for m in ('repro.fuzz', 'repro.serve', 'asyncio') "
            "if m in sys.modules)); "
            "from repro.api import ReproServer, run_case; "
            "print(run_case.__module__, 'asyncio' in sys.modules)"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split("\n")[:2] == ["[]", "repro.fuzz.diff True"]

    def test_facade_covers_the_quickstart_surface(self):
        for name in (
            "Database",
            "GeneralizedRelation",
            "Schema",
            "QueryTrace",
            "explain",
            "explain_analyze",
            "tracing",
            "TraceRecorder",
            "metrics",
            "render_flamegraph",
            "ReproError",
        ):
            assert name in repro.api.__all__, name

    def test_top_level_exports_errors(self):
        assert repro.ReproValueError is ReproValueError
        assert "ReproTypeError" in repro.__all__
