"""Query plans and EXPLAIN ANALYZE: how a query maps onto the algebra.

``explain_plan(db, query)`` produces an operator tree annotated with the
*actual* intermediate sizes (tuple counts and schema widths) —
generalized relations are finitely represented, so "run it and look"
is cheap and honest at the scale this engine targets.  The output
doubles as documentation of the classical calculus-to-algebra
translation (Theorem 4.1's evaluation strategy).

``explain_analyze(db, query)`` is the instrumented form: the query
runs under a :class:`repro.obs.trace.TraceRecorder`, and the returned
:class:`QueryTrace` carries the full span tree — per-plan-node *and*
per-algebra-operation wall times, tuple counts, pairwise combinations
examined, prefilter rejections, cache hits and normalization
expansions — plus the query result itself.  It renders as a text
flamegraph and exports to JSON (see ``docs/observability.md`` for the
schema).

Both are trace-driven: the engine emits one ``query.*`` span per plan
node with query provenance, plus ``plan.*`` spans for nodes the
optimizer introduced (see :mod:`repro.plan.engine`), and the plan tree
here is a projection of that span tree.  The plan therefore reflects
the *rewritten* query (implications expanded, negations pushed inward,
∀ as ¬∃¬), which is exactly what runs.

This module is the legacy EXPLAIN surface; the stable plan API —
:func:`repro.api.plan` / :func:`repro.api.explain` returning frozen
:class:`~repro.plan.report.PlanReport` objects — supersedes it (see
``docs/planner.md``).  Query strings with ``EXPLAIN`` directives reach
these helpers through :mod:`repro.query.dispatch`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.relations import GeneralizedRelation
from repro.obs.trace import Span, TraceRecorder, render_flamegraph, tracing
from repro.plan.report import PlanReport
from repro.query.ast import Query
from repro.query.evaluator import Evaluator

_QUERY_PREFIX = "query."
#: Span-name prefixes that denote plan nodes: ``query.*`` spans carry
#: query provenance, ``plan.*`` spans are optimizer-introduced nodes.
_PLAN_PREFIXES = ("query.", "plan.")


def _plan_operator(span: Span) -> str | None:
    """The plan-node operator a span denotes, or ``None`` for algebra spans."""
    for prefix in _PLAN_PREFIXES:
        if span.name.startswith(prefix):
            return span.name[len(prefix):]
    return None


@dataclass
class PlanNode:
    """One step of the algebraic plan.

    ``attrs`` is empty for a plain EXPLAIN; EXPLAIN ANALYZE fills it
    with ``wall_ms``, the per-operator algebra summaries (``ops``) and
    the optimization-layer counter deltas (``perf``).
    """

    operator: str
    detail: str
    out_tuples: int
    out_schema: str
    children: list["PlanNode"] = field(default_factory=list)
    attrs: dict[str, Any] = field(default_factory=dict)

    def render(self, indent: int = 0) -> list[str]:
        """The annotated operator subtree as indented text lines."""
        pad = "  " * indent
        timing = ""
        if "wall_ms" in self.attrs:
            timing = f" [{self.attrs['wall_ms']:.3f}ms]"
        lines = [
            f"{pad}{self.operator:<12} {self.detail}  "
            f"-> {self.out_tuples} tuple(s) over {self.out_schema}{timing}"
        ]
        for op in self.attrs.get("ops", ()):
            op_text = ", ".join(
                f"{key}={value}"
                for key, value in op.items()
                if key != "op" and value is not None
            )
            lines.append(f"{pad}  · {op['op']}: {op_text}")
        for child in self.children:
            lines.extend(child.render(indent + 1))
        return lines

    def __str__(self) -> str:
        return "\n".join(self.render())


def _algebra_summaries(span: Span) -> list[dict[str, Any]]:
    """Summaries of the algebra spans directly under a query node.

    Direct means not nested inside a deeper ``query.*`` span — those
    belong to the child plan nodes.
    """
    out: list[dict[str, Any]] = []

    def visit(node: Span) -> None:
        for child in node.children:
            if child.name.startswith(_PLAN_PREFIXES):
                continue
            if child.name.startswith("algebra."):
                summary: dict[str, Any] = {
                    "op": child.name[len("algebra."):],
                    "wall_ms": round(child.wall_ms, 6),
                }
                for key in (
                    "input_tuples",
                    "output_tuples",
                    "pairs_examined",
                    "schema_width",
                ):
                    if key in child.attrs:
                        summary[key] = child.attrs[key]
                if child.perf:
                    summary["perf"] = dict(child.perf)
                out.append(summary)
            visit(child)

    visit(span)
    return out


def plan_from_span(span: Span, analyze: bool = False) -> PlanNode:
    """Project a ``query.*``/``plan.*`` span (sub)tree onto a plan tree."""
    children = [
        plan_from_span(child, analyze)
        for child in span.children
        if child.name.startswith(_PLAN_PREFIXES)
    ]
    attrs: dict[str, Any] = {}
    if analyze:
        attrs["wall_ms"] = round(span.wall_ms, 6)
        ops = _algebra_summaries(span)
        if ops:
            attrs["ops"] = ops
        if span.perf:
            attrs["perf"] = dict(span.perf)
    return PlanNode(
        operator=_plan_operator(span) or span.name,
        detail=span.attrs.get("detail", ""),
        out_tuples=span.attrs.get("out_tuples", 0),
        out_schema=span.attrs.get("out_schema", ""),
        children=children,
        attrs=attrs,
    )


@dataclass
class QueryTrace:
    """The structured result of EXPLAIN ANALYZE / :meth:`Database.trace`.

    * ``result`` — the evaluated relation (EXPLAIN ANALYZE really runs);
    * ``root`` — the ``query.evaluate`` span tree with every plan node
      and algebra operation underneath;
    * :meth:`plan` — the annotated :class:`PlanNode` projection;
    * :meth:`flamegraph` / :meth:`to_json` — renderings.
    """

    query: Query
    result: GeneralizedRelation
    root: Span

    def plan(self) -> PlanNode:
        """The annotated operator tree (timings, ops, perf deltas)."""
        return self._project(analyze=True)

    def plan_only(self) -> PlanNode:
        """The bare operator tree (what plain EXPLAIN shows)."""
        return self._project(analyze=False)

    def _project(self, analyze: bool) -> PlanNode:
        for child in self.root.children:
            if child.name.startswith(_PLAN_PREFIXES):
                return plan_from_span(child, analyze=analyze)
        # A query with no recorded nodes (never happens in practice,
        # but keep the projection total).
        return plan_from_span(self.root, analyze=analyze)

    def flamegraph(self, width: int = 24) -> str:
        """Indented text flamegraph of the whole evaluation."""
        return render_flamegraph(self.root, width=width)

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly dump: the query text plus the full span tree."""
        return {"query": str(self.query), "trace": self.root.to_dict()}

    def to_json(self, indent: int | None = 2) -> str:
        """:meth:`to_dict` serialized as JSON text."""
        import json

        return json.dumps(self.to_dict(), indent=indent, default=repr)

    def __str__(self) -> str:
        return self.flamegraph()


def _recorded(run) -> tuple[Any, Span]:
    """Call ``run()`` under a fresh trace recorder; ``(value, root)``."""
    recorder = TraceRecorder()
    with tracing(recorder):
        value = run()
    root = recorder.root
    if root is None:  # pragma: no cover - evaluation always opens a span
        root = Span("query.evaluate", recorder)
    return value, root


def explain_plan(
    reader, query: str | Query, *, optimize: bool | None = None
) -> PlanNode:
    """The legacy EXPLAIN: run the query, project the span tree.

    Returns the root :class:`PlanNode`; ``str()`` renders the tree.
    Note the plan reflects the *rewritten* query (implications expanded,
    negations pushed inward, ∀ as ¬∃¬), which is exactly what runs.
    """
    return explain_analyze(reader, query, optimize=optimize).plan_only()


def explain_analyze(
    reader, query: str | Query, *, optimize: bool | None = None
) -> QueryTrace:
    """EXPLAIN ANALYZE: run the query under tracing, keep everything.

    ``reader`` is a :class:`~repro.query.database.Database` or a
    :class:`~repro.query.catalog.Snapshot`.  The returned
    :class:`QueryTrace` holds the result relation, the full span tree
    and the annotated plan.
    """
    if isinstance(query, str):
        query = reader.parse(query)
    evaluator = Evaluator.of(reader, optimize=optimize)
    result, root = _recorded(lambda: evaluator.evaluate(query))
    return QueryTrace(query=query, result=result, root=root)


def optimize_trace(
    evaluator: Evaluator, query: Query, objective, sense: str
) -> QueryTrace:
    """EXPLAIN [ANALYZE] for a ``MINIMIZE``/``MAXIMIZE`` directive.

    Runs the optimization under the trace recorder; the returned
    :class:`QueryTrace` has the ``query.optimize`` node at the plan
    root (above the query's own plan) and the argopt restriction as
    its result relation.  ``plan_only()`` gives the plain-EXPLAIN
    rendering.
    """
    outcome, root = _recorded(
        lambda: evaluator.optimize_query(query, objective, sense)
    )
    return QueryTrace(
        query=query, result=outcome.argopt_restriction(), root=root
    )


def plan_report(
    evaluator: Evaluator, query: Query, *, execute: bool = False
) -> PlanReport:
    """Build the stable :class:`~repro.plan.report.PlanReport` surface.

    Statically plans the query (lowering plus, when optimization
    resolves on, the rewrite passes); with ``execute=True`` the plan is
    also run and every node is annotated with its observed output size
    (:func:`repro.api.explain`'s behavior).
    """
    optimized = evaluator.optimizing
    naive, plan, passes = evaluator.plan(query)
    annotations: dict[int, int] | None = None
    if execute:
        sizes: dict[int, int] = {}

        def observe(node, result) -> None:
            sizes[id(node)] = len(result)

        evaluator._execute(plan, optimized, on_result=observe)
        annotations = sizes
    return PlanReport(
        query=str(query),
        optimized=optimized,
        naive=naive,
        plan=plan,
        passes=passes,
        annotations=annotations,
    )
