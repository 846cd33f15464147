"""EXPLAIN and EXPLAIN ANALYZE: how a query maps onto the algebra.

Every EXPLAIN answer is one executed
:class:`~repro.plan.report.PlanReport`.  :func:`explain_query` plans
the query as every other call does (a text through its catalog's
compiled shape, bound to the text's literals), runs the plan once and
annotates every node with its *actual* output size —
generalized relations are finitely represented, so "run it and look"
is cheap and honest at the scale this engine targets.  The output
doubles as documentation of the classical calculus-to-algebra
translation (Theorem 4.1's evaluation strategy).  A
``MINIMIZE``/``MAXIMIZE`` objective is planned under the same
:class:`~repro.plan.nodes.Optimize` root that
:meth:`Evaluator.optimize_query
<repro.query.evaluator.Evaluator.optimize_query>` executes.

EXPLAIN ANALYZE runs that one execution under a
:class:`repro.obs.trace.TraceRecorder`; the returned
:class:`QueryTrace` adds the result relation and the full span tree —
per-plan-node *and* per-algebra-operation wall times, tuple counts,
pairwise combinations examined, prefilter rejections, cache hits and
normalization expansions.  It renders as a text flamegraph and
exports to JSON (see ``docs/observability.md`` for the schema).

Query strings with ``EXPLAIN`` directives reach these helpers through
:mod:`repro.query.dispatch`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.relations import GeneralizedRelation
from repro.obs import trace as obs
from repro.obs.trace import Span, render_flamegraph, tracing
from repro.plan.nodes import Boxed, Unbuilt
from repro.plan.report import PlanReport
from repro.query.ast import Query
from repro.query.evaluator import Evaluator
from repro.query.parser import Directive, split_directive


@dataclass
class QueryTrace:
    """The structured result of EXPLAIN ANALYZE / :meth:`Database.trace`.

    * ``result`` — the evaluated relation (EXPLAIN ANALYZE really runs);
    * ``root`` — the ``query.evaluate`` span tree with every plan node
      and algebra operation underneath;
    * ``report`` — the executed :class:`~repro.plan.report.PlanReport`
      (:meth:`plan`);
    * :meth:`flamegraph` / :meth:`to_json` — renderings.
    """

    query: str
    result: GeneralizedRelation
    root: Span
    report: PlanReport

    def plan(self) -> PlanReport:
        """The executed plan with per-node sizes, as plain EXPLAIN gives."""
        return self.report

    def flamegraph(self, width: int = 24) -> str:
        """Indented text flamegraph of the whole evaluation."""
        return render_flamegraph(self.root, width=width)

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly dump: the query text plus the full span tree."""
        return {"query": self.query, "trace": self.root.to_dict()}

    def to_json(self, indent: int | None = 2) -> str:
        """:meth:`to_dict` serialized as JSON text."""
        import json

        return json.dumps(self.to_dict(), indent=indent, default=repr)

    def __str__(self) -> str:
        return self.flamegraph()


#: The optimization directives and the sense each one asks for.
_SENSES = {Directive.MINIMIZE: "min", Directive.MAXIMIZE: "max"}


def _objective_split(query: str | Query, objective, sense: str):
    """``(query, objective, sense)`` with a text's leading
    ``MINIMIZE|MAXIMIZE <obj> :`` read off it, when no objective is
    given; every EXPLAIN and plan path plans through this split."""
    if objective is None and isinstance(query, str):
        directive, rest = split_directive(query)
        if directive in _SENSES:
            from repro.optimize import parse_objective

            objective, query = parse_objective(rest)
            sense = _SENSES[directive]
    return query, objective, sense


def explain_query(
    evaluator: Evaluator,
    query: str | Query,
    objective=None,
    sense: str = "min",
    *,
    analyze: bool = False,
) -> PlanReport | QueryTrace:
    """The one EXPLAIN path: plan ``query``, run it once, size every node.

    An ``objective`` (a :class:`repro.optimize.Objective`) puts the
    plan under an ``optimize[sense]`` root.  Returns the executed
    :class:`~repro.plan.report.PlanReport`; with ``analyze`` the run is
    recorded and the :class:`QueryTrace` around that report returned.
    A text may itself start with ``MINIMIZE``/``MAXIMIZE <obj> :``.
    """
    query, objective, sense = _objective_split(query, objective, sense)
    if analyze:
        with tracing() as recorder:
            result, report = _executed(evaluator, query, objective, sense)
        return QueryTrace(
            query=report.query,
            result=result,
            root=recorder.root,
            report=report,
        )
    return _executed(evaluator, query, objective, sense)[1]


def _executed(
    evaluator: Evaluator, query: str | Query, objective, sense: str
) -> tuple[GeneralizedRelation, PlanReport]:
    """Run ``query``'s plan under ``query.evaluate``; result and report."""
    sizes: dict[int, int | Unbuilt | Boxed] = {}

    def observe(node, result) -> None:
        sizes[id(node)] = len(result)

    with obs.span("query.evaluate") as sp:
        prepared = evaluator._prepare(sp, query, objective, sense)
        optimized = prepared.compiled.optimize
        result, ctx = evaluator._evaluated(
            sp, prepared.plan, optimized, observe
        )
    for node_id, built in ctx.unbuilt.items():
        # A shared join may also have run in full elsewhere in the plan.
        sizes.setdefault(node_id, Unbuilt(built))
    for node_id, box in ctx.boxed.items():
        sizes[node_id] = Boxed(sizes[node_id], box)
    report = PlanReport(
        query=prepared.text(),
        optimized=optimized,
        naive=prepared.naive(),
        plan=prepared.plan,
        passes=prepared.passes,
        annotations=sizes,
    )
    return result, report


def explain_analyze(
    reader, query: str | Query, *, optimize: bool | None = None
) -> QueryTrace:
    """EXPLAIN ANALYZE: run the query under tracing, keep everything.

    ``reader`` is a :class:`~repro.query.database.Database` or a
    :class:`~repro.query.catalog.Snapshot`.  The returned
    :class:`QueryTrace` holds the result relation, the full span tree
    and the executed :class:`~repro.plan.report.PlanReport`.
    """
    evaluator = Evaluator.of(reader, optimize=optimize)
    return explain_query(evaluator, query, analyze=True)


def plan_report(evaluator: Evaluator, query: str | Query) -> PlanReport:
    """The static :class:`~repro.plan.report.PlanReport` of ``query``.

    Plans the query (lowering plus, when optimization resolves on, the
    rewrite passes) without running it, so no node carries a size.
    A text may start with ``MINIMIZE``/``MAXIMIZE <obj> :``.
    """
    prepared = evaluator._prepare(
        obs.NULL_SPAN, *_objective_split(query, None, "min")
    )
    return PlanReport(
        query=prepared.text(),
        optimized=prepared.compiled.optimize,
        naive=prepared.naive(),
        plan=prepared.plan,
        passes=prepared.passes,
    )
