"""The query front door: one directive dispatcher for every reader.

Every way a query arrives — :class:`~repro.query.database.Database`,
a pinned :class:`~repro.query.catalog.Snapshot`, the served ``query``
op (which evaluates on a snapshot) and the CLI — ends in
:func:`query`, so a directive means the same thing on every path:

==================================  ====================================
query text                          answer
==================================  ====================================
``<q>``                             the result relation
``MINIMIZE|MAXIMIZE <obj> : <q>``   :class:`~repro.optimize.core.
                                    OptimizationResult`
``EXPLAIN <q>``                     the executed plan, a :class:`~repro.
                                    plan.report.PlanReport`
``EXPLAIN ANALYZE <q>``             :class:`~repro.query.explain.
                                    QueryTrace`
``EXPLAIN MINIMIZE ...``            the plan under its ``optimize``
                                    root, a ``PlanReport``
``EXPLAIN ANALYZE MAXIMIZE ...``    its :class:`~repro.query.explain.
                                    QueryTrace`
==================================  ====================================

A *reader* is anything with ``names``, ``relation(name)``,
``max_tuples``, ``max_extensions`` and ``plans`` (its catalog's
:class:`~repro.query.evaluator.ShapeStore`); the
evaluator over it is built by :meth:`Evaluator.of
<repro.query.evaluator.Evaluator.of>`.  Query texts reach the evaluator
as texts, so every directive compiles through the reader's store: one
plan per query shape, each call binding its own literals.  ``optimize``
toggles the plan rewrite passes and defaults to the global
configuration (on, unless ``REPRO_OPTIMIZE=0``).
"""

from __future__ import annotations

from repro.core.errors import EvaluationError
from repro.obs.metrics import COUNTERS
from repro.query.ast import Query
from repro.query.evaluator import Evaluator
from repro.plan.report import PlanReport
from repro.query.explain import explain_query, plan_report
from repro.query.parser import Directive, split_directive

_SENSES = {Directive.MINIMIZE: "min", Directive.MAXIMIZE: "max"}


def query(reader, query: str | Query, *, optimize: bool | None = None):
    """Answer a query, honoring a leading directive (see module doc)."""
    if isinstance(query, str):
        directive, text = split_directive(query)
        if directive in _SENSES:
            return extremum(
                reader, text, sense=_SENSES[directive], optimize=optimize
            )
        if directive is not Directive.QUERY:
            analyze = directive is Directive.EXPLAIN_ANALYZE
            return _explain_directive(reader, text, analyze, optimize)
        query = text
    return Evaluator.of(reader, optimize=optimize).evaluate(query)


def _explain_directive(reader, text: str, analyze: bool, optimize):
    """``EXPLAIN [ANALYZE] <text>``; ``text`` may itself optimize."""
    inner, rest = split_directive(text)
    objective, sense = None, "min"
    if inner in _SENSES:
        from repro.optimize import parse_objective

        objective, text = parse_objective(rest)
        sense = _SENSES[inner]
    return explain_query(
        Evaluator.of(reader, optimize=optimize),
        text,
        objective,
        sense,
        analyze=analyze,
    )


def extremum(
    reader,
    query: str | Query,
    objective=None,
    *,
    sense: str = "min",
    optimize: bool | None = None,
):
    """Exact extremum of a linear objective over a query's result.

    ``objective`` is a :class:`repro.optimize.Objective`, its text
    form, or ``None`` to read it from the query string's own
    ``<obj> : <query>`` prefix; a leading ``MINIMIZE``/``MAXIMIZE``
    directive overrides ``sense``.
    """
    from repro.optimize import Objective, parse_objective

    COUNTERS["optimize.queries"] += 1
    if isinstance(query, str):
        directive, text = split_directive(query)
        sense = _SENSES.get(directive, sense)
        if objective is None:
            objective, text = parse_objective(text)
        query = text
    if objective is None:
        raise EvaluationError(
            "optimize() needs an objective (a variable name or a "
            "difference 'a - b')"
        )
    if isinstance(objective, str):
        objective = Objective.parse(objective)
    evaluator = Evaluator.of(reader, optimize=optimize)
    return evaluator.optimize_query(query, objective, sense)


def ask(reader, query: str | Query, *, optimize: bool | None = None) -> bool:
    """Evaluate a closed (yes/no) query."""
    return Evaluator.of(reader, optimize=optimize).ask(query)


def explain(
    reader, query: str | Query, *, optimize: bool | None = None
) -> PlanReport:
    """The ``EXPLAIN`` answer: the executed plan of ``query``.

    A :class:`~repro.plan.report.PlanReport` whose nodes carry observed
    output sizes: the naive plan with optimization off, the rewritten
    plan (and what each pass changed) with it on.
    """
    return explain_query(Evaluator.of(reader, optimize=optimize), query)


def plan(
    reader, query: str | Query, *, optimize: bool | None = None
) -> PlanReport:
    """The static :class:`~repro.plan.report.PlanReport` of ``query``."""
    return plan_report(Evaluator.of(reader, optimize=optimize), query)
