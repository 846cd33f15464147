"""Evaluating first-order queries through the generalized algebra.

The evaluator implements the classical translation from relational
calculus to relational algebra, with the paper's twist: the temporal
sort is handled *fully symbolically* — quantifiers over time range over
all of Z, negation complements against Z^k — so queries about infinite
extensions are decided exactly.  The data sort uses active-domain
semantics (the database's data values plus the query's data constants),
the standard choice for safe calculus evaluation.

Translation table:

=====================  ====================================================
``P(t + c, ..., d)``   stored relation, columns selected/shifted/renamed
``t1 <= t2 + c``       a two-column universe relation with one constraint
``x = y`` (data)       diagonal over the active domain
``&``                  natural join
``|``                  union after schema alignment
``~``                  complement against the universe of the free schema
``EXISTS``             projection
``FORALL``             ``~ EXISTS ~``
=====================  ====================================================

Since the planner split (``docs/planner.md``), the evaluator is a thin
pipeline: :class:`repro.query.planner.Planner` lowers the AST into a
relation-expression plan, the optional rewrite passes
(:mod:`repro.plan.rewrite`) transform it, and a pluggable engine
(:mod:`repro.plan.engine`) executes it.  With optimization off (the
default) the lowered plan performs exactly the algebra calls the
pre-planner evaluator performed, in the same order — results and trace
shapes are byte-compatible.
"""

from __future__ import annotations

from collections.abc import Hashable

from repro.core.errors import EvaluationError
from repro.obs import trace as obs
from repro.obs.metrics import get_registry
from repro.core.negation import DEFAULT_MAX_EXTENSIONS
from repro.core.normalize import DEFAULT_MAX_TUPLES
from repro.core.relations import GeneralizedRelation
from repro.plan.engine import Engine, ExecutionContext, resolve_engine
from repro.plan.nodes import PlanNode
from repro.plan.rewrite import PassReport, optimize_plan
from repro.query.ast import (
    And,
    DataConst,
    DataEq,
    Exists,
    Forall,
    Implies,
    Not,
    Or,
    Pred,
    Query,
    free_variables,
)
from repro.query.ops import node_detail, node_operator  # noqa: F401 - re-export
from repro.query.planner import Planner


class Evaluator:
    """Compiles and runs queries against a set of named relations.

    Parameters mirror the algebra's safety limits: ``max_tuples`` caps
    normalization blow-up, ``max_extensions`` caps the free-extension
    enumeration inside complements (negation is inherently exponential
    in the schema size; Theorem 3.6).

    ``engine`` and ``optimize`` are keyword-only: ``engine`` selects a
    registered execution engine by name (or passes an
    :class:`~repro.plan.engine.Engine` instance), ``optimize`` turns
    the plan rewrite passes on or off.  Both default to the global
    configuration (environment variables ``REPRO_ENGINE`` and
    ``REPRO_OPTIMIZE``); optimized plans are semantically equivalent
    but may differ in intermediate representation and trace shape.
    """

    def __init__(
        self,
        relations: dict[str, GeneralizedRelation],
        extra_data_constants: set[Hashable] | None = None,
        max_tuples: int = DEFAULT_MAX_TUPLES,
        max_extensions: int = DEFAULT_MAX_EXTENSIONS,
        *,
        engine: str | Engine | None = None,
        optimize: bool | None = None,
    ) -> None:
        self.relations = relations
        self.max_tuples = max_tuples
        self.max_extensions = max_extensions
        self.engine = engine
        self.optimize = optimize
        domain: set[Hashable] = set()
        for rel in relations.values():
            domain |= rel.active_data_domain()
        if extra_data_constants:
            domain |= extra_data_constants
        self.data_domain = domain

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def evaluate(self, query: Query) -> GeneralizedRelation:
        """Evaluate a query; the result's schema is its free variables.

        Temporal variables become temporal attributes (sorted), data
        variables data attributes (sorted).  A closed query yields a
        0-ary relation: nonempty means *true*.

        Data constants mentioned only in the query join the active
        domain for this (and, if the evaluator is reused, subsequent)
        evaluations — the standard active-domain convention.
        """
        constants = _data_constants(query)
        if not constants <= self.data_domain:
            self.data_domain = self.data_domain | constants
        optimize = self._resolved_optimize()
        engine = resolve_engine(self.engine)
        with obs.span("query.evaluate") as sp:
            plan = Planner(self.relations).plan_query(query)
            get_registry().counter("planner.plans").inc()
            if optimize:
                sp.set(engine=engine.name, optimized=True)
                plan, _ = optimize_plan(
                    plan,
                    relations=self.relations,
                    domain_size=len(self.data_domain),
                )
            ctx = self._context(optimize)
            result = engine.run(plan, ctx)
            sp.set(out_tuples=len(result), out_schema=str(result.schema))
            return result

    def ask(self, query: Query) -> bool:
        """Evaluate a closed (yes/no) query."""
        if free_variables(query):
            raise EvaluationError(
                f"ask() needs a closed query; free: {free_variables(query)}"
            )
        return not self.evaluate(query).is_empty()

    def optimize_query(self, query: Query, objective, sense: str):
        """Exact extremum of ``objective`` over the query's result.

        ``objective`` is a :class:`repro.optimize.Objective` whose
        variables must be free *temporal* variables of the query;
        ``sense`` is ``"min"`` or ``"max"``.  The query is planned and
        rewritten exactly as :meth:`evaluate` would, then lowered under
        an :class:`~repro.plan.nodes.Optimize` root; the engine
        deposits the scalar in the execution context.  Returns the
        :class:`~repro.optimize.core.OptimizationResult`.
        """
        from repro.plan.nodes import Optimize

        constants = _data_constants(query)
        if not constants <= self.data_domain:
            self.data_domain = self.data_domain | constants
        optimize = self._resolved_optimize()
        engine = resolve_engine(self.engine)
        with obs.span("query.evaluate") as sp:
            plan = Planner(self.relations).plan_query(query)
            get_registry().counter("planner.plans").inc()
            temporal = plan.schema.temporal_names
            for var in objective.variables():
                if var not in temporal:
                    raise EvaluationError(
                        f"objective variable {var!r} is not a free temporal "
                        f"variable of the query (free temporal: "
                        f"{', '.join(temporal) or 'none'})"
                    )
            detail = f"{sense} {objective}"
            plan = Optimize(
                child=plan,
                sense=sense,
                name=objective.name,
                minus=objective.minus,
                labels=(("optimize", detail),),
            )
            if optimize:
                sp.set(engine=engine.name, optimized=True)
                plan, _ = optimize_plan(
                    plan,
                    relations=self.relations,
                    domain_size=len(self.data_domain),
                )
            ctx = self._context(optimize)
            engine.run(plan, ctx)
            result = ctx.optimum
            if result is None:  # pragma: no cover - engine contract
                raise EvaluationError(
                    f"engine {engine.name!r} did not produce an "
                    "optimization result"
                )
            sp.set(optimum=str(result.value), status=result.status)
            return result

    def plan(
        self, query: Query, *, optimize: bool | None = None
    ) -> tuple[PlanNode, PlanNode, tuple[PassReport, ...]]:
        """Plan a query without executing it.

        Returns ``(naive, plan, passes)``: the lowered plan, the plan
        that would run (rewritten when optimization is on, the same
        object otherwise) and the per-pass rewrite deltas.
        """
        constants = _data_constants(query)
        if not constants <= self.data_domain:
            self.data_domain = self.data_domain | constants
        if optimize is None:
            optimize = self._resolved_optimize()
        naive = Planner(self.relations).plan_query(query)
        get_registry().counter("planner.plans").inc()
        if not optimize:
            return naive, naive, ()
        plan, passes = optimize_plan(
            naive,
            relations=self.relations,
            domain_size=len(self.data_domain),
        )
        return naive, plan, passes

    def execution_context(self) -> ExecutionContext:
        """A fresh execution context for running this evaluator's plans."""
        return self._context(self._resolved_optimize())

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _resolved_optimize(self) -> bool:
        if self.optimize is not None:
            return bool(self.optimize)
        from repro.perf.config import get_config

        return get_config().optimize

    def _context(self, optimize: bool) -> ExecutionContext:
        return ExecutionContext(
            relations=self.relations,
            data_domain=self.data_domain,
            max_tuples=self.max_tuples,
            max_extensions=self.max_extensions,
            plan_spans=optimize,
            memo={} if optimize else None,
        )


def _data_constants(query: Query) -> set[Hashable]:
    """All data constants mentioned in a query."""
    out: set[Hashable] = set()

    def walk(node: Query) -> None:
        if isinstance(node, Pred):
            for arg in node.args:
                if isinstance(arg, DataConst):
                    out.add(arg.value)
        elif isinstance(node, DataEq):
            for term in (node.left, node.right):
                if isinstance(term, DataConst):
                    out.add(term.value)
        elif isinstance(node, Not):
            walk(node.body)
        elif isinstance(node, (And, Or)):
            for part in node.parts:
                walk(part)
        elif isinstance(node, Implies):
            walk(node.antecedent)
            walk(node.consequent)
        elif isinstance(node, (Exists, Forall)):
            walk(node.body)

    walk(query)
    return out
