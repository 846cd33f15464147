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
relation-expression plan, the rewrite passes
(:mod:`repro.plan.rewrite`) transform it, and
:class:`~repro.plan.engine.NativeEngine` executes it.  Optimization is
on by default.  With it off (``optimize=False``, ``REPRO_OPTIMIZE=0``)
the lowered plan runs unrewritten: the direct calculus-to-algebra
translation, which is the oracle the rewrites are checked against.

Lowering depends only on the query and the schemas of the relations it
reads, never on their tuples (Thm 4.1's translation is data-free), so a
caller that evaluates one query many times over changing relations can
split it: :meth:`Evaluator.compile` lowers and rewrites once,
:meth:`Evaluator.run` executes the compiled plan per call.  The one
rewrite pass that reads the data, ``reorder-joins``, is rerun by
``run`` against the current relations whenever the plan has a join
chain it could reorder, so every run executes the plan
:meth:`Evaluator.evaluate` would have built for it.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass

from repro.core.errors import EvaluationError
from repro.obs import trace as obs
from repro.obs.metrics import get_registry
from repro.core.negation import DEFAULT_MAX_EXTENSIONS
from repro.core.normalize import DEFAULT_MAX_TUPLES
from repro.core.relations import GeneralizedRelation
from repro.plan.engine import ExecutionContext, NativeEngine
from repro.plan.nodes import Optimize, PlanNode
from repro.plan.rewrite import (
    PassReport,
    finish_plan,
    has_join_chain,
    optimize_plan,
)
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
from repro.query.planner import Planner

#: The one plan executor; stateless, so every evaluator shares it.
_ENGINE = NativeEngine()


@dataclass(frozen=True)
class CompiledQuery:
    """A query lowered and rewritten once, for :meth:`Evaluator.run`.

    ``rewritten`` is the plan to execute.  When ``reorders`` is set it
    stops before ``finish_plan``'s passes (``reorder-joins``,
    ``window-joins``, ``dedup-subtrees``), because the plan has a join
    chain of three or more parts whose best order depends on the
    relation sizes, the data-domain size and the live prefilter
    counters at run time.
    ``constants`` are the query's data constants, which join the active
    domain of every run.
    """

    query: Query
    optimize: bool
    naive: PlanNode
    rewritten: PlanNode
    reorders: bool
    constants: frozenset


class Evaluator:
    """Compiles and runs queries against a set of named relations.

    Parameters mirror the algebra's safety limits: ``max_tuples`` caps
    normalization blow-up, ``max_extensions`` caps the free-extension
    enumeration inside complements (negation is inherently exponential
    in the schema size; Theorem 3.6).

    ``optimize`` is keyword-only and turns the plan rewrite passes on
    or off; it defaults to the global configuration (on, unless the
    environment sets ``REPRO_OPTIMIZE=0``).  Optimized plans are
    semantically equivalent to the naive ones but may differ in
    intermediate representation.
    """

    def __init__(
        self,
        relations: dict[str, GeneralizedRelation],
        extra_data_constants: set[Hashable] | None = None,
        max_tuples: int = DEFAULT_MAX_TUPLES,
        max_extensions: int = DEFAULT_MAX_EXTENSIONS,
        *,
        optimize: bool | None = None,
    ) -> None:
        self.relations = relations
        self.max_tuples = max_tuples
        self.max_extensions = max_extensions
        self.optimize = optimize
        domain: set[Hashable] = set()
        for rel in relations.values():
            domain |= rel.active_data_domain()
        if extra_data_constants:
            domain |= extra_data_constants
        self.data_domain = domain

    @classmethod
    def of(cls, reader, *, optimize: bool | None = None) -> Evaluator:
        """An evaluator over a reader's relations and safety limits.

        A *reader* (:class:`~repro.query.database.Database`,
        :class:`~repro.query.catalog.Snapshot`) exposes ``names``,
        ``relation(name)``, ``max_tuples`` and ``max_extensions``.
        """
        return cls(
            {name: reader.relation(name) for name in reader.names},
            max_tuples=reader.max_tuples,
            max_extensions=reader.max_extensions,
            optimize=optimize,
        )

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
        optimize = self.optimizing
        with obs.span("query.evaluate") as sp:
            _, plan, _ = self._lower(query, optimize)
            return self._evaluated(sp, plan, optimize)[0]

    def compile(self, query: Query) -> CompiledQuery:
        """Lower and rewrite ``query`` once, for repeated :meth:`run` calls.

        The compiled plan is valid for any relations with the schemas of
        this evaluator's relations and for the optimize setting it was
        compiled under (:attr:`optimizing`).
        """
        optimize = self.optimizing
        constants, naive = self._lowered(query)
        rewritten, reorders = naive, False
        if optimize:
            rewritten, _ = optimize_plan(naive, costed=False)
            reorders = has_join_chain(rewritten)
            if not reorders:
                # reorder-joins cannot fire: no model reads are needed.
                rewritten, _ = finish_plan(rewritten)
        return CompiledQuery(
            query=query,
            optimize=optimize,
            naive=naive,
            rewritten=rewritten,
            reorders=reorders,
            constants=frozenset(constants),
        )

    def run(self, compiled: CompiledQuery) -> GeneralizedRelation:
        """Execute a compiled query against this evaluator's relations.

        Runs the plan :meth:`evaluate` would build for the same query
        here: a plan that ``reorders`` has its join chains reordered
        (and its subtrees deduplicated) against the current relation
        sizes first.
        """
        with obs.span("query.evaluate") as sp:
            self._admit(compiled.constants)
            plan = compiled.rewritten
            if compiled.reorders:
                plan, _ = finish_plan(
                    plan,
                    relations=self.relations,
                    domain_size=len(self.data_domain),
                )
            return self._evaluated(sp, plan, compiled.optimize)[0]

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
        optimize = self.optimizing
        with obs.span("query.evaluate") as sp:
            _, plan, _ = self._lower(query, optimize, objective, sense)
            return self._evaluated(sp, plan, optimize)[1].optimum

    def plan(
        self, query: Query
    ) -> tuple[PlanNode, PlanNode, tuple[PassReport, ...]]:
        """Plan a query without executing it.

        Returns ``(naive, plan, passes)``: the lowered plan, the plan
        that would run (rewritten when optimization is on, the same
        object otherwise) and the per-pass rewrite deltas.
        """
        return self._lower(query, self.optimizing)

    @property
    def optimizing(self) -> bool:
        """Whether plans are rewritten: ``optimize``, else the config."""
        if self.optimize is not None:
            return bool(self.optimize)
        from repro.perf.config import get_config

        return get_config().optimize

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _admit(self, constants) -> None:
        """Add a query's data constants to the active domain."""
        if not constants <= self.data_domain:
            self.data_domain = self.data_domain | constants

    def _lowered(self, query: Query) -> tuple[set[Hashable], PlanNode]:
        """The query's data constants (now in the domain) and naive plan."""
        constants = _data_constants(query)
        self._admit(constants)
        naive = Planner(self.relations).plan_query(query)
        get_registry().counter("planner.plans").inc()
        return constants, naive

    def _lower(
        self, query: Query, optimize: bool, objective=None, sense="min"
    ) -> tuple[PlanNode, PlanNode, tuple[PassReport, ...]]:
        """Lower ``query`` to a plan; rewrite it when ``optimize``.

        An ``objective`` puts an :class:`~repro.plan.nodes.Optimize`
        root (``sense`` ``"min"`` or ``"max"``) above the lowered plan
        before the rewrite passes see it.  Returns ``(naive, plan,
        passes)``.
        """
        _, naive = self._lowered(query)
        if objective is not None:
            naive = _under_objective(naive, objective, sense)
        if not optimize:
            return naive, naive, ()
        plan, passes = optimize_plan(
            naive,
            relations=self.relations,
            domain_size=len(self.data_domain),
        )
        return naive, plan, passes

    def _evaluated(
        self, sp, plan: PlanNode, optimize: bool, on_result=None
    ) -> tuple[GeneralizedRelation, ExecutionContext]:
        """Execute ``plan`` under the open ``query.evaluate`` span ``sp``.

        ``on_result`` observes every node's result (see
        :class:`~repro.plan.engine.ExecutionContext`).  Returns the
        result and the spent context.
        """
        if optimize:
            sp.set(optimized=True)
        ctx = ExecutionContext(
            relations=self.relations,
            data_domain=self.data_domain,
            max_tuples=self.max_tuples,
            max_extensions=self.max_extensions,
            memo={} if optimize else None,
            on_result=on_result,
        )
        result = _ENGINE.run(plan, ctx)
        sp.set(out_tuples=len(result), out_schema=str(result.schema))
        if ctx.optimum is not None:
            sp.set(optimum=str(ctx.optimum.value), status=ctx.optimum.status)
        return result, ctx


def _under_objective(plan: PlanNode, objective, sense: str) -> Optimize:
    """``plan`` under the :class:`~repro.plan.nodes.Optimize` root that
    :meth:`Evaluator.optimize_query` executes."""
    temporal = plan.schema.temporal_names
    for var in objective.variables():
        if var not in temporal:
            raise EvaluationError(
                f"objective variable {var!r} is not a free temporal "
                f"variable of the query (free temporal: "
                f"{', '.join(temporal) or 'none'})"
            )
    return Optimize(
        child=plan,
        sense=sense,
        name=objective.name,
        minus=objective.minus,
        labels=(("optimize", f"{sense} {objective}"),),
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
