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
reads, never on their tuples (Thm 4.1's translation is data-free), so
every query runs split in two: :meth:`Evaluator.compile` lowers it and
runs the structural rewrite passes 1–5 once into a
:class:`CompiledQuery`, and :meth:`Evaluator.run` executes that per
call.  Maintained views compile each rule body once this way
(:mod:`repro.deductive.incremental`), and ad-hoc query texts share
one compiled plan per *query shape*: the text with its literals
lifted into slots (:func:`repro.query.parser.query_shape`).  A
catalog's :class:`ShapeStore` keeps those plans, keyed by the shape,
the optimize setting, the read schemas and the objective; every call
binds its own literals into the plan it finds
(:func:`repro.plan.rewrite.bind_slots`) and admits its data constants
to the active domain.  The passes that read the data or the values,
``reorder-joins``, ``window-joins`` and ``dedup-subtrees``
(:func:`~repro.plan.rewrite.finish_plan`), then run against the
current relations whenever the plan has slots or a join chain, so
every run executes the plan a fresh lowering would have built for it.
"""

from __future__ import annotations

import threading
from collections.abc import Hashable, Mapping
from dataclasses import dataclass, field

from repro.core.errors import EvaluationError
from repro.obs import trace as obs
from repro.obs.metrics import COUNTERS
from repro.core.negation import DEFAULT_MAX_EXTENSIONS
from repro.core.normalize import DEFAULT_MAX_TUPLES
from repro.core.relations import GeneralizedRelation
from repro.plan import nodes as ir
from repro.plan.engine import ExecutionContext, NativeEngine
from repro.plan.nodes import Optimize, PlanNode, bind_value
from repro.plan.rewrite import (
    PassReport,
    bind_slots,
    finish_plan,
    has_join_chain,
    optimize_plan,
    slot_holders,
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
from repro.query.parser import parse_query, query_shape
from repro.query.planner import Planner

#: The one plan executor; stateless, so every evaluator shares it.
_ENGINE = NativeEngine()

#: The most query shapes one :class:`ShapeStore` keeps compiled.
MAX_SHAPES = 64


@dataclass(frozen=True)
class CompiledQuery:
    """A query lowered and rewritten once, for :meth:`Evaluator.run`.

    ``rewritten`` is the plan to execute: the lowered plan itself when
    optimization is off.  The compiled query keeps no other plan;
    ``EXPLAIN`` lowers the query afresh when it shows the naive plan
    (:meth:`_Prepared.naive`).  With optimization on it stops after the
    structural passes 1–5 when :attr:`finishes`: the plan has a join
    chain of three or more parts whose best order depends on the
    relation sizes and the data-domain size at run time
    (``reorders``), or it holds slots whose values
    only a call knows.  ``passes`` reports the rewrite passes run here.

    ``slots`` counts the lifted literals the query holds as slot
    constants (a :class:`~repro.query.parser.QueryShape` parse; 0 for
    any other query); ``holders`` maps the ids of the nodes of
    ``rewritten`` that hold one to their slot fields
    (:func:`~repro.plan.rewrite.slot_holders`).  ``constants`` are the
    query's data constants, which join the active domain of every run;
    with slots they are all slot constants, since every string and
    every integer that starts a term is lifted.
    """

    query: Query
    optimize: bool
    rewritten: PlanNode
    reorders: bool
    constants: frozenset
    passes: tuple[PassReport, ...] = ()
    slots: int = 0
    holders: Mapping[int, tuple[str, ...]] = field(default_factory=dict)

    @property
    def finishes(self) -> bool:
        """Whether each run finishes the plan (passes 6–8)."""
        return self.optimize and (self.reorders or self.slots > 0)

    def bind(self, values: tuple) -> PlanNode:
        """``rewritten`` bound to ``values``."""
        if not self.slots:
            return self.rewritten
        return bind_slots(self.rewritten, values, self.holders)

    def domain_constants(self, values: tuple) -> frozenset:
        """The data constants a run with ``values`` admits."""
        if not self.slots:
            return self.constants
        return frozenset([bind_value(c, values) for c in self.constants])


class ShapeStore:
    """One compiled plan per query shape, shared by a catalog's readers.

    :meth:`compiled` keys a text by its shape
    (:func:`~repro.query.parser.query_shape`), the resolved optimize
    setting, the schemas of the relations it applies as predicates and
    the objective, so a schema change or an optimize flip misses.
    Holds at most :data:`MAX_SHAPES` entries, dropping the oldest.

    Safe under concurrent readers: entries are immutable and lookups
    take no lock; two threads missing on one shape at once both
    compile it, and the later insert wins.
    """

    def __init__(self) -> None:
        self._plans: dict[tuple, CompiledQuery] = {}
        self._insert = threading.Lock()

    def __len__(self) -> int:
        return len(self._plans)

    def compiled(
        self, evaluator: Evaluator, text: str, objective=None, sense="min"
    ) -> tuple[CompiledQuery, tuple, bool]:
        """``text``'s compiled shape, its slot values and whether it hit.

        ``objective``/``sense`` put the plan under an ``optimize`` root
        (see :meth:`Evaluator.optimize_query`).
        """
        shape = query_shape(text)
        relations = evaluator.relations
        key = (
            shape.key,
            evaluator.optimizing,
            tuple(
                relations[name].schema if name in relations else None
                for name in shape.predicates
            ),
            None if objective is None else (objective, sense),
        )
        compiled = self._plans.get(key)
        if compiled is not None:
            COUNTERS["planner.shape_hits"] += 1
            return compiled, shape.values, True
        query = parse_query(
            shape, {name: rel.schema for name, rel in relations.items()}
        )
        compiled = evaluator.compile(
            query, objective, sense, slots=len(shape.values)
        )
        with self._insert:
            if key not in self._plans and len(self._plans) >= MAX_SHAPES:
                del self._plans[next(iter(self._plans))]
            self._plans[key] = compiled
        return compiled, shape.values, False


@dataclass(frozen=True)
class _Prepared:
    """One call's compiled query, its values and the plan it runs.

    ``relations``, ``objective`` and ``sense`` are what the call
    lowered against, for :meth:`naive`.
    """

    compiled: CompiledQuery
    values: tuple
    plan: PlanNode
    passes: tuple[PassReport, ...]
    relations: Mapping[str, GeneralizedRelation]
    objective: object
    sense: str

    def naive(self) -> PlanNode:
        """The lowered plan, bound (the plan itself when unoptimized).

        With optimization on the compiled query holds only the
        rewritten plan, so this lowers the query afresh.
        """
        if not self.compiled.optimize:
            return self.plan
        naive = _lowered(
            self.relations, self.compiled.query, self.objective, self.sense
        )
        if not self.compiled.slots:
            return naive
        return bind_slots(naive, self.values, slot_holders(naive))

    def text(self) -> str:
        """The query as the call asked it, rendered from its AST."""
        text = str(self.compiled.query)
        return bind_value(text, self.values) if self.compiled.slots else text


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
    intermediate representation.  ``plans`` is the
    :class:`ShapeStore` query texts compile through (a private one when
    none is given).
    """

    def __init__(
        self,
        relations: dict[str, GeneralizedRelation],
        extra_data_constants: set[Hashable] | None = None,
        max_tuples: int = DEFAULT_MAX_TUPLES,
        max_extensions: int = DEFAULT_MAX_EXTENSIONS,
        *,
        optimize: bool | None = None,
        plans: ShapeStore | None = None,
    ) -> None:
        self.relations = relations
        self.max_tuples = max_tuples
        self.max_extensions = max_extensions
        self.optimize = optimize
        self.plans = plans
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
        ``relation(name)``, ``max_tuples``, ``max_extensions`` and
        ``plans``, its catalog's :class:`ShapeStore`.
        """
        return cls(
            {name: reader.relation(name) for name in reader.names},
            max_tuples=reader.max_tuples,
            max_extensions=reader.max_extensions,
            optimize=optimize,
            plans=reader.plans,
        )

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def evaluate(self, query: str | Query) -> GeneralizedRelation:
        """Evaluate a query; the result's schema is its free variables.

        Temporal variables become temporal attributes (sorted), data
        variables data attributes (sorted).  A closed query yields a
        0-ary relation: nonempty means *true*.

        Data constants mentioned only in the query join the active
        domain for this (and, if the evaluator is reused, subsequent)
        evaluations — the standard active-domain convention.
        """
        with obs.span("query.evaluate") as sp:
            prepared = self._prepare(sp, query)
            return self._evaluated(
                sp, prepared.plan, prepared.compiled.optimize
            )[0]

    def compile(
        self,
        query: Query,
        objective=None,
        sense: str = "min",
        *,
        slots: int = 0,
        head: tuple | None = None,
    ) -> CompiledQuery:
        """Lower and rewrite ``query`` once, for repeated :meth:`run` calls.

        The compiled plan is valid for any relations with the schemas of
        this evaluator's relations and for the optimize setting it was
        compiled under (:attr:`optimizing`).  An ``objective`` puts an
        :class:`~repro.plan.nodes.Optimize` root (``sense`` ``"min"``
        or ``"max"``) above the lowered plan before the rewrite passes
        see it.  ``slots`` counts the slot constants standing for
        lifted literals in ``query``.  A rule ``head`` ``(args,
        schema)`` becomes the plan's root
        (:meth:`~repro.query.planner.Planner.plan_rule`).
        """
        optimize = self.optimizing
        rewritten = _lowered(self.relations, query, objective, sense, head)
        COUNTERS["planner.plans"] += 1
        passes, reorders = (), False
        if optimize:
            rewritten, passes = optimize_plan(rewritten, costed=False)
            reorders = has_join_chain(rewritten)
            if not reorders and not slots:
                # Passes 6-8 cannot read anything a run changes.
                rewritten, finished = finish_plan(rewritten)
                passes += finished
        return CompiledQuery(
            query=query,
            optimize=optimize,
            rewritten=rewritten,
            reorders=reorders,
            constants=frozenset(_data_constants(query)),
            passes=passes,
            slots=slots,
            holders=slot_holders(rewritten) if slots else {},
        )

    def run(
        self, compiled: CompiledQuery, values: tuple = ()
    ) -> GeneralizedRelation:
        """Execute a compiled query against this evaluator's relations.

        ``values`` bind the compiled query's slots.  Runs the plan a
        fresh lowering of the bound query would build here: passes 6–8
        run against the current relation sizes first whenever the plan
        :attr:`~CompiledQuery.finishes`.
        """
        with obs.span("query.evaluate") as sp:
            plan, _ = self._bound(compiled, values)
            return self._evaluated(sp, plan, compiled.optimize)[0]

    def ask(self, query: str | Query) -> bool:
        """Evaluate a closed (yes/no) query."""
        with obs.span("query.evaluate") as sp:
            prepared = self._prepare(sp, query)
            free = free_variables(prepared.compiled.query)
            if free:
                raise EvaluationError(
                    f"ask() needs a closed query; free: {free}"
                )
            result, _ = self._evaluated(
                sp, prepared.plan, prepared.compiled.optimize
            )
        return not result.is_empty()

    def optimize_query(self, query: str | Query, objective, sense: str):
        """Exact extremum of ``objective`` over the query's result.

        ``objective`` is a :class:`repro.optimize.Objective` whose
        variables must be free *temporal* variables of the query;
        ``sense`` is ``"min"`` or ``"max"``.  The query is planned and
        rewritten exactly as :meth:`evaluate` would, then lowered under
        an :class:`~repro.plan.nodes.Optimize` root; the engine
        deposits the scalar in the execution context.  Returns the
        :class:`~repro.optimize.core.OptimizationResult`.
        """
        with obs.span("query.evaluate") as sp:
            prepared = self._prepare(sp, query, objective, sense)
            return self._evaluated(
                sp, prepared.plan, prepared.compiled.optimize
            )[1].optimum

    def plan(
        self, query: str | Query
    ) -> tuple[PlanNode, PlanNode, tuple[PassReport, ...]]:
        """Plan a query without executing it.

        Returns ``(naive, plan, passes)``: the lowered plan, the plan
        that would run (rewritten when optimization is on, the same
        object otherwise) and the per-pass rewrite deltas.
        """
        prepared = self._prepare(obs.NULL_SPAN, query)
        return prepared.naive(), prepared.plan, prepared.passes

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

    def _prepare(
        self, sp, query: str | Query, objective=None, sense: str = "min"
    ) -> _Prepared:
        """Compile ``query`` (a text through :attr:`plans`) and bind it.

        Sets ``shape_hit`` on the open ``query.evaluate`` span ``sp``
        when the text went through the store.
        """
        values: tuple = ()
        if isinstance(query, str):
            if self.plans is None:
                self.plans = ShapeStore()
            compiled, values, hit = self.plans.compiled(
                self, query, objective, sense
            )
            sp.set(shape_hit=hit)
        else:
            compiled = self.compile(query, objective, sense)
        plan, passes = self._bound(compiled, values)
        return _Prepared(
            compiled,
            values,
            plan,
            compiled.passes + passes,
            self.relations,
            objective,
            sense,
        )

    def _bound(
        self, compiled: CompiledQuery, values: tuple
    ) -> tuple[PlanNode, tuple[PassReport, ...]]:
        """The plan a run of ``compiled`` with ``values`` executes.

        Admits the run's data constants first, then binds the slots and
        finishes the plan; returns it with the passes run here.
        """
        self._admit(compiled.domain_constants(values))
        plan = compiled.bind(values)
        if not compiled.finishes:
            return plan, ()
        return finish_plan(
            plan,
            relations=self.relations,
            domain_size=len(self.data_domain),
        )

    def _evaluated(
        self, sp, plan: PlanNode, optimize: bool, on_result=None
    ) -> tuple[GeneralizedRelation, ExecutionContext]:
        """Execute ``plan`` under the open ``query.evaluate`` span ``sp``.

        ``on_result`` observes every node's result (see
        :class:`~repro.plan.engine.ExecutionContext`).  Returns the
        result and the spent context.  A result that is a literal of
        the plan is copied: compiled plans are shared between calls.
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
        root = plan
        while isinstance(root, ir.Guard):
            root = root.child
        if isinstance(root, ir.Literal) and result is root.relation:
            result = result.copy()
        if sp is not obs.NULL_SPAN:
            sp.set(out_tuples=len(result), out_schema=str(result.schema))
        if ctx.optimum is not None:
            sp.set(optimum=str(ctx.optimum.value), status=ctx.optimum.status)
        return result, ctx


def _lowered(relations, query: Query, objective, sense: str, head=None) -> PlanNode:
    """``query`` lowered against ``relations`` (under a rule ``head``), under
    an :class:`~repro.plan.nodes.Optimize` root when ``objective`` is set."""
    planner = Planner(relations)
    plan = planner.plan_rule(query, *head) if head else planner.plan_query(query)
    if objective is None:
        return plan
    return _under_objective(plan, objective, sense)


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
