"""The execution engine for relation-expression plans.

:class:`NativeEngine` turns a plan tree (:mod:`repro.plan.nodes`) into
a :class:`~repro.core.relations.GeneralizedRelation` against an
:class:`ExecutionContext` (the stored relations, the active data
domain, the safety limits) by mapping every node onto
:mod:`repro.core.algebra` in-process.  It is the only executor: every
query, optimization and EXPLAIN runs on it.

Tracing contract: while a recorder is active, a node that carries
provenance ``labels`` opens one ``query.<operator>`` span per label
(outermost first), so runtime cost is attributed to query syntax; an
unlabeled node opens one ``plan.<op>`` span.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Mapping, Sequence
from contextlib import ExitStack
from dataclasses import dataclass, field

from repro.core import algebra
from repro.core.errors import (
    EvaluationError,
    NormalizationLimitError,
    ReproTypeError,
)
from repro.core.negation import DEFAULT_MAX_EXTENSIONS
from repro.core.normalize import DEFAULT_MAX_TUPLES
from repro.core.relations import GeneralizedRelation
from repro.core.tuples import GeneralizedTuple
from repro.obs import trace as obs
from repro.obs.metrics import COUNTERS
from repro.plan import nodes as ir


@dataclass
class ExecutionContext:
    """Everything an engine needs besides the plan itself.

    ``data_domain`` is the active data domain *set* (iteration order is
    preserved for output determinism); ``data_domains`` optionally maps
    attribute names to explicit finite domains (the differential-fuzz
    harness uses per-attribute domains) and takes precedence inside
    complements.  ``memo`` enables result reuse for subtrees shared
    by common-subexpression elimination.  ``on_result`` / ``on_pair``
    are observation hooks: per-node results (EXPLAIN annotations, cost
    guards) and pairwise-op sizes (fuzzing's deterministic caps).

    ``optimum`` is an *out* slot: engines return relations, so an
    :class:`~repro.plan.nodes.Optimize` root deposits its scalar
    :class:`~repro.optimize.core.OptimizationResult` here for the
    evaluator to pick up after :meth:`NativeEngine.run` returns.
    ``unbuilt`` is another: it maps the id of every join the engine
    decided under a closed projection without materializing it to the
    number of candidate tuples it built (EXPLAIN reports these).
    ``boxed`` is a third: it maps the id of every complement the engine
    answered within its join partner's box to that box as text.
    ``plan`` is the plan :meth:`NativeEngine.run` executes (set there).
    """

    relations: Mapping[str, GeneralizedRelation]
    data_domain: set[Hashable] = field(default_factory=set)
    data_domains: Mapping[str, Sequence] | None = None
    max_tuples: int = DEFAULT_MAX_TUPLES
    max_extensions: int = DEFAULT_MAX_EXTENSIONS
    memo: dict[int, GeneralizedRelation] | None = None
    on_result: Callable[[ir.PlanNode, GeneralizedRelation], None] | None = None
    on_pair: Callable[[ir.PlanNode, int, int], None] | None = None
    optimum: object | None = None
    unbuilt: dict[int, int] = field(default_factory=dict)
    boxed: dict[int, str] = field(default_factory=dict)
    plan: ir.PlanNode | None = None

    def domain_for(self, name: str) -> list:
        """The finite domain complementing data attribute ``name``."""
        if self.data_domains is not None:
            return list(self.data_domains[name])
        return sorted(self.data_domain, key=repr)


class NativeEngine:
    """The plan executor: every plan node is one in-memory algebra call.

    Inherits the whole :mod:`repro.perf` stack (prefilters,
    incremental and batched closure) because every node
    calls a :mod:`repro.core.algebra` entry point.  Stateless across
    :meth:`run` calls, so one instance can serve every evaluator.

    One pair of nodes runs as one call: a :class:`~repro.plan.nodes.Project`
    over a :class:`~repro.plan.nodes.Join` whose inputs have temporal
    attributes, none of which it keeps, projects the join's
    :class:`~repro.core.algebra.LazyJoin`, so a closed body stops
    building the join at its first nonempty tuple.  That is decided
    from the inputs the join's children return, not from plan schemas,
    which a freshly bound plan has not inferred.  The join itself then
    gets no result (no ``on_result`` call, no memo entry), its spans
    carry ``materialized=False`` and ``candidates_built``, and
    :attr:`ExecutionContext.unbuilt` records it.  A join already in the
    memo is projected as it is, and one the plan shares
    (:attr:`~repro.plan.nodes.PlanNode.shared`) is materialized into
    the memo for its other uses.

    A join keeps only points that lie in both inputs, so ``X ⋈ ¬B`` is
    ``X ⋈ (box − B)`` for any box holding ``X``'s points.  A
    :class:`~repro.plan.nodes.Complement` input of a join is therefore
    run after its partner ``X`` and answered as
    ``subtract(bounding_box(X), B)`` (Sec. 3.3) in place of ``B``'s
    complement over all of Z (App. A.6), unless ``B`` has a data
    attribute or one that is not a temporal attribute of ``X``, a
    satisfiable tuple of ``X`` is unbounded on one, the subtraction
    exceeds :attr:`ExecutionContext.max_tuples`, or the complement node
    is memoized or shared (its other uses need the whole complement).
    Its result then goes to ``on_result`` but not to the memo, its spans
    carry ``box``, :attr:`ExecutionContext.boxed` records the box and
    ``perf.complement_boxed`` counts it.
    """

    def run(
        self, plan: ir.PlanNode, ctx: ExecutionContext
    ) -> GeneralizedRelation:
        """Execute the plan bottom-up, emitting trace spans per node.

        The answer is a relation of the caller's own: a plan that
        reads a scan or a literal straight through (a rewritten plan
        whose renames composed away) answers with a copy of it.
        """
        ctx.plan = plan
        result = self._exec(plan, ctx)
        root = plan
        while isinstance(root, ir.Guard):
            root = root.child
        if isinstance(root, (ir.Scan, ir.Literal)):
            return result.copy()
        return result

    # -- internals -----------------------------------------------------

    def _exec(
        self, node: ir.PlanNode, ctx: ExecutionContext
    ) -> GeneralizedRelation:
        if ctx.memo is not None and id(node) in ctx.memo:
            result = ctx.memo[id(node)]
            self._emit_reused(node, ctx, result)
            return result
        recorder = obs.active_recorder()
        if recorder is None:
            result = self._compute(node, ctx)
        else:
            with ExitStack() as stack:
                spans = _open_spans(recorder, stack, node)
                result = self._compute(node, ctx)
                _set_out(spans, result)
        _keep(node, ctx, result)
        return result

    def _emit_reused(
        self,
        node: ir.PlanNode,
        ctx: ExecutionContext,
        result: GeneralizedRelation,
    ) -> None:
        """Record spans for a memoized subtree without recomputing it."""
        recorder = obs.active_recorder()
        if recorder is None:
            return
        names = [f"query.{op}" for op, _ in node.labels]
        if not names:
            names = [f"plan.{node.op}"]
        with ExitStack() as stack:
            for name in names:
                sp = stack.enter_context(recorder.span(name))
                sp.set(
                    reused=True,
                    out_tuples=len(result),
                    out_schema=str(result.schema),
                )

    def _pair(
        self, node: ir._Binary, ctx: ExecutionContext
    ) -> tuple[GeneralizedRelation, GeneralizedRelation]:
        r1 = self._exec(node.left, ctx)
        r2 = self._exec(node.right, ctx)
        if ctx.on_pair is not None:
            ctx.on_pair(node, len(r1), len(r2))
        return r1, r2

    def _join_inputs(
        self, node: ir.Join, ctx: ExecutionContext
    ) -> tuple[GeneralizedRelation, GeneralizedRelation]:
        """The inputs of join ``node``: :meth:`_pair`'s, but a
        complement input runs after its partner and within its box."""
        if self._boxable(node.right, ctx):
            r1 = self._exec(node.left, ctx)
            r2 = self._complement_within(node.right, r1, ctx)
        elif self._boxable(node.left, ctx):
            r2 = self._exec(node.right, ctx)
            r1 = self._complement_within(node.left, r2, ctx)
        else:
            return self._pair(node, ctx)
        if ctx.on_pair is not None:
            ctx.on_pair(node, len(r1), len(r2))
        return r1, r2

    @staticmethod
    def _boxable(node: ir.PlanNode, ctx: ExecutionContext) -> bool:
        """Whether ``node`` is a complement only this join reads."""
        return isinstance(node, ir.Complement) and (
            ctx.memo is None
            or (id(node) not in ctx.memo and id(node) not in ctx.plan.shared)
        )

    def _complement_within(
        self,
        node: ir.Complement,
        partner: GeneralizedRelation,
        ctx: ExecutionContext,
    ) -> GeneralizedRelation:
        """Complement ``node`` as far as a join with ``partner`` reads
        it: within ``partner``'s box when there is one, else in full."""
        recorder = obs.active_recorder()
        with ExitStack() as stack:
            spans = (
                [] if recorder is None else _open_spans(recorder, stack, node)
            )
            child = self._exec(node.child, ctx)
            boxed = _subtract_from_box(child, partner, ctx)
            if boxed is None:
                result = _complement(child, ctx)
            else:
                box, result = boxed
                for sp in spans:
                    sp.set(box=box)
            _set_out(spans, result)
        if boxed is None:
            _keep(node, ctx, result)
            return result
        COUNTERS["perf.complement_boxed"] += 1
        ctx.boxed[id(node)] = box
        if ctx.on_result is not None:
            ctx.on_result(node, result)
        return result

    def _project_join(
        self, node: ir.Project, join: ir.Join, ctx: ExecutionContext
    ) -> GeneralizedRelation:
        """``node`` over ``join``, the join run as :meth:`_exec` would
        run it, unless ``node`` drops every temporal attribute of the
        join's inputs and the plan shares no other use of it: then the
        join stays lazy, built only until the projection is known."""
        names = list(node.names)
        recorder = obs.active_recorder()
        with ExitStack() as stack:
            spans = (
                [] if recorder is None else _open_spans(recorder, stack, join)
            )
            r1, r2 = self._join_inputs(join, ctx)
            temporal = {*r1.schema.temporal_names, *r2.schema.temporal_names}
            if (
                temporal
                and temporal.isdisjoint(names)
                and (ctx.memo is None or id(join) not in ctx.plan.shared)
            ):
                lazy = algebra.LazyJoin(r1, r2, condition=join.condition)
            else:
                lazy = None
                joined = algebra.join(r1, r2, condition=join.condition)
                _set_out(spans, joined)
        if lazy is None:
            _keep(join, ctx, joined)
            return algebra.project(joined, names)
        result = algebra.project(lazy, names)
        ctx.unbuilt[id(join)] = lazy.built
        for sp in spans:
            sp.set(materialized=False, candidates_built=lazy.built)
        return result

    def _compute(
        self, node: ir.PlanNode, ctx: ExecutionContext
    ) -> GeneralizedRelation:
        if isinstance(node, ir.Scan):
            stored = ctx.relations.get(node.name)
            if stored is None:
                raise EvaluationError(f"unknown relation {node.name!r}")
            return stored
        if isinstance(node, ir.Literal):
            return node.relation
        if isinstance(node, ir.DataDomain):
            out = GeneralizedRelation.empty(node.schema)
            for value in ctx.data_domain:
                out.add(GeneralizedTuple.make([], data=(value,)))
            return out
        if isinstance(node, ir.DataDiag):
            out = GeneralizedRelation.empty(node.schema)
            for value in ctx.data_domain:
                out.add(GeneralizedTuple.make([], data=(value, value)))
            return out
        if isinstance(node, ir.Guard):
            child = self._exec(node.child, ctx)
            if not ctx.data_domain:
                return GeneralizedRelation.empty(child.schema)
            return child
        if isinstance(node, ir.Select):
            return algebra.select(self._exec(node.child, ctx), node.condition)
        if isinstance(node, ir.SelectData):
            return algebra.select_data(
                self._exec(node.child, ctx), node.name, node.value
            )
        if isinstance(node, ir.SelectDataEqual):
            return algebra.select_data_equal(
                self._exec(node.child, ctx), node.left, node.right
            )
        if isinstance(node, ir.Project):
            child = node.child
            if isinstance(child, ir.Join) and (
                ctx.memo is None or id(child) not in ctx.memo
            ):
                return self._project_join(node, child, ctx)
            return algebra.project(self._exec(child, ctx), list(node.names))
        if isinstance(node, ir.Rename):
            return algebra.rename(
                self._exec(node.child, ctx), dict(node.mapping)
            )
        if isinstance(node, ir.Shift):
            return algebra.shift_column(
                self._exec(node.child, ctx), node.name, node.delta
            )
        if isinstance(node, ir.Complement):
            return _complement(self._exec(node.child, ctx), ctx)
        if isinstance(node, ir.Union):
            return algebra.union(*self._pair(node, ctx))
        if isinstance(node, ir.Subtract):
            return algebra.subtract(*self._pair(node, ctx))
        if isinstance(node, ir.Join):
            return algebra.join(
                *self._join_inputs(node, ctx), condition=node.condition
            )
        if isinstance(node, ir.Optimize):
            # Local import: repro.optimize sits above the plan layer.
            from repro.optimize.core import optimize_relation
            from repro.optimize.objective import Objective

            child = self._exec(node.child, ctx)
            objective = Objective(node.name, node.minus)
            result = optimize_relation(
                child, objective, node.sense, max_tuples=ctx.max_tuples
            )
            ctx.optimum = result
            return result.argopt_restriction()
        raise ReproTypeError(  # pragma: no cover - exhaustive over nodes.py
            f"unexpected plan node: {type(node).__name__}"
        )


def _complement(
    child: GeneralizedRelation, ctx: ExecutionContext
) -> GeneralizedRelation:
    """``child``'s complement: over Z on its temporal attributes, over
    the context's domains on its data attributes."""
    data_domains = {
        name: ctx.domain_for(name) for name in child.schema.data_names
    }
    return algebra.complement(
        child,
        data_domains=data_domains or None,
        max_tuples=ctx.max_tuples,
        max_extensions=ctx.max_extensions,
    )


def _subtract_from_box(
    child: GeneralizedRelation,
    partner: GeneralizedRelation,
    ctx: ExecutionContext,
) -> tuple[str, GeneralizedRelation] | None:
    """``(box, box − child)`` with ``box`` the smallest box around
    ``partner``'s points on ``child``'s attributes (as text), or
    ``None`` when the complement of ``child`` must be taken in full."""
    schema = child.schema
    if schema.data_arity or not all(
        partner.schema.has(name) and partner.schema.attribute(name).temporal
        for name in schema.names
    ):
        return None
    box = algebra.bounding_box(partner, schema)
    if box is None:
        return None
    try:
        result = algebra.subtract(box, child, max_tuples=ctx.max_tuples)
    except NormalizationLimitError:
        return None
    return _box_text(box), result


def _box_text(box: GeneralizedRelation) -> str:
    """A box relation of :func:`algebra.bounding_box` as text."""
    if not len(box):
        return "empty"
    dbm = box.tuples[0].dbm
    return ", ".join(
        f"{name} in [{-dbm.bound(-1, i)}, {dbm.bound(i, -1)}]"
        for i, name in enumerate(box.schema.temporal_names)
    ) or "()"


def _set_out(spans: list, result: GeneralizedRelation) -> None:
    """Record a node's result size and schema on its spans."""
    for sp in spans:
        sp.set(out_tuples=len(result), out_schema=str(result.schema))


def _keep(
    node: ir.PlanNode, ctx: ExecutionContext, result: GeneralizedRelation
) -> None:
    """Hand a node's result to the memo and the ``on_result`` hook."""
    if ctx.memo is not None:
        ctx.memo[id(node)] = result
    if ctx.on_result is not None:
        ctx.on_result(node, result)


def _open_spans(recorder, stack: ExitStack, node: ir.PlanNode) -> list:
    """Enter ``node``'s spans on ``stack``: one ``query.<op>`` per
    label, outermost first, or one ``plan.<op>`` when it has none."""
    spans = [
        stack.enter_context(recorder.span(f"query.{op}", detail=detail))
        for op, detail in node.labels
    ]
    if not spans:
        spans = [
            stack.enter_context(
                recorder.span(f"plan.{node.op}", detail=node.detail())
            )
        ]
    return spans
