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
from repro.core.errors import EvaluationError, ReproTypeError
from repro.core.negation import DEFAULT_MAX_EXTENSIONS
from repro.core.normalize import DEFAULT_MAX_TUPLES
from repro.core.relations import GeneralizedRelation
from repro.core.tuples import GeneralizedTuple
from repro.obs import trace as obs
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

    def domain_for(self, name: str) -> list:
        """The finite domain complementing data attribute ``name``."""
        if self.data_domains is not None:
            return list(self.data_domains[name])
        return sorted(self.data_domain, key=repr)


class NativeEngine:
    """The plan executor: every plan node is one in-memory algebra call.

    Inherits the whole :mod:`repro.perf` stack (interning caches,
    prefilters, incremental and batched closure) because every node
    calls a :mod:`repro.core.algebra` entry point.  Stateless across
    :meth:`run` calls, so one instance can serve every evaluator.
    """

    def run(
        self, plan: ir.PlanNode, ctx: ExecutionContext
    ) -> GeneralizedRelation:
        """Execute the plan bottom-up, emitting trace spans per node."""
        return self._exec(plan, ctx)

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
                spans = [
                    stack.enter_context(
                        recorder.span(f"query.{op}", detail=detail)
                    )
                    for op, detail in node.labels
                ]
                if not spans:
                    spans = [
                        stack.enter_context(
                            recorder.span(
                                f"plan.{node.op}", detail=node.detail()
                            )
                        )
                    ]
                result = self._compute(node, ctx)
                for sp in spans:
                    sp.set(
                        out_tuples=len(result),
                        out_schema=str(result.schema),
                    )
        if ctx.memo is not None:
            ctx.memo[id(node)] = result
        if ctx.on_result is not None:
            ctx.on_result(node, result)
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
            return algebra.project(self._exec(node.child, ctx), list(node.names))
        if isinstance(node, ir.Rename):
            return algebra.rename(
                self._exec(node.child, ctx), dict(node.mapping)
            )
        if isinstance(node, ir.Shift):
            return algebra.shift_column(
                self._exec(node.child, ctx), node.name, node.delta
            )
        if isinstance(node, ir.Complement):
            child = self._exec(node.child, ctx)
            data_domains = {
                name: ctx.domain_for(name)
                for name in child.schema.data_names
            }
            return algebra.complement(
                child,
                data_domains=data_domains or None,
                max_tuples=ctx.max_tuples,
                max_extensions=ctx.max_extensions,
            )
        if isinstance(node, ir.Union):
            return algebra.union(*self._pair(node, ctx))
        if isinstance(node, ir.Intersect):
            return algebra.intersect(*self._pair(node, ctx))
        if isinstance(node, ir.Subtract):
            return algebra.subtract(*self._pair(node, ctx))
        if isinstance(node, ir.Join):
            return algebra.join(
                *self._pair(node, ctx), condition=node.condition
            )
        if isinstance(node, ir.Product):
            return algebra.product(*self._pair(node, ctx))
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
