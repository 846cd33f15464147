"""Pluggable execution engines for relation-expression plans.

An :class:`Engine` turns a plan tree (:mod:`repro.plan.nodes`) into a
:class:`~repro.core.relations.GeneralizedRelation` against an
:class:`ExecutionContext` (the stored relations, the active data
domain, the safety limits).  :class:`NativeEngine` — the default — maps
every node onto :mod:`repro.core.algebra` in-process; alternative
engines register themselves under a name with :func:`register_engine`
and are selected per query via ``Evaluator(engine=...)``,
``Database.query(engine=...)``, ``repro --engine`` or the
``REPRO_ENGINE`` environment variable.

Tracing contract: a node that carries provenance ``labels`` opens one
``query.<operator>`` span per label (outermost first), reproducing the
legacy evaluator's trace shape exactly; unlabeled nodes open
``plan.<op>`` spans only when the context asks for them (optimized
runs), so un-optimized execution is span-for-span identical to the
pre-planner evaluator.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Hashable, Mapping, Sequence
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import ClassVar

from repro.core import algebra
from repro.core.errors import EvaluationError, ReproTypeError, ReproValueError
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
    complements.  ``plan_spans`` turns on ``plan.*`` spans for
    unlabeled nodes; ``memo`` enables result reuse for subtrees shared
    by common-subexpression elimination.  ``on_result`` / ``on_pair``
    are observation hooks: per-node results (EXPLAIN annotations, cost
    guards) and pairwise-op sizes (fuzzing's deterministic caps).

    ``optimum`` is an *out* slot: engines return relations, so an
    :class:`~repro.plan.nodes.Optimize` root deposits its scalar
    :class:`~repro.optimize.core.OptimizationResult` here for the
    evaluator to pick up after :meth:`Engine.run` returns.
    """

    relations: Mapping[str, GeneralizedRelation]
    data_domain: set[Hashable] = field(default_factory=set)
    data_domains: Mapping[str, Sequence] | None = None
    max_tuples: int = DEFAULT_MAX_TUPLES
    max_extensions: int = DEFAULT_MAX_EXTENSIONS
    plan_spans: bool = False
    memo: dict[int, GeneralizedRelation] | None = None
    on_result: Callable[[ir.PlanNode, GeneralizedRelation], None] | None = None
    on_pair: Callable[[ir.PlanNode, int, int], None] | None = None
    optimum: object | None = None

    def domain_for(self, name: str) -> list:
        """The finite domain complementing data attribute ``name``."""
        if self.data_domains is not None:
            return list(self.data_domains[name])
        return sorted(self.data_domain, key=repr)


class Engine(ABC):
    """The execution-engine contract.

    An engine evaluates a whole plan tree; how it does so — in-process
    algebra, a remote service, a different data-part backend — is its
    own business, as long as the result denotes the same point set the
    :class:`NativeEngine` computes.  Engines must be stateless across
    :meth:`run` calls (one instance is shared by every evaluator that
    selects it by name).
    """

    #: Registry name; subclasses override.
    name: ClassVar[str] = "?"

    @abstractmethod
    def run(
        self, plan: ir.PlanNode, ctx: ExecutionContext
    ) -> GeneralizedRelation:
        """Execute ``plan`` against ``ctx`` and return the result."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class NativeEngine(Engine):
    """The default engine: every plan node is one in-memory algebra call.

    Inherits the whole :mod:`repro.perf` stack (interning caches,
    prefilters, incremental and batched closure) because it
    calls the same :mod:`repro.core.algebra` entry points the
    pre-planner evaluator did.
    """

    name: ClassVar[str] = "native"

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
                if not spans and ctx.plan_spans:
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
        if not names and ctx.plan_spans:
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
            return algebra.join(*self._pair(node, ctx))
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


# ----------------------------------------------------------------------
# engine registry
# ----------------------------------------------------------------------

_ENGINES: dict[str, Engine] = {}


def register_engine(engine: Engine) -> Engine:
    """Register an engine instance under ``engine.name`` (replacing any)."""
    if not isinstance(engine, Engine):
        raise ReproTypeError(
            f"register_engine() takes an Engine instance, got {engine!r}"
        )
    _ENGINES[engine.name] = engine
    return engine


def get_engine(name: str) -> Engine:
    """Look up a registered engine by name."""
    try:
        return _ENGINES[name]
    except KeyError:
        raise ReproValueError(
            f"unknown engine {name!r}; registered: {', '.join(sorted(_ENGINES))}"
        ) from None


def engines() -> tuple[str, ...]:
    """Registered engine names, sorted."""
    return tuple(sorted(_ENGINES))


def resolve_engine(engine: str | Engine | None) -> Engine:
    """Coerce an engine argument (name, instance or ``None``) to an engine.

    ``None`` selects the configured default
    (:attr:`repro.perf.config.PerfConfig.engine`, environment variable
    ``REPRO_ENGINE``).
    """
    if engine is None:
        from repro.perf.config import get_config

        return get_engine(get_config().engine)
    if isinstance(engine, Engine):
        return engine
    if isinstance(engine, str):
        return get_engine(engine)
    raise ReproTypeError(f"engine must be a name or an Engine, got {engine!r}")


register_engine(NativeEngine())
