"""The planner: lowering query ASTs into relation-expression plans.

This is the calculus-to-algebra translation (Theorem 4.1) reified as a
*plan builder*: instead of executing each algebra operation eagerly
while walking the AST, :class:`Planner` emits the operations as a
:mod:`repro.plan.nodes` tree and leaves execution to an engine.  The
lowered plan is the direct translation — the naive oracle; the rewrite
passes (:mod:`repro.plan.rewrite`) improve on it when optimization is
enabled.

Every AST node's plan root carries the node's provenance label (from
:mod:`repro.query.ops`), so engines open one ``query.*`` span per
calculus node and EXPLAIN shows where each plan node came from;
rewritten forms (implications expanded, ∀ as ¬∃¬, negations pushed
inward) stack their labels on one node.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.core.errors import EvaluationError, ReproTypeError
from repro.core.relations import GeneralizedRelation, Schema
from repro.plan import nodes as ir
from repro.plan.nodes import (
    empty_literal,
    singleton_literal,
    truth_literal,
    universe_literal,
)
from repro.query.ast import (
    And,
    Cmp,
    DataConst,
    DataEq,
    DataVar,
    Exists,
    Forall,
    Implies,
    Not,
    Or,
    Pred,
    Query,
    Sort,
    TempConst,
    TempVar,
)
from repro.query.ops import node_label


def _with_offset(column: str, delta: int) -> str:
    """Render ``column + delta`` in the constraint parser's syntax."""
    if delta == 0:
        return column
    if delta > 0:
        return f"{column} + {delta}"
    return f"{column} - {-delta}"


class Planner:
    """Builds executable plans from parsed queries.

    ``relations`` maps names to stored relations (sizes feed the cost
    model; schemas drive the lowering).  The planner performs the static
    checks — unknown predicates, arity mismatches, sort errors — so
    planning a bad query raises
    :class:`~repro.core.errors.EvaluationError` before anything runs.
    """

    def __init__(
        self, relations: Mapping[str, GeneralizedRelation]
    ) -> None:
        self.relations = relations

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------

    def plan_query(self, query: Query) -> ir.PlanNode:
        """Lower a whole query, including the canonical column order.

        The root mirrors :func:`Evaluator.evaluate`'s post-processing:
        a final projection reorders the free variables to (sorted
        temporal, sorted data) unless they already are.
        """
        plan = self.lower(query)
        names = sorted(plan.schema.temporal_names) + sorted(
            plan.schema.data_names
        )
        if names == list(plan.schema.names):
            return plan
        return ir.Project(plan, tuple(names))

    def plan_rule(
        self, query: Query, args: Sequence, schema: Schema
    ) -> ir.PlanNode:
        """Lower a rule body under its head (``args``, each a ``var`` or
        a ``const``, over ``schema``) in place of :meth:`plan_query`'s
        column order: a join with a singleton per constant under a
        fresh name (a cross product), a
        projection onto the head's order when needed, and a rename onto
        ``schema``.  The rewrite passes may compose that rename with the
        body's own renames, or drop it when it changes no name; the
        engine answers every plan with a relation of its own either way
        (:meth:`repro.plan.engine.NativeEngine.run`).
        """
        plan = self.lower(query)
        columns: list[str] = []
        for i, (arg, attr) in enumerate(zip(args, schema.attributes)):
            if arg.is_var:
                columns.append(arg.var)
                continue
            column = f"_h{i}"
            while column in plan.schema.names:
                column = f"_{column}"
            plan = ir.Join(
                plan,
                singleton_literal(column, arg.const, temporal=attr.temporal),
            )
            columns.append(column)
        if tuple(columns) != plan.schema.names:
            plan = ir.Project(plan, tuple(columns))
        return ir.Rename(plan, tuple(zip(columns, schema.names)))

    def lower(self, node: Query) -> ir.PlanNode:
        """Lower one AST node to a labeled plan subtree."""
        plan = self._dispatch(node)
        operator, detail = node_label(node)
        return plan.add_label(operator, detail)

    # ------------------------------------------------------------------
    # translation (mirrors Evaluator._dispatch 1:1)
    # ------------------------------------------------------------------

    def _dispatch(self, node: Query) -> ir.PlanNode:
        if isinstance(node, Pred):
            return self._pred(node)
        if isinstance(node, Cmp):
            return self._cmp(node)
        if isinstance(node, DataEq):
            return self._data_eq(node)
        if isinstance(node, And):
            out: ir.PlanNode = truth_literal(True)
            for part in node.parts:
                out = ir.Join(out, self.lower(part))
            return out
        if isinstance(node, Or):
            parts = [self.lower(part) for part in node.parts]
            return self._aligned_union(parts)
        if isinstance(node, Implies):
            return self.lower(
                Or((Not(node.antecedent), node.consequent))
            )
        if isinstance(node, Not):
            return self._negation(node.body)
        if isinstance(node, Exists):
            return self._exists(node)
        if isinstance(node, Forall):
            rewritten = Not(Exists(node.var, node.sort, Not(node.body)))
            return self.lower(rewritten)
        raise ReproTypeError(f"unexpected query node: {node!r}")  # pragma: no cover

    def _pred(self, node: Pred) -> ir.PlanNode:
        stored = self.relations.get(node.name)
        if stored is None:
            raise EvaluationError(f"unknown predicate {node.name!r}")
        if len(node.args) != len(stored.schema):
            raise EvaluationError(
                f"{node.name} expects {len(stored.schema)} arguments, "
                f"got {len(node.args)}"
            )
        # Rename every column to a unique positional name first.
        positional = tuple(
            (attr.name, f"_p{i}")
            for i, attr in enumerate(stored.schema.attributes)
        )
        rel: ir.PlanNode = ir.Rename(
            ir.Scan(node.name, stored.schema), positional
        )
        temporal_groups: dict[str, list[tuple[str, int]]] = {}
        data_groups: dict[str, list[str]] = {}
        drop: list[str] = []
        for i, (arg, attr) in enumerate(
            zip(node.args, stored.schema.attributes)
        ):
            col = f"_p{i}"
            if attr.temporal:
                if isinstance(arg, TempConst):
                    rel = ir.Select(rel, f"{col} = {arg.value}")
                    drop.append(col)
                elif isinstance(arg, TempVar):
                    temporal_groups.setdefault(arg.name, []).append(
                        (col, arg.offset)
                    )
                else:
                    raise EvaluationError(
                        f"data term {arg} in temporal position of {node.name}"
                    )
            else:
                if isinstance(arg, DataConst):
                    rel = ir.SelectData(rel, col, arg.value)
                    drop.append(col)
                elif isinstance(arg, DataVar):
                    data_groups.setdefault(arg.name, []).append(col)
                else:
                    raise EvaluationError(
                        f"temporal term {arg} in data position of {node.name}"
                    )
        rename_map: list[tuple[str, str]] = []
        for var, occurrences in temporal_groups.items():
            first_col, first_offset = occurrences[0]
            for col, offset in occurrences[1:]:
                rel = ir.Select(
                    rel,
                    f"{col} = {_with_offset(first_col, offset - first_offset)}",
                )
                drop.append(col)
            if first_offset != 0:
                rel = ir.Shift(rel, first_col, -first_offset)
            rename_map.append((first_col, var))
        for var, columns in data_groups.items():
            first_col = columns[0]
            for col in columns[1:]:
                rel = ir.SelectDataEqual(rel, first_col, col)
                drop.append(col)
            rename_map.append((first_col, var))
        keep = tuple(
            name for name in rel.schema.names if name not in drop
        )
        rel = ir.Project(rel, keep)
        return ir.Rename(rel, tuple(rename_map))

    def _cmp(self, node: Cmp) -> ir.PlanNode:
        left, right = node.left, node.right
        if isinstance(left, TempConst) and isinstance(right, TempConst):
            return truth_literal(node.op.holds(left.value, right.value))
        if isinstance(left, TempVar) and isinstance(right, TempVar):
            if left.name == right.name:
                # The variable stays free: a tautology/contradiction on
                # one variable is the unary universe or the unary empty
                # relation, never a 0-ary truth value.
                if node.op.holds(left.offset, right.offset):
                    return universe_literal([left.name])
                return empty_literal(Schema.make(temporal=[left.name]))
            universe = universe_literal([left.name, right.name])
            shift = right.offset - left.offset
            return ir.Select(
                universe,
                f"{left.name} {node.op.value} "
                f"{_with_offset(right.name, shift)}",
            )
        if isinstance(left, TempVar):
            bound = right.value - left.offset
            return ir.Select(
                universe_literal([left.name]),
                f"{left.name} {node.op.value} {bound}",
            )
        # constant op variable: flip.
        flipped = {"<=": ">=", ">=": "<=", "<": ">", ">": "<", "=": "="}
        bound = left.value - right.offset
        return ir.Select(
            universe_literal([right.name]),
            f"{right.name} {flipped[node.op.value]} {bound}",
        )

    def _data_eq(self, node: DataEq) -> ir.PlanNode:
        left, right = node.left, node.right
        if isinstance(left, DataConst) and isinstance(right, DataConst):
            return truth_literal(left.value == right.value)
        if isinstance(left, DataVar) and isinstance(right, DataVar):
            if left.name == right.name:
                # Trivial self-equality still binds the variable to the
                # active domain (its free-variable schema must survive).
                return ir.DataDomain(left.name)
            return ir.DataDiag(left.name, right.name)
        var = left if isinstance(left, DataVar) else right
        const = right if isinstance(right, DataConst) else left
        return singleton_literal(var.name, const.value)

    def _negation(self, body: Query) -> ir.PlanNode:
        """Lower ``~body``, pushing the negation inward first.

        Complement cost is exponential in the schema width (the number
        of free-extension combinations, Appendix A.6), so complementing
        a wide conjunction directly is catastrophic.  De Morgan and the
        implication/double-negation rules move negations down to small
        subformulas, where complements stay narrow; only atoms and
        quantifiers are complemented as relations.
        """
        if isinstance(body, Not):
            return self.lower(body.body)
        if isinstance(body, And):
            return self.lower(Or(tuple(Not(p) for p in body.parts)))
        if isinstance(body, Or):
            return self.lower(And(tuple(Not(p) for p in body.parts)))
        if isinstance(body, Implies):
            return self.lower(
                And((body.antecedent, Not(body.consequent)))
            )
        if isinstance(body, Forall):
            return self.lower(Exists(body.var, body.sort, Not(body.body)))
        # Atoms and existential quantifiers: complement the relation.
        return ir.Complement(self.lower(body))

    def _exists(self, node: Exists) -> ir.PlanNode:
        body = self.lower(node.body)
        if not body.schema.has(node.var):
            # Vacuous quantification: over Z always harmless; over the
            # data sort it needs a nonempty active domain (a runtime
            # fact — the Guard node checks it at execution time).
            if node.sort is Sort.DATA:
                return ir.Guard(body)
            return body
        keep = tuple(
            name for name in body.schema.names if name != node.var
        )
        return ir.Project(body, keep)

    def _aligned_union(self, parts: list[ir.PlanNode]) -> ir.PlanNode:
        """Union of plans over possibly different free variables.

        Each part is padded with universal columns for the variables it
        lacks: temporal variables range over Z, data variables over the
        active domain.
        """
        temporal: dict[str, None] = {}
        data: dict[str, None] = {}
        for part in parts:
            for name in part.schema.temporal_names:
                temporal[name] = None
            for name in part.schema.data_names:
                data[name] = None
        order = tuple(sorted(temporal) + sorted(data))
        aligned: list[ir.PlanNode] = []
        for part in parts:
            rel = part
            for name in temporal:
                if not rel.schema.has(name):
                    rel = ir.Join(rel, universe_literal([name]))
            for name in data:
                if not rel.schema.has(name):
                    rel = ir.Join(rel, ir.DataDomain(name))
            aligned.append(ir.Project(rel, order))
        out = aligned[0]
        for rel in aligned[1:]:
            out = ir.Union(out, rel)
        return out
