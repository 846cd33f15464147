"""Rewrite passes over relation-expression plans.

:func:`optimize_plan` runs a fixed pass pipeline and returns the
rewritten plan together with one :class:`PassReport` per pass (the
per-pass deltas EXPLAIN renders).  Every pass is a pure function from
plan to plan; all of them preserve the denoted point set (the
differential-fuzz harness replays its whole corpus through optimized
plans to enforce exactly that), though not necessarily the syntactic
tuple representation.

The pipeline, in order:

1. ``fold-constants`` — drop truth seeds (``⊤ ⋈ X → X``), collapse
   unions/intersections with empty literals, and fold
   ``A ⋈ σc(universe)`` into ``σc(A)`` (the calculus lowers every
   comparison atom as a selected universe; joining it away turns the
   comparison into a plain selection on the data-carrying side);
2. ``fuse-selects`` — merge adjacent selections into one conjunction
   (one constraint-merge pass per tuple instead of several);
3. ``push-selects`` — move selections toward the leaves: through
   unions, intersections, joins (per-side attribute containment),
   products, the minuend of subtractions, projections that keep the
   selected attributes, renames (via the inverse mapping) and guards —
   never through complements (``σ(¬A) ≠ ¬σ(A)``);
4. ``push-projects`` — narrow join/product/union inputs to the
   attributes the projection keeps plus the join-shared ones; stops at
   complements, subtractions, intersections and selections;
5. ``collapse-projects`` — normal-form deferral: merge projection
   chains (``π1 ∘ π2 → π1``) and drop identity projections, so
   per-tuple partial normalization runs once per consumer, not once
   per intermediate;
6. ``reorder-joins`` — flatten natural-join chains and re-order them
   greedily by estimated intermediate size (leaf sizes × cost hints ×
   a constant pair selectivity), wrapping the chain in a
   cheap column-reorder projection to preserve the original schema;
7. ``window-joins`` — fold a selection directly over a join into the
   join's condition (``σc(A ⋈ B) → A ⋈c B``), so the join never forms
   the pairs whose lrps cannot meet inside the selection's windows and
   closes each kept pair once;
8. ``dedup-subtrees`` — common-subexpression detection: structurally
   identical subtrees (labels ignored) are interned to one shared
   object, which the engine's memo then computes once.

Passes 1–6 leave conditioned joins (which only pass 7 builds) as they
are.

Passes 1–5 never read a constant's value, only move conditions and
literals around, so they run on a plan whose lifted literals are still
slots (:func:`repro.plan.nodes.slot_constant`).  :func:`bind_slots`
substitutes a call's values into such a plan before passes 6–8, which
read values through the cost model and the structural keys.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from operator import is_not
from typing import Any, Callable

from repro.core.constraints import Atom, VarConstAtom, VarVarAtom
from repro.obs import trace as obs
from repro.obs.metrics import COUNTERS
from repro.plan import nodes as ir
from repro.plan.cost import CostModel


@dataclass(frozen=True)
class PassReport:
    """One rewrite pass's delta: what it did to the plan."""

    name: str
    rewrites: int
    nodes_before: int
    nodes_after: int

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready dump of the pass delta."""
        return {
            "name": self.name,
            "rewrites": self.rewrites,
            "nodes_before": self.nodes_before,
            "nodes_after": self.nodes_after,
        }

    def __str__(self) -> str:
        return (
            f"{self.name}: {self.rewrites} rewrite(s), "
            f"{self.nodes_before} -> {self.nodes_after} node(s)"
        )


class _Rewriter:
    """Shared bottom-up tree transformer with a rewrite counter.

    ``kinds`` is the bit set (:attr:`~repro.plan.nodes.PlanNode.kinds`)
    of node classes a pass needs in a subtree before it can fire there;
    subtrees without any of them are returned untouched, unvisited.
    """

    def __init__(self, kinds: int) -> None:
        self.count = 0
        self.kinds = kinds

    def transform(
        self, node: ir.PlanNode, fn: Callable[[ir.PlanNode], ir.PlanNode]
    ) -> ir.PlanNode:
        if not node.kinds & self.kinds:
            return node
        children = node.children
        if children:
            new_children = tuple([self.transform(c, fn) for c in children])
            if any(map(is_not, new_children, children)):
                node = node.replace_children(new_children)
        return fn(node)


def _merge_labels(outer: ir.Labels, inner: ir.PlanNode) -> ir.PlanNode:
    """Attach a dropped wrapper's labels onto its replacement node."""
    if not outer:
        return inner
    return inner.with_labels(outer + inner.labels)


def _atom_names(atom: Atom) -> set[str]:
    names = {atom.left}
    if isinstance(atom, VarVarAtom):
        names.add(atom.right)
    return names


def _condition(atoms: list[Atom]) -> str:
    return " & ".join(str(atom) for atom in atoms)


def _make_select(
    child: ir.PlanNode, atoms: list[Atom], labels: ir.Labels = ()
) -> ir.PlanNode:
    """A selection over ``child``, fusing into an existing selection."""
    if not atoms:
        return _merge_labels(labels, child)
    if isinstance(child, ir.Select):
        return ir.Select(
            child.child,
            f"{_condition(atoms)} & {child.condition}",
            labels=labels + child.labels,
        )
    return ir.Select(child, _condition(atoms), labels=labels)


# ----------------------------------------------------------------------
# pass 1: constant folding
# ----------------------------------------------------------------------


def _is_truth(node: ir.PlanNode) -> bool:
    return isinstance(node, ir.Literal) and node.token == ("truth", True)


def _is_empty(node: ir.PlanNode) -> bool:
    return isinstance(node, ir.Literal) and node.token[0] == "empty"


def _universe_select(node: ir.PlanNode) -> tuple[list[Atom], set[str]] | None:
    """Match ``σ atoms(universe(names))`` (possibly a bare universe)."""
    atoms: list[Atom] = []
    while isinstance(node, ir.Select):
        atoms = [*ir.condition_atoms(node.condition), *atoms]
        node = node.child
    if isinstance(node, ir.Literal) and node.token[0] == "universe":
        return atoms, set(node.token[1:])
    return None


def fold_constants(root: ir.PlanNode) -> tuple[ir.PlanNode, int]:
    """Drop truth seeds, collapse empties, fold selected universes."""
    rw = _Rewriter(ir.Literal.kind)

    def fold(node: ir.PlanNode) -> ir.PlanNode:
        if isinstance(node, ir.Join) and not node.condition:
            if _is_truth(node.left):
                rw.count += 1
                return _merge_labels(node.labels, node.right)
            if _is_truth(node.right):
                rw.count += 1
                return _merge_labels(node.labels, node.left)
            for side, other in (
                (node.right, node.left),
                (node.left, node.right),
            ):
                matched = _universe_select(side)
                if matched is None:
                    continue
                atoms, names = matched
                if names and names <= set(other.schema.temporal_names):
                    rw.count += 1
                    folded = _make_select(other, atoms, labels=node.labels)
                    # Dropping the universe side keeps the column *set*
                    # but can change the join's merge order — restore it.
                    order = tuple(node.schema.names)
                    if tuple(folded.schema.names) != order:
                        folded = ir.Project(folded, order)
                    return folded
        if isinstance(node, ir.Union):
            if _is_empty(node.left):
                rw.count += 1
                return _merge_labels(node.labels, node.right)
            if _is_empty(node.right):
                rw.count += 1
                return _merge_labels(node.labels, node.left)
        if isinstance(node, ir.Intersect):
            for side in (node.left, node.right):
                if _is_empty(side):
                    rw.count += 1
                    return _merge_labels(node.labels, side)
        if isinstance(node, ir.Subtract) and _is_empty(node.right):
            rw.count += 1
            return _merge_labels(node.labels, node.left)
        return node

    return rw.transform(root, fold), rw.count


# ----------------------------------------------------------------------
# pass 2: selection fusion
# ----------------------------------------------------------------------


def fuse_selects(root: ir.PlanNode) -> tuple[ir.PlanNode, int]:
    """Merge adjacent selections into one conjunctive condition."""
    rw = _Rewriter(ir.Select.kind)

    def fuse(node: ir.PlanNode) -> ir.PlanNode:
        if isinstance(node, ir.Select) and isinstance(node.child, ir.Select):
            rw.count += 1
            inner = node.child
            return ir.Select(
                inner.child,
                f"{node.condition} & {inner.condition}",
                labels=node.labels + inner.labels,
            )
        return node

    return rw.transform(root, fuse), rw.count


# ----------------------------------------------------------------------
# pass 3: selection pushdown
# ----------------------------------------------------------------------


def push_selects(root: ir.PlanNode) -> tuple[ir.PlanNode, int]:
    """Push selections toward the leaves (never through complements)."""
    rw = _Rewriter(ir.Select.kind)

    def push(node: ir.PlanNode) -> ir.PlanNode:
        if not isinstance(node, ir.Select):
            return node
        atoms = list(ir.condition_atoms(node.condition))
        child = node.child
        if isinstance(child, (ir.Union, ir.Intersect)):
            rw.count += 1
            rebuilt = type(child)(
                _make_select(child.left, atoms),
                _make_select(child.right, atoms),
                labels=node.labels + child.labels,
            )
            return rebuilt.replace_children(
                tuple(push(c) for c in rebuilt.children)
            )
        if isinstance(child, ir.Product) or (
            isinstance(child, ir.Join) and not child.condition
        ):
            left_names = set(child.left.schema.temporal_names)
            right_names = set(child.right.schema.temporal_names)
            to_left = [a for a in atoms if _atom_names(a) <= left_names]
            remaining = [a for a in atoms if a not in to_left]
            to_right = [
                a for a in remaining if _atom_names(a) <= right_names
            ]
            kept = [a for a in remaining if a not in to_right]
            if not to_left and not to_right:
                return node
            rw.count += 1
            rebuilt = type(child)(
                push(_make_select(child.left, to_left)),
                push(_make_select(child.right, to_right)),
                labels=child.labels if kept else node.labels + child.labels,
            )
            return _make_select(rebuilt, kept, labels=node.labels) if kept else rebuilt
        if isinstance(child, ir.Subtract):
            rw.count += 1
            return ir.Subtract(
                push(_make_select(child.left, atoms)),
                child.right,
                labels=node.labels + child.labels,
            )
        if isinstance(child, ir.Project):
            if all(_atom_names(a) <= set(child.names) for a in atoms):
                rw.count += 1
                return ir.Project(
                    push(_make_select(child.child, atoms)),
                    child.names,
                    labels=node.labels + child.labels,
                )
            return node
        if isinstance(child, ir.Rename):
            inverse = {new: old for old, new in child.mapping}
            renamed: list[Atom] = []
            for atom in atoms:
                left = inverse.get(atom.left, atom.left)
                if isinstance(atom, VarVarAtom):
                    right = inverse.get(atom.right, atom.right)
                    renamed.append(VarVarAtom(left, atom.op, right, atom.const))
                else:
                    renamed.append(VarConstAtom(left, atom.op, atom.const))
            rw.count += 1
            return ir.Rename(
                push(_make_select(child.child, renamed)),
                child.mapping,
                labels=node.labels + child.labels,
            )
        if isinstance(child, ir.Guard):
            rw.count += 1
            return ir.Guard(
                push(_make_select(child.child, atoms)),
                labels=node.labels + child.labels,
            )
        if isinstance(child, (ir.SelectData, ir.SelectDataEqual)):
            rw.count += 1
            pushed = push(_make_select(child.child, atoms))
            return child.replace_children((pushed,)).with_labels(
                node.labels + child.labels
            )
        return node

    return rw.transform(root, push), rw.count


# ----------------------------------------------------------------------
# pass 4: projection pushdown
# ----------------------------------------------------------------------


def push_projects(root: ir.PlanNode) -> tuple[ir.PlanNode, int]:
    """Narrow join/product/union inputs to the attributes a projection keeps."""
    rw = _Rewriter(ir.Project.kind)

    def narrow(child: ir.PlanNode, needed: list[str]) -> ir.PlanNode:
        if list(child.schema.names) == needed:
            return child
        rw.count += 1
        return ir.Project(child, tuple(needed))

    def push(node: ir.PlanNode) -> ir.PlanNode:
        if not isinstance(node, ir.Project):
            return node
        child = node.child
        keep = set(node.names)
        if isinstance(child, ir.Union):
            rw.count += 1
            rebuilt = ir.Union(
                ir.Project(child.left, node.names),
                ir.Project(child.right, node.names),
                labels=node.labels + child.labels,
            )
            return rebuilt.replace_children(
                tuple(push(c) for c in rebuilt.children)
            )
        if isinstance(child, ir.Join) and not child.condition:
            shared = set(child.left.schema.names) & set(
                child.right.schema.names
            )
            wanted = keep | shared
            need_l = [n for n in child.left.schema.names if n in wanted]
            need_r = [n for n in child.right.schema.names if n in wanted]
            if len(need_l) == len(child.left.schema.names) and len(
                need_r
            ) == len(child.right.schema.names):
                return node
            rebuilt = ir.Join(
                push(narrow(child.left, need_l)),
                push(narrow(child.right, need_r)),
                labels=child.labels,
            )
            return ir.Project(rebuilt, node.names, labels=node.labels)
        if isinstance(child, ir.Product):
            need_l = [n for n in child.left.schema.names if n in keep]
            need_r = [n for n in child.right.schema.names if n in keep]
            if not need_l or not need_r:
                # Dropping one side entirely changes multiplicity-free
                # semantics only through projection; keep the product
                # intact rather than reasoning about emptiness here.
                return node
            if len(need_l) == len(child.left.schema.names) and len(
                need_r
            ) == len(child.right.schema.names):
                return node
            rebuilt = ir.Product(
                push(narrow(child.left, need_l)),
                push(narrow(child.right, need_r)),
                labels=child.labels,
            )
            return ir.Project(rebuilt, node.names, labels=node.labels)
        if isinstance(child, ir.Guard):
            rw.count += 1
            return ir.Guard(
                push(ir.Project(child.child, node.names)),
                labels=node.labels + child.labels,
            )
        return node

    return rw.transform(root, push), rw.count


# ----------------------------------------------------------------------
# pass 5: normal-form deferral
# ----------------------------------------------------------------------


def collapse_projects(root: ir.PlanNode) -> tuple[ir.PlanNode, int]:
    """Merge projection chains and drop identity projections."""
    rw = _Rewriter(ir.Project.kind)

    def collapse(node: ir.PlanNode) -> ir.PlanNode:
        if not isinstance(node, ir.Project):
            return node
        if isinstance(node.child, ir.Project):
            rw.count += 1
            return collapse(
                ir.Project(
                    node.child.child,
                    node.names,
                    labels=node.labels + node.child.labels,
                )
            )
        if tuple(node.child.schema.names) == node.names:
            rw.count += 1
            return _merge_labels(node.labels, node.child)
        return node

    return rw.transform(root, collapse), rw.count


# ----------------------------------------------------------------------
# pass 6: join reordering
# ----------------------------------------------------------------------


def reorder_joins(
    root: ir.PlanNode, model: CostModel
) -> tuple[ir.PlanNode, int]:
    """Greedily reorder natural-join chains by estimated intermediate size."""
    rw = _Rewriter(ir.Join.kind)

    def flatten(node: ir.PlanNode) -> tuple[list[ir.PlanNode], ir.Labels]:
        if isinstance(node, ir.Join) and not node.condition:
            left_parts, left_labels = flatten(node.left)
            right_parts, right_labels = flatten(node.right)
            return left_parts + right_parts, node.labels + left_labels + right_labels
        return [node], ()

    def reorder(node: ir.PlanNode) -> ir.PlanNode:
        if not isinstance(node, ir.Join) or node.condition:
            return node
        parts, labels = flatten(node)
        if len(parts) < 3:
            return node
        original = parts[:]
        remaining = parts[:]
        remaining.sort(key=model.estimate)
        chain = remaining.pop(0)
        ordered = [chain]
        while remaining:
            best_index = 0
            best_score = None
            for i, candidate in enumerate(remaining):
                score = model.joined_estimate(chain, candidate)
                if best_score is None or score < best_score:
                    best_score = score
                    best_index = i
            nxt = remaining.pop(best_index)
            ordered.append(nxt)
            chain = ir.Join(chain, nxt)
        if ordered == original:
            return node
        rw.count += 1
        chain = chain.with_labels(labels)
        if tuple(chain.schema.names) != tuple(node.schema.names):
            return ir.Project(chain, tuple(node.schema.names))
        return chain

    return rw.transform(root, reorder), rw.count


# ----------------------------------------------------------------------
# pass 7: window joins
# ----------------------------------------------------------------------


def window_joins(root: ir.PlanNode) -> tuple[ir.PlanNode, int]:
    """Fold each selection directly over a join into the join.

    Runs after ``reorder-joins``, which therefore never sees a
    conditioned join.  The selection's labels go outermost.
    """
    rw = _Rewriter(ir.Select.kind)

    def fold(node: ir.PlanNode) -> ir.PlanNode:
        if isinstance(node, ir.Select) and isinstance(node.child, ir.Join):
            rw.count += 1
            join = node.child
            condition = node.condition
            if join.condition:
                condition = f"{condition} & {join.condition}"
            return ir.Join(
                join.left,
                join.right,
                condition,
                labels=node.labels + join.labels,
            )
        return node

    return rw.transform(root, fold), rw.count


# ----------------------------------------------------------------------
# pass 8: common-subexpression detection
# ----------------------------------------------------------------------


def dedup_subtrees(root: ir.PlanNode) -> tuple[ir.PlanNode, int]:
    """Intern structurally identical subtrees to one shared object.

    The structural key ignores provenance labels, mirroring the perf
    layer's interning caches: two subtrees that compute the same
    relation are merged even when they originate from different query
    syntax.  The engine's per-run memo then evaluates the shared
    subtree once and reuses the result.

    Children are interned first, so two nodes with equal keys have
    equal parameters over the *same* child objects: the lookup key
    holds child ids instead of nested child keys, and hashing it never
    descends the tree.
    """
    seen: dict[tuple, ir.PlanNode] = {}
    hits = 0

    def intern(node: ir.PlanNode) -> ir.PlanNode:
        nonlocal hits
        children = node.children
        if children:
            new_children = tuple([intern(c) for c in children])
            if any(map(is_not, new_children, children)):
                node = node.replace_children(new_children)
        key = (node.op, node.params(), *map(id, node.children))
        kept = seen.get(key)
        if kept is not None:
            if kept is not node:
                hits += 1
            return kept
        seen[key] = node
        return node

    return intern(root), hits


# ----------------------------------------------------------------------
# slot binding
# ----------------------------------------------------------------------


def slot_holders(root: ir.PlanNode) -> dict[int, tuple[str, ...]]:
    """The nodes of ``root`` whose subtree holds a slot, by id.

    Each maps to the names of its own fields (parameters or
    ``labels``) that hold one; empty when only descendants do.
    """
    held: dict[int, tuple[str, ...]] = {}

    def visit(node: ir.PlanNode) -> bool:
        below = [visit(child) for child in node.children]
        state = node.__dict__
        fields = tuple(
            name
            for name in (*ir._layout(type(node)).params, "labels")
            if ir.holds_slot(state[name])
        )
        if fields or any(below):
            held[id(node)] = fields
            return True
        return False

    visit(root)
    return held


def bind_slots(
    root: ir.PlanNode, values: tuple, holders: Mapping[int, tuple[str, ...]]
) -> ir.PlanNode:
    """``root`` with ``values`` bound into its slots.

    ``holders`` is :func:`slot_holders` of ``root``; every other
    subtree is shared with ``root`` as it is.
    """
    bound: dict[int, ir.PlanNode] = {}

    def bind(node: ir.PlanNode) -> ir.PlanNode:
        fields = holders.get(id(node))
        if fields is None:
            return node
        done = bound.get(id(node))
        if done is None:
            children = tuple([bind(child) for child in node.children])
            done = bound[id(node)] = node.bind(values, children, fields)
        return done

    return bind(root)


# ----------------------------------------------------------------------
# the pipeline
# ----------------------------------------------------------------------


def has_join_chain(root: ir.PlanNode) -> bool:
    """Whether ``reorder-joins`` could fire: a join chain of >= 3 parts.

    A join flattens to three or more parts exactly when one of its
    inputs is itself a join.  Plans without such a chain come out of
    ``reorder-joins`` unchanged whatever the cost model says.
    """
    if not root.kinds & ir.Join.kind:
        return False
    return any(
        isinstance(node, ir.Join)
        and (isinstance(node.left, ir.Join) or isinstance(node.right, ir.Join))
        for node in root.walk()
    )


#: Passes 1–5: their output depends on the plan alone.
_STRUCTURAL_PASSES: tuple[
    tuple[str, Callable[[ir.PlanNode], tuple[ir.PlanNode, int]]], ...
] = (
    ("fold-constants", fold_constants),
    ("fuse-selects", fuse_selects),
    ("push-selects", push_selects),
    ("push-projects", push_projects),
    ("collapse-projects", collapse_projects),
)


def _run_passes(root, passes, reports: list[PassReport]) -> ir.PlanNode:
    """Apply ``passes`` in order, appending one report per pass."""
    for name, run in passes:
        before = root.size()
        root, count = run(root)
        reports.append(
            PassReport(
                name=name,
                rewrites=count,
                nodes_before=before,
                nodes_after=root.size(),
            )
        )
        if count:
            COUNTERS[f"planner.pass.{name}"] += count
    return root


def finish_plan(
    staged: ir.PlanNode,
    relations: Mapping[str, object] | None = None,
    domain_size: int = 0,
) -> tuple[ir.PlanNode, tuple[PassReport, ...]]:
    """Run passes 6–8 on a structurally rewritten plan.

    ``optimize_plan(root, relations, n)`` equals
    ``finish_plan(optimize_plan(root, costed=False)[0], relations, n)``:
    a caller that keeps the staged plan reruns only ``reorder-joins``,
    ``window-joins`` and ``dedup-subtrees`` when the relations change.
    """
    model = CostModel(relations=relations, domain_size=domain_size)
    reports: list[PassReport] = []
    plan = _run_passes(
        staged,
        (
            ("reorder-joins", lambda plan: reorder_joins(plan, model)),
            ("window-joins", window_joins),
            ("dedup-subtrees", dedup_subtrees),
        ),
        reports,
    )
    return plan, tuple(reports)


def optimize_plan(
    root: ir.PlanNode,
    relations: Mapping[str, object] | None = None,
    domain_size: int = 0,
    *,
    costed: bool = True,
) -> tuple[ir.PlanNode, tuple[PassReport, ...]]:
    """Run the full rewrite pipeline; return the plan and per-pass deltas.

    ``relations``/``domain_size`` feed the cost model used by join
    reordering.  With ``costed=False`` the pipeline stops after the
    structural passes 1–5, whose output depends on the plan alone;
    :func:`finish_plan` completes it.  Emits one ``planner.pass.<name>``
    counter increment per rewrite and a ``planner.optimize`` span (with
    per-pass rewrite counts) when tracing is active.
    """
    reports: list[PassReport] = []
    with obs.span("planner.optimize", nodes=root.size()) as sp:
        root = _run_passes(root, _STRUCTURAL_PASSES, reports)
        if costed:
            root, finished = finish_plan(root, relations, domain_size)
            reports.extend(finished)
        COUNTERS["planner.optimized"] += 1
        if sp is not obs.NULL_SPAN:
            sp.set(out_nodes=root.size())
            sp.set(**{f"pass.{r.name}": r.rewrites for r in reports})
    return root, tuple(reports)
