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
   unions with empty literals, and fold
   ``A ⋈ σc(universe)`` into ``σc(A)`` (the calculus lowers every
   comparison atom as a selected universe; joining it away turns the
   comparison into a plain selection on the data-carrying side);
2. ``fuse-selects`` — merge adjacent selections into one conjunction
   (one constraint-merge pass per tuple instead of several);
3. ``push-selects`` — move selections toward the leaves: through
   unions, joins (per-side attribute containment), the minuend of
   subtractions, projections that keep the
   selected attributes, renames (via the inverse mapping) and guards —
   never through complements (``σ(¬A) ≠ ¬σ(A)``); data selections
   sink below temporal selections and renames, so a scan filters on
   the data value before it conjoins any bound;
4. ``push-projects`` — narrow join/union inputs to the attributes the
   projection keeps plus the join-shared ones (the parts of a join
   chain, never an inner join, so the chain stays whole for
   ``reorder-joins``); stops at complements, subtractions and
   selections;
5. ``collapse-projects`` — normal-form deferral: merge projection
   chains (``π1 ∘ π2 → π1``) and drop identity projections, so
   per-tuple partial normalization runs once per consumer, not once
   per intermediate; compose adjacent renames into one and drop a
   rename that changes no name (an atom's placeholder rename pair
   over its scan becomes one rename, or none);
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

from collections import Counter
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


def _chain(node: ir.PlanNode) -> tuple[list[ir.PlanNode], ir.Labels]:
    """The inputs of a natural-join chain, left to right, and the labels
    of its joins."""
    if isinstance(node, ir.Join) and not node.condition:
        left_parts, left_labels = _chain(node.left)
        right_parts, right_labels = _chain(node.right)
        return left_parts + right_parts, node.labels + left_labels + right_labels
    return [node], ()


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


def _data_renamed(
    node: ir.SelectData | ir.SelectDataEqual,
    child: ir.PlanNode,
    inverse: Mapping[str, str],
) -> ir.PlanNode:
    """The data selection ``node`` over ``child``, names mapped back."""
    if isinstance(node, ir.SelectData):
        return ir.SelectData(
            child,
            inverse.get(node.name, node.name),
            node.value,
            labels=node.labels,
        )
    return ir.SelectDataEqual(
        child,
        inverse.get(node.left, node.left),
        inverse.get(node.right, node.right),
        labels=node.labels,
    )


def push_selects(root: ir.PlanNode) -> tuple[ir.PlanNode, int]:
    """Push selections toward the leaves (never through complements).

    Data selections go below temporal ones: comparing a data value is
    cheaper than conjoining bounds into a tuple's closure, so a scan
    subplan filters on the value first and runs ``select`` on the
    tuples that survive.
    """
    rw = _Rewriter(
        ir.Select.kind | ir.SelectData.kind | ir.SelectDataEqual.kind
    )

    def sink(node: ir.PlanNode) -> ir.PlanNode:
        """Move a data selection below temporal selections and renames."""
        child = node.child
        if isinstance(child, ir.Select):
            rw.count += 1
            return ir.Select(
                sink(node.replace_children((child.child,))),
                child.condition,
                labels=child.labels,
            )
        if isinstance(child, ir.Rename):
            rw.count += 1
            inverse = {new: old for old, new in child.mapping}
            return ir.Rename(
                sink(_data_renamed(node, child.child, inverse)),
                child.mapping,
                labels=child.labels,
            )
        return node

    def push(node: ir.PlanNode) -> ir.PlanNode:
        if isinstance(node, (ir.SelectData, ir.SelectDataEqual)):
            return sink(node)
        if not isinstance(node, ir.Select):
            return node
        atoms = list(ir.condition_atoms(node.condition))
        child = node.child
        if isinstance(child, ir.Union):
            rw.count += 1
            rebuilt = type(child)(
                _make_select(child.left, atoms),
                _make_select(child.right, atoms),
                labels=node.labels + child.labels,
            )
            return rebuilt.replace_children(
                tuple(push(c) for c in rebuilt.children)
            )
        if isinstance(child, ir.Join) and not child.condition:
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
            # The data selection has already sunk as far as it goes; the
            # temporal one passes it only where it can move on below.
            pushed = push(_make_select(child.child, atoms))
            if isinstance(pushed, ir.Select) and pushed.child is child.child:
                return node
            rw.count += 1
            return sink(
                child.replace_children((pushed,)).with_labels(
                    node.labels + child.labels
                )
            )
        return node

    return rw.transform(root, push), rw.count


# ----------------------------------------------------------------------
# pass 4: projection pushdown
# ----------------------------------------------------------------------


def push_projects(root: ir.PlanNode) -> tuple[ir.PlanNode, int]:
    """Narrow join/union inputs to the attributes a projection keeps."""
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
            # Narrow the parts of the whole join chain, never an inner
            # join: a projection inside the chain would split it, and
            # ``reorder-joins`` would no longer see all of its parts.
            parts, _ = _chain(child)
            uses = Counter(n for part in parts for n in part.schema.names)
            wanted = keep | {n for n, count in uses.items() if count > 1}
            if all(set(part.schema.names) <= wanted for part in parts):
                return node

            def rebuild(join: ir.PlanNode) -> ir.PlanNode:
                if isinstance(join, ir.Join) and not join.condition:
                    return ir.Join(
                        rebuild(join.left), rebuild(join.right),
                        labels=join.labels,
                    )
                names = join.schema.names
                return push(narrow(join, [n for n in names if n in wanted]))

            return ir.Project(rebuild(child), node.names, labels=node.labels)
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


def _composed(outer: ir.Rename, inner: ir.Rename) -> tuple:
    """The one mapping that renames as ``inner``, then ``outer`` do,
    over ``inner``'s input, without the names it leaves as they are."""
    first = dict(inner.mapping)
    then = dict(outer.mapping)
    pairs = []
    for name in inner.child.schema.names:
        middle = first.get(name, name)
        final = then.get(middle, middle)
        if final != name:
            pairs.append((name, final))
    return tuple(pairs)


def collapse_projects(root: ir.PlanNode) -> tuple[ir.PlanNode, int]:
    """Merge projection and rename chains, and drop identity ones.

    A projection over a rename moves below it, so that renames meet
    and compose across it.
    """
    rw = _Rewriter(ir.Project.kind | ir.Rename.kind)

    def collapse(node: ir.PlanNode) -> ir.PlanNode:
        if isinstance(node, ir.Rename):
            child = node.child
            if isinstance(child, ir.Rename):
                rw.count += 1
                return collapse(
                    ir.Rename(
                        child.child,
                        _composed(node, child),
                        labels=node.labels + child.labels,
                    )
                )
            if all(old == new for old, new in node.mapping):
                rw.count += 1
                return _merge_labels(node.labels, child)
            return node
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
        if isinstance(node.child, ir.Rename):
            # Project first, then rename what is left, so the rename
            # meets any rename below the projection.
            rename = node.child
            back = {new: old for old, new in rename.mapping}
            kept = set(node.names)
            rw.count += 1
            return collapse(
                ir.Rename(
                    collapse(
                        ir.Project(
                            rename.child,
                            tuple(back.get(name, name) for name in node.names),
                            labels=node.labels,
                        )
                    ),
                    tuple(pair for pair in rename.mapping if pair[1] in kept),
                    labels=rename.labels,
                )
            )
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

    def reorder(node: ir.PlanNode) -> ir.PlanNode:
        if not isinstance(node, ir.Join) or node.condition:
            return node
        parts, labels = _chain(node)
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

    The structural key ignores provenance labels: two subtrees that
    compute the same relation are merged even when they originate from
    different query syntax.  The engine's per-run memo then evaluates
    the shared subtree once and reuses the result.

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
