"""Delta-debugging shrinker for failing fuzz cases.

Given a case and a *failure predicate* (normally "``run_case`` still
reports the same status and divergence kind"), the shrinker greedily
applies semantics-reducing transformations — drop generalized tuples,
shrink the expression tree toward its leaves, drop constraints,
simplify lrps — keeping each change only when the failure survives.
The result is a local minimum: removing any single tuple or replacing
any single operation node by one of its children makes the failure
disappear.  Minimal cases are what land in ``tests/corpus/``.

Evaluation is budgeted (``max_evals``) so shrinking a pathological case
terminates deterministically; the best case found so far is returned.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

from repro.core.dbm import DBM
from repro.core.lrp import LRP
from repro.core.relations import GeneralizedRelation
from repro.core.tuples import GeneralizedTuple
from repro.fuzz.case import Case, scan_names
from repro.fuzz.diff import CaseResult, DiffConfig, DEFAULT_CONFIG, run_case
from repro.plan.nodes import PlanNode

#: Decides whether a candidate case still exhibits the original failure.
FailurePredicate = Callable[[Case], bool]


@dataclass
class ShrinkResult:
    """The outcome of a shrink run."""

    case: Case
    evals: int
    reduced: bool

    def __str__(self) -> str:
        return (
            f"shrunk to {self.case.total_tuples()} tuple(s), "
            f"expression size {self.case.expr.size()} "
            f"({self.evals} evaluation(s))"
        )


class _Budget:
    """Counts predicate evaluations; signals exhaustion via ``spent``."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.used = 0

    @property
    def spent(self) -> bool:
        return self.used >= self.limit


def same_failure(result: CaseResult, config: DiffConfig = DEFAULT_CONFIG):
    """The standard predicate: same status and same divergence kinds."""
    kinds = tuple(sorted({d.kind for d in result.divergences}))

    def predicate(candidate: Case) -> bool:
        got = run_case(candidate, config)
        if got.status != result.status:
            return False
        return tuple(sorted({d.kind for d in got.divergences})) == kinds

    return predicate


def shrink_case(
    case: Case,
    failing: FailurePredicate,
    max_evals: int = 400,
) -> ShrinkResult:
    """Minimize ``case`` while ``failing(case)`` stays true.

    ``failing`` must hold for ``case`` itself (the caller establishes
    that by observing the original failure); it is *not* re-checked
    here, so the full budget goes to candidates.
    """
    budget = _Budget(max_evals)
    current = case
    changed = True
    while changed and not budget.spent:
        changed = False
        for transform in (
            _shrink_expr,
            _drop_unused_relations,
            _drop_tuples,
            _drop_constraints,
            _simplify_lrps,
        ):
            smaller = transform(current, failing, budget)
            if smaller is not None:
                current = smaller
                changed = True
    reduced = (
        current.total_tuples() < case.total_tuples()
        or current.expr.size() < case.expr.size()
    )
    return ShrinkResult(case=current, evals=budget.used, reduced=reduced)


def _attempt(
    candidate: Case, failing: FailurePredicate, budget: _Budget
) -> bool:
    if budget.spent:
        return False
    budget.used += 1
    try:
        return failing(candidate)
    except Exception:  # noqa: BLE001 - a crashing candidate is not a repro
        return False


# ----------------------------------------------------------------------
# transformations (each returns a strictly smaller failing case or None)
# ----------------------------------------------------------------------


def _shrink_expr(
    case: Case, failing: FailurePredicate, budget: _Budget
) -> Case | None:
    """Try to replace some operation node by one of its children."""
    for index, node in enumerate(case.expr.walk()):
        for child in node.children:
            if _result_schema_differs(case, index, child):
                continue
            candidate = _with_node(case, index, child)
            if _attempt(candidate, failing, budget):
                return candidate
        if budget.spent:
            return None
    return None


def _drop_unused_relations(
    case: Case, failing: FailurePredicate, budget: _Budget
) -> Case | None:
    used = scan_names(case.expr)
    kept = {n: r for n, r in case.relations.items() if n in used}
    if len(kept) == len(case.relations):
        return None
    candidate = replace(case, relations=kept)
    if _attempt(candidate, failing, budget):
        return candidate
    return None


def _drop_tuples(
    case: Case, failing: FailurePredicate, budget: _Budget
) -> Case | None:
    """Try removing one generalized tuple from one base relation."""
    for name in sorted(case.relations):
        relation = case.relations[name]
        for skip in range(len(relation)):
            kept = [t for i, t in enumerate(relation) if i != skip]
            candidate = _with_relation(
                case, name, GeneralizedRelation(relation.schema, kept)
            )
            if _attempt(candidate, failing, budget):
                return candidate
            if budget.spent:
                return None
    return None


def _drop_constraints(
    case: Case, failing: FailurePredicate, budget: _Budget
) -> Case | None:
    """Try removing one stored DBM bound from one tuple."""
    for name in sorted(case.relations):
        relation = case.relations[name]
        for t_index, gtuple in enumerate(relation):
            bounds = list(gtuple.dbm.iter_bounds())
            for skip in range(len(bounds)):
                slim = DBM(gtuple.dbm.size)
                for k, (i, j, bound) in enumerate(bounds):
                    if k != skip:
                        _add_raw(slim, i, j, bound)
                candidate = _with_tuple(
                    case,
                    name,
                    t_index,
                    GeneralizedTuple(gtuple.lrps, slim, gtuple.data),
                )
                if _attempt(candidate, failing, budget):
                    return candidate
                if budget.spent:
                    return None
    return None


def _simplify_lrps(
    case: Case, failing: FailurePredicate, budget: _Budget
) -> Case | None:
    """Try replacing one lrp by a strictly simpler one."""
    for name in sorted(case.relations):
        relation = case.relations[name]
        for t_index, gtuple in enumerate(relation):
            for l_index, lrp in enumerate(gtuple.lrps):
                for simpler in _simpler_lrps(lrp):
                    lrps = list(gtuple.lrps)
                    lrps[l_index] = simpler
                    candidate = _with_tuple(
                        case,
                        name,
                        t_index,
                        GeneralizedTuple(
                            tuple(lrps), gtuple.dbm.copy(), gtuple.data
                        ),
                    )
                    if _attempt(candidate, failing, budget):
                        return candidate
                    if budget.spent:
                        return None
    return None


def _add_raw(dbm: DBM, i: int, j: int, bound: int) -> None:
    """Re-add one :meth:`DBM.iter_bounds` triple (-1 is the zero var)."""
    if i >= 0 and j >= 0:
        dbm.add_difference(i, j, bound)
    elif i >= 0:
        dbm.add_upper(i, bound)
    else:
        # 0 - X_j <= bound, i.e. X_j >= -bound.
        dbm.add_lower(j, -bound)


def _simpler_lrps(lrp: LRP) -> list[LRP]:
    candidates = []
    if lrp.period > 0:
        # A periodic lrp can collapse to one of its points, or to the
        # everywhere lrp with a smaller description.
        candidates.append(LRP.point(lrp.offset))
        if lrp.offset != 0:
            candidates.append(LRP.make(0, lrp.period))
    elif lrp.offset != 0:
        candidates.append(LRP.point(0))
    return candidates


# ----------------------------------------------------------------------
# structural helpers
# ----------------------------------------------------------------------


def _replace_nth(
    expr: PlanNode, index: int, replacement: PlanNode
) -> PlanNode:
    """Rebuild ``expr`` with the pre-order ``index``-th node replaced."""
    counter = [0]

    def rebuild(node: PlanNode) -> PlanNode:
        if counter[0] == index:
            counter[0] += node.size()
            return replacement
        counter[0] += 1
        children = tuple(rebuild(child) for child in node.children)
        if all(new is old for new, old in zip(children, node.children)):
            return node
        return node.replace_children(children)

    return rebuild(expr)


def _result_schema_differs(
    case: Case, index: int, replacement: PlanNode
) -> bool:
    """Whether splicing ``replacement`` in changes or breaks the case."""
    try:
        candidate = _replace_nth(case.expr, index, replacement)
        return candidate.schema != case.expr.schema
    except Exception:  # noqa: BLE001 - ill-typed splice: skip it
        return True


def _with_node(case: Case, index: int, replacement: PlanNode) -> Case:
    expr = _replace_nth(case.expr, index, replacement)
    kept = scan_names(expr)
    return replace(
        case,
        expr=expr,
        relations={n: r for n, r in case.relations.items() if n in kept},
    )


def _with_relation(
    case: Case, name: str, relation: GeneralizedRelation
) -> Case:
    relations = dict(case.relations)
    relations[name] = relation
    return replace(case, relations=relations)


def _with_tuple(
    case: Case, name: str, t_index: int, gtuple: GeneralizedTuple
) -> Case:
    relation = case.relations[name]
    tuples = list(relation)
    tuples[t_index] = gtuple
    return _with_relation(
        case, name, GeneralizedRelation(relation.schema, tuples)
    )
