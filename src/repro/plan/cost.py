"""Cardinality estimation for plan trees.

The planner's rewrite decisions (join order, which side of a
join receives a pushed selection first) need *relative* cardinality
estimates, not absolute truth.  The model combines two sources:

1. **Leaf sizes** — exact tuple counts of the stored relations the plan
   scans, plus the literal relations the planner materialized;
2. **Structural priors** — :data:`repro.core.algebra.COST_HINTS`, the
   per-operation selectivity/expansion factors, and one constant
   pairwise selectivity, :data:`MIN_SELECTIVITY`, for the pairs a
   join keeps.

It reads no run-time counter, so a plan depends only on the query and
the stored relations, never on what the process ran before.

Estimates are in *generalized tuples* (the finite representation),
which is the unit every pairwise operation's cost is quadratic in.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.core.algebra import COST_HINTS
from repro.plan import nodes as ir

#: The pairwise selectivity of a join: the fraction of
#: tuple pairs estimated to survive the pairwise prefilters and
#: emptiness checks.
MIN_SELECTIVITY = 0.05

class CostModel:
    """Cardinality estimates for plan nodes, memoized per model.

    ``relations`` supplies leaf sizes; ``domain_size`` the active data
    domain's cardinality (for the domain-derived leaves).
    """

    def __init__(
        self,
        relations: Mapping[str, object] | None = None,
        domain_size: int = 0,
    ) -> None:
        self.relations = relations or {}
        self.domain_size = domain_size
        self._memo: dict[int, float] = {}

    def estimate(self, node: ir.PlanNode) -> float:
        """Estimated output cardinality of ``node`` (generalized tuples)."""
        cached = self._memo.get(id(node))
        if cached is not None:
            return cached
        value = self._estimate(node)
        self._memo[id(node)] = value
        return value

    def _estimate(self, node: ir.PlanNode) -> float:
        if isinstance(node, ir.Scan):
            stored = self.relations.get(node.name)
            return float(len(stored)) if stored is not None else 8.0
        if isinstance(node, ir.Literal):
            return float(len(node.relation))
        if isinstance(node, (ir.DataDomain, ir.DataDiag)):
            return float(max(1, self.domain_size))
        if isinstance(node, ir.Guard):
            return self.estimate(node.child)
        if isinstance(node, ir.Select):
            return self.estimate(node.child) * COST_HINTS["select"]
        if isinstance(node, ir.SelectData):
            return self.estimate(node.child) * COST_HINTS["select_data"]
        if isinstance(node, ir.SelectDataEqual):
            return self.estimate(node.child) * COST_HINTS["select_data_equal"]
        if isinstance(node, ir.Project):
            return self.estimate(node.child) * COST_HINTS["project"]
        if isinstance(node, (ir.Rename, ir.Shift)):
            return self.estimate(node.child)
        if isinstance(node, ir.Complement):
            return (self.estimate(node.child) + 1.0) * COST_HINTS["complement"]
        if isinstance(node, ir.Union):
            return self.estimate(node.left) + self.estimate(node.right)
        if isinstance(node, ir.Subtract):
            return self.estimate(node.left) * COST_HINTS["subtract"]
        if isinstance(node, ir.Join):
            return self.joined_estimate(node.left, node.right)
        return 8.0  # pragma: no cover - exhaustive over nodes.py

    def joined_estimate(
        self, left: ir.PlanNode, right: ir.PlanNode
    ) -> float:
        """Estimated size of ``left ⋈ right`` (used for join ordering).

        Shared attributes constrain the pair (:data:`MIN_SELECTIVITY`
        applies); a join without shared attributes is a cross product
        and estimates accordingly.
        """
        pairs = self.estimate(left) * self.estimate(right)
        shared = set(left.schema.names) & set(right.schema.names)
        if not shared:
            return max(1.0, pairs)
        # Each shared attribute narrows the pair further.
        selectivity = MIN_SELECTIVITY ** min(len(shared), 2)
        return max(1.0, pairs * selectivity)
