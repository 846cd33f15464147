"""The stable plan surface: :class:`PlanReport` for JSON consumers.

A :class:`PlanReport` is every plan answer: :func:`repro.api.plan`
returns a static one, and every EXPLAIN (:func:`repro.api.explain`,
:meth:`Database.explain <repro.query.database.Database.explain>`, the
``EXPLAIN [ANALYZE]`` directives, :meth:`QueryTrace.plan
<repro.query.explain.QueryTrace.plan>`) an executed one.  It holds the
lowered (naive) plan, the plan that ran (rewritten when optimization
is on, the naive plan otherwise), the per-pass rewrite deltas, and —
when executed — the per-node output sizes observed by running the
plan.  Everything is frozen and renders both as text (``str()``) and
as JSON (:meth:`PlanReport.to_dict`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.plan.nodes import Boxed, PlanNode, Unbuilt
from repro.plan.rewrite import PassReport


@dataclass(frozen=True, eq=False)
class PlanReport:
    """A query's plan, before and after optimization, plus pass deltas.

    ``annotations`` maps plan-node object ids to observed output tuple
    counts, to an :class:`~repro.plan.nodes.Unbuilt` for a join a
    closed projection decided without materializing it, or to a
    :class:`~repro.plan.nodes.Boxed` for a complement answered within
    its join partner's box; every EXPLAIN
    executes the plan and fills it, and it stays ``None`` for the
    purely static :func:`repro.api.plan`.
    """

    query: str
    optimized: bool
    naive: PlanNode
    plan: PlanNode
    passes: tuple[PassReport, ...] = ()
    annotations: dict[int, int | Unbuilt | Boxed] | None = field(
        default=None, repr=False, compare=False
    )

    def render(self) -> list[str]:
        """The report as text lines: header, plan tree, pass deltas."""
        state = "optimized" if self.optimized else "naive"
        lines = [f"plan [{state}] for: {self.query}"]
        lines.extend(self.plan.render(1, self.annotations))
        if self.passes:
            lines.append("passes:")
            for report in self.passes:
                lines.append(f"  {report}")
        return lines

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready dump: query, plans and pass deltas."""
        return {
            "query": self.query,
            "optimized": self.optimized,
            "plan": self.plan.to_dict(self.annotations),
            "naive": self.naive.to_dict(),
            "passes": [report.to_dict() for report in self.passes],
        }

    def to_json(self, indent: int | None = 2) -> str:
        """:meth:`to_dict` serialized as JSON text."""
        import json

        return json.dumps(self.to_dict(), indent=indent, default=repr)

    def __str__(self) -> str:
        return "\n".join(self.render())
