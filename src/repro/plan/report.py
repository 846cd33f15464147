"""The stable plan surface: :class:`PlanReport` for JSON consumers.

A :class:`PlanReport` is what :func:`repro.api.plan` and
:func:`repro.api.explain` return: the lowered (naive) plan, the
optimized plan, the per-pass rewrite deltas, and — for ``explain`` —
the per-node output sizes observed by actually executing the plan.
Everything is frozen and renders both as text (``str()``) and as JSON
(:meth:`PlanReport.to_dict`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.plan.nodes import PlanNode
from repro.plan.rewrite import PassReport


@dataclass(frozen=True, eq=False)
class PlanReport:
    """A query's plan, before and after optimization, plus pass deltas.

    ``annotations`` maps plan-node object ids to observed output tuple
    counts; it is populated only by :func:`repro.api.explain` (which
    executes the plan) and stays ``None`` for the purely static
    :func:`repro.api.plan`.
    """

    query: str
    optimized: bool
    naive: PlanNode
    plan: PlanNode
    passes: tuple[PassReport, ...] = ()
    annotations: dict[int, int] | None = field(
        default=None, repr=False, compare=False
    )

    def _render_node(self, node: PlanNode, indent: int) -> list[str]:
        pad = "  " * indent
        suffix = ""
        if self.annotations is not None and id(node) in self.annotations:
            suffix = f"  -> {self.annotations[id(node)]} tuple(s)"
        origin = ""
        if node.labels:
            origin = "  ← " + ", ".join(
                op if not detail else f"{op}: {detail}"
                for op, detail in node.labels
            )
        lines = [f"{pad}{node.describe()}  :: {node.schema}{origin}{suffix}"]
        for child in node.children:
            lines.extend(self._render_node(child, indent + 1))
        return lines

    def render(self) -> list[str]:
        """The report as text lines: header, plan tree, pass deltas."""
        state = "optimized" if self.optimized else "naive"
        lines = [f"plan [{state}] for: {self.query}"]
        lines.extend(self._render_node(self.plan, 1))
        if self.passes:
            lines.append("passes:")
            for report in self.passes:
                lines.append(f"  {report}")
        return lines

    def _node_dict(self, node: PlanNode) -> dict[str, Any]:
        out = {
            key: value
            for key, value in node.to_dict().items()
            if key != "children"
        }
        if self.annotations is not None and id(node) in self.annotations:
            out["out_tuples"] = self.annotations[id(node)]
        if node.children:
            out["children"] = [
                self._node_dict(child) for child in node.children
            ]
        return out

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready dump: query, plans and pass deltas."""
        return {
            "query": self.query,
            "optimized": self.optimized,
            "plan": self._node_dict(self.plan),
            "naive": self.naive.to_dict(),
            "passes": [report.to_dict() for report in self.passes],
        }

    def to_json(self, indent: int | None = 2) -> str:
        """:meth:`to_dict` serialized as JSON text."""
        import json

        return json.dumps(self.to_dict(), indent=indent, default=repr)

    def __str__(self) -> str:
        return "\n".join(self.render())
