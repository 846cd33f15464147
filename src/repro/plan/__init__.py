"""repro.plan — the logical query planner's relation-expression IR.

The read path is split in three (``docs/planner.md``):

* **IR** (:mod:`repro.plan.nodes`) — frozen plan nodes mirroring the
  generalized algebra, with structural schema inference;
* **rewrites** (:mod:`repro.plan.rewrite`) — semantics-preserving
  passes (pushdown, reordering, CSE, normal-form deferral) with
  per-pass :class:`PassReport` deltas, costed by
  :mod:`repro.plan.cost`;
* **execution** (:mod:`repro.plan.engine`) — :class:`NativeEngine`
  runs plans on :mod:`repro.core.algebra` in-process.

The planner that lowers query ASTs into this IR lives with the query
language (:mod:`repro.query.planner`); :class:`PlanReport` is the
stable JSON-facing summary :func:`repro.api.plan` returns.
"""

from repro.plan.cost import CostModel
from repro.plan.engine import ExecutionContext, NativeEngine
from repro.plan.nodes import (
    Complement,
    DataDiag,
    DataDomain,
    Guard,
    Join,
    Literal,
    Optimize,
    PlanNode,
    Project,
    Rename,
    Scan,
    Select,
    SelectData,
    SelectDataEqual,
    Shift,
    Subtract,
    Union,
)
from repro.plan.report import PlanReport
from repro.plan.rewrite import PassReport, optimize_plan

__all__ = [
    "Complement",
    "CostModel",
    "DataDiag",
    "DataDomain",
    "ExecutionContext",
    "Guard",
    "Join",
    "Literal",
    "NativeEngine",
    "Optimize",
    "PassReport",
    "PlanNode",
    "PlanReport",
    "Project",
    "Rename",
    "Scan",
    "Select",
    "SelectData",
    "SelectDataEqual",
    "Shift",
    "Subtract",
    "Union",
    "optimize_plan",
]
