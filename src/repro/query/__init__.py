"""The two-sorted first-order temporal query language (Section 4)."""

from repro.query.ast import (
    And,
    Cmp,
    CmpOp,
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
    free_variables,
)
from repro.query.database import Database
from repro.query.evaluator import Evaluator
from repro.query.explain import QueryTrace, explain_analyze, plan_report
from repro.query.ops import node_detail, node_label, node_operator
from repro.query.parser import Directive, parse_query, split_directive
from repro.query.planner import Planner

__all__ = [
    "And",
    "Cmp",
    "CmpOp",
    "DataConst",
    "DataEq",
    "DataVar",
    "Database",
    "Directive",
    "Evaluator",
    "Exists",
    "Forall",
    "Implies",
    "Not",
    "Or",
    "Planner",
    "Pred",
    "Query",
    "QueryTrace",
    "Sort",
    "TempConst",
    "TempVar",
    "explain_analyze",
    "free_variables",
    "node_detail",
    "node_label",
    "node_operator",
    "parse_query",
    "plan_report",
    "split_directive",
]
