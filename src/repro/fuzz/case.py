"""Fuzz cases: (relations, expression, window) triples, JSON round-trip.

A :class:`Case` is the unit the harness generates, executes, shrinks
and persists.  Its expression is a plan-IR tree (:mod:`repro.plan.nodes`)
over the seven algebra operators: ``Scan``, ``Select``, ``Project``,
``Complement``, ``Union``, ``Subtract`` and ``Join`` (without a
condition).  A join of two same-schema sides is their intersection and
one of two sides with no shared name their cross product.  The JSON
form (``format:
repro-fuzz-case/1``) is what lands in ``tests/corpus/`` — every field
needed to replay the case byte-for-byte on any checkout, plus a
free-form ``note`` recording why the case was interesting.  A ``Scan``
is written as ``{"op": "leaf", "name": ...}`` and takes its schema
back from the case's relations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.core.errors import ReproValueError
from repro.core.relations import GeneralizedRelation, Schema
from repro.plan import nodes as ir
from repro.storage import jsonio

FORMAT = "repro-fuzz-case/1"


@dataclass(frozen=True)
class Case:
    """One differential-fuzzing case.

    Attributes:
        relations: the named base relations the expression's leaves read.
        expr: the algebra expression under test.
        low, high: the core comparison window (symbolic and finite
            results are compared on points whose temporal coordinates
            all lie in ``[low, high]``).
        data_domains: finite universe per data attribute name, used by
            both complement implementations.
        seed: the generator seed that produced the case (``None`` for
            hand-written cases).
        note: free-form provenance (what bug the case reproduces).
    """

    relations: dict[str, GeneralizedRelation]
    expr: ir.PlanNode
    low: int
    high: int
    data_domains: dict[str, list] = field(default_factory=dict)
    seed: int | None = None
    note: str = ""

    # -- structure -----------------------------------------------------

    def result_schema(self) -> Schema:
        """The expression's result schema (raises on ill-formed trees)."""
        return self.expr.schema

    def validate(self) -> None:
        """Raise unless the case is well-formed and replayable."""
        for node in self.expr.walk():
            _check_node(node)
            if isinstance(node, ir.Scan):
                rel = self.relations.get(node.name)
                if rel is None:
                    raise ReproValueError(f"unknown relation {node.name!r}")
                if rel.schema != node.scan_schema:
                    raise ReproValueError(
                        f"scan of {node.name!r} expects {node.scan_schema}, "
                        f"the relation has {rel.schema}"
                    )
        self.result_schema()  # raises on ill-formed trees
        for rel in self.relations.values():
            for dname in rel.schema.data_names:
                if dname not in self.data_domains:
                    raise ReproValueError(
                        f"case is missing a data domain for attribute {dname!r}"
                    )
        if not isinstance(self.low, int) or not isinstance(self.high, int):
            raise ReproValueError("window bounds must be integers")

    def total_tuples(self) -> int:
        """Generalized tuples across every base relation (the size the
        shrinker minimizes)."""
        return sum(len(rel) for rel in self.relations.values())

    def describe(self) -> str:
        """A one-line human summary."""
        rels = ", ".join(
            f"{name}[{len(rel)}]" for name, rel in sorted(self.relations.items())
        )
        seed = f" seed={self.seed}" if self.seed is not None else ""
        return (
            f"window=[{self.low},{self.high}]{seed} relations({rels}) "
            f"expr={expr_text(self.expr)}"
        )

    def with_note(self, note: str) -> Case:
        """A copy of this case with its free-text note replaced."""
        return replace(self, note=note)

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready structural dump (inverse of :func:`case_from_dict`)."""
        return {
            "format": FORMAT,
            "seed": self.seed,
            "note": self.note,
            "window": [self.low, self.high],
            "data_domains": {
                name: list(values)
                for name, values in sorted(self.data_domains.items())
            },
            "relations": {
                name: jsonio.relation_to_dict(rel)
                for name, rel in sorted(self.relations.items())
            },
            "expr": _encode_expr(self.expr),
        }

    def dumps(self) -> str:
        """The case as replayable, indented JSON text."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def save(self, path: str | Path) -> Path:
        """Write the case to ``path`` as indented JSON."""
        path = Path(path)
        path.write_text(self.dumps() + "\n")
        return path


def case_from_dict(payload: dict) -> Case:
    """Rebuild a case from its :meth:`Case.to_dict` form."""
    try:
        if payload.get("format") != FORMAT:
            raise ReproValueError(
                f"unsupported case format {payload.get('format')!r} "
                f"(expected {FORMAT!r})"
            )
        low, high = payload["window"]
        relations = {
            name: jsonio.relation_from_dict(entry)
            for name, entry in payload["relations"].items()
        }
        return Case(
            relations=relations,
            expr=_decode_expr(payload["expr"], relations),
            low=int(low),
            high=int(high),
            data_domains={
                name: list(values)
                for name, values in payload.get("data_domains", {}).items()
            },
            seed=payload.get("seed"),
            note=payload.get("note", ""),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ReproValueError(f"malformed case payload: {exc}") from exc


def load_case(path: str | Path) -> Case:
    """Read a case back from a JSON file."""
    return case_from_dict(json.loads(Path(path).read_text()))


def scan_names(expr: ir.PlanNode) -> set[str]:
    """Names of every relation the expression scans."""
    return {node.name for node in expr.walk() if isinstance(node, ir.Scan)}


def expr_text(expr: ir.PlanNode) -> str:
    """The expression on one line: ``op[detail](child, ...)``."""
    if not expr.children:
        return expr.describe()
    args = ", ".join(expr_text(child) for child in expr.children)
    return f"{expr.describe()}({args})"


# ----------------------------------------------------------------------
# the expression codec
# ----------------------------------------------------------------------

_BINARY = {
    cls.op: cls
    for cls in (ir.Union, ir.Subtract, ir.Join)
}
_NODES = (ir.Scan, ir.Select, ir.Project, ir.Complement, *_BINARY.values())


def _check_node(node: ir.PlanNode) -> None:
    """Reject an IR node a fuzz expression is not built from."""
    theta_join = isinstance(node, ir.Join) and node.condition
    if type(node) not in _NODES or theta_join:
        raise ReproValueError(
            f"fuzz cases cannot hold a {node.describe()} node"
        )


def _encode_expr(node: ir.PlanNode) -> dict:
    _check_node(node)
    if isinstance(node, ir.Scan):
        return {"op": "leaf", "name": node.name}
    out: dict = {"op": node.op}
    if isinstance(node, ir.Select):
        out["condition"] = node.condition
    elif isinstance(node, ir.Project):
        out["names"] = list(node.names)
    keys = ("child",) if len(node.children) == 1 else ("left", "right")
    out.update(zip(keys, map(_encode_expr, node.children)))
    return out


def _decode_expr(
    entry: dict, relations: dict[str, GeneralizedRelation]
) -> ir.PlanNode:
    op = entry["op"]
    if op == "leaf":
        name = str(entry["name"])
        if name not in relations:
            raise ReproValueError(f"unknown relation {name!r}")
        return ir.Scan(name, relations[name].schema)
    if op in _BINARY:
        return _BINARY[op](
            _decode_expr(entry["left"], relations),
            _decode_expr(entry["right"], relations),
        )
    if op not in ("select", "project", "complement"):
        raise ReproValueError(f"unknown expression op {op!r}")
    child = _decode_expr(entry["child"], relations)
    if op == "select":
        return ir.Select(child, str(entry["condition"]))
    if op == "project":
        return ir.Project(child, tuple(str(n) for n in entry["names"]))
    return ir.Complement(child)
