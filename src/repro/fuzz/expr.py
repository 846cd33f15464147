"""Algebra-expression trees for the differential fuzzing harness.

An :class:`Expr` is a small AST over the generalized algebra's
operations — the shapes the fuzzer generates, executes (algebra,
rewritten plan, finite oracle) and shrinks.  Nodes are immutable,
JSON round-trippable (for the regression corpus) and schema-checked:
:meth:`Expr.schema` computes the result schema against an environment
of leaf schemas, raising :class:`~repro.core.errors.SchemaError` for
ill-formed trees exactly where the algebra itself would.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass

from repro.core.constraints import VarVarAtom, parse_atoms
from repro.core.errors import ReproValueError, SchemaError
from repro.core.relations import Schema


@dataclass(frozen=True)
class Expr:
    """Base class for algebra-expression nodes."""

    @property
    def children(self) -> tuple[Expr, ...]:
        """The child expressions, left to right."""
        return ()

    def with_children(self, children: Sequence[Expr]) -> Expr:
        """Rebuild this node with replacement children (same arity)."""
        if children:
            raise ReproValueError(f"{type(self).__name__} takes no children")
        return self

    def walk(self) -> Iterator[Expr]:
        """Yield this node and every descendant, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def size(self) -> int:
        """Total node count."""
        return sum(1 for _ in self.walk())

    def leaf_names(self) -> set[str]:
        """Names of every relation referenced by the tree."""
        return {n.name for n in self.walk() if isinstance(n, Leaf)}

    def schema(self, env: Mapping[str, Schema]) -> Schema:
        """The result schema against leaf schemas ``env`` (or raise)."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        """A JSON-ready structural dump (inverse of :func:`expr_from_dict`)."""
        raise NotImplementedError


@dataclass(frozen=True)
class Leaf(Expr):
    """A named base relation."""

    name: str

    def schema(self, env: Mapping[str, Schema]) -> Schema:
        if self.name not in env:
            raise SchemaError(f"unknown relation {self.name!r}")
        return env[self.name]

    def to_dict(self) -> dict:
        return {"op": "leaf", "name": self.name}

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class _Binary(Expr):
    left: Expr
    right: Expr

    op_name = "?"

    @property
    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[Expr]) -> Expr:
        left, right = children
        return type(self)(left, right)

    def to_dict(self) -> dict:
        return {
            "op": self.op_name,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }

    def __str__(self) -> str:
        return f"{self.op_name}({self.left}, {self.right})"


class _SetOp(_Binary):
    """union / intersect / subtract: both sides share one schema."""

    def schema(self, env: Mapping[str, Schema]) -> Schema:
        s1 = self.left.schema(env)
        s2 = self.right.schema(env)
        if s1 != s2:
            raise SchemaError(
                f"{self.op_name} operands have different schemas: {s1} vs {s2}"
            )
        return s1


class Union(_SetOp):
    op_name = "union"


class Intersect(_SetOp):
    op_name = "intersect"


class Subtract(_SetOp):
    op_name = "subtract"


class Join(_Binary):
    """Natural join: left schema plus right-only attributes."""

    op_name = "join"

    def schema(self, env: Mapping[str, Schema]) -> Schema:
        s1 = self.left.schema(env)
        s2 = self.right.schema(env)
        for attr in s1.attributes:
            if s2.has(attr.name) and s2.attribute(attr.name).temporal != attr.temporal:
                raise SchemaError(
                    f"join attribute {attr.name!r} is temporal on one side "
                    "and data on the other"
                )
        extra = tuple(a for a in s2.attributes if not s1.has(a.name))
        return Schema(s1.attributes + extra)


class Product(_Binary):
    """Cross product: attribute names must be disjoint."""

    op_name = "product"

    def schema(self, env: Mapping[str, Schema]) -> Schema:
        s1 = self.left.schema(env)
        s2 = self.right.schema(env)
        overlap = set(s1.names) & set(s2.names)
        if overlap:
            raise SchemaError(
                f"product operands share attribute names: {sorted(overlap)}"
            )
        return Schema(s1.attributes + s2.attributes)


@dataclass(frozen=True)
class Select(Expr):
    """Selection by a restricted-constraint condition string."""

    child: Expr
    condition: str

    @property
    def children(self) -> tuple[Expr, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[Expr]) -> Expr:
        (child,) = children
        return Select(child, self.condition)

    def schema(self, env: Mapping[str, Schema]) -> Schema:
        schema = self.child.schema(env)
        temporal = set(schema.temporal_names)
        for atom in parse_atoms(self.condition):
            if atom.left not in temporal:
                raise SchemaError(
                    f"selection atom {atom} references non-temporal or "
                    f"unknown attribute {atom.left!r}"
                )
            if isinstance(atom, VarVarAtom) and atom.right not in temporal:
                raise SchemaError(
                    f"selection atom {atom} references non-temporal or "
                    f"unknown attribute {atom.right!r}"
                )
        return schema

    def to_dict(self) -> dict:
        return {
            "op": "select",
            "child": self.child.to_dict(),
            "condition": self.condition,
        }

    def __str__(self) -> str:
        return f"select[{self.condition}]({self.child})"


@dataclass(frozen=True)
class Project(Expr):
    """Projection onto named attributes, in the given order."""

    child: Expr
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "names", tuple(self.names))

    @property
    def children(self) -> tuple[Expr, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[Expr]) -> Expr:
        (child,) = children
        return Project(child, self.names)

    def schema(self, env: Mapping[str, Schema]) -> Schema:
        schema = self.child.schema(env)
        if len(set(self.names)) != len(self.names):
            raise SchemaError("projection attribute list has duplicates")
        for name in self.names:
            if not schema.has(name):
                raise SchemaError(
                    f"cannot project onto unknown attribute {name!r}"
                )
        return Schema(tuple(schema.attribute(name) for name in self.names))

    def to_dict(self) -> dict:
        return {
            "op": "project",
            "child": self.child.to_dict(),
            "names": list(self.names),
        }

    def __str__(self) -> str:
        return f"project[{', '.join(self.names)}]({self.child})"


@dataclass(frozen=True)
class Complement(Expr):
    """Complement w.r.t. Z^k on the temporal sort (finite data domains)."""

    child: Expr

    @property
    def children(self) -> tuple[Expr, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[Expr]) -> Expr:
        (child,) = children
        return Complement(child)

    def schema(self, env: Mapping[str, Schema]) -> Schema:
        return self.child.schema(env)

    def to_dict(self) -> dict:
        return {"op": "complement", "child": self.child.to_dict()}

    def __str__(self) -> str:
        return f"complement({self.child})"


_BINARY_OPS = {
    "union": Union,
    "intersect": Intersect,
    "subtract": Subtract,
    "join": Join,
    "product": Product,
}


def expr_from_dict(payload: dict) -> Expr:
    """Rebuild an expression from its :meth:`Expr.to_dict` form."""
    try:
        op = payload["op"]
        if op == "leaf":
            return Leaf(str(payload["name"]))
        if op in _BINARY_OPS:
            return _BINARY_OPS[op](
                expr_from_dict(payload["left"]),
                expr_from_dict(payload["right"]),
            )
        if op == "select":
            return Select(
                expr_from_dict(payload["child"]), str(payload["condition"])
            )
        if op == "project":
            return Project(
                expr_from_dict(payload["child"]),
                tuple(str(n) for n in payload["names"]),
            )
        if op == "complement":
            return Complement(expr_from_dict(payload["child"]))
    except (KeyError, TypeError) as exc:
        raise ReproValueError(f"malformed expression payload: {exc}") from exc
    raise ReproValueError(f"unknown expression op {payload.get('op')!r}")
