"""The relation-expression IR: immutable plan nodes over the algebra.

A plan is a tree of frozen dataclasses — one leaf kind per way a
relation can enter a query (a stored relation, a constant relation, the
active data domain) and one operation node per generalized-algebra
operator (select, project, join, union, subtract, complement, rename,
shift).  Intersection and cross product are joins: of two same-schema
relations and of two with no shared name.  The planner
(:mod:`repro.query.planner`) builds plans from the query AST, the
rewrite passes (:mod:`repro.plan.rewrite`) transform them, and an
engine (:mod:`repro.plan.engine`) executes them.

Design invariants:

* **Immutability** — nodes are frozen and hashable; rewrites build new
  trees and never mutate, so plans can be shared, interned and cached.
* **Cheap structure** — ``children``, the subtree size and the
  ``kinds`` bit set are fixed at construction, ``key()`` and
  ``schema`` are cached, and each class's field layout is read once,
  so rewriting a plan never re-inspects dataclass fields.
* **Schema inference** — ``node.schema`` is computed (and cached)
  structurally, mirroring :mod:`repro.core.algebra`'s schema rules
  exactly; the planner and the rewrite passes never need to execute
  anything to know a subtree's schema.
* **Provenance labels** — ``node.labels`` carries the ``query.*``
  span names of the calculus nodes a plan node implements, so EXPLAIN
  shows where each node came from and EXPLAIN ANALYZE can attribute
  runtime counters back to query syntax.
* **Slots** — a query planned once per shape
  (``docs/planner.md``) carries each lifted literal as a *slot
  constant* (:func:`slot_constant`) wherever the literal's value would
  appear: selection conditions, ``select-data`` values, singleton
  literals and labels.  :func:`bind_value` substitutes the call's
  values back.
"""

from __future__ import annotations

import re
from collections.abc import Hashable, Iterator, Mapping
from dataclasses import dataclass, field, fields
from functools import cache, cached_property, lru_cache
from itertools import count
from typing import Any, ClassVar, NamedTuple

from repro.core.constraints import Atom, parse_atoms
from repro.core.errors import SchemaError
from repro.core.relations import Attribute, GeneralizedRelation, Schema

#: ``(operator, detail)`` provenance pairs; outermost first.
Labels = tuple[tuple[str, str], ...]


class Unbuilt(NamedTuple):
    """An executed plan's annotation of a join that was not materialized.

    The engine decides a projection keeping no temporal attribute over
    a join without building the whole join (see
    :class:`~repro.plan.engine.NativeEngine`); ``candidates`` is the
    number of candidate tuples it built before the answer was known.
    """

    candidates: int

    def __str__(self) -> str:
        return f"not materialized, {self.candidates} candidate(s) built"


class Boxed(NamedTuple):
    """An executed plan's annotation of a complement answered in a box.

    The engine answers a complement input of a join as the subtraction
    of its child from the smallest box around the join partner's points
    (see :class:`~repro.plan.engine.NativeEngine`); ``tuples`` is the
    size of that difference and ``box`` the box as text.
    """

    tuples: int
    box: str

    def __str__(self) -> str:
        return f"{self.tuples} tuple(s) within box {self.box}"


_KIND_BITS = count()


@dataclass(frozen=True)
class PlanNode:
    """Base class for relation-expression plan nodes.

    Every node is a frozen dataclass: structural equality and hashing
    come from the fields, ``schema`` is inferred (and cached) from the
    children, and ``labels`` records which query-AST nodes this plan
    node implements (empty for nodes introduced by lowering or by a
    rewrite pass).
    """

    #: Operator name, e.g. ``"join"``; set per subclass.
    op: ClassVar[str] = "?"

    labels: Labels = field(default=(), kw_only=True)

    #: One bit per node class; :attr:`kinds` ORs them over a subtree.
    kind: ClassVar[int] = 0

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls.kind = 1 << next(_KIND_BITS)

    # -- structure -----------------------------------------------------

    # Derived at construction (``__post_init__``); nodes are frozen, so
    # they never go stale.  ``children`` lists the child plan nodes left
    # to right; ``kinds`` ORs the ``kind`` bits of the whole subtree.
    children: tuple[PlanNode, ...] = field(init=False, repr=False, compare=False)
    kinds: int = field(init=False, repr=False, compare=False)
    _size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        state = self.__dict__
        children = tuple([state[name] for name in _layout(type(self)).children])
        size = 1
        kinds = self.kind
        for child in children:
            size += child._size
            kinds |= child.kinds
        state["children"] = children
        state["_size"] = size
        state["kinds"] = kinds

    def replace_children(self, children: tuple[PlanNode, ...]) -> PlanNode:
        """Rebuild this node with replacement children (same arity)."""
        names = _layout(type(self)).children
        if len(names) != len(children):
            raise SchemaError(
                f"{type(self).__name__} takes {len(names)} children, "
                f"got {len(children)}"
            )
        return self._rebuild(dict(zip(names, children)))

    def _rebuild(self, changes: dict[str, Any]) -> PlanNode:
        """This node with some constructor arguments replaced.

        ``dataclasses.replace`` without its per-call field scan.
        """
        state = self.__dict__
        args = {name: state[name] for name in _layout(type(self)).init}
        args.update(changes)
        return type(self)(**args)

    def walk(self) -> Iterator[PlanNode]:
        """Yield this node and every descendant, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def size(self) -> int:
        """Total node count of the subtree."""
        return self._size

    @cached_property
    def shared(self) -> frozenset[int]:
        """Ids of the nodes this plan reaches along more than one path
        (``dedup-subtrees`` interns equal subtrees to one object)."""
        seen: set[int] = set()
        shared: set[int] = set()
        stack: list[PlanNode] = [self]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                shared.add(id(node))
            else:
                seen.add(id(node))
                stack.extend(node.children)
        return frozenset(shared)

    # -- provenance labels ---------------------------------------------

    def with_labels(self, labels: Labels) -> PlanNode:
        """This node with ``labels`` replacing the current labels."""
        if labels == self.labels:
            return self
        return self._rebuild({"labels": labels})

    def add_label(self, operator: str, detail: str = "") -> PlanNode:
        """Prepend one provenance label (it becomes the outermost span)."""
        return self.with_labels(((operator, detail),) + self.labels)

    # -- slots ---------------------------------------------------------

    def bind(
        self,
        values: tuple,
        children: tuple[PlanNode, ...],
        fields: tuple[str, ...],
    ) -> PlanNode:
        """This node over ``children``, ``values`` bound into ``fields``.

        ``fields`` names the parameters (and ``labels``) that hold a
        slot; :func:`bind_value` binds each.
        """
        changes = dict(zip(_layout(type(self)).children, children))
        state = self.__dict__
        for name in fields:
            changes[name] = bind_value(state[name], values)
        return self._rebuild(changes)

    # -- schema inference ----------------------------------------------

    @cached_property
    def schema(self) -> Schema:
        """The result schema, inferred structurally (cached)."""
        return self._infer_schema()

    def _infer_schema(self) -> Schema:
        raise NotImplementedError  # pragma: no cover - abstract

    # -- identity ------------------------------------------------------

    def key(self) -> tuple:
        """Structural identity ignoring labels (for interning/CSE).

        Two nodes with the same key compute the same relation; their
        provenance labels may differ.  Cached per node.
        """
        return self._key

    @cached_property
    def _key(self) -> tuple:
        parts: list[Any] = [self.op]
        for name, is_child in _layout(type(self)).keyed:
            value = getattr(self, name)
            parts.append(value.key() if is_child else value)
        return tuple(parts)

    def params(self) -> tuple:
        """The non-child fields of :meth:`key`: this node's parameters."""
        state = self.__dict__
        return tuple([state[name] for name in _layout(type(self)).params])

    # -- rendering -----------------------------------------------------

    def detail(self) -> str:
        """One-line parameter text for rendering (may be empty)."""
        return ""

    def describe(self) -> str:
        """``op[detail]`` — one node as text."""
        detail = self.detail()
        return f"{self.op}[{detail}]" if detail else self.op

    def render(
        self,
        indent: int = 0,
        sizes: Mapping[int, int | Unbuilt | Boxed] | None = None,
    ) -> list[str]:
        """The subtree as indented text lines.

        ``sizes`` maps node ids to observed output tuple counts (an
        executed plan's annotations); a sized node ends its line with
        ``-> N tuple(s)``, an :class:`Unbuilt` join with
        ``-> not materialized, N candidate(s) built`` and a
        :class:`Boxed` complement with ``-> N tuple(s) within box ...``.
        """
        pad = "  " * indent
        origin = ""
        if self.labels:
            origin = "  ← " + ", ".join(
                op if not detail else f"{op}: {detail}"
                for op, detail in self.labels
            )
        suffix = ""
        if sizes is not None and id(self) in sizes:
            size = sizes[id(self)]
            if isinstance(size, int):
                suffix = f"  -> {size} tuple(s)"
            else:
                suffix = f"  -> {size}"
        lines = [f"{pad}{self.describe()}  :: {self.schema}{origin}{suffix}"]
        for child in self.children:
            lines.extend(child.render(indent + 1, sizes))
        return lines

    def to_dict(
        self, sizes: Mapping[int, int | Unbuilt | Boxed] | None = None
    ) -> dict[str, Any]:
        """A JSON-ready structural dump of the subtree.

        ``sizes`` as in :meth:`render`; a sized node gets ``out_tuples``,
        an :class:`Unbuilt` join ``materialized: false`` and
        ``candidates_built``, and a :class:`Boxed` complement
        ``out_tuples`` and ``box``.
        """
        out: dict[str, Any] = {"op": self.op}
        detail = self.detail()
        if detail:
            out["detail"] = detail
        out["schema"] = str(self.schema)
        if self.labels:
            out["labels"] = [list(pair) for pair in self.labels]
        if sizes is not None and id(self) in sizes:
            size = sizes[id(self)]
            if isinstance(size, Unbuilt):
                out["materialized"] = False
                out["candidates_built"] = size.candidates
            elif isinstance(size, Boxed):
                out["out_tuples"] = size.tuples
                out["box"] = size.box
            else:
                out["out_tuples"] = size
        if self.children:
            out["children"] = [child.to_dict(sizes) for child in self.children]
        return out

    def __str__(self) -> str:
        return "\n".join(self.render())


def _child(**extra) -> Any:
    """A dataclass field marking a child plan node."""
    return field(metadata={"child": True}, **extra)


class _Layout(NamedTuple):
    """The field layout of one node class (see :func:`_layout`)."""

    #: Child field names, left to right.
    children: tuple[str, ...]
    #: Fields of the structural key, as ``(name, is_child)``.
    keyed: tuple[tuple[str, bool], ...]
    #: The non-child fields of the key.
    params: tuple[str, ...]
    #: Constructor arguments.
    init: tuple[str, ...]


@cache
def _layout(cls: type) -> _Layout:
    """The field layout of a node class, computed once per class.

    Walking, rebuilding and keying plans read this instead of
    re-inspecting the dataclass fields on every visit.
    """
    every = fields(cls)
    keyed = tuple(
        (f.name, bool(f.metadata.get("child")))
        for f in every
        if f.name != "labels" and f.compare
    )
    return _Layout(
        children=tuple(f.name for f in every if f.metadata.get("child")),
        keyed=keyed,
        params=tuple(name for name, is_child in keyed if not is_child),
        init=tuple(f.name for f in every if f.init),
    )


@lru_cache(maxsize=4096)
def condition_atoms(condition: str) -> tuple[Atom, ...]:
    """The parsed atoms of a selection condition (cached by text)."""
    return tuple(parse_atoms(condition))


def _check_condition(schema: Schema, condition: str) -> None:
    """Reject a condition naming anything but ``schema``'s temporal
    attributes."""
    temporal = set(schema.temporal_names)
    for atom in condition_atoms(condition):
        names = [atom.left]
        right = getattr(atom, "right", None)
        if right is not None:
            names.append(right)
        for name in names:
            if name not in temporal:
                raise SchemaError(
                    f"selection references non-temporal or unknown "
                    f"attribute {name!r}"
                )


# ----------------------------------------------------------------------
# slots
# ----------------------------------------------------------------------

#: Slot ``i`` is planned as the integer ``(i + 1) * SLOT_BASE``.
SLOT_BASE = 1 << 48
#: A query's literals are lifted only when every integer it holds stays
#: below this magnitude, so lowering's offset arithmetic on a slot
#: constant (``t + 5 <= k`` plans ``t <= k - 5``) stays within half a
#: ``SLOT_BASE`` of it and no other planned integer comes near one.
LIFT_LIMIT = 1 << 40
_SLOT_MIN = SLOT_BASE >> 1
#: A slot constant as it appears in condition and label text.
_SLOT_TEXT = re.compile(r"(?<![\w.])\d{15,}")


def slot_constant(index: int) -> int:
    """The integer that stands for slot ``index`` in a planned shape."""
    return (index + 1) * SLOT_BASE


def bind_value(value: Any, values: tuple) -> Any:
    """``value`` with every slot constant in it replaced by its binding.

    ``values[i]`` binds slot ``i``; a slot constant shifted by an
    offset binds to the value plus that offset.  Text (a condition or
    a label) gets each slot rendered as the literal the query held
    (``repr``); tuples are bound element-wise; anything else passes
    through.
    """
    if type(value) is int:
        if value < _SLOT_MIN:
            return value
        index = (value + _SLOT_MIN) // SLOT_BASE - 1
        delta = value - slot_constant(index)
        bound = values[index]
        return bound + delta if delta else bound
    if type(value) is str:
        return _SLOT_TEXT.sub(
            lambda m: repr(bind_value(int(m.group()), values)), value
        )
    if type(value) is tuple:
        return tuple([bind_value(item, values) for item in value])
    return value


def holds_slot(value: Any) -> bool:
    """Whether :func:`bind_value` would change ``value`` for some binding."""
    if type(value) is int:
        return value >= _SLOT_MIN
    if type(value) is str:
        return _SLOT_TEXT.search(value) is not None
    if type(value) is tuple:
        return any(holds_slot(item) for item in value)
    return False


# ----------------------------------------------------------------------
# leaves
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Scan(PlanNode):
    """A stored relation, looked up by name at execution time."""

    op: ClassVar[str] = "scan"

    name: str
    scan_schema: Schema

    def _infer_schema(self) -> Schema:
        return self.scan_schema

    def detail(self) -> str:
        return self.name


@dataclass(frozen=True)
class Literal(PlanNode):
    """A constant relation, materialized at plan time.

    ``token`` is the value's structural identity (the relation itself
    is excluded from equality/hashing): ``("truth", bool)`` for the
    0-ary truth values, ``("universe", names...)`` / ``("empty",
    names...)`` for per-variable universes and contradictions, and
    ``("singleton", name, value[, "temporal"])`` for one-value data
    (or one-point temporal) relations.
    """

    op: ClassVar[str] = "literal"

    token: tuple[Hashable, ...]
    relation: GeneralizedRelation = field(compare=False, repr=False)

    def _infer_schema(self) -> Schema:
        return self.relation.schema

    def bind(
        self,
        values: tuple,
        children: tuple[PlanNode, ...],
        fields: tuple[str, ...],
    ) -> PlanNode:
        if "token" not in fields or self.token[0] != "singleton":
            return super().bind(values, children, fields)
        _kind, name, value, *temporal = bind_value(self.token, values)
        literal = singleton_literal(name, value, temporal=bool(temporal))
        return literal.with_labels(bind_value(self.labels, values))

    def detail(self) -> str:
        kind = self.token[0]
        rest = self.token[1:]
        if kind == "truth":
            return "⊤" if rest[0] else "⊥"
        return f"{kind}({', '.join(repr(p) for p in rest)})"


@dataclass(frozen=True)
class DataDomain(PlanNode):
    """The active data domain as a unary data relation (built at run time)."""

    op: ClassVar[str] = "data-domain"

    name: str

    def _infer_schema(self) -> Schema:
        return Schema.make(data=[self.name])

    def detail(self) -> str:
        return self.name


@dataclass(frozen=True)
class DataDiag(PlanNode):
    """The diagonal ``{(v, v)}`` over the active data domain."""

    op: ClassVar[str] = "data-diag"

    left: str
    right: str

    def _infer_schema(self) -> Schema:
        return Schema.make(data=sorted([self.left, self.right]))

    def detail(self) -> str:
        return f"{self.left} = {self.right}"


# ----------------------------------------------------------------------
# unary operations
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Guard(PlanNode):
    """Pass the child through iff the active data domain is nonempty.

    Implements the vacuous data-sort quantifier: ``EXISTS d. φ`` with
    ``d`` not free in ``φ`` is ``φ`` when the domain has a witness and
    empty otherwise — a runtime fact, so it stays a plan node rather
    than folding away.
    """

    op: ClassVar[str] = "guard"

    child: PlanNode = _child()

    def _infer_schema(self) -> Schema:
        return self.child.schema

    def detail(self) -> str:
        return "data domain nonempty"


@dataclass(frozen=True)
class Select(PlanNode):
    """Selection by a restricted-constraint condition string."""

    op: ClassVar[str] = "select"

    child: PlanNode = _child()
    condition: str = ""

    def _infer_schema(self) -> Schema:
        schema = self.child.schema
        _check_condition(schema, self.condition)
        return schema

    def detail(self) -> str:
        return self.condition


@dataclass(frozen=True)
class SelectData(PlanNode):
    """Selection of one data attribute equal to a constant."""

    op: ClassVar[str] = "select-data"

    child: PlanNode = _child()
    name: str = ""
    value: Hashable = None

    def _infer_schema(self) -> Schema:
        schema = self.child.schema
        if self.name not in schema.data_names:
            raise SchemaError(
                f"select-data references non-data attribute {self.name!r}"
            )
        return schema

    def detail(self) -> str:
        return f"{self.name} = {self.value!r}"


@dataclass(frozen=True)
class SelectDataEqual(PlanNode):
    """Selection of two data attributes being equal."""

    op: ClassVar[str] = "select-data-eq"

    child: PlanNode = _child()
    left: str = ""
    right: str = ""

    def _infer_schema(self) -> Schema:
        schema = self.child.schema
        for name in (self.left, self.right):
            if name not in schema.data_names:
                raise SchemaError(
                    f"select-data-eq references non-data attribute {name!r}"
                )
        return schema

    def detail(self) -> str:
        return f"{self.left} = {self.right}"


@dataclass(frozen=True)
class Project(PlanNode):
    """Projection onto named attributes, in the given order.

    The consumer-facing normalization point: :func:`algebra.project`
    normalizes tuples, so the rewrite passes merge projection chains
    (normal-form deferral) and push projections toward leaves.
    """

    op: ClassVar[str] = "project"

    child: PlanNode = _child()
    names: tuple[str, ...] = ()

    def _infer_schema(self) -> Schema:
        schema = self.child.schema
        return Schema(tuple(schema.attribute(name) for name in self.names))

    def detail(self) -> str:
        return ", ".join(self.names)


@dataclass(frozen=True)
class Rename(PlanNode):
    """Attribute renaming; ``mapping`` is ``((old, new), ...)``."""

    op: ClassVar[str] = "rename"

    child: PlanNode = _child()
    mapping: tuple[tuple[str, str], ...] = ()

    def _infer_schema(self) -> Schema:
        table = dict(self.mapping)
        schema = self.child.schema
        return Schema(
            tuple(
                Attribute(table[attr.name], attr.temporal)
                if attr.name in table
                else attr
                for attr in schema.attributes
            )
        )

    def detail(self) -> str:
        return ", ".join(f"{old}→{new}" for old, new in self.mapping)


@dataclass(frozen=True)
class Shift(PlanNode):
    """Shift one temporal column by a constant offset."""

    op: ClassVar[str] = "shift"

    child: PlanNode = _child()
    name: str = ""
    delta: int = 0

    def _infer_schema(self) -> Schema:
        return self.child.schema

    def detail(self) -> str:
        sign = "+" if self.delta >= 0 else "-"
        return f"{self.name} {sign} {abs(self.delta)}"


@dataclass(frozen=True)
class Complement(PlanNode):
    """Complement w.r.t. ``Z^k`` (finite domains on data attributes).

    A rewrite barrier: selections and projections never push through a
    complement (``σ(¬A) ≠ ¬σ(A)``).
    """

    op: ClassVar[str] = "complement"

    child: PlanNode = _child()

    def _infer_schema(self) -> Schema:
        return self.child.schema


@dataclass(frozen=True)
class Optimize(PlanNode):
    """Optimize a linear objective over the child relation.

    The root node a ``MINIMIZE``/``MAXIMIZE`` directive lowers to:
    ``sense`` is ``"min"`` or ``"max"``, the objective is the temporal
    attribute ``name`` or the difference ``name - minus``.  Relational
    semantics: the argopt restriction of the child (the tuple attaining
    the optimum, empty when the child is empty or the objective is
    unbounded).  The scalar :class:`~repro.optimize.core.
    OptimizationResult` is reported out of band through the execution
    context (``ctx.optimum``), because engines return relations.

    Like :class:`Complement`, a rewrite barrier — nothing pushes
    through it — but rewrite passes still fire on the child.
    """

    op: ClassVar[str] = "optimize"

    child: PlanNode = _child()
    sense: str = "min"
    name: str = ""
    minus: str | None = None

    def _infer_schema(self) -> Schema:
        schema = self.child.schema
        for attr in (self.name,) if self.minus is None else (
            self.name,
            self.minus,
        ):
            if attr not in schema.temporal_names:
                raise SchemaError(
                    f"objective attribute {attr!r} is not a temporal "
                    f"attribute of {schema}"
                )
        return schema

    def detail(self) -> str:
        objective = (
            self.name if self.minus is None else f"{self.name} - {self.minus}"
        )
        return f"{self.sense} {objective}"


# ----------------------------------------------------------------------
# binary operations
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _Binary(PlanNode):
    """Base for binary operation nodes."""

    left: PlanNode = _child()
    right: PlanNode = _child()


class _SetOp(_Binary):
    """union / subtract: both sides share one schema."""

    def _infer_schema(self) -> Schema:
        s1, s2 = self.left.schema, self.right.schema
        if s1 != s2:
            raise SchemaError(
                f"{self.op} operands have different schemas: {s1} vs {s2}"
            )
        return s1


@dataclass(frozen=True)
class Union(_SetOp):
    """Set union of two same-schema relations."""

    op: ClassVar[str] = "union"


@dataclass(frozen=True)
class Subtract(_SetOp):
    """Set difference of two same-schema relations."""

    op: ClassVar[str] = "subtract"


@dataclass(frozen=True)
class Join(_Binary):
    """Natural join: left schema plus right-only attributes.

    A nonempty ``condition`` makes it a theta-join,
    ``σ condition(left ⋈ right)`` evaluated inside the join
    (:func:`repro.core.algebra.join`).  Only the ``window-joins``
    rewrite step sets it; an unconditioned join's key and rendering
    carry no condition.
    """

    op: ClassVar[str] = "join"

    condition: str = ""

    def _infer_schema(self) -> Schema:
        s1, s2 = self.left.schema, self.right.schema
        extra = {attr.name: attr for attr in s2.attributes}
        for attr in s1.attributes:
            shared = extra.pop(attr.name, None)
            if shared is not None and shared.temporal != attr.temporal:
                raise SchemaError(
                    f"join attribute {attr.name!r} is temporal on one side "
                    "and data on the other"
                )
        schema = Schema(s1.attributes + tuple(extra.values()))
        if self.condition:
            _check_condition(schema, self.condition)
        return schema

    @cached_property
    def _key(self) -> tuple:
        key = (self.op, self.left.key(), self.right.key())
        return (*key, self.condition) if self.condition else key

    def detail(self) -> str:
        return self.condition


# ----------------------------------------------------------------------
# literal constructors
# ----------------------------------------------------------------------


def truth_literal(value: bool) -> Literal:
    """The 0-ary truth (one empty tuple) or falsity (no tuples) literal."""
    rel = GeneralizedRelation.empty(Schema(()))
    if value:
        from repro.core.tuples import GeneralizedTuple

        rel.add(GeneralizedTuple.make([]))
    return Literal(token=("truth", value), relation=rel)


def universe_literal(names: list[str]) -> Literal:
    """The universe ``Z^k`` over the given temporal attribute names."""
    schema = Schema.make(temporal=names)
    return Literal(
        token=("universe",) + tuple(names),
        relation=GeneralizedRelation.universe(schema),
    )


def empty_literal(schema: Schema) -> Literal:
    """The empty relation over an arbitrary schema."""
    return Literal(
        token=("empty",) + tuple(schema.names),
        relation=GeneralizedRelation.empty(schema),
    )


def singleton_literal(
    name: str, value: Hashable, *, temporal: bool = False
) -> Literal:
    """A one-tuple unary data relation ``{(value)}``; with ``temporal``,
    the point ``LRP.point(value)`` under an unconstrained DBM."""
    from repro.core.tuples import GeneralizedTuple

    if temporal:
        rel = GeneralizedRelation.empty(Schema.make(temporal=[name]))
        rel.add(GeneralizedTuple.make([value]))
        return Literal(token=("singleton", name, value, "temporal"), relation=rel)
    rel = GeneralizedRelation.empty(Schema.make(data=[name]))
    rel.add(GeneralizedTuple.make([], data=(value,)))
    return Literal(token=("singleton", name, value), relation=rel)
