"""Generalized relations and their schemas (Definition 2.3).

A generalized relation is a finite set of generalized tuples sharing one
schema.  Schemas name every attribute and flag it as temporal or data;
the temporal attributes of each tuple line up positionally with the
schema's temporal attributes, likewise data attributes.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property

from repro.core.constraints import Atom, atoms_to_dbm, parse_atoms
from repro.core.errors import SchemaError
from repro.core.lrp import LRP
from repro.core.tuples import GeneralizedTuple


@dataclass(frozen=True)
class Attribute:
    """A named attribute, either temporal (integer-valued) or data."""

    name: str
    temporal: bool = True

    def __str__(self) -> str:
        return f"{self.name}:{'T' if self.temporal else 'D'}"


@dataclass(frozen=True)
class Schema:
    """An ordered list of distinct attributes."""

    attributes: tuple[Attribute, ...]

    def __post_init__(self) -> None:
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate attribute names in schema: {names}")

    @classmethod
    def make(
        cls,
        temporal: Sequence[str] = (),
        data: Sequence[str] = (),
    ) -> Schema:
        """Build a schema with the temporal attributes first, then data."""
        attrs = [Attribute(name, temporal=True) for name in temporal]
        attrs += [Attribute(name, temporal=False) for name in data]
        return cls(attributes=tuple(attrs))

    # Schemas are immutable, so the derived name/arity views are cached
    # on first use (``cached_property`` writes straight into ``__dict__``,
    # which the frozen dataclass permits); ``add`` consults the arities
    # on every insertion.

    @cached_property
    def names(self) -> tuple[str, ...]:
        """All attribute names, in order."""
        return tuple(a.name for a in self.attributes)

    @cached_property
    def temporal_names(self) -> tuple[str, ...]:
        """Names of the temporal attributes, in order."""
        return tuple(a.name for a in self.attributes if a.temporal)

    @cached_property
    def data_names(self) -> tuple[str, ...]:
        """Names of the data attributes, in order."""
        return tuple(a.name for a in self.attributes if not a.temporal)

    @cached_property
    def temporal_arity(self) -> int:
        """Number of temporal attributes."""
        return len(self.temporal_names)

    @cached_property
    def data_arity(self) -> int:
        """Number of data attributes."""
        return len(self.data_names)

    def attribute(self, name: str) -> Attribute:
        """Look up an attribute by name."""
        for attr in self.attributes:
            if attr.name == name:
                return attr
        raise SchemaError(f"no attribute named {name!r} in schema {self}")

    def has(self, name: str) -> bool:
        """Whether the schema contains an attribute with this name."""
        return any(a.name == name for a in self.attributes)

    def temporal_index(self, name: str) -> int:
        """Position of ``name`` among the temporal attributes."""
        for i, attr_name in enumerate(self.temporal_names):
            if attr_name == name:
                return i
        raise SchemaError(f"no temporal attribute named {name!r}")

    def data_index(self, name: str) -> int:
        """Position of ``name`` among the data attributes."""
        for i, attr_name in enumerate(self.data_names):
            if attr_name == name:
                return i
        raise SchemaError(f"no data attribute named {name!r}")

    def point_order(self) -> tuple[tuple[bool, int], ...]:
        """For each attribute: (is_temporal, index within its kind).

        Used to interleave temporal and data components when rendering
        concrete points in schema order.
        """
        t = d = 0
        out = []
        for attr in self.attributes:
            if attr.temporal:
                out.append((True, t))
                t += 1
            else:
                out.append((False, d))
                d += 1
        return tuple(out)

    def __len__(self) -> int:
        return len(self.attributes)

    def __str__(self) -> str:
        return "(" + ", ".join(str(a) for a in self.attributes) + ")"


class GeneralizedRelation:
    """A finite set of generalized tuples over a common schema.

    The tuple list is deduplicated by canonical key on insertion, which
    implements the cheap part of the paper's "eliminate redundancies"
    remark (Section 3.1); deeper subsumption-based simplification lives
    in :mod:`repro.core.simplify`.
    """

    __slots__ = ("schema", "_tuples", "_keys", "_domain")

    def __init__(
        self,
        schema: Schema,
        tuples: Iterable[GeneralizedTuple] = (),
    ) -> None:
        self.schema = schema
        self._tuples: list[GeneralizedTuple] = []
        self._keys: set[tuple] = set()
        # (n, values): the data values of the first n tuples.
        self._domain: tuple[int, frozenset] = (0, frozenset())
        for t in tuples:
            self.add(t)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def empty(cls, schema: Schema) -> GeneralizedRelation:
        """The empty relation over ``schema``."""
        return cls(schema)

    @classmethod
    def universe(cls, schema: Schema) -> GeneralizedRelation:
        """The all-of-Z^k relation; requires a purely temporal schema."""
        if schema.data_arity != 0:
            raise SchemaError(
                "universe relation needs a purely temporal schema; "
                "data attributes have no finite universe"
            )
        free = GeneralizedTuple.make(
            [LRP.make(0, 1) for _ in range(schema.temporal_arity)]
        )
        return cls(schema, [free])

    def add(self, gtuple: GeneralizedTuple) -> None:
        """Insert a tuple (deduplicated by canonical key)."""
        if gtuple.temporal_arity != self.schema.temporal_arity:
            raise SchemaError(
                f"tuple temporal arity {gtuple.temporal_arity} does not "
                f"match schema {self.schema}"
            )
        if gtuple.data_arity != self.schema.data_arity:
            raise SchemaError(
                f"tuple data arity {gtuple.data_arity} does not match "
                f"schema {self.schema}"
            )
        # One hash per key: add it, then see whether the set grew.
        keys = self._keys
        size = len(keys)
        keys.add(gtuple.canonical_key())
        if len(keys) != size:
            self._tuples.append(gtuple)

    def add_tuple(
        self,
        lrps: Sequence[LRP | int | str],
        constraints: str | Sequence[Atom] = "",
        data: Sequence[Hashable] = (),
    ) -> None:
        """Convenience: build and insert a tuple from friendly pieces.

        ``constraints`` may be a string in the paper's syntax (referring
        to the schema's temporal attribute names) or a sequence of parsed
        atoms.
        """
        atoms = (
            parse_atoms(constraints)
            if isinstance(constraints, str)
            else list(constraints)
        )
        dbm = atoms_to_dbm(atoms, self.schema.temporal_names)
        self.add(GeneralizedTuple.make(lrps, data=data, dbm=dbm))

    def copy(self) -> GeneralizedRelation:
        """A shallow, independently mutable copy of this relation.

        The copy holds the same (immutable) generalized tuples but its
        own tuple list and key set, so insertions into either side never
        show through to the other — the primitive the MVCC catalog core
        (:mod:`repro.query.catalog`) uses to freeze committed versions.
        """
        out = GeneralizedRelation.empty(self.schema)
        out._tuples = list(self._tuples)
        out._keys = set(self._keys)
        out._domain = self._domain
        return out

    def appended_since(
        self, older: GeneralizedRelation
    ) -> list[GeneralizedTuple] | None:
        """The tuples appended to ``older`` to make this relation.

        :meth:`add` only appends, so when both share a schema and
        ``older``'s tuple list is an identity prefix of this one's (a
        :meth:`copy` of ``older`` that was only added to), this
        relation is exactly ``older`` plus the returned suffix.  Any
        other pair gives ``None``.
        """
        mine, theirs = self._tuples, older._tuples
        if (
            self.schema != older.schema
            or len(theirs) > len(mine)
            or any(a is not b for a, b in zip(theirs, mine))
        ):
            return None
        return mine[len(theirs):]

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    @property
    def tuples(self) -> tuple[GeneralizedTuple, ...]:
        """The stored generalized tuples."""
        return tuple(self._tuples)

    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[GeneralizedTuple]:
        return iter(self._tuples)

    def __eq__(self, other: object) -> bool:
        """Syntactic equality: same schema and same set of canonical tuples.

        For semantic equality use :func:`repro.core.algebra.equivalent`.
        """
        if not isinstance(other, GeneralizedRelation):
            return NotImplemented
        return self.schema == other.schema and self._keys == other._keys

    def __hash__(self) -> int:
        return hash((self.schema, frozenset(self._keys)))

    # ------------------------------------------------------------------
    # semantics
    # ------------------------------------------------------------------

    def contains(
        self,
        temporal: Sequence[int],
        data: Sequence[Hashable] = (),
    ) -> bool:
        """Whether the concrete (temporal, data) point is in the relation."""
        return any(t.contains(temporal, data) for t in self._tuples)

    def contains_point(self, point: Sequence) -> bool:
        """Membership for a point given in *schema order* (mixed sorts)."""
        temporal, data = self.split_point(point)
        return self.contains(temporal, data)

    def split_point(self, point: Sequence) -> tuple[tuple[int, ...], tuple]:
        """Split a schema-order point into (temporal, data) components."""
        if len(point) != len(self.schema):
            raise SchemaError(
                f"point has {len(point)} components, schema has "
                f"{len(self.schema)}"
            )
        temporal = []
        data = []
        for value, attr in zip(point, self.schema.attributes):
            if attr.temporal:
                temporal.append(value)
            else:
                data.append(value)
        return tuple(temporal), tuple(data)

    def join_point(
        self, temporal: Sequence[int], data: Sequence
    ) -> tuple:
        """Inverse of :meth:`split_point`: interleave into schema order."""
        out = []
        for is_temporal, idx in self.schema.point_order():
            out.append(temporal[idx] if is_temporal else data[idx])
        return tuple(out)

    def enumerate(self, low: int, high: int) -> Iterator[tuple]:
        """Yield concrete points (schema order) with temporal values in
        ``[low, high]``, deduplicated across tuples.

        An inverted horizon (``low > high``) denotes the empty window and
        yields nothing — uniformly, including for zero-arity schemas.
        The same convention holds everywhere a window is taken:
        :meth:`snapshot`, :meth:`FiniteRelation.materialize
        <repro.baseline.finite.FiniteRelation.materialize>`, and
        :func:`repro.storage.csvio.export_window`.
        """
        if low > high:
            return
        seen: set[tuple] = set()
        for gtuple in self._tuples:
            for temporal in gtuple.enumerate(low, high):
                point = self.join_point(temporal, gtuple.data)
                if point not in seen:
                    seen.add(point)
                    yield point

    def snapshot(self, low: int, high: int) -> set[tuple]:
        """The denoted point set restricted to the window, as a set."""
        return set(self.enumerate(low, high))

    def active_data_domain(self) -> frozenset:
        """All data values appearing in any tuple (active-domain semantics).

        Kept with the relation: :meth:`add` only appends, so a call scans
        only the tuples appended since the last one, and :meth:`copy`
        carries what is kept.  The kept pair is replaced in one
        assignment and never mutated, so readers sharing a published
        relation see a consistent domain.
        """
        seen, domain = self._domain
        end = len(self._tuples)
        if seen < end:
            fresh = {value for t in self._tuples[seen:end] for value in t.data}
            if not fresh <= domain:
                domain = domain | fresh
            self._domain = (end, domain)
        return domain

    # ------------------------------------------------------------------
    # algebra (delegating methods; implementations in repro.core.algebra)
    # ------------------------------------------------------------------

    def union(self, other: GeneralizedRelation) -> GeneralizedRelation:
        """Set union (Section 3.1)."""
        from repro.core import algebra

        return algebra.union(self, other)

    def intersect(self, other: GeneralizedRelation) -> GeneralizedRelation:
        """Set intersection (Section 3.2)."""
        from repro.core import algebra

        return algebra.intersect(self, other)

    def subtract(self, other: GeneralizedRelation) -> GeneralizedRelation:
        """Set difference (Section 3.3)."""
        from repro.core import algebra

        return algebra.subtract(self, other)

    def project(self, names: Sequence[str]) -> GeneralizedRelation:
        """Projection onto the named attributes (Section 3.4)."""
        from repro.core import algebra

        return algebra.project(self, names)

    def select(self, condition: str | Sequence[Atom]) -> GeneralizedRelation:
        """Selection by restricted constraints (Section 3.5)."""
        from repro.core import algebra

        return algebra.select(self, condition)

    def product(self, other: GeneralizedRelation) -> GeneralizedRelation:
        """Cross product (Section 3.6)."""
        from repro.core import algebra

        return algebra.product(self, other)

    def join(self, other: GeneralizedRelation) -> GeneralizedRelation:
        """Natural join (Section 3.7)."""
        from repro.core import algebra

        return algebra.join(self, other)

    def complement(self, **kwargs) -> GeneralizedRelation:
        """Complement w.r.t. Z^k (Appendix A.6)."""
        from repro.core import algebra

        return algebra.complement(self, **kwargs)

    def rename(self, mapping: dict[str, str]) -> GeneralizedRelation:
        """Rename attributes."""
        from repro.core import algebra

        return algebra.rename(self, mapping)

    def is_empty(self) -> bool:
        """Decide emptiness (Theorem 3.5)."""
        from repro.core import emptiness

        return emptiness.relation_is_empty(self)

    def simplify(self) -> GeneralizedRelation:
        """Remove empty and subsumed tuples."""
        from repro.core import simplify

        return simplify.simplify_relation(self)

    def __str__(self) -> str:
        header = f"relation{self.schema} with {len(self)} generalized tuple(s)"
        body = "\n".join(f"  {t}" for t in self._tuples)
        return header + ("\n" + body if body else "")

    def __repr__(self) -> str:
        return f"<GeneralizedRelation {self.schema} n={len(self)}>"


def relation(
    temporal: Sequence[str] = (),
    data: Sequence[str] = (),
) -> GeneralizedRelation:
    """Shorthand for an empty relation over a fresh schema."""
    return GeneralizedRelation.empty(Schema.make(temporal, data))
