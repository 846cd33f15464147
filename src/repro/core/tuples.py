"""Generalized tuples (Definition 2.2 of the paper).

A generalized tuple of temporal arity ``k`` and data arity ``l`` pairs a
vector of linear repeating points with a conjunction of restricted
constraints on the temporal attributes, plus ordinary data values.  It
denotes the (possibly infinite) set of concrete tuples obtained by
letting each repetition variable range over Z subject to the constraints.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator, Sequence
from dataclasses import dataclass, field

from repro.core.dbm import DBM
from repro.core.lrp import LRP
from repro.core.errors import ReproValueError


@dataclass
class GeneralizedTuple:
    """One generalized tuple: lrps + constraints + data values.

    ``lrps[i]`` is the value set of the i-th temporal attribute and the
    :class:`DBM` constrains the temporal attributes positionally (variable
    ``i`` of the DBM is temporal attribute ``i``).  ``data`` holds the
    values of the data attributes, in schema order.
    """

    lrps: tuple[LRP, ...]
    dbm: DBM
    data: tuple[Hashable, ...] = ()
    _key: tuple | None = field(default=None, repr=False, compare=False)
    _skey: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.lrps = tuple(self.lrps)
        self.data = tuple(self.data)
        if self.dbm.size != len(self.lrps):
            raise ReproValueError(
                f"DBM has {self.dbm.size} variables but tuple has "
                f"{len(self.lrps)} temporal attributes"
            )

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def make(
        cls,
        lrps: Sequence[LRP | int | str],
        data: Sequence[Hashable] = (),
        dbm: DBM | None = None,
    ) -> GeneralizedTuple:
        """Build a tuple, coercing ints to singleton lrps and parsing strings."""
        coerced: list[LRP] = []
        for item in lrps:
            if isinstance(item, LRP):
                coerced.append(item)
            elif isinstance(item, int):
                coerced.append(LRP.point(item))
            else:
                coerced.append(LRP.parse(item))
        if dbm is None:
            dbm = DBM(len(coerced))
        return cls(lrps=tuple(coerced), dbm=dbm, data=tuple(data))

    # ------------------------------------------------------------------
    # basic structure
    # ------------------------------------------------------------------

    @property
    def temporal_arity(self) -> int:
        """Number of temporal attributes."""
        return len(self.lrps)

    @property
    def data_arity(self) -> int:
        """Number of data attributes."""
        return len(self.data)

    def free_extension(self) -> GeneralizedTuple:
        """The tuple without its constraints (Definition 3.1)."""
        return GeneralizedTuple(
            lrps=self.lrps, dbm=DBM(len(self.lrps)), data=self.data
        )

    def has_constraints(self) -> bool:
        """Whether any non-trivial constraint is present."""
        return any(True for _ in self.dbm.iter_bounds())

    def canonical_key(self) -> tuple:
        """A hashable key: equal keys imply equal denoted point sets.

        The key combines canonical lrps, the DBM closure, and the data
        values.  (The converse does not hold: semantically equal tuples
        may differ syntactically, e.g. via constraint slack that only
        normalization removes.)
        """
        if self._key is None:
            self._key = (self.lrps, self.dbm.canonical_key(), self.data)
        return self._key

    def closure(self) -> tuple[tuple[int | None, ...], ...] | None:
        """The closed bound rows of the DBM, or ``None`` if unsatisfiable.

        Read off the :meth:`canonical_key` memo, which ``relation.add``
        fills on insert: a stored tuple's closure costs no closing.
        Row ``i`` column ``j`` is the tightest bound on ``X_i - X_j``
        with row/column 0 the zero variable, as in the DBM matrix.
        """
        rows = self.canonical_key()[1]
        return None if rows[0] == "UNSAT" else rows

    def semantic_key(self) -> tuple:
        """A hashable key refining :meth:`canonical_key` semantically.

        Equal keys imply equal denoted point sets, and the key collapses
        two syntactic disguises the algebra's decompositions produce:

        * a singleton lrp versus an equality constraint pinning the
          attribute to the same value (the pin is folded into the
          closure either way);
        * a periodic lrp whose constraints force a single value versus
          that value as a singleton lrp (the forced value is folded into
          the lrp).

        Every tuple denoting the empty set — an unsatisfiable constraint
        system, or a forced value outside its lrp — maps to the single
        key ``("EMPTY", arity)``.
        """
        if self._skey is not None:
            return self._skey
        arity = len(self.lrps)
        probe = self.dbm.copy()
        for i, lrp in enumerate(self.lrps):
            if lrp.period == 0:
                probe.add_value(i, lrp.offset)
        if not probe.close():
            self._skey = ("EMPTY", arity)
            return self._skey
        lrps = list(self.lrps)
        for i, lrp in enumerate(lrps):
            if lrp.period == 0:
                continue
            low = probe.lower(i)
            if low is not None and low == probe.upper(i):
                if not lrp.contains(low):
                    self._skey = ("EMPTY", arity)
                    return self._skey
                lrps[i] = LRP.point(low)
        self._skey = (tuple(lrps), probe.canonical_key(), self.data)
        return self._skey

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GeneralizedTuple):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    # ------------------------------------------------------------------
    # semantics
    # ------------------------------------------------------------------

    def contains(
        self, temporal: Sequence[int], data: Sequence[Hashable] | None = None
    ) -> bool:
        """Whether the concrete temporal point (and data values) belong here."""
        if len(temporal) != len(self.lrps):
            raise ReproValueError(
                f"expected {len(self.lrps)} temporal values, got {len(temporal)}"
            )
        if data is not None and tuple(data) != self.data:
            return False
        for value, lrp in zip(temporal, self.lrps):
            if not lrp.contains(value):
                return False
        return self.dbm.satisfied_by(temporal)

    def intersect(self, other: GeneralizedTuple) -> GeneralizedTuple | None:
        """Intersection of two generalized tuples (Section 3.2.2).

        Component-wise lrp intersection plus the union of both constraint
        sets.  Returns ``None`` when some component intersection is empty
        or the data values differ.  The result may still denote the empty
        set (constraints may be jointly unsatisfiable on the lattice);
        use :func:`repro.core.emptiness.tuple_is_empty` to decide.
        """
        if len(self.lrps) != len(other.lrps):
            raise ReproValueError("temporal arities differ")
        if self.data != other.data:
            return None
        merged: list[LRP] = []
        for a, b in zip(self.lrps, other.lrps):
            meet = a.intersect(b)
            if meet is None:
                return None
            merged.append(meet)
        return GeneralizedTuple(
            lrps=tuple(merged),
            dbm=self.dbm.intersect(other.dbm),
            data=self.data,
        )

    def enumerate(self, low: int, high: int) -> Iterator[tuple[int, ...]]:
        """Yield the concrete temporal points in ``[low, high]^k``.

        Enumeration prunes with the DBM's implied bounds and checks
        partial assignments against the difference constraints, so it is
        usable for the window sizes the differential tests employ.

        An inverted window (``low > high``) is uniformly empty, even for
        zero-arity tuples (whose points carry no temporal coordinates).
        """
        if low > high:
            return
        arity = len(self.lrps)
        if arity == 0:
            if self.dbm.copy().close():
                yield ()
            return
        # Work on a closed copy: enumeration must not inflate the stored
        # constraint set (negation cost tracks the written atoms).
        dbm = self.dbm.copy()
        if not dbm.close():
            return
        lows = []
        highs = []
        for i in range(arity):
            lo_i, hi_i = low, high
            dbm_lo = dbm.lower(i)
            dbm_hi = dbm.upper(i)
            if dbm_lo is not None:
                lo_i = max(lo_i, dbm_lo)
            if dbm_hi is not None:
                hi_i = min(hi_i, dbm_hi)
            lows.append(lo_i)
            highs.append(hi_i)
        assignment: list[int] = []

        def feasible(i: int, value: int) -> bool:
            for j, prior in enumerate(assignment):
                b_ij = dbm.bound(i, j)
                if b_ij is not None and value - prior > b_ij:
                    return False
                b_ji = dbm.bound(j, i)
                if b_ji is not None and prior - value > b_ji:
                    return False
            return True

        def recurse(i: int) -> Iterator[tuple[int, ...]]:
            if i == arity:
                yield tuple(assignment)
                return
            if lows[i] > highs[i]:
                return
            for value in self.lrps[i].enumerate(lows[i], highs[i]):
                if feasible(i, value):
                    assignment.append(value)
                    yield from recurse(i + 1)
                    assignment.pop()

        yield from recurse(0)

    def __str__(self) -> str:
        from repro.core.constraints import dbm_to_atoms

        names = [f"X{i + 1}" for i in range(len(self.lrps))]
        text = "[" + ", ".join(str(lrp) for lrp in self.lrps) + "]"
        atoms = dbm_to_atoms(self.dbm, names)
        if atoms:
            text += " : " + " & ".join(str(a) for a in atoms)
        if self.data:
            text += " | " + ", ".join(str(v) for v in self.data)
        return text
