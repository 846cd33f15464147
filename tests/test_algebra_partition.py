"""Data-partitioned pairwise operations and the row-wise DBM assembler.

``join`` and ``subtract`` pair each left tuple only with the right
tuples carrying matching data values, and ``join`` indexes each bucket
by lrp residue; ``intersect`` and ``product`` are that join over
same-schema and disjoint-schema sides.  That must be invisible: each
operation returns exactly the tuple list — same tuples, same order — of
the plain nested loop over every pair, which the references in
``tests/helpers.py`` spell out, and the prefilter skip counters add up
to what the per-pair tests of that loop would count.  ``select`` decides
from the closure each stored tuple carries and must match the loop that
closes every conjunction from scratch.  The assembler that builds joined
and product DBMs must leave the same bounds and closure bookkeeping as
adding both sides' bounds one ``add_*`` call at a time to a fresh
``DBM``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import algebra
from repro.core.constraints import Op, VarConstAtom, VarVarAtom, atoms_to_dbm
from repro.core.dbm import DBM
from repro.core.lrp import LRP
from repro.core.relations import GeneralizedRelation, Schema
from repro.core.tuples import GeneralizedTuple
from repro.obs.metrics import COUNTERS
from repro.perf import prefilter as pf
from tests.helpers import (
    intersect_reference,
    join_reference,
    merge_reference,
    subtract_reference,
)

DATA_VALUES = ["a", "b", "c"]
PERIODS = [0, 1, 2, 3, 4]


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------


@st.composite
def dbms(draw, arity: int) -> DBM:
    """A random restricted-constraint system over ``arity`` attributes."""
    dbm = DBM(arity)
    if arity == 0:
        return dbm
    for _ in range(draw(st.integers(0, arity + 2))):
        i = draw(st.integers(0, arity - 1))
        j = draw(st.integers(0, arity - 1))
        const = draw(st.integers(-6, 6))
        kind = draw(st.sampled_from(["upper", "lower", "diff"]))
        if kind == "diff" and i != j:
            dbm.add_difference(i, j, const)
        elif kind == "lower":
            dbm.add_lower(i, const)
        else:
            dbm.add_upper(i, const)
    return dbm


@st.composite
def gtuples(draw, arity: int, data_arity: int, n_values: int):
    """A random tuple; some are unsatisfiable or denote the empty set."""
    lrps = [
        LRP.make(draw(st.integers(-4, 4)), draw(st.sampled_from(PERIODS)))
        for _ in range(arity)
    ]
    dbm = draw(dbms(arity))
    shape = draw(st.sampled_from(["plain"] * 4 + ["unsat", "hollow"]))
    if arity and shape == "unsat":
        dbm.add_lower(0, 5)
        dbm.add_upper(0, 2)
    elif arity and shape == "hollow":
        # Satisfiable constraints pinning X0 to a value off its lrp.
        lrps[0] = LRP.make(0, 2)
        dbm.add_value(0, 1)
    data = tuple(
        draw(st.sampled_from(DATA_VALUES[:n_values]))
        for _ in range(data_arity)
    )
    return GeneralizedTuple(tuple(lrps), dbm, data)


@st.composite
def relations(draw, schema: Schema, n_values: int, max_size: int = 4):
    tuples = draw(
        st.lists(
            gtuples(schema.temporal_arity, schema.data_arity, n_values),
            max_size=max_size,
        )
    )
    return GeneralizedRelation(schema, tuples)


# ----------------------------------------------------------------------
# nested-loop references
# ----------------------------------------------------------------------


def _keys(relation: GeneralizedRelation) -> list:
    return [t.canonical_key() for t in relation]


def _rows(mapping) -> list[int]:
    return [0] + [pos + 1 for pos in mapping]


def _pair_counts(r1, r2, shared_t, match) -> dict[str, int]:
    """The pair counters the per-pair tests of the nested loop imply.

    ``prefilter_lrp_skip``/``prefilter_interval_skip`` count the pairs
    the loop's residue-then-interval tests reject, and
    ``pair_candidates`` the data-matching pairs whose lrps meet on the
    first shared temporal attribute (every data-matching pair when none
    is shared).
    """
    counts = dict.fromkeys(
        ("prefilter_lrp_skip", "prefilter_interval_skip", "pair_candidates"),
        0,
    )
    for t1 in r1:
        for t2 in r2:
            if not match(t1, t2):
                continue
            if not shared_t or pf.lrp_pair_compatible(
                t1.lrps[shared_t[0][0]], t2.lrps[shared_t[0][1]]
            ):
                counts["pair_candidates"] += 1
            if shared_t and not pf.lrps_compatible(t1.lrps, t2.lrps, shared_t):
                counts["prefilter_lrp_skip"] += 1
                continue
            if not (t1.dbm.copy().close() and t2.dbm.copy().close()):
                continue
            if shared_t and not pf.intervals_compatible(
                t1.dbm.canonical_key(), t2.dbm.canonical_key(), shared_t
            ):
                counts["prefilter_interval_skip"] += 1
    return counts


def join_pair_counts(r1, r2) -> dict[str, int]:
    s1, s2 = r1.schema, r2.schema
    shared_t = [
        (s1.temporal_index(n), s2.temporal_index(n))
        for n in s1.temporal_names
        if s2.has(n)
    ]
    shared_d = [
        (s1.data_index(n), s2.data_index(n))
        for n in s1.data_names
        if s2.has(n)
    ]
    return _pair_counts(
        r1,
        r2,
        shared_t,
        lambda t1, t2: all(t1.data[i] == t2.data[j] for i, j in shared_d),
    )


def intersect_pair_counts(r1, r2) -> dict[str, int]:
    shared_t = [(i, i) for i in range(r1.schema.temporal_arity)]
    return _pair_counts(r1, r2, shared_t, lambda t1, t2: t1.data == t2.data)


def _counted(run):
    """``run()``'s result and what it added to the pair counters."""
    names = (
        "prefilter_lrp_skip",
        "prefilter_interval_skip",
        "pair_candidates",
    )
    before = {name: COUNTERS[f"perf.{name}"] for name in names}
    result = run()
    return result, {
        name: COUNTERS[f"perf.{name}"] - before[name] for name in names
    }


def select_reference(
    relation: GeneralizedRelation, atoms
) -> GeneralizedRelation:
    """Selection closing every conjunction from its written form."""
    extra = atoms_to_dbm(atoms, relation.schema.temporal_names)
    out = GeneralizedRelation.empty(relation.schema)
    for gtuple in relation:
        merged = gtuple.dbm.intersect(extra)
        if merged.copy().close():
            out.add(GeneralizedTuple(gtuple.lrps, merged, gtuple.data))
    return out


# ----------------------------------------------------------------------
# partitioned operations == nested loop
# ----------------------------------------------------------------------

SETOP_SCHEMAS = {
    "temporal": Schema.make(temporal=["A", "B"]),
    "one-data": Schema.make(temporal=["A", "B"], data=["x"]),
    "two-data": Schema.make(temporal=["A"], data=["x", "y"]),
}

JOIN_SCHEMAS = {
    # shared data column, r2's temporal order differs from the result's
    "shared-data": (
        Schema.make(temporal=["A", "B"], data=["x"]),
        Schema.make(temporal=["C", "B"], data=["x"]),
    ),
    # data columns on both sides, none shared: one bucket
    "unshared-data": (
        Schema.make(temporal=["A"], data=["x"]),
        Schema.make(temporal=["A", "C"], data=["y"]),
    ),
    # one data column shared, one private per side
    "mixed-data": (
        Schema.make(temporal=["A"], data=["x", "y"]),
        Schema.make(temporal=["A"], data=["y", "z"]),
    ),
    # purely temporal join
    "temporal": (
        Schema.make(temporal=["A", "B"]),
        Schema.make(temporal=["B", "C"]),
    ),
    # two shared temporal attributes, in the other order on the right
    "two-temporal": (
        Schema.make(temporal=["A", "B"], data=["x"]),
        Schema.make(temporal=["B", "C", "A"], data=["x"]),
    ),
    # no shared temporal attribute: data buckets only, no residue index
    "no-temporal": (
        Schema.make(temporal=["A"], data=["x"]),
        Schema.make(temporal=["C"], data=["x"]),
    ),
}


PRODUCT_SCHEMAS = {
    "temporal": (
        Schema.make(temporal=["A", "B"]),
        Schema.make(temporal=["C"]),
    ),
    # data columns on both sides, none shared
    "data": (
        Schema.make(temporal=["A"], data=["x"]),
        Schema.make(temporal=["B", "C"], data=["y"]),
    ),
    # a purely data side
    "data-only": (
        Schema.make(temporal=["A", "B"], data=["x"]),
        Schema.make(data=["y", "z"]),
    ),
}


def _setop_inputs():
    return st.sampled_from(sorted(SETOP_SCHEMAS)).flatmap(
        lambda name: st.integers(1, 3).flatmap(
            lambda n: st.tuples(
                relations(SETOP_SCHEMAS[name], n),
                relations(SETOP_SCHEMAS[name], n),
            )
        )
    )


def _join_inputs():
    return st.sampled_from(sorted(JOIN_SCHEMAS)).flatmap(
        lambda name: st.integers(1, 3).flatmap(
            lambda n: st.tuples(
                relations(JOIN_SCHEMAS[name][0], n),
                relations(JOIN_SCHEMAS[name][1], n),
            )
        )
    )


def _product_inputs():
    return st.sampled_from(sorted(PRODUCT_SCHEMAS)).flatmap(
        lambda name: st.integers(1, 3).flatmap(
            lambda n: st.tuples(
                relations(PRODUCT_SCHEMAS[name][0], n),
                relations(PRODUCT_SCHEMAS[name][1], n),
            )
        )
    )


class TestMatchesNestedLoop:
    @given(inputs=_join_inputs())
    @settings(max_examples=80, deadline=None)
    def test_join(self, inputs):
        r1, r2 = inputs
        got, counts = _counted(lambda: algebra.join(r1, r2))
        expected = join_reference(r1, r2)
        assert got.schema == expected.schema
        assert _keys(got) == _keys(expected)
        assert counts == join_pair_counts(r1, r2)

    @given(inputs=_setop_inputs())
    @settings(max_examples=60, deadline=None)
    def test_intersect(self, inputs):
        r1, r2 = inputs
        got, counts = _counted(lambda: algebra.intersect(r1, r2))
        expected = intersect_reference(r1, r2)
        assert _keys(got) == _keys(expected)
        assert counts == intersect_pair_counts(r1, r2)

    @given(inputs=_product_inputs())
    @settings(max_examples=60, deadline=None)
    def test_product(self, inputs):
        r1, r2 = inputs
        got, counts = _counted(lambda: algebra.product(r1, r2))
        expected = join_reference(r1, r2)
        assert got.schema == expected.schema
        assert _keys(got) == _keys(expected)
        # No shared attribute: one bucket, no residue index, every pair.
        assert counts["pair_candidates"] == len(r1) * len(r2)
        assert counts == join_pair_counts(r1, r2)

    @given(inputs=_setop_inputs())
    @settings(max_examples=60, deadline=None)
    def test_subtract(self, inputs):
        r1, r2 = inputs
        got = algebra.subtract(r1, r2)
        expected = subtract_reference(r1, r2)
        assert _keys(got) == _keys(expected)


SCHEMA_X = Schema.make(temporal=["A"], data=["x"])


def _tuple(offset: int, period: int, value: str, dbm: DBM | None = None):
    return GeneralizedTuple(
        (LRP.make(offset, period),), dbm if dbm is not None else DBM(1),
        (value,),
    )


def _unsat_dbm() -> DBM:
    dbm = DBM(1)
    dbm.add_lower(0, 5)
    dbm.add_upper(0, 2)
    return dbm


class TestPinnedCases:
    def test_subtract_without_same_data_subtrahend_keeps_minuend(self):
        minuend = _tuple(0, 2, "a")
        r1 = GeneralizedRelation(SCHEMA_X, [minuend])
        r2 = GeneralizedRelation(SCHEMA_X, [_tuple(0, 1, "b")])
        got = algebra.subtract(r1, r2)
        assert _keys(got) == _keys(subtract_reference(r1, r2))
        assert _keys(got) == [minuend.canonical_key()]

    def test_subtract_without_same_data_subtrahend_drops_empty_minuend(self):
        r1 = GeneralizedRelation(SCHEMA_X, [_tuple(0, 2, "a", _unsat_dbm())])
        r2 = GeneralizedRelation(SCHEMA_X, [_tuple(0, 1, "b")])
        got = algebra.subtract(r1, r2)
        assert _keys(got) == _keys(subtract_reference(r1, r2))
        assert len(got) == 0

    def test_subtracting_nothing_keeps_even_an_empty_minuend(self):
        r1 = GeneralizedRelation(SCHEMA_X, [_tuple(0, 2, "a", _unsat_dbm())])
        got = algebra.subtract(r1, GeneralizedRelation.empty(SCHEMA_X))
        assert _keys(got) == _keys(r1)

    def test_join_ignores_right_data_the_left_lacks(self):
        s1 = Schema.make(temporal=["A"], data=["x"])
        s2 = Schema.make(temporal=["A", "B"], data=["x"])
        r1 = GeneralizedRelation(s1, [_tuple(0, 2, "a")])
        r2 = GeneralizedRelation(
            s2,
            [
                GeneralizedTuple(
                    (LRP.make(0, 1), LRP.make(1, 3)), DBM(2), (value,)
                )
                for value in ("b", "a", "c")
            ],
        )
        got = algebra.join(r1, r2)
        assert _keys(got) == _keys(join_reference(r1, r2))
        assert len(got) == 1
        assert got.contains([2, 4], ["a"])
        assert not got.contains([2, 4], ["b"])

    def test_singletons_on_either_side_meet_through_the_index(self):
        left = [(4, 0), (1, 3), (7, 0), (0, 1)]
        right = [(0, 2), (4, 0), (1, 6), (5, 0), (7, 0)]
        r1 = GeneralizedRelation(
            SCHEMA_X, [_tuple(o, p, "a") for o, p in left]
        )
        r2 = GeneralizedRelation(
            SCHEMA_X, [_tuple(o, p, "a") for o, p in right]
        )
        joined, join_counts = _counted(lambda: algebra.join(r1, r2))
        met, meet_counts = _counted(lambda: algebra.intersect(r1, r2))
        assert _keys(joined) == _keys(join_reference(r1, r2))
        assert _keys(met) == _keys(intersect_reference(r1, r2))
        assert join_counts == join_pair_counts(r1, r2)
        assert meet_counts == intersect_pair_counts(r1, r2)
        # 4 meets 0+2n and 4; 1+3n meets 0+2n, 4, 1+6n and 7; 7 meets
        # 1+6n and 7; n meets everything.
        assert join_counts["pair_candidates"] == 2 + 4 + 2 + 5


# ----------------------------------------------------------------------
# selection from the carried closure == copy-and-close
# ----------------------------------------------------------------------

#: Conditions that no point satisfies, whatever the tuple.
CONTRADICTIONS = {
    "a - a <= -1": [VarVarAtom("A", Op.LE, "A", -1)],
    "a >= 5 & a <= 3": [
        VarConstAtom("A", Op.GE, 5),
        VarConstAtom("A", Op.LE, 3),
    ],
}


@st.composite
def conditions(draw, names) -> list:
    """One to four atoms over ``names``: bounds and difference atoms
    (an attribute may appear on both sides)."""
    atoms = []
    for _ in range(draw(st.integers(1, 4))):
        left = draw(st.sampled_from(names))
        op = draw(st.sampled_from(list(Op)))
        if draw(st.booleans()):
            right = draw(st.sampled_from(names))
            atoms.append(VarVarAtom(left, op, right, draw(st.integers(-4, 4))))
        else:
            atoms.append(VarConstAtom(left, op, draw(st.integers(-6, 6))))
    return atoms


def _select_inputs():
    return st.sampled_from(sorted(SETOP_SCHEMAS)).flatmap(
        lambda name: st.tuples(
            relations(SETOP_SCHEMAS[name], 2, max_size=6),
            conditions(SETOP_SCHEMAS[name].temporal_names),
        )
    )


def _assert_tuple_identical(got, expected) -> None:
    """Same tuples in the same order, written DBMs and canonical keys
    included; every key equals one computed from scratch."""
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g.lrps == e.lrps and g.data == e.data
        assert g.dbm._b == e.dbm._b
        assert g.canonical_key() == e.canonical_key()
        assert g.canonical_key() == (
            g.lrps, g.dbm.copy().canonical_key(), g.data
        )


class TestSelectMatchesCopyAndClose:
    @given(inputs=_select_inputs())
    @settings(max_examples=80, deadline=None)
    def test_generated(self, inputs):
        relation, atoms = inputs
        got = algebra.select(relation, atoms)
        expected = select_reference(relation, atoms)
        _assert_tuple_identical(got, expected)

    @pytest.mark.parametrize("name", sorted(CONTRADICTIONS))
    @given(
        relation=relations(SETOP_SCHEMAS["one-data"], 2, max_size=6)
    )
    @settings(max_examples=20, deadline=None)
    def test_contradictory_condition(self, name, relation):
        got = algebra.select(relation, CONTRADICTIONS[name])
        expected = select_reference(relation, CONTRADICTIONS[name])
        _assert_tuple_identical(got, expected)
        assert len(got) == 0

    def test_pins_a_singleton_and_drops_empty_tuples(self):
        schema = Schema.make(temporal=["A", "B"])
        pinned = GeneralizedTuple((LRP.make(4, 0), LRP.make(0, 3)), DBM(2))
        unsat = GeneralizedTuple(
            (LRP.make(0, 1), LRP.make(0, 1)), DBM(2)
        )
        unsat.dbm.add_lower(0, 5)
        unsat.dbm.add_upper(0, 2)
        relation = GeneralizedRelation(schema, [pinned, unsat])
        atoms = [VarVarAtom("B", Op.GE, "A", 2), VarConstAtom("B", Op.LE, 9)]
        got = algebra.select(relation, atoms)
        _assert_tuple_identical(got, select_reference(relation, atoms))
        assert len(got) == 1

    @staticmethod
    def _window(low: int, high: int, gap: int) -> GeneralizedTuple:
        """``low <= A <= high`` and ``B >= A + gap``."""
        gtuple = GeneralizedTuple((LRP.make(0, 1), LRP.make(0, 2)), DBM(2))
        gtuple.dbm.add_lower(0, low)
        gtuple.dbm.add_upper(0, high)
        gtuple.dbm.add_difference(0, 1, -gap)
        return gtuple

    def test_implied_condition_keeps_the_carried_closure(self):
        schema = Schema.make(temporal=["A", "B"])
        relation = GeneralizedRelation(schema, [self._window(5, 9, 2)])
        stored = relation.tuples[0]
        # The closure already holds B >= 7 and A - B <= -2.
        atoms = [VarConstAtom("B", Op.GE, 6), VarVarAtom("A", Op.LE, "B", 0)]
        got = algebra.select(relation, atoms)
        expected = select_reference(relation, atoms)
        _assert_tuple_identical(got, expected)
        (selected,) = got
        assert selected.closure() == stored.closure()
        assert selected.canonical_key() == stored.canonical_key()
        # The written constraints still gain the condition's bound.
        assert selected.dbm._b != stored.dbm._b

    @pytest.mark.parametrize("const", [-1, 0])
    def test_diagonal_atom(self, const):
        schema = Schema.make(temporal=["A", "B"])
        relation = GeneralizedRelation(
            schema, [self._window(0, 4, 1), self._window(3, 8, 0)]
        )
        atoms = [VarVarAtom("A", Op.LE, "A", const)]
        got = algebra.select(relation, atoms)
        expected = select_reference(relation, atoms)
        _assert_tuple_identical(got, expected)
        if const < 0:
            assert len(got) == 0
        else:  # A <= A bounds nothing: every tuple comes back as it was
            assert [t.canonical_key() for t in got] == [
                t.canonical_key() for t in relation
            ]

    def test_rejected_by_the_second_atom(self):
        schema = Schema.make(temporal=["A", "B"])
        relation = GeneralizedRelation(
            schema,
            [self._window(0, 10, 8), self._window(0, 10, 1),
             self._window(3, 8, 0)],
        )
        # Two entries: A >= 2 tightens the first two tuples, and B <= 5
        # then empties the first, whose B >= A + 8 >= 10.
        atoms = [VarConstAtom("A", Op.GE, 2), VarConstAtom("B", Op.LE, 5)]
        got = algebra.select(relation, atoms)
        expected = select_reference(relation, atoms)
        _assert_tuple_identical(got, expected)
        assert [t.closure()[0][1] for t in got] == [-2, -3]


# ----------------------------------------------------------------------
# rename shares the source's tuples
# ----------------------------------------------------------------------


def _tuple2(o1: int, p1: int, o2: int, p2: int, value: str):
    return GeneralizedTuple(
        (LRP.make(o1, p1), LRP.make(o2, p2)), DBM(2), (value,)
    )


class TestRename:
    def _relation(self):
        return GeneralizedRelation(
            SETOP_SCHEMAS["one-data"],
            [
                _tuple2(0, 2, 1, 3, "a"),
                _tuple2(1, 0, 0, 1, "b"),
                _tuple2(0, 4, 2, 4, "a"),
            ],
        )

    def test_holds_the_same_tuple_objects(self):
        source = self._relation()
        renamed = algebra.rename(source, {"A": "P", "x": "y"})
        assert renamed.schema.names == ("P", "B", "y")
        assert len(renamed) == len(source)
        assert all(a is b for a, b in zip(renamed, source))

    def test_equals_a_reinserted_reference(self):
        source = self._relation()
        renamed = algebra.rename(source, {"B": "Q"})
        reference = GeneralizedRelation(renamed.schema, source.tuples)
        assert renamed == reference
        assert _keys(renamed) == _keys(reference)

    def test_adding_to_the_result_does_not_leak(self):
        source = self._relation()
        renamed = algebra.rename(source, {"A": "P"})
        extra = _tuple2(1, 3, 2, 5, "c")
        renamed.add(extra)
        assert len(renamed) == len(source) + 1
        assert extra.canonical_key() not in _keys(source)
        assert source.schema.names == ("A", "B", "x")


# ----------------------------------------------------------------------
# the row-wise DBM assembler
# ----------------------------------------------------------------------


def _assert_same_dbm(got: DBM, expected: DBM) -> None:
    assert got._n == expected._n
    assert got._b == expected._b
    assert got._closed == expected._closed


class TestAssembleDbm:
    def _check(self, size, sides):
        got = algebra._assemble_dbm(
            size, [(dbm, _rows(mapping)) for dbm, mapping in sides]
        )
        _assert_same_dbm(got, merge_reference(size, sides))
        return got

    @pytest.mark.parametrize("order", ["loose-first", "tight-first"])
    def test_minimum_wins_when_both_sides_bound_an_entry(self, order):
        loose, tight = DBM(1), DBM(2)
        loose.add_upper(0, 9)
        tight.add_upper(1, 4)
        tight.add_difference(1, 0, 2)
        # loose's X0 and tight's X1 both land on result variable 0.
        sides = [(loose, [0]), (tight, [1, 0])]
        if order == "tight-first":
            sides.reverse()
        got = self._check(2, sides)
        assert got.bound(0, -1) == 4
        assert not got._closed

    def test_unconstrained_inputs_stay_closed(self):
        got = self._check(3, [(DBM(2), [0, 1]), (DBM(2), [1, 2])])
        assert got._closed

    def test_product_disjoint_maps(self):
        left, right = DBM(2), DBM(1)
        left.add_difference(0, 1, -3)
        left.add_lower(1, 0)
        right.add_upper(0, 7)
        got = self._check(3, [(left, [0, 1]), (right, [2])])
        assert got.bound(0, 1) == -3 and got.bound(2, -1) == 7

    @given(
        st.integers(1, 3).flatmap(
            lambda a1: st.integers(1, 3).flatmap(
                lambda a2: st.tuples(
                    dbms(a1),
                    dbms(a2),
                    st.integers(0, min(a1, a2)),
                    st.permutations(range(a1 + a2)),
                )
            )
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_add_calls(self, case):
        """Random systems under random injective maps, overlapping in
        ``shared`` result variables."""
        left, right, shared, perm = case
        a1, a2 = left.size, right.size
        size = a1 + a2 - shared
        order = [p for p in perm if p < size]
        map1 = order[:a1]
        map2 = order[a1 - shared : a1 - shared + a2]
        self._check(size, [(left, map1), (right, map2)])

    def test_product_uses_the_assembler(self):
        s1 = Schema.make(temporal=["A"])
        s2 = Schema.make(temporal=["B", "C"])
        t1 = GeneralizedTuple((LRP.make(0, 2),), DBM(1))
        t1.dbm.add_upper(0, 8)
        dbm2 = DBM(2)
        dbm2.add_difference(0, 1, 1)
        t2 = GeneralizedTuple((LRP.make(0, 1), LRP.make(0, 1)), dbm2)
        out = algebra.product(
            GeneralizedRelation(s1, [t1]), GeneralizedRelation(s2, [t2])
        )
        (joined,) = list(out)
        _assert_same_dbm(
            joined.dbm,
            merge_reference(3, [(t1.dbm, [0]), (dbm2, [1, 2])]),
        )
