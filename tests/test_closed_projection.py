"""Projections that keep no temporal attribute decide emptiness.

``algebra.project`` onto data attributes alone (or onto nothing) emits
each tuple's kept data once it finds the tuple nonempty, instead of
splitting it to normal form; over a :class:`~repro.core.algebra.LazyJoin`
a 0-ary result stops building the join at the first nonempty tuple.
These tests pin the output to the normal-form path (same tuples, keys
and order), the error behaviour, the lazy join's candidates, and the
EXPLAIN rendering of a join the engine did not materialize.
"""

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import algebra
from repro.core.dbm import DBM
from repro.core.errors import NormalizationLimitError
from repro.core.lrp import LRP
from repro.core.relations import GeneralizedRelation, Schema
from repro.core.tuples import GeneralizedTuple
from repro.obs.metrics import COUNTERS
from repro.perf import kernel
from repro.perf.config import overrides
from repro.plan.nodes import Join, Unbuilt
from repro.query import Database
from repro.testing import generalized_relations
from tests.helpers import project_tuple_temporal

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"

DATA = (("a", 1), ("a", 2), ("b", 1))
NAMES = ((), ("D1",), ("D2",), ("D2", "D1"))


def _per_tuple(relation, names):
    """The normal-form projection: every tuple through
    ``project_tuple_temporal``, deduplicated on insertion."""
    schema = relation.schema
    keep_d = [schema.data_index(name) for name in names]
    dropped = list(range(schema.temporal_arity))
    out = GeneralizedRelation.empty(
        Schema(tuple(schema.attribute(name) for name in names))
    )
    for gtuple in relation:
        data = tuple(gtuple.data[i] for i in keep_d)
        for projected in project_tuple_temporal(gtuple, [], dropped):
            out.add(GeneralizedTuple(projected.lrps, projected.dbm, data))
    return out


def _exact(relation):
    """Everything that makes two outputs tuple-identical, in order."""
    return [
        (t.lrps, t.dbm._b, t.data, t.canonical_key()) for t in relation
    ]


class TestMatchesNormalForm:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda arity: generalized_relations(
                temporal_arity=arity, data_choices=DATA, max_tuples=6
            )
        ),
        st.sampled_from(NAMES),
        st.sampled_from(["numpy", "python"]),
    )
    def test_tuples_keys_and_order(self, relation, names, backend):
        with overrides(kernel=backend):
            got = algebra.project(relation, list(names))
            assert _exact(got) == _exact(_per_tuple(relation, names))

    def test_lrp_empty_tuple_is_dropped(self):
        # Satisfiable constraints, but 4n + 1 has no point in [2, 4].
        schema = Schema.make(temporal=["t"], data=["d"])
        rel = GeneralizedRelation.empty(schema)
        rel.add(
            GeneralizedTuple.make(
                ["4n + 1"], data=("a",), dbm=_window(1, 0, 2, 4)
            )
        )
        rel.add(GeneralizedTuple.make(["4n + 1"], data=("b",)))
        assert rel.tuples[0].closure() is not None
        out = algebra.project(rel, ["d"])
        assert [t.data for t in out] == [("b",)]
        assert _exact(out) == _exact(_per_tuple(rel, ("d",)))

    def test_zero_ary_result_stops_at_the_first_nonempty_tuple(
        self, monkeypatch
    ):
        schema = Schema.make(temporal=["t"])
        rel = GeneralizedRelation.empty(schema)
        for offset in range(5):
            rel.add(GeneralizedTuple.make([f"5n + {offset}"]))
        decided = []
        real = algebra.tuple_is_empty

        def counting(gtuple, max_tuples):
            decided.append(gtuple)
            return real(gtuple, max_tuples=max_tuples)

        monkeypatch.setattr(algebra, "tuple_is_empty", counting)
        out = algebra.project(rel, [])
        assert len(out) == 1 and decided == [rel.tuples[0]]


def _window(arity, i, low, high):
    dbm = DBM(arity)
    dbm.add_lower(i, low)
    dbm.add_upper(i, high)
    return dbm


class TestNormalizationLimit:
    """A tuple with no written bound is answered where the normal-form
    path raises; nothing raises that did not raise before."""

    PERIODS = (97, 89, 83, 79)

    def relation(self, dbm=None):
        schema = Schema.make(temporal=["w", "x", "y", "z"], data=["d"])
        rel = GeneralizedRelation.empty(schema)
        lrps = [LRP.make(1, p) for p in self.PERIODS]
        rel.add(GeneralizedTuple.make(lrps, data=("a",), dbm=dbm))
        return rel

    def test_bound_free_tuple_is_answered(self):
        rel = self.relation()
        with pytest.raises(NormalizationLimitError):
            _per_tuple(rel, ("d",))
        out = algebra.project(rel, ["d"], max_tuples=10)
        assert [t.data for t in out] == [("a",)]

    def test_residue_empty_tuple_is_answered_empty(self):
        # Satisfiable, but 1 + 97n has no point in [2, 50].
        rel = self.relation(_window(4, 0, 2, 50))
        assert rel.tuples[0].closure() is not None
        assert len(algebra.project(rel, ["d"], max_tuples=10)) == 0

    def test_bounded_tuple_raises_as_before(self):
        rel = self.relation(_window(4, 0, -1000, 1000))
        for names in (["d"], ["w", "d"]):
            with pytest.raises(NormalizationLimitError):
                algebra.project(rel, names, max_tuples=10)


def _join_inputs():
    left = GeneralizedRelation.empty(Schema.make(temporal=["a", "b"]))
    right = GeneralizedRelation.empty(Schema.make(temporal=["b", "c"]))
    for k in range(12):
        left.add_tuple(
            [f"{k} + 12n", f"{k + 1} + 12n"], f"a >= {k} & b <= a + 1"
        )
        right.add_tuple([f"{k + 1} + 12n", "6n"], "c >= b")
    return left, right


class TestLazyJoin:
    @pytest.mark.parametrize("backend", ["numpy", "python"])
    def test_full_read_equals_join(self, backend):
        left, right = _join_inputs()
        with overrides(kernel=backend):
            joined = algebra.LazyJoin(left, right, "c <= a + 30")
            out = GeneralizedRelation.empty(joined.schema)
            for gtuple in joined:
                out.add(gtuple)
            expected = algebra.join(left, right, "c <= a + 30")
            assert _exact(out) == _exact(expected)
        assert joined.built > algebra.LazyJoin.FIRST_BATCH

    @settings(max_examples=100, deadline=None)
    @given(
        generalized_relations(temporal_arity=2, data_choices=DATA, max_tuples=5),
        generalized_relations(temporal_arity=1, data_choices=DATA, max_tuples=5),
        st.sampled_from(NAMES),
    )
    def test_projection_reads_what_join_builds(self, r1, r2, names):
        lazy = algebra.project(algebra.LazyJoin(r1, r2), list(names))
        built = algebra.project(algebra.join(r1, r2), list(names))
        assert _exact(lazy) == _exact(built)

    def test_batches_double(self, monkeypatch):
        left, right = _join_inputs()
        sizes = []
        real = kernel.close_batch

        def recording(dbms):
            sizes.append(len(dbms))
            return real(dbms)

        monkeypatch.setattr(kernel, "close_batch", recording)
        joined = algebra.LazyJoin(left, right)
        list(joined)
        first = algebra.LazyJoin.FIRST_BATCH
        assert sizes[:-1] == [first * 2**i for i in range(len(sizes) - 1)]
        assert sum(sizes) == joined.built

    def test_closed_projection_stops_building(self):
        left, right = _join_inputs()
        joined = algebra.LazyJoin(left, right)
        out = algebra.project(joined, [])
        assert len(out) == 1
        assert joined.built == algebra.LazyJoin.FIRST_BATCH
        full = algebra.LazyJoin(left, right)
        list(full)
        assert full.built > joined.built

    def test_unsatisfiable_condition_builds_nothing(self):
        left, right = _join_inputs()
        joined = algebra.LazyJoin(left, right, "a <= 0 & a >= 1")
        assert list(joined) == [] and joined.built == 0
        assert algebra.project(joined, []).is_empty()



class TestPairCount:
    """``perf.pair_candidates`` counts the pairs a join reads, not the
    pairs it could have read."""

    @staticmethod
    def _count(monkeypatch, run):
        """``(pairs yielded, pairs reported)`` while ``run()`` runs."""
        real = algebra._pairs
        yielded = []

        def counting(*args, **kwargs):
            for pair in real(*args, **kwargs):
                yielded.append(pair)
                yield pair

        monkeypatch.setattr(algebra, "_pairs", counting)
        before = COUNTERS["perf.pair_candidates"]
        run()
        return len(yielded), COUNTERS["perf.pair_candidates"] - before

    def test_early_stop_inside_a_bucket(self, monkeypatch):
        # One left tuple meets all 20 right tuples; the first batch
        # holds 8 of them and the closed projection stops there.
        left = GeneralizedRelation.empty(Schema.make(temporal=["a", "b"]))
        left.add_tuple(["2n", "2n"], "a >= 0")
        right = GeneralizedRelation.empty(Schema.make(temporal=["b", "c"]))
        for k in range(20):
            right.add_tuple(["2n", f"{k} + 20n"], "c >= b")
        joined = algebra.LazyJoin(left, right)
        yielded, reported = self._count(
            monkeypatch, lambda: algebra.project(joined, [])
        )
        assert joined.built == algebra.LazyJoin.FIRST_BATCH
        assert reported == yielded == algebra.LazyJoin.FIRST_BATCH

    def test_query_cold_catalog(self, monkeypatch):
        if str(E2E) not in sys.path:
            sys.path.append(str(E2E))
        from queries import SIZES, Inputs

        db = Inputs(SIZES["query_cold"], 3).build()
        r, s = db.relation("R"), db.relation("S")
        joined = algebra.LazyJoin(r, s)
        yielded, reported = self._count(
            monkeypatch, lambda: algebra.project(joined, [])
        )
        assert joined.built == algebra.LazyJoin.FIRST_BATCH
        assert reported == yielded < len(r) * len(s)
        _, full = self._count(monkeypatch, lambda: algebra.join(r, s))
        assert full == 927

def _trains():
    db = Database()
    db.create("Train", temporal=["dep", "arr"], data=["service"])
    train = db.relation("Train")
    train.add_tuple(["2 + 60n", "80 + 60n"], "dep = arr - 78", ["slow"])
    train.add_tuple(["17 + 60n", "75 + 60n"], "dep = arr - 58", ["fast"])
    return db


#: A closed ask over a join: a fast arrival 40-50 minutes before a slow
#: departure (15 and 2 mod 60: 47 minutes).
JOIN_ASK = (
    'EXISTS d. EXISTS a. EXISTS b. EXISTS e. Train(d, a, "fast") '
    '& Train(b, e, "slow") & b >= a + 40 & b <= a + 50'
)

#: The join body of :data:`JOIN_ASK` twice, once closed and once keeping
#: ``d``: ``dedup-subtrees`` shares one 4-way join between the two, and
#: the closed projection is its first use.
SHARED_JOIN_ASK = (
    "(EXISTS d. EXISTS a. EXISTS b. EXISTS e. {0}) "
    "& (EXISTS a. EXISTS b. EXISTS e. {0})"
).format(
    'Train(d, a, "fast") & Train(b, e, "slow") & b >= a + 40 & b <= a + 50'
)


class TestExplain:
    def joins(self, report):
        return [n for n in report.plan.walk() if isinstance(n, Join)]

    def test_unbuilt_join_is_marked(self):
        report = _trains().explain(JOIN_ASK, optimize=True)
        (join,) = self.joins(report)
        size = report.annotations[id(join)]
        assert isinstance(size, Unbuilt) and size.candidates >= 1
        assert report.annotations[id(report.plan)] == 1
        text = str(report)
        assert f"-> not materialized, {size.candidates} candidate(s) built" in text
        payload = report.to_dict()["plan"]["children"][0]
        assert payload["materialized"] is False
        assert payload["candidates_built"] == size.candidates
        assert "out_tuples" not in payload

    def test_analyze_spans_carry_the_mark(self):
        trace = _trains().trace(JOIN_ASK, optimize=True)
        joins = [
            sp for sp in trace.root.walk() if sp.name == "query.join"
        ]
        assert joins
        for sp in joins:
            assert sp.attrs["materialized"] is False
            assert sp.attrs["candidates_built"] >= 1
        assert any(sp.name == "algebra.project" for sp in trace.root.walk())
        assert not any(sp.name == "algebra.join" for sp in trace.root.walk())

    def test_shared_join_is_built_once(self, monkeypatch):
        built = []
        lazy = algebra.LazyJoin

        class Counting(lazy):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(algebra, "LazyJoin", Counting)
        report = _trains().explain(SHARED_JOIN_ASK, optimize=True)
        joins = {id(join): join for join in self.joins(report)}
        (shared,) = [join for join in joins.values() if join.condition]
        assert id(shared) in report.plan.shared
        assert report.annotations[id(shared)] == 1
        assert "not materialized" not in str(report)
        # One build per join node: the shared join is built once, in
        # full, and its second use reads the memo.
        assert len(built) == len(joins) == 2

    def test_naive_plan_materializes(self):
        report = _trains().explain(JOIN_ASK, optimize=False)
        assert all(
            isinstance(report.annotations[id(join)], int)
            for join in self.joins(report)
        )
