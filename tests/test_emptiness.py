"""Tests for the emptiness decision procedure (Theorem 3.5)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constraints import atoms_to_dbm, parse_atoms
from repro.core.dbm import DBM
from repro.core.emptiness import (
    count_in_window,
    relation_is_empty,
    relation_witness,
    tuple_is_empty,
    tuple_witness,
)
from repro.core.errors import NormalizationLimitError
from repro.core.lrp import LRP
from repro.core.normalize import iter_normalize_tuple
from repro.core.relations import GeneralizedRelation, Schema, relation
from repro.core.tuples import GeneralizedTuple
from repro.obs.metrics import COUNTERS

from tests.helpers import random_lrp, random_relation, random_tuple


def make(lrps, constraints=""):
    names = [f"X{i + 1}" for i in range(len(lrps))]
    dbm = atoms_to_dbm(parse_atoms(constraints), names)
    return GeneralizedTuple.make(lrps, dbm=dbm)


class TestTupleEmptiness:
    def test_unconstrained_nonempty(self):
        assert not tuple_is_empty(make(["2n", "3n"]))

    def test_window_contradiction(self):
        assert tuple_is_empty(make(["n"], "X1 >= 5 & X1 <= 4"))

    def test_lattice_vs_constraints(self):
        # X1 on 4n, X2 on 4n+1, X1 = X2: offsets incompatible.
        assert tuple_is_empty(make(["4n", "4n + 1"], "X1 = X2"))
        assert not tuple_is_empty(make(["4n", "4n + 1"], "X1 = X2 - 1"))

    def test_grid_gap(self):
        # X1 = X2 + 2 with both on 8n: offset difference 0 ≠ 2 (mod 8).
        assert tuple_is_empty(make(["8n", "8n"], "X1 = X2 + 2"))
        assert not tuple_is_empty(make(["8n", "8n"], "X1 = X2 + 8"))

    def test_bounded_lattice_window(self):
        # 10n restricted to [1, 9]: no multiples of 10 in that window.
        assert tuple_is_empty(make(["10n"], "X1 >= 1 & X1 <= 9"))
        assert not tuple_is_empty(make(["10n"], "X1 >= 1 & X1 <= 10"))

    @given(st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_matches_enumeration(self, seed):
        rng = random.Random(seed)
        t = random_tuple(rng, 2)
        # Constants are <= 6 and periods <= 6, so any nonempty tuple has
        # a point within a modest window.
        brute_nonempty = any(True for _ in t.enumerate(-40, 40))
        assert tuple_is_empty(t) == (not brute_nonempty)


class TestBoundFreeShortcut:
    """A tuple with no written bound is decided without normalizing."""

    @pytest.mark.parametrize("seed", range(20))
    def test_agrees_with_normalization(self, seed):
        rng = random.Random(seed)
        for _ in range(10):
            arity = rng.randint(1, 4)
            lrps = tuple(random_lrp(rng) for _ in range(arity))
            t = GeneralizedTuple(lrps=lrps, dbm=DBM(arity))
            normalized = next(iter_normalize_tuple(t), None)
            assert tuple_is_empty(t) == (normalized is None)

    def test_unrelated_periods_need_no_normalization(self):
        # lcm 1001 splits into 143 * 91 * 77 normal-form tuples.
        t = make(["7n", "11n + 1", "13n + 2"])
        with pytest.raises(NormalizationLimitError):
            next(iter_normalize_tuple(t, max_tuples=50))
        assert not tuple_is_empty(t, max_tuples=50)

    def test_unsatisfiable_marker_still_empty(self):
        dbm = DBM(1)
        dbm.add_difference(0, 0, -1)  # X1 - X1 <= -1
        assert next(dbm.iter_bounds(), None) is None
        assert tuple_is_empty(GeneralizedTuple(lrps=(LRP.make(0, 2),), dbm=dbm))


class TestCarriedClosure:
    """Satisfiability is read off the tuple's memoized closure."""

    @staticmethod
    def closures(run) -> int:
        before = COUNTERS["perf.closure_full"]
        run()
        return COUNTERS["perf.closure_full"] - before

    @staticmethod
    def decided_by_closure():
        marker = DBM(1)
        marker.add_difference(0, 0, -1)
        # Three written bounds over two attributes: closing the DBM
        # takes the full pass, not the incremental one.
        return [
            make(["2n", "3n + 1"]),  # bound-free
            make(["4n", "6n"], "X1 >= 5 & X1 <= 3 & X2 >= 0"),
            GeneralizedTuple(lrps=(LRP.make(0, 2),), dbm=marker),
        ]

    def test_memoized_closure_is_not_recomputed(self):
        for t in self.decided_by_closure():
            t.closure()
            assert self.closures(lambda: tuple_is_empty(t)) == 0

    def test_unmemoized_closure_is_computed_once(self):
        for t in self.decided_by_closure():
            assert self.closures(lambda: tuple_is_empty(t)) <= 1

    def test_normalizing_adds_no_closure_of_the_tuple(self):
        for constraints in (
            "X1 >= X2 & X1 <= X2 + 5 & X2 >= 2",
            "X1 = X2 + 2 & X2 >= 0",
        ):
            t = make(["8n", "8n"], constraints)
            t.closure()
            alone = self.closures(
                lambda: next(iter_normalize_tuple(t, satisfiable=True), None)
            )
            assert self.closures(lambda: tuple_is_empty(t)) == alone


class TestWitness:
    def test_witness_is_member(self):
        t = make(["4n + 3", "8n + 1"], "X1 >= X2 & X1 <= X2 + 5 & X2 >= 2")
        w = tuple_witness(t)
        assert w is not None and t.contains(w)

    def test_no_witness_for_empty(self):
        assert tuple_witness(make(["8n", "8n"], "X1 = X2 + 2")) is None

    def test_relation_witness_includes_data(self):
        schema = Schema.make(temporal=["t"], data=["who"])
        r = GeneralizedRelation.empty(schema)
        r.add_tuple(["2n"], "t >= 10", ["robot"])
        w = relation_witness(r)
        assert w is not None
        assert r.contains_point(w)
        assert w[1] == "robot"

    def test_relation_witness_none(self):
        assert relation_witness(relation(temporal=["t"])) is None

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_witness_always_member(self, seed):
        rng = random.Random(seed)
        t = random_tuple(rng, 3)
        w = tuple_witness(t)
        if w is None:
            assert tuple_is_empty(t)
        else:
            assert t.contains(w)


class TestRelationEmptiness:
    def test_all_tuples_empty(self):
        r = relation(temporal=["X1"])
        r.add_tuple(["n"], "X1 >= 1 & X1 <= 0")
        r.add_tuple(["4n"], "X1 >= 1 & X1 <= 3")
        assert relation_is_empty(r)

    def test_one_nonempty_tuple(self):
        r = relation(temporal=["X1"])
        r.add_tuple(["n"], "X1 >= 1 & X1 <= 0")
        r.add_tuple(["2n"])
        assert not relation_is_empty(r)

    def test_count_in_window(self):
        r = relation(temporal=["X1"])
        r.add_tuple(["2n"])
        assert count_in_window(r, 0, 10) == 6
