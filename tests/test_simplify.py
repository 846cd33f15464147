"""Tests for redundancy elimination."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import simplify
from repro.core.constraints import atoms_to_dbm, parse_atoms
from repro.core.emptiness import tuple_is_empty
from repro.core.relations import GeneralizedRelation, Schema, relation
from repro.core.simplify import simplify_relation, tuple_subsumes
from repro.core.tuples import GeneralizedTuple

from tests.helpers import random_relation, random_tuple


def make(lrps, constraints="", data=()):
    names = [f"X{i + 1}" for i in range(len(lrps))]
    dbm = atoms_to_dbm(parse_atoms(constraints), names)
    return GeneralizedTuple.make(lrps, data=data, dbm=dbm)


class TestSubsumption:
    def test_lattice_subsumption(self):
        assert tuple_subsumes(make(["2n"]), make(["4n"]))
        assert not tuple_subsumes(make(["4n"]), make(["2n"]))

    def test_constraint_subsumption(self):
        big = make(["n"], "X1 >= 0")
        small = make(["n"], "X1 >= 5")
        assert tuple_subsumes(big, small)
        assert not tuple_subsumes(small, big)

    def test_empty_always_subsumed(self):
        empty = make(["n"], "X1 >= 1 & X1 <= 0")
        anything = make(["2n"])
        assert tuple_subsumes(anything, empty)

    def test_different_data(self):
        a = make(["n"], data=("a",))
        b = make(["n"], data=("b",))
        assert not tuple_subsumes(a, b)


class TestSimplify:
    def test_removes_empty_tuples(self):
        r = relation(temporal=["X1"])
        r.add_tuple(["n"], "X1 >= 1 & X1 <= 0")
        r.add_tuple(["2n"])
        out = simplify_relation(r)
        assert len(out) == 1

    def test_removes_subsumed(self):
        r = relation(temporal=["X1"])
        r.add_tuple(["2n"])
        r.add_tuple(["4n"])
        r.add_tuple(["8n"])
        out = simplify_relation(r)
        assert len(out) == 1
        assert out.contains([2])

    def test_keeps_incomparable(self):
        r = relation(temporal=["X1"])
        r.add_tuple(["2n"])
        r.add_tuple(["3n"])
        out = simplify_relation(r)
        assert len(out) == 2

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_simplification_preserves_semantics(self, seed):
        rng = random.Random(seed)
        r = random_relation(rng, Schema.make(temporal=["X1", "X2"]), 4)
        out = simplify_relation(r)
        assert len(out) <= len(r)
        assert out.snapshot(-9, 9) == r.snapshot(-9, 9)


def pairwise_reference(rel: GeneralizedRelation) -> list[GeneralizedTuple]:
    """The unbucketed loop: every candidate meets every kept tuple."""
    kept: list[GeneralizedTuple] = []
    for candidate in (t for t in rel if not tuple_is_empty(t)):
        if any(tuple_subsumes(existing, candidate) for existing in kept):
            continue
        kept = [e for e in kept if not tuple_subsumes(candidate, e)]
        kept.append(candidate)
    return kept


def mixed_data_relation(rng: random.Random, n_data: int, arity: int):
    """Tuples over 2-3 interleaved data values, plus empty tuples."""
    schema = Schema.make(
        temporal=[f"X{i + 1}" for i in range(arity)], data=["d"]
    )
    choices = [(value,) for value in "abc"[:n_data]]
    tuples = [
        random_tuple(rng, arity, data_choices=choices)
        for _ in range(rng.randint(4, 12))
    ]
    lrps = ["n"] * arity
    for _ in range(rng.randint(1, 2)):
        empty = make(lrps, "X1 >= 1 & X1 <= 0", data=rng.choice(choices))
        tuples.insert(rng.randrange(len(tuples) + 1), empty)
    return GeneralizedRelation(schema, tuples)


class TestDataBuckets:
    @given(st.integers(0, 10_000), st.integers(2, 3), st.integers(1, 2))
    @settings(max_examples=60, deadline=None)
    def test_matches_pairwise_reference_exactly(self, seed, n_data, arity):
        rel = mixed_data_relation(random.Random(seed), n_data, arity)
        got = simplify_relation(rel).tuples
        want = pairwise_reference(rel)
        # Same tuple objects, in the same order.
        assert [id(t) for t in got] == [id(t) for t in want]

    def test_different_data_never_compared(self, monkeypatch):
        compared: list[tuple] = []

        def spy(big, small):
            compared.append((big.data, small.data))
            return tuple_subsumes(big, small)

        monkeypatch.setattr(simplify, "tuple_subsumes", spy)
        r = relation(temporal=["X1"], data=["d"])
        for lrp in ["2n", "4n", "3n", "6n", "n"]:
            for value in "abc":
                r.add_tuple([lrp], "", [value])
        out = simplify_relation(r)
        assert compared
        assert all(big == small for big, small in compared)
        # "n" subsumes everything else in its bucket.
        assert [t.data for t in out] == [("a",), ("b",), ("c",)]
        assert all(t.lrps == make(["n"]).lrps for t in out)
