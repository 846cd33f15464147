"""Complement edge cases, checked against the finite-window oracle.

The complement is where the generalized representation earns its keep
(the finite engine cannot complement against Z at all), so its edges —
empty relations, the full universe, double complement — get dedicated
differential coverage over more than one window.
"""

from repro.baseline.finite import FiniteRelation
from repro.core import algebra
from repro.core.relations import GeneralizedRelation, Schema
from repro.fuzz.case import Case
from repro.fuzz.diff import run_case
from repro.plan.nodes import Complement, Scan

#: Two windows of different sizes and positions; every check runs on both.
WINDOWS = ((-4, 4), (-9, 2))

T1 = Schema.make(temporal=["T1"])
T12 = Schema.make(temporal=["T1", "T2"])


def oracle_complement(relation, low, high):
    finite = FiniteRelation.materialize(relation, low, high)
    domains = {name: range(low, high + 1) for name in relation.schema.names}
    return set(finite.complement(domains).rows)


def assert_matches_oracle(relation, low, high):
    got = algebra.complement(relation).snapshot(low, high)
    assert got == oracle_complement(relation, low, high)


class TestComplementEdges:
    def test_complement_of_empty_is_universe(self):
        for schema in (T1, T12):
            empty = GeneralizedRelation.empty(schema)
            comp = algebra.complement(empty)
            for low, high in WINDOWS:
                span = high - low + 1
                assert len(comp.snapshot(low, high)) == span ** len(schema)
                assert_matches_oracle(empty, low, high)

    def test_complement_of_universe_is_empty(self):
        for schema in (T1, T12):
            universe = GeneralizedRelation.universe(schema)
            comp = algebra.complement(universe)
            for low, high in WINDOWS:
                assert comp.snapshot(low, high) == set()
                assert_matches_oracle(universe, low, high)

    def test_double_complement_identity(self):
        rel = GeneralizedRelation.empty(T1)
        rel.add_tuple(["1 + 3n"], "T1 >= -6")
        rel.add_tuple(["4"], "")
        doubled = algebra.complement(algebra.complement(rel))
        for low, high in WINDOWS:
            assert doubled.snapshot(low, high) == rel.snapshot(low, high)

    def test_double_complement_identity_2d(self):
        rel = GeneralizedRelation.empty(T12)
        rel.add_tuple(["0 + 2n", "1 + 2n"], "T1 <= T2")
        doubled = algebra.complement(algebra.complement(rel))
        for low, high in WINDOWS:
            assert doubled.snapshot(low, high) == rel.snapshot(low, high)

    def test_periodic_complement_against_oracle(self):
        rel = GeneralizedRelation.empty(T1)
        rel.add_tuple(["0 + 2n"], "")
        for low, high in WINDOWS:
            assert_matches_oracle(rel, low, high)

    def test_constrained_2d_complement_against_oracle(self):
        rel = GeneralizedRelation.empty(T12)
        rel.add_tuple(["0 + 3n", "0 + 1n"], "T2 >= T1 - 1 & T2 <= T1 + 1")
        for low, high in WINDOWS:
            assert_matches_oracle(rel, low, high)


class TestComplementThroughHarness:
    """The same edges as whole differential cases: the naive and the
    rewritten plan against the finite oracle."""

    def run_over_windows(self, relation, expr_builder=Complement):
        for low, high in WINDOWS:
            case = Case(
                relations={"R": relation},
                expr=expr_builder(Scan("R", relation.schema)),
                low=low,
                high=high,
            )
            result = run_case(case)
            assert result.ok, result.summary()

    def test_empty_relation_case(self):
        self.run_over_windows(GeneralizedRelation.empty(T1))

    def test_universe_case(self):
        self.run_over_windows(GeneralizedRelation.universe(T12))

    def test_double_complement_case(self):
        rel = GeneralizedRelation.empty(T1)
        rel.add_tuple(["2 + 5n"], "T1 >= -8")
        self.run_over_windows(
            rel, expr_builder=lambda leaf: Complement(Complement(leaf))
        )
