"""Tests for the delta-debugging shrinker, including the mutant drills.

The centerpiece re-enacts the harness's reason to exist: inject a bug
into the algebra (an off-by-one in ``DBM.add_upper``, the kind of
bound-flip a refactor could introduce), let the fuzzer find a
divergence, shrink it, and verify the shrunk case is a minimal,
replayable repro — failing on the mutant, passing on HEAD.  The edge
drills plant off-by-ones at the edges the generator aims at (touching
intervals, singleton points at a theta-join window's edge, tuples only
their lrps show empty under a projection that keeps no temporal
attribute) and check that the first 200 cases of ``repro fuzz --seed
0`` catch each.
"""

import json

import pytest

from repro.core import algebra
from repro.core.dbm import DBM
from repro.core.relations import GeneralizedRelation, Schema
from repro.core.tuples import GeneralizedTuple
from repro.fuzz.case import Case, case_from_dict, scan_names
from repro.fuzz.diff import run_case
from repro.fuzz.gen import case_seed, generate_case
from repro.perf import prefilter
from repro.fuzz.shrink import same_failure, shrink_case
from repro.plan.nodes import Complement, Scan, Subtract, Union

T1 = Schema.make(temporal=["T1"])


def scan(name):
    return Scan(name, T1)


@pytest.fixture
def mutant_add_upper(monkeypatch):
    """Install ``X <= b+1`` in place of ``X <= b`` for the test body."""
    clean = DBM.add_upper

    def flipped(self, i, bound):
        return clean(self, i, bound + 1)

    def install():
        monkeypatch.setattr(DBM, "add_upper", flipped)

    def uninstall():
        monkeypatch.setattr(DBM, "add_upper", clean)

    return install, uninstall


class TestMutantDrill:
    def find_divergent(self, install, uninstall, max_seeds=120):
        for seed in range(max_seeds):
            case = generate_case(seed)  # generated with the clean algebra
            install()
            try:
                result = run_case(case)
            finally:
                uninstall()
            if result.status == "divergent":
                return case, result
        pytest.fail("mutant was not detected within the seed budget")

    def test_mutant_is_found_shrunk_and_replayable(self, mutant_add_upper):
        install, uninstall = mutant_add_upper
        case, result = self.find_divergent(install, uninstall)

        # Shrink under the mutant (the failure must keep reproducing).
        install()
        try:
            shrunk = shrink_case(case, same_failure(result))
        finally:
            uninstall()
        assert shrunk.case.total_tuples() <= 3
        assert shrunk.case.expr.size() <= case.expr.size()

        # The repro replays through its JSON form: divergent on the
        # mutant, clean on HEAD.
        replayed = case_from_dict(json.loads(shrunk.case.dumps()))
        install()
        try:
            on_mutant = run_case(replayed)
        finally:
            uninstall()
        assert on_mutant.status == "divergent"
        on_head = run_case(replayed)
        assert on_head.status == "ok"


def rejects_touching_intervals(monkeypatch):
    """``intervals_compatible`` with ``up1 + neg_lo2 < 1``: a pair whose
    first tuple's upper bound equals the second's lower bound is
    declared disjoint."""
    clean = prefilter.intervals_compatible

    def mutant(closed1, closed2, pairs=None):
        if pairs is None:
            pairs = [(i, i) for i in range(len(closed1) - 1)]
        for i1, i2 in pairs:
            up1 = closed1[i1 + 1][0]
            neg_lo2 = closed2[0][i2 + 1]
            if up1 is not None and neg_lo2 is not None and up1 + neg_lo2 == 0:
                return False
        return clean(closed1, closed2, pairs)

    monkeypatch.setattr(prefilter, "intervals_compatible", mutant)


def drops_singleton_window_edge(monkeypatch):
    """``_ResidueIndex.partners`` with ``last = lrp.offset + high - 1``
    in its singleton branch: a singleton right partner at exactly the
    window's high edge is missed."""
    clean = algebra._ResidueIndex.partners

    def mutant(self, lrp, low, high):
        found = clean(self, lrp, low, high)
        members = self._by_period.get(0, ())
        if lrp.period == 0 and high - low + 1 > len(members):
            edge = {pos for offset, pos in members if offset == lrp.offset + high}
            found = [pos for pos in found if pos not in edge]
        return found

    monkeypatch.setattr(algebra._ResidueIndex, "partners", mutant)


def decides_by_closure_alone(monkeypatch):
    """A projection keeping no temporal attribute that takes a tuple
    with a satisfiable constraint system for nonempty, whatever its
    lrps."""

    def mutant(gtuple, max_tuples=None):
        return gtuple.closure() is None

    monkeypatch.setattr(algebra, "tuple_is_empty", mutant)


def _shrunk_box(monkeypatch, move):
    """``algebra.bounding_box`` with ``move(dbm, i)`` applied to every
    attribute of each nonempty box it returns."""
    clean = algebra.bounding_box

    def mutant(relation, schema):
        box = clean(relation, schema)
        if not box:
            return box
        (gtuple,) = box
        dbm = gtuple.dbm.copy()
        for i in range(dbm.size):
            move(dbm, i)
        return GeneralizedRelation(schema, [GeneralizedTuple(gtuple.lrps, dbm)])

    monkeypatch.setattr(algebra, "bounding_box", mutant)


def box_upper_one_short(monkeypatch):
    """A join partner's box that ends one below its greatest point."""
    _shrunk_box(monkeypatch, lambda dbm, i: dbm.add_upper(i, dbm.upper(i) - 1))


def box_lower_one_short(monkeypatch):
    """A join partner's box that starts one above its least point."""
    _shrunk_box(monkeypatch, lambda dbm, i: dbm.add_lower(i, dbm.lower(i) + 1))


class TestEdgeDrills:
    CASES = 200

    @pytest.fixture(scope="class")
    def cases(self):
        return [generate_case(case_seed(0, i)) for i in range(self.CASES)]

    def test_seeds_are_clean_without_a_mutant(self, cases):
        for case in cases:
            result = run_case(case)
            assert not result.failing, result.summary()

    @pytest.mark.parametrize(
        "plant",
        [
            rejects_touching_intervals,
            drops_singleton_window_edge,
            decides_by_closure_alone,
            box_upper_one_short,
            box_lower_one_short,
        ],
    )
    def test_mutant_is_caught(self, cases, plant, monkeypatch):
        plant(monkeypatch)
        assert any(run_case(case).status == "divergent" for case in cases)


class TestShrinkMechanics:
    def failing_if(self, predicate):
        """Adapt a plain case predicate, counting evaluations."""
        calls = []

        def failing(candidate):
            calls.append(candidate)
            return predicate(candidate)

        return failing, calls

    def two_relation_case(self):
        a = GeneralizedRelation.empty(T1)
        a.add_tuple(["0 + 2n"], "T1 >= -4")
        a.add_tuple(["1 + 3n"], "")
        a.add_tuple(["5"], "")
        b = GeneralizedRelation.empty(T1)
        b.add_tuple(["0 + 3n"], "")
        return Case(
            relations={"A": a, "B": b},
            expr=Union(Subtract(scan("A"), scan("B")), scan("B")),
            low=-4,
            high=4,
        )

    def test_shrinks_to_single_tuple_when_one_suffices(self):
        case = self.two_relation_case()

        # "Failure" = relation A still contains the point 5.
        def tuple_5_present(candidate):
            rel = candidate.relations.get("A")
            return rel is not None and rel.contains([5])

        failing, _ = self.failing_if(tuple_5_present)
        shrunk = shrink_case(case, failing)
        assert shrunk.reduced
        assert shrunk.case.relations["A"].contains([5])
        assert shrunk.case.total_tuples() == 1
        assert shrunk.case.expr == scan("A")

    def test_expression_shrinks_toward_subtree(self):
        case = self.two_relation_case()

        def union_still_there(candidate):
            return "B" in scan_names(candidate.expr)

        failing, _ = self.failing_if(union_still_there)
        shrunk = shrink_case(case, failing)
        assert shrunk.case.expr == scan("B")
        assert set(shrunk.case.relations) == {"B"}

    def test_budget_is_respected(self):
        case = self.two_relation_case()
        failing, calls = self.failing_if(lambda c: True)
        shrink_case(case, failing, max_evals=5)
        assert len(calls) <= 5

    def test_constraints_and_lrps_simplify(self):
        a = GeneralizedRelation.empty(T1)
        a.add_tuple(["4 + 5n"], "T1 >= -4 & T1 <= 99")
        case = Case(
            relations={"A": a}, expr=Complement(scan("A")), low=-4, high=4
        )

        def nonempty_complement(candidate):
            rel = candidate.relations.get("A")
            if rel is None or not len(rel):
                return False
            return bool(run_case(candidate).ok)

        shrunk = shrink_case(case, nonempty_complement)
        gtuple = shrunk.case.relations["A"].tuples[0]
        assert len(list(gtuple.dbm.iter_bounds())) == 0
        assert gtuple.lrps[0].offset == 0

    def test_crashing_candidates_are_rejected(self):
        case = self.two_relation_case()

        def sometimes_crashes(candidate):
            if candidate.total_tuples() < 4:
                raise RuntimeError("boom")
            return True

        shrunk = shrink_case(case, sometimes_crashes)
        # Nothing could be removed without crashing the predicate, so
        # the case comes back intact.
        assert shrunk.case.total_tuples() == 4
