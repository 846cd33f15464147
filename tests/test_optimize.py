"""Tests for ``repro.optimize`` — exact MINIMIZE/MAXIMIZE queries.

The exactness contract is checked three ways: hand-built tuples with
known optima, property tests (``optimize(tuple)`` == min/max over a finite
enumeration window, hypothesis-generated and seed-replayed), and the
scheduling scenario pack against its finite-window oracle.  The
end-to-end surfaces — directive parsing, ``Database.query``, EXPLAIN
composition, the shell, and the wire protocol — ride the same fixtures.
"""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.cli import Session
from repro.core.errors import EvaluationError, ParseError, ReproValueError
from repro.core.lrp import LRP
from repro.core.relations import GeneralizedRelation, Schema, relation
from repro.fuzz.case import load_case
from repro.intervals import oracle_optimum, run_scenario, scenario_pack
from repro.optimize import (
    Objective,
    OptimizationResult,
    optimize_relation,
    optimize_tuple,
    parse_objective,
)
from repro.query import Database
from repro.testing import generalized_tuples, seeded_relation, seeded_tuple

# The parity window: every seeded/hypothesis structure is small (offsets
# within +-8, periods <= 6, DBM constants within +-8), so any finite
# optimum is attained well inside [-128, 128].
WINDOW = 128


def objective_value(point, i, j=None):
    return point[i] if j is None else point[i] - point[j]


def assert_parity(gtuple, sense, i, j=None):
    """One verdict vs enumeration: the parity check, asserted."""
    result = optimize_tuple(gtuple, sense, i, j=j)
    values = [
        objective_value(p, i, j) for p in gtuple.enumerate(-WINDOW, WINDOW)
    ]
    if result.status == "empty":
        assert not values, "verdict 'empty' but the window has points"
    elif result.status == "optimal":
        assert values, "verdict 'optimal' but the window is empty"
        best = min(values) if sense == "min" else max(values)
        assert result.value == best
        assert result.witness is not None
        assert gtuple.contains(result.witness)
        assert objective_value(result.witness, i, j) == result.value
    else:
        assert result.status == "unbounded"
        cert = result.certificate
        assert cert is not None
        assert gtuple.contains(cert.point)
        previous = objective_value(cert.point, i, j)
        for steps in (1, 2, 3):
            point = cert.shifted(steps)
            assert gtuple.contains(point)
            value = objective_value(point, i, j)
            if sense == "min":
                assert value < previous
            else:
                assert value > previous
            previous = value
    return result


def single_tuple(lrps, constraints=""):
    names = [f"t{k}" for k in range(len(lrps))]
    rel = relation(temporal=names)
    rel.add_tuple(lrps, constraints)
    (gtuple,) = rel
    return gtuple


# ----------------------------------------------------------------------
# the per-tuple core
# ----------------------------------------------------------------------


class TestOptimizeTuple:
    def test_min_of_bounded_periodic(self):
        gtuple = single_tuple(["2 + 6n"], "t0 >= 3")
        result = optimize_tuple(gtuple, "min", 0)
        assert result.status == "optimal"
        assert result.value == 8
        assert result.witness == (8,)

    def test_max_of_same_tuple_is_unbounded(self):
        gtuple = single_tuple(["2 + 6n"], "t0 >= 3")
        result = optimize_tuple(gtuple, "max", 0)
        assert result.status == "unbounded"
        cert = result.certificate
        assert cert.direction == 1
        assert cert.period % 6 == 0
        assert gtuple.contains(cert.shifted(5))

    def test_singleton(self):
        gtuple = single_tuple(["5"])
        assert optimize_tuple(gtuple, "min", 0).value == 5
        assert optimize_tuple(gtuple, "max", 0).value == 5

    def test_empty_tuple(self):
        gtuple = single_tuple(["n"], "t0 >= 5 & t0 <= 3")
        assert optimize_tuple(gtuple, "min", 0).status == "empty"

    def test_difference_pinned_by_equality(self):
        gtuple = single_tuple(["2 + 60n", "80 + 60n"], "t0 = t1 - 78")
        for sense in ("min", "max"):
            result = optimize_tuple(gtuple, sense, 1, j=0)
            assert result.status == "optimal"
            assert result.value == 78

    def test_difference_over_free_pair_is_unbounded(self):
        gtuple = single_tuple(["n", "n"])
        result = optimize_tuple(gtuple, "max", 0, j=1)
        assert result.status == "unbounded"
        assert gtuple.contains(result.certificate.shifted(4))

    def test_difference_window(self):
        # t1 in [t0, t0 + 5] on a period-4 / period-8 grid: the
        # realizable differences are a subset of [0, 5].
        gtuple = single_tuple(["4n", "8n + 1"], "t1 >= t0 & t1 <= t0 + 5")
        assert_parity(gtuple, "min", 1, 0)
        assert_parity(gtuple, "max", 1, 0)

    def test_rejects_bad_sense_and_coordinates(self):
        gtuple = single_tuple(["n"])
        with pytest.raises(ReproValueError):
            optimize_tuple(gtuple, "sup", 0)
        with pytest.raises(ReproValueError):
            optimize_tuple(gtuple, "min", 3)
        two = single_tuple(["n", "n"])
        with pytest.raises(ReproValueError):
            optimize_tuple(two, "min", 0, j=0)


# ----------------------------------------------------------------------
# relation-level aggregation
# ----------------------------------------------------------------------


class TestOptimizeRelation:
    def trains(self):
        rel = relation(temporal=["dep", "arr"], data=["service"])
        rel.add_tuple(["2 + 60n", "80 + 60n"], "dep = arr - 78", ["slow"])
        rel.add_tuple(["46 + 60n", "110 + 60n"], "dep = arr - 64", ["express"])
        return rel

    def test_argmin_provenance(self):
        result = optimize_relation(self.trains(), Objective("arr", "dep"), "min")
        assert result.status == "optimal"
        assert result.value == 64
        assert result.argopt.data == ("express",)
        assert result.tuples_examined == 2

    def test_argmax_provenance(self):
        result = optimize_relation(self.trains(), Objective("arr", "dep"), "max")
        assert result.value == 78
        assert result.argopt.data == ("slow",)

    def test_any_unbounded_tuple_wins(self):
        rel = relation(temporal=["t"])
        rel.add_tuple(["5"])
        rel.add_tuple(["3n"], "t >= 0")
        result = optimize_relation(rel, Objective("t"), "max")
        assert result.status == "unbounded"
        assert result.infinity == "+inf"
        # The certificate walks inside the reported argopt tuple.
        assert result.argopt.contains(result.certificate.shifted(2))

    def test_empty_tuples_are_skipped(self):
        rel = relation(temporal=["t"])
        rel.add_tuple(["n"], "t >= 5 & t <= 3")
        rel.add_tuple(["7"])
        result = optimize_relation(rel, Objective("t"), "min")
        assert result.status == "optimal"
        assert result.value == 7

    def test_empty_relation(self):
        rel = relation(temporal=["t"])
        result = optimize_relation(rel, Objective("t"), "min")
        assert result.status == "empty"
        assert result.value is None
        assert "empty" in str(result)

    def test_argopt_restriction_pins_the_objective(self):
        rel = relation(temporal=["t"])
        rel.add_tuple(["2 + 6n"], "t >= 3")
        result = optimize_relation(rel, Objective("t"), "min")
        face = result.argopt_restriction()
        assert face.contains([8])
        assert not face.contains([14])

    def test_argopt_restriction_of_unbounded_is_empty(self):
        rel = relation(temporal=["t"])
        rel.add_tuple(["2 + 6n"])
        result = optimize_relation(rel, Objective("t"), "max")
        assert len(result.argopt_restriction()) == 0


# ----------------------------------------------------------------------
# exactness properties: optimize == enumeration over a finite window
# ----------------------------------------------------------------------


class TestParityProperties:
    @settings(max_examples=60, deadline=None)
    @given(generalized_tuples(temporal_arity=2))
    def test_hypothesis_single_and_difference(self, gtuple):
        for sense in ("min", "max"):
            assert_parity(gtuple, sense, 0)
            assert_parity(gtuple, sense, 0, 1)

    def test_seeded_corpus_replay(self):
        rng = random.Random(0xBEEF)
        statuses = set()
        for _ in range(150):
            gtuple = seeded_tuple(rng, temporal_arity=2)
            for sense, i, j in (
                ("min", 0, None),
                ("max", 0, None),
                ("min", 0, 1),
                ("max", 1, 0),
            ):
                statuses.add(assert_parity(gtuple, sense, i, j).status)
        # The corpus must actually exercise every verdict, including
        # the unbounded and empty edge cases.
        assert statuses == {"optimal", "unbounded", "empty"}

    def test_seeded_relation_aggregation(self):
        rng = random.Random(0xA11)
        schema = Schema.make(temporal=["a", "b"])
        for _ in range(40):
            rel = seeded_relation(rng, temporal_arity=2, schema=schema)
            for sense in ("min", "max"):
                result = optimize_relation(rel, Objective("a"), sense)
                values = [p[0] for p in rel.enumerate(-WINDOW, WINDOW)]
                if result.status == "empty":
                    assert not values
                elif result.status == "optimal":
                    best = min(values) if sense == "min" else max(values)
                    assert result.value == best
                else:
                    assert result.argopt.contains(
                        result.certificate.shifted(3)
                    )

    def test_regression_corpus_relations(self):
        # The shrunk fuzz corpus pins algebra bugs; replay its base
        # relations through the optimizer leg too.
        corpus = sorted(
            (Path(__file__).parent / "corpus").glob("*.json")
        )
        assert corpus
        for path in corpus:
            case = load_case(path)
            for rel in case.relations.values():
                arity = len(rel.schema.temporal_names)
                for gtuple in rel:
                    for i in range(arity):
                        assert_parity(gtuple, "min", i)
                        assert_parity(gtuple, "max", i)


# ----------------------------------------------------------------------
# branch-and-bound == optimizing every tuple in relation order
# ----------------------------------------------------------------------


def optimize_relation_reference(rel, objective, sense):
    """Optimize every tuple in relation order: the first unbounded tuple
    wins, else the first tuple attaining the best value."""
    schema = rel.schema
    i = schema.temporal_index(objective.name)
    j = (
        None
        if objective.minus is None
        else schema.temporal_index(objective.minus)
    )
    better = min if sense == "min" else max
    best = argopt = None
    examined = 0
    for gtuple in rel:
        examined += 1
        outcome = optimize_tuple(gtuple, sense, i, j)
        if outcome.status == "empty":
            continue
        if outcome.status == "unbounded":
            return OptimizationResult(
                sense=sense,
                objective=objective,
                status="unbounded",
                argopt=gtuple,
                certificate=outcome.certificate,
                tuples_examined=examined,
                schema=schema,
            )
        if best is None or better(best.value, outcome.value) != best.value:
            best, argopt = outcome, gtuple
    if best is None:
        return OptimizationResult(
            sense=sense,
            objective=objective,
            status="empty",
            tuples_examined=examined,
            schema=schema,
        )
    return OptimizationResult(
        sense=sense,
        objective=objective,
        status="optimal",
        value=best.value,
        witness=best.witness,
        argopt=argopt,
        tuples_examined=examined,
        schema=schema,
    )


AB = Schema.make(temporal=["a", "b"])
OBJECTIVES = (Objective("a"), Objective("b"), Objective("b", "a"))


def _lrp(rng):
    period = rng.choice([0, 1, 2, 3, 4, 6])
    return LRP.make(rng.randint(0, 5), period)


def _bounded_tuples(rng, count):
    """``(lrps, constraints)`` of tuples bounding a, b and b - a."""
    out = []
    for _ in range(count):
        low = rng.randint(-4, 4)
        d1 = rng.randint(-3, 3)
        out.append((
            [_lrp(rng), _lrp(rng)],
            f"a >= {low} & a <= {low + rng.randint(0, 8)} & "
            f"b >= a + {d1} & b <= a + {d1 + rng.randint(0, 6)}",
        ))
    return out


#: Tuples denoting the empty set, with bounds tighter than any above: an
#: unsatisfiable system, and satisfiable ones whose forced values miss
#: their lrps (1 + 2n holds no even value).
EMPTY_TUPLES = [
    ([LRP.make(0, 1), LRP.make(0, 1)], "a >= 5 & a <= 2"),
    ([LRP.make(1, 2), LRP.make(0, 1)], "a = -10 & b = -10"),
    ([LRP.make(1, 2), LRP.make(0, 1)], "a = 20 & b = 40"),
]
#: Unbounded in a and b both ways and in max(b - a).
UNBOUNDED_TUPLE = ([LRP.make(1, 2), LRP.make(0, 3)], "b >= a + 1")


def _relation(items):
    rel = GeneralizedRelation.empty(AB)
    for lrps, constraints in items:
        rel.add_tuple(lrps, constraints)
    return rel


def _assert_same_result(rel, objective, sense):
    got = optimize_relation(rel, objective, sense)
    expected = optimize_relation_reference(rel, objective, sense)
    assert got == expected
    assert got.argopt is expected.argopt
    return got


class TestBranchAndBoundMatchesRelationOrder:
    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_relations(self, seed):
        rng = random.Random(seed)
        items = _bounded_tuples(rng, rng.randint(1, 8))
        for empty in EMPTY_TUPLES:
            items.insert(rng.randint(0, len(items)), empty)
        statuses = set()
        for objective in OBJECTIVES:
            for sense in ("min", "max"):
                for variant in (items, items[::-1]):
                    rel = _relation(variant)
                    statuses.add(
                        _assert_same_result(rel, objective, sense).status
                    )
                    unbounded = _relation(variant + [UNBOUNDED_TUPLE])
                    statuses.add(
                        _assert_same_result(unbounded, objective, sense).status
                    )
        assert statuses == {"optimal", "unbounded"}

    @pytest.mark.parametrize("seed", range(12))
    def test_planted_ties_in_both_orders(self, seed):
        rng = random.Random(1000 + seed)
        items = _bounded_tuples(rng, rng.randint(2, 8))
        rel = _relation(items)
        for objective in OBJECTIVES:
            for sense in ("min", "max"):
                result = optimize_relation_reference(rel, objective, sense)
                # The argopt tuple pinned at the optimum ties with it and
                # has the tightest possible bound.
                (pinned,) = result.argopt_restriction()
                tuples = list(rel)
                at = tuples.index(result.argopt)
                for position in (at, at + 1, 0, len(tuples)):
                    planted = GeneralizedRelation(
                        AB, tuples[:position] + [pinned] + tuples[position:]
                    )
                    got = _assert_same_result(planted, objective, sense)
                    assert got.value == result.value

    def test_empty_relations_and_all_empty_tuples(self):
        for items in ([], EMPTY_TUPLES, EMPTY_TUPLES[::-1]):
            rel = _relation(items)
            for objective in OBJECTIVES:
                for sense in ("min", "max"):
                    got = _assert_same_result(rel, objective, sense)
                    assert got.status == "empty"
                    assert got.tuples_examined == len(items)


# ----------------------------------------------------------------------
# the scheduling scenario pack vs its oracle
# ----------------------------------------------------------------------


@pytest.mark.parametrize("scenario", scenario_pack(), ids=lambda s: s.name)
class TestSchedulingScenarios:
    def test_matches_oracle_and_expectation(self, scenario):
        result = run_scenario(scenario)
        if scenario.expect_unbounded:
            assert result.status == "unbounded"
            assert result.certificate is not None
            assert oracle_optimum(scenario) is None
        else:
            assert result.status == "optimal"
            assert result.value == scenario.expected
            assert result.value == oracle_optimum(scenario)
            assert result.witness is not None

    def test_invariant_under_plan_rewrites(self, scenario):
        # The optimizer leg: the same directive through the planner's
        # rewrite passes must reach the identical verdict.
        base = run_scenario(scenario)
        rewritten = scenario.build().query(scenario.query, optimize=True)
        assert rewritten.status == base.status
        assert rewritten.value == base.value


# ----------------------------------------------------------------------
# the directive surfaces: parsing, Database.query, EXPLAIN, CLI, serve
# ----------------------------------------------------------------------


class TestObjectiveGrammar:
    def test_parse_objective_splits_prefix(self):
        objective, rest = parse_objective("arr - dep : Train(dep, arr)")
        assert objective == Objective("arr", "dep")
        assert rest.strip() == "Train(dep, arr)"

    def test_zero_objective_rejected(self):
        with pytest.raises(ParseError):
            Objective.parse("t - t")
        with pytest.raises(ParseError):
            parse_objective("t - t : Tick(t)")

    def test_missing_colon_rejected(self):
        with pytest.raises(ParseError):
            parse_objective("t Tick(t)")


class TestDirectiveSurfaces:
    @pytest.fixture
    def db(self):
        db = Database()
        db.create("Event", temporal=["t"])
        db.relation("Event").add_tuple(["2 + 6n"], "t >= 0")
        return db

    def test_query_dispatches_directives(self, db):
        result = db.query("MINIMIZE t : Event(t) & t >= 3")
        assert (result.status, result.value, result.witness) == (
            "optimal", 8, (8,),
        )
        assert db.query("MAXIMIZE t : Event(t)").infinity == "+inf"

    def test_crt_join_of_periodic_tuples(self, db):
        # {2 + 6n} meets {5 + 9n} exactly on {14 + 18n} (CRT): the
        # minimum over t >= 0 is 14, the maximum has period-18 descent.
        db.create("Other", temporal=["t"])
        db.relation("Other").add_tuple(["5 + 9n"])
        q = "Event(t) & Other(t) & t >= 0"
        low = db.optimize(f"MINIMIZE t : {q}")
        assert (low.value, low.witness) == (14, (14,))
        high = db.optimize(f"MAXIMIZE t : {q}")
        assert high.status == "unbounded"
        assert high.certificate.period == 18

    def test_objective_must_be_free_in_query(self, db):
        with pytest.raises(EvaluationError):
            db.optimize("MINIMIZE z : Event(t)")

    def test_explain_minimize_composes(self, db):
        plan = str(db.query("EXPLAIN MINIMIZE t : Event(t) & t >= 3"))
        assert "optimize" in plan and "min t" in plan
        assert "scan" in plan

    def test_explain_analyze_maximize_composes(self, db):
        trace = db.query("EXPLAIN ANALYZE MAXIMIZE t : Event(t)")
        assert "query.optimize" in trace.flamegraph()

    def test_keyword_prefix_is_not_a_directive(self, db):
        # A relation whose name starts with a directive keyword still
        # parses as a plain query.
        db.create("MINIMIZER", temporal=["t"])
        db.relation("MINIMIZER").add_tuple(["4"])
        assert db.query("MINIMIZER(t)").contains([4])

    def test_metrics_count_optimize_queries(self, db):
        from repro.obs.metrics import COUNTERS

        before = COUNTERS["optimize.queries"]
        db.optimize("MINIMIZE t : Event(t) & t >= 3")
        assert COUNTERS["optimize.queries"] == before + 1


class TestCliEndToEnd:
    @pytest.fixture
    def session(self):
        s = Session()
        s.execute("create Event(t:T)")
        s.execute("insert Event [2 + 6n] : t >= 0")
        return s

    def test_minimize_command(self, session):
        out = session.execute("minimize t : Event(t) & t >= 3")
        assert "min t = 8" in out
        assert "witness: (8,)" in out

    def test_maximize_via_query_directive(self, session):
        out = session.execute("query MAXIMIZE t : Event(t)")
        assert "+inf" in out
        assert "certificate" in out

    def test_explain_minimize(self, session):
        out = session.execute("query EXPLAIN MINIMIZE t : Event(t) & t >= 3")
        assert "optimize" in out and "min t" in out

    def test_malformed_objective_is_a_clean_error(self, session):
        out = session.execute("minimize Event(t)")
        assert out.startswith("error:")


class TestServeEndToEnd:
    def test_optimize_over_the_wire(self):
        from repro.serve import ReproServer, SyncClient

        with ReproServer() as srv, SyncClient(port=srv.port) as client:
            client.commit([
                {"op": "create", "name": "Event",
                 "temporal": ["t"], "data": []},
                {"op": "insert", "name": "Event", "lrps": ["2 + 6n"],
                 "constraints": "t >= 0", "data": []},
            ])
            low = client.optimize("MINIMIZE t : Event(t) & t >= 3")
            assert low["status"] == "optimal"
            assert low["value"] == 8
            assert low["witness"] == [8]
            high = client.optimize("MAXIMIZE t : Event(t)")
            assert high["value"] == "+inf"
            cert = high["certificate"]
            assert cert["period"] == 6 and cert["direction"] == 1
