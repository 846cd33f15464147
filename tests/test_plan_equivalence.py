"""Optimized plans and naive evaluation must denote the same point sets.

This is the gate for the logical planner: every rewrite pass is
semantics-preserving, verified three ways — hypothesis-driven random
cases through the fuzz generator, replay of the shrunk regression
corpus, and hand-built edge cases (pushdown blocked at complements,
empty relations, shared subtrees).  The naive side runs the plan as
built, the optimized side the rewritten plan, both on the native
engine.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.relations import GeneralizedRelation, Schema
from repro.fuzz.case import Case, load_case
from repro.fuzz.diff import (
    OversizeError,
    eval_naive,
    eval_planned,
    run_case,
)
from repro.fuzz.gen import generate_case
from repro.perf import config as perf_config
from repro.plan.nodes import (
    Complement,
    Join,
    Project,
    Scan,
    Select,
    Subtract,
    Union,
)

CORPUS_FILES = sorted((Path(__file__).parent / "corpus").glob("*.json"))

T12 = Schema.make(temporal=["t1", "t2"])


def scan(name: str) -> Scan:
    return Scan(name, T12)


def assert_plan_matches_naive(case: Case) -> None:
    try:
        naive = eval_naive(case)
        planned = eval_planned(case)
    except OversizeError:
        return  # deterministic cost guard: the case is skipped, not failed
    assert planned.schema == naive.schema
    assert planned.snapshot(case.low, case.high) == naive.snapshot(
        case.low, case.high
    ), f"optimized plan diverged on {case.describe()}"


class TestPropertyEquivalence:
    @given(st.integers(0, 20_000))
    @settings(max_examples=60, deadline=None)
    def test_planned_matches_naive(self, seed):
        assert_plan_matches_naive(generate_case(seed))

    @given(st.integers(0, 20_000))
    @settings(max_examples=25, deadline=None)
    def test_full_differential_with_plan_leg(self, seed):
        result = run_case(generate_case(seed))
        assert not result.failing, result.summary()


class TestCorpusReplayWithPlanLeg:
    @pytest.mark.parametrize(
        "path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES]
    )
    def test_corpus_case_replays_clean_optimized(self, path):
        case = load_case(path)
        result = run_case(case)
        assert not result.failing, (
            f"{path.name} regressed under the optimized plan "
            f"({case.note or 'no note'}):\n{result.summary()}"
        )


def two_relation_case(expr, r_tuples=(), s_tuples=()) -> Case:
    """A small case over R(t1, t2) and S(t1, t2)."""
    relations = {
        "R": GeneralizedRelation.empty(T12),
        "S": GeneralizedRelation.empty(T12),
    }
    for lrps, cond in r_tuples:
        relations["R"].add_tuple(lrps, cond)
    for lrps, cond in s_tuples:
        relations["S"].add_tuple(lrps, cond)
    return Case(relations=relations, expr=expr, low=-8, high=8)


class TestEdgeCases:
    def test_pushdown_blocked_at_complement(self):
        """σ over ¬R must NOT push inside — and must stay correct."""
        from repro.plan.rewrite import optimize_plan

        case = two_relation_case(
            Select(Complement(scan("R")), "t1 <= t2"),
            r_tuples=[((["2n", "3n"], ""))],
        )
        plan, _ = optimize_plan(case.expr, relations=case.relations)
        # Structurally: the selection is still above the complement.
        ops = [n.op for n in plan.walk()]
        assert ops.index("select") < ops.index("complement")
        assert_plan_matches_naive(case)

    def test_pushdown_into_union_under_projection(self):
        case = two_relation_case(
            Project(
                Select(Union(scan("R"), scan("S")), "t1 >= 0 & t1 <= t2"),
                ("t1",),
            ),
            r_tuples=[((["2n", "1 + 2n"], "t1 <= t2"))],
            s_tuples=[((["3n", "5"], ""))],
        )
        assert_plan_matches_naive(case)

    def test_empty_relations(self):
        """Rewrites over fully empty inputs stay sound."""
        for expr in (
            Join(scan("R"), scan("S")),
            Subtract(Complement(scan("R")), scan("S")),
            Project(Union(scan("R"), scan("S")), ("t1",)),
            Select(scan("R"), "t1 >= 0"),
        ):
            assert_plan_matches_naive(two_relation_case(expr))

    def test_empty_one_side(self):
        case = two_relation_case(
            Select(Join(scan("R"), scan("S")), "t1 >= 0"),
            r_tuples=[((["2n", "4"], ""))],
        )
        assert_plan_matches_naive(case)

    def test_shared_subtree_cse(self):
        """A deduplicated subtree evaluates once and stays correct."""
        shared = Select(scan("R"), "t1 >= 0")
        case = two_relation_case(
            Union(shared, Select(scan("R"), "t1 >= 0")),
            r_tuples=[((["2n", "3 + 3n"], "t1 <= t2"))],
        )
        assert_plan_matches_naive(case)

    def test_plan_leg_ignores_global_optimize_switch(self, monkeypatch):
        """Both legs run whatever ``REPRO_OPTIMIZE`` / configure() say."""
        from repro.fuzz import diff

        rewrites = []

        def counting(plan, **kwargs):
            rewrites.append(plan)
            return optimize_plan(plan, **kwargs)

        optimize_plan = diff.optimize_plan
        monkeypatch.setattr(diff, "optimize_plan", counting)
        case = generate_case(7)
        for optimize in (True, False):
            with perf_config.overrides(optimize=optimize):
                result = run_case(case)
            assert not result.failing, result.summary()
        assert rewrites == [case.expr, case.expr]
