"""Optimized plans and naive evaluation must denote the same point sets.

This is the gate for the logical planner: every rewrite pass is
semantics-preserving, verified three ways — hypothesis-driven random
cases through the fuzz generator, replay of the shrunk regression
corpus with the plan leg forced on, and hand-built edge cases
(pushdown blocked at complements, empty relations, shared subtrees).
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.relations import GeneralizedRelation, Schema
from repro.fuzz.case import Case, load_case
from repro.fuzz.diff import (
    DEFAULT_CONFIG,
    DiffConfig,
    OversizeError,
    eval_generalized,
    eval_planned,
    plan_from_expr,
    run_case,
)
from repro.fuzz.expr import (
    Complement,
    Join,
    Leaf,
    Project,
    Select,
    Subtract,
    Union,
)
from repro.fuzz.gen import generate_case
from repro.perf import config as perf_config

CORPUS_FILES = sorted((Path(__file__).parent / "corpus").glob("*.json"))

PLAN_CONFIG = DiffConfig(plan_check=True)


def naive_eval(case: Case) -> GeneralizedRelation:
    with perf_config.overrides(
        prefilter_enabled=False,
        incremental_enabled=False,
    ):
        return eval_generalized(case, DEFAULT_CONFIG)


def assert_plan_matches_naive(case: Case) -> None:
    try:
        naive = naive_eval(case)
        planned = eval_planned(case, DEFAULT_CONFIG)
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
        result = run_case(generate_case(seed), PLAN_CONFIG)
        assert not result.failing, result.summary()


class TestCorpusReplayWithPlanLeg:
    @pytest.mark.parametrize(
        "path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES]
    )
    def test_corpus_case_replays_clean_optimized(self, path):
        case = load_case(path)
        result = run_case(case, PLAN_CONFIG)
        assert not result.failing, (
            f"{path.name} regressed under the optimized plan "
            f"({case.note or 'no note'}):\n{result.summary()}"
        )


def two_relation_case(expr, r_tuples=(), s_tuples=()) -> Case:
    """A small case over R(t1, t2) and S(t1, t2)."""
    schema = Schema.make(temporal=["t1", "t2"])
    relations = {
        "R": GeneralizedRelation.empty(schema),
        "S": GeneralizedRelation.empty(schema),
    }
    for lrps, cond in r_tuples:
        relations["R"].add_tuple(lrps, cond)
    for lrps, cond in s_tuples:
        relations["S"].add_tuple(lrps, cond)
    return Case(relations=relations, expr=expr, low=-8, high=8)


class TestEdgeCases:
    def test_pushdown_blocked_at_complement(self):
        """σ over ¬R must NOT push inside — and must stay correct."""
        from repro.plan import nodes as ir
        from repro.plan.rewrite import optimize_plan

        case = two_relation_case(
            Select(Complement(Leaf("R")), "t1 <= t2"),
            r_tuples=[((["2n", "3n"], ""))],
        )
        plan, _ = optimize_plan(
            plan_from_expr(case), relations=case.relations
        )
        # Structurally: the selection is still above the complement.
        ops = [n.op for n in plan.walk()]
        assert ops.index("select") < ops.index("complement")
        assert_plan_matches_naive(case)

    def test_pushdown_into_union_under_projection(self):
        case = two_relation_case(
            Project(
                Select(Union(Leaf("R"), Leaf("S")), "t1 >= 0 & t1 <= t2"),
                ["t1"],
            ),
            r_tuples=[((["2n", "1 + 2n"], "t1 <= t2"))],
            s_tuples=[((["3n", "5"], ""))],
        )
        assert_plan_matches_naive(case)

    def test_empty_relations(self):
        """Rewrites over fully empty inputs stay sound."""
        for expr in (
            Join(Leaf("R"), Leaf("S")),
            Subtract(Complement(Leaf("R")), Leaf("S")),
            Project(Union(Leaf("R"), Leaf("S")), ["t1"]),
            Select(Leaf("R"), "t1 >= 0"),
        ):
            assert_plan_matches_naive(two_relation_case(expr))

    def test_empty_one_side(self):
        case = two_relation_case(
            Select(Join(Leaf("R"), Leaf("S")), "t1 >= 0"),
            r_tuples=[((["2n", "4"], ""))],
        )
        assert_plan_matches_naive(case)

    def test_shared_subtree_cse(self):
        """A deduplicated subtree evaluates once and stays correct."""
        shared = Select(Leaf("R"), "t1 >= 0")
        case = two_relation_case(
            Union(shared, Select(Leaf("R"), "t1 >= 0")),
            r_tuples=[((["2n", "3 + 3n"], "t1 <= t2"))],
        )
        assert_plan_matches_naive(case)

    def test_plan_leg_follows_global_optimize_switch(self):
        """plan_check=None resolves from REPRO_OPTIMIZE / configure()."""
        case = generate_case(7)
        with perf_config.overrides(optimize=True):
            result = run_case(case, DiffConfig())
        assert not result.failing, result.summary()
