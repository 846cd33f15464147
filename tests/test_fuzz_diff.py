"""Tests for the three-way differential executor."""

import pytest

from repro.core.relations import GeneralizedRelation, Schema
from repro.fuzz.case import Case
from repro.fuzz.diff import (
    DEFAULT_CONFIG,
    DiffConfig,
    OversizeError,
    compute_margin,
    eval_finite,
    eval_generalized,
    run_case,
)
from repro.fuzz.expr import (
    Complement,
    Intersect,
    Join,
    Leaf,
    Project,
    Select,
    Subtract,
    Union,
)
from repro.fuzz.gen import generate_case

T1 = Schema.make(temporal=["T1"])
T12 = Schema.make(temporal=["T1", "T2"])


def rel_1d(*specs):
    out = GeneralizedRelation.empty(T1)
    for lrp, constraints in specs:
        out.add_tuple([lrp], constraints)
    return out


def case_over(expr, low=-4, high=4, **relations):
    return Case(relations=dict(relations), expr=expr, low=low, high=high)


class TestEvalGeneralized:
    def test_matches_direct_algebra(self):
        a = rel_1d(("0 + 2n", ""))
        b = rel_1d(("0 + 3n", ""))
        case = case_over(Subtract(Leaf("A"), Leaf("B")), A=a, B=b)
        got = eval_generalized(case)
        assert got.snapshot(-10, 10) == a.subtract(b).snapshot(-10, 10)

    def test_tuple_cap_trips(self):
        a = rel_1d(("0 + 2n", ""), ("1 + 4n", ""), ("3 + 5n", ""))
        case = case_over(Complement(Leaf("A")), A=a)
        with pytest.raises(OversizeError):
            eval_generalized(case, DiffConfig(tuple_cap=1))


class TestEvalFinite:
    def test_exact_without_projection(self):
        a = rel_1d(("1 + 3n", "T1 >= -3"))
        b = rel_1d(("0 + 2n", ""))
        expr = Union(Intersect(Leaf("A"), Leaf("B")), Subtract(Leaf("B"), Leaf("A")))
        case = case_over(expr, A=a, B=b)
        assert compute_margin(case) == 0
        finite = eval_finite(case, 0)
        symbolic = eval_generalized(case)
        assert set(finite.rows) == symbolic.snapshot(case.low, case.high)

    def test_projection_needs_margin(self):
        # A = {(t1, t2) : t2 = t1 + 9}; projecting onto T1 inside
        # window [-4, 4] requires witnesses t2 in [5, 13] — all outside
        # the window.  Margin 0 loses every row; the computed margin
        # finds them.
        a = GeneralizedRelation.empty(T12)
        a.add_tuple(["0 + 1n", "0 + 1n"], "T2 = T1 + 9")
        case = case_over(Project(Leaf("A"), ("T1",)), A=a)
        margin = compute_margin(case)
        assert margin > 9
        assert set(eval_finite(case, 0).rows) == set()
        exact = eval_generalized(case).snapshot(case.low, case.high)
        assert exact  # all of [-4, 4]
        assert set(eval_finite(case, margin).rows) == exact

    def test_complement_windows(self):
        a = rel_1d(("0 + 2n", ""))
        case = case_over(Complement(Leaf("A")), A=a)
        finite = eval_finite(case, 0)
        assert set(finite.rows) == {(t,) for t in range(-3, 5, 2)}

    def test_row_cap_trips(self):
        a = rel_1d(("0 + 1n", ""))
        case = case_over(Leaf("A"), low=-50, high=50, A=a)
        with pytest.raises(OversizeError):
            eval_finite(case, 0, DiffConfig(row_cap=10))

    def test_select_predicate_matches_algebra(self):
        a = GeneralizedRelation.empty(T12)
        a.add_tuple(["0 + 2n", "1 + 3n"], "")
        expr = Select(Leaf("A"), "T1 <= T2 - 1 & T2 >= 0")
        case = case_over(expr, A=a)
        finite = eval_finite(case, 0)
        symbolic = eval_generalized(case)
        assert set(finite.rows) == symbolic.snapshot(case.low, case.high)


class TestRunCase:
    def test_clean_case_is_ok(self):
        a = rel_1d(("1 + 3n", ""))
        b = rel_1d(("0 + 2n", ""))
        result = run_case(case_over(Join(Leaf("A"), Leaf("B")), A=a, B=b))
        assert result.ok
        assert not result.divergences

    def test_generated_seeds_are_clean(self):
        for seed in range(40):
            result = run_case(generate_case(seed))
            assert not result.failing, result.summary()

    def test_oversize_is_a_skip_not_a_failure(self):
        a = rel_1d(("0 + 1n", ""))
        case = case_over(Leaf("A"), low=-50, high=50, A=a)
        result = run_case(case, DiffConfig(row_cap=10))
        assert result.status == "oversize"
        assert not result.failing

    def test_invalid_case_reports_error(self):
        case = case_over(Leaf("A"), A=rel_1d()).__class__(
            relations={}, expr=Leaf("A"), low=0, high=1
        )
        result = run_case(case)
        assert result.status == "error"
        assert result.failing

    def test_divergence_direction_labels(self):
        # Force a fake divergence by comparing against a case whose
        # expression evaluates fine; mutate the algebra via monkeypatch
        # in test_fuzz_shrink instead.  Here just check the ok path's
        # fields stay empty.
        result = run_case(case_over(Leaf("A"), A=rel_1d(("2", ""))))
        assert result.margin == 0
        assert result.retried is False

    def test_counts_metrics(self):
        from repro.obs.metrics import COUNTERS

        before = COUNTERS["fuzz.cases"]
        run_case(case_over(Leaf("A"), A=rel_1d(("2", ""))))
        assert COUNTERS["fuzz.cases"] == before + 1


class TestMargin:
    def test_no_project_no_margin(self):
        a = rel_1d(("0 + 2n", "T1 <= 99"))
        case = case_over(Complement(Leaf("A")), A=a)
        assert compute_margin(case) == 0

    def test_margin_grows_with_constants(self):
        small = GeneralizedRelation.empty(T12)
        small.add_tuple(["0 + 1n", "0 + 1n"], "T2 = T1 + 1")
        big = GeneralizedRelation.empty(T12)
        big.add_tuple(["0 + 1n", "0 + 1n"], "T2 = T1 + 50")
        expr = Project(Leaf("A"), ("T1",))
        m_small = compute_margin(case_over(expr, A=small))
        m_big = compute_margin(case_over(expr, A=big))
        assert m_big > m_small
        assert m_big > 50

    def test_margin_uses_only_referenced_relations(self):
        a = GeneralizedRelation.empty(T12)
        a.add_tuple(["0 + 1n", "0 + 1n"], "T2 = T1 + 2")
        noisy = GeneralizedRelation.empty(T12)
        noisy.add_tuple(["0 + 1n", "0 + 1n"], "T2 = T1 + 500")
        expr = Project(Leaf("A"), ("T1",))
        with_noise = Case(
            relations={"A": a, "B": noisy}, expr=expr, low=-4, high=4
        )
        without = case_over(expr, A=a)
        assert compute_margin(with_noise) == compute_margin(without)
