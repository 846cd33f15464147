"""Tests for the plan rewrite passes (pushdown, reordering, CSE)."""

from repro.core.relations import GeneralizedRelation, Schema
from repro.plan import nodes as ir
from repro.plan.cost import CostModel
from repro.plan.nodes import truth_literal, universe_literal
from repro.plan.rewrite import (
    collapse_projects,
    dedup_subtrees,
    finish_plan,
    fold_constants,
    fuse_selects,
    has_join_chain,
    optimize_plan,
    push_projects,
    push_selects,
    reorder_joins,
    window_joins,
)

T1 = Schema.make(temporal=["t"])
TT = Schema.make(temporal=["t1", "t2"])


def scan(name: str = "R", schema: Schema = TT) -> ir.Scan:
    return ir.Scan(name, schema)


def stored(schema: Schema, n: int) -> GeneralizedRelation:
    rel = GeneralizedRelation.empty(schema)
    for i in range(n):
        rel.add_tuple([str(2 * i + 1)] * len(schema))
    return rel


class TestFoldConstants:
    def test_truth_seed_dropped(self):
        tree = ir.Join(truth_literal(True), scan(), labels=(("join", "x"),))
        folded, count = fold_constants(tree)
        assert count == 1
        assert isinstance(folded, ir.Scan)
        # The dropped join's provenance moved onto the survivor.
        assert folded.labels[0] == ("join", "x")

    def test_selected_universe_becomes_selection(self):
        comparison = ir.Select(universe_literal(["t1"]), "t1 >= 0")
        tree = ir.Join(scan(), comparison)
        folded, count = fold_constants(tree)
        assert count == 1
        assert isinstance(folded, ir.Select)
        assert folded.condition == "t1 >= 0"
        assert isinstance(folded.child, ir.Scan)

    def test_universe_needs_attribute_on_other_side(self):
        comparison = ir.Select(universe_literal(["z"]), "z >= 0")
        tree = ir.Join(scan(), comparison)
        folded, count = fold_constants(tree)
        assert count == 0 and folded is tree

    def test_empty_union_folds(self):
        from repro.plan.nodes import empty_literal

        tree = ir.Union(empty_literal(TT), scan())
        folded, count = fold_constants(tree)
        assert count == 1 and isinstance(folded, ir.Scan)


class TestSelectionPasses:
    def test_fuse_adjacent_selects(self):
        tree = ir.Select(ir.Select(scan(), "t1 >= 0"), "t2 <= 5")
        fused, count = fuse_selects(tree)
        assert count == 1
        assert isinstance(fused, ir.Select)
        assert fused.condition == "t2 <= 5 & t1 >= 0"
        assert isinstance(fused.child, ir.Scan)

    def test_push_select_through_union(self):
        tree = ir.Select(ir.Union(scan("A"), scan("B")), "t1 >= 0")
        pushed, count = push_selects(tree)
        assert count == 1
        assert isinstance(pushed, ir.Union)
        assert all(isinstance(c, ir.Select) for c in pushed.children)

    def test_push_select_splits_across_join(self):
        left = scan("A", Schema.make(temporal=["x"]))
        right = scan("B", Schema.make(temporal=["y"]))
        tree = ir.Select(ir.Join(left, right), "x >= 0 & y <= 3 & x <= y")
        pushed, count = push_selects(tree)
        assert count == 1
        # The cross-side atom stays in an outer selection.
        assert isinstance(pushed, ir.Select)
        assert pushed.condition == "x <= y"
        join = pushed.child
        assert isinstance(join, ir.Join)
        assert join.left.condition == "x >= 0"
        assert join.right.condition == "y <= 3"

    def test_push_select_through_rename(self):
        tree = ir.Select(
            ir.Rename(scan(), (("t1", "a"), ("t2", "b"))), "a <= b + 2"
        )
        pushed, count = push_selects(tree)
        assert count == 1
        assert isinstance(pushed, ir.Rename)
        assert pushed.child.condition == "t1 <= t2 + 2"

    def test_push_select_stops_at_complement(self):
        tree = ir.Select(ir.Complement(scan()), "t1 >= 0")
        pushed, count = push_selects(tree)
        assert count == 0 and pushed is tree

    def test_push_select_minuend_only(self):
        tree = ir.Select(ir.Subtract(scan("A"), scan("B")), "t1 >= 0")
        pushed, count = push_selects(tree)
        assert count == 1
        assert isinstance(pushed, ir.Subtract)
        assert isinstance(pushed.left, ir.Select)
        assert isinstance(pushed.right, ir.Scan)


class TestProjectionPasses:
    def test_push_project_narrows_join(self):
        left = scan("A", Schema.make(temporal=["x", "y"]))
        right = scan("B", Schema.make(temporal=["y", "z"]))
        tree = ir.Project(ir.Join(left, right), ("x",))
        pushed, count = push_projects(tree)
        assert count >= 1
        join = pushed.child
        assert isinstance(join, ir.Join)
        # Right side narrowed to the shared attribute only.
        assert join.right.schema.names == ("y",)

    def test_push_project_keeps_a_join_chain_whole(self):
        # ``y`` links A and B only; ``w`` is read by C alone.
        a = scan("A", Schema.make(temporal=["x", "y"]))
        b = scan("B", Schema.make(temporal=["y", "z"]))
        c = scan("C", Schema.make(temporal=["z", "w"]))
        tree = ir.Project(ir.Join(ir.Join(a, b), c), ("x", "z"))
        pushed, count = push_projects(tree)
        assert count == 1
        chain = pushed.child
        assert has_join_chain(chain)
        assert chain.left == ir.Join(a, b)
        assert chain.right == ir.Project(c, ("z",))
        assert pushed.names == ("x", "z")

    def test_push_project_stops_at_subtract(self):
        tree = ir.Project(ir.Subtract(scan("A"), scan("B")), ("t1",))
        pushed, count = push_projects(tree)
        assert count == 0 and pushed is tree

    def test_collapse_chain_and_identity(self):
        tree = ir.Project(ir.Project(scan(), ("t1", "t2")), ("t1",))
        collapsed, count = collapse_projects(tree)
        assert count == 1  # the chain merged into one projection
        assert isinstance(collapsed, ir.Project)
        assert collapsed.names == ("t1",)
        assert isinstance(collapsed.child, ir.Scan)

    def test_identity_project_dropped(self):
        tree = ir.Project(scan(), ("t1", "t2"))
        collapsed, count = collapse_projects(tree)
        assert count == 1 and isinstance(collapsed, ir.Scan)


class TestReorderJoins:
    def test_small_chains_untouched(self):
        tree = ir.Join(scan("A"), scan("B", Schema.make(temporal=["t1"])))
        model = CostModel(relations={}, domain_size=0)
        out, count = reorder_joins(tree, model)
        assert count == 0 and out is tree

    def test_chain_reordered_by_size(self):
        a = scan("A", Schema.make(temporal=["x"]))
        b = scan("B", Schema.make(temporal=["x", "y"]))
        c = scan("C", Schema.make(temporal=["y"]))
        relations = {
            "A": stored(a.schema, 3),
            "B": stored(b.schema, 40),
            "C": stored(c.schema, 1),
        }
        tree = ir.Join(ir.Join(b, a), c)
        model = CostModel(relations=relations, domain_size=0)
        out, count = reorder_joins(tree, model)
        assert count == 1
        # The big relation B no longer leads the chain.
        leaves = [n for n in out.walk() if isinstance(n, ir.Scan)]
        assert leaves[0].name != "B"
        # Schema (column order) is preserved via a wrapping projection.
        assert tuple(out.schema.names) == tuple(tree.schema.names)


class TestWindowJoins:
    def test_select_over_join_folds_into_the_join(self):
        left = scan("A", Schema.make(temporal=["s"], data=["u"]))
        right = scan("B", Schema.make(temporal=["t"], data=["u"]))
        join = ir.Join(left, right, labels=(("join", "j"),))
        tree = ir.Select(join, "s <= t & t <= s + 4", labels=(("compare", "c"),))
        out, count = window_joins(tree)
        assert count == 1
        assert isinstance(out, ir.Join)
        assert out.condition == "s <= t & t <= s + 4"
        assert out.labels == (("compare", "c"), ("join", "j"))
        assert out.describe() == "join[s <= t & t <= s + 4]"
        assert out.schema == join.schema
        assert out.key() == ("join", left.key(), right.key(), out.condition)
        # A second fold conjoins onto the existing condition.
        again, count = window_joins(ir.Select(out, "s >= 0"))
        assert count == 1
        assert again.condition == "s >= 0 & s <= t & t <= s + 4"

    def test_unconditioned_join_keeps_its_key_and_dict(self):
        join = ir.Join(scan("A", T1), scan("B", TT))
        assert join.key() == ("join", join.left.key(), join.right.key())
        assert "detail" not in join.to_dict()
        assert join.describe() == "join"

    def test_other_passes_leave_conditioned_joins_alone(self):
        a = scan("A", Schema.make(temporal=["x"]))
        b = scan("B", Schema.make(temporal=["x", "y"]))
        c = scan("C", Schema.make(temporal=["y", "z"]))
        theta = ir.Join(ir.Join(b, a), c, "z <= x + 2")
        relations = {
            name: stored(node.schema, n)
            for name, node, n in zip("ABC", (a, b, c), (40, 3, 1))
        }
        assert reorder_joins(theta, CostModel(relations))[0] is theta
        assert push_selects(ir.Select(theta, "x >= 0"))[0].child is theta
        assert push_projects(ir.Project(theta, ("x",)))[0].child is theta
        seeded = ir.Join(truth_literal(True), c, "z <= y")
        assert fold_constants(seeded)[0] is seeded


class TestDedup:
    def test_shared_subtrees_interned(self):
        left = ir.Select(scan(), "t1 >= 0")
        right = ir.Select(scan(), "t1 >= 0")
        assert left is not right
        out, hits = dedup_subtrees(ir.Union(left, right))
        assert hits >= 1
        assert out.left is out.right

    def test_labels_do_not_block_interning(self):
        left = ir.Select(scan(), "t1 >= 0").add_label("compare")
        right = ir.Select(scan(), "t1 >= 0")
        out, hits = dedup_subtrees(ir.Union(left, right))
        assert hits >= 1
        assert out.left is out.right


class TestPipeline:
    def test_reports_cover_every_pass(self):
        tree = ir.Join(truth_literal(True), scan())
        out, reports = optimize_plan(tree)
        names = [r.name for r in reports]
        assert names == [
            "fold-constants",
            "fuse-selects",
            "push-selects",
            "push-projects",
            "collapse-projects",
            "reorder-joins",
            "window-joins",
            "dedup-subtrees",
        ]
        assert reports[0].rewrites == 1
        assert reports[0].nodes_after < reports[0].nodes_before
        assert isinstance(out, ir.Scan)

    def test_staged_plan_finishes_to_the_full_pipeline(self):
        a = scan("A", Schema.make(temporal=["x"]))
        b = scan("B", Schema.make(temporal=["x", "y"]))
        c = scan("C", Schema.make(temporal=["y"]))
        chain = ir.Join(ir.Join(truth_literal(True), ir.Join(b, a)), c)
        pair = ir.Join(truth_literal(True), ir.Join(b, a))
        for sizes in ((3, 40, 1), (40, 3, 1), (1, 3, 40)):
            relations = {
                name: stored(node.schema, n)
                for name, node, n in zip("ABC", (a, b, c), sizes)
            }
            for tree in (chain, pair):
                full, reports = optimize_plan(tree, relations, 2)
                staged, structural = optimize_plan(tree, costed=False)
                finished, costed = finish_plan(staged, relations, 2)
                assert finished.key() == full.key()
                assert structural + costed == reports
        assert has_join_chain(optimize_plan(chain, costed=False)[0])
        assert not has_join_chain(optimize_plan(pair, costed=False)[0])
        assert not has_join_chain(scan())

    def test_planner_metrics_emitted(self):
        from repro.obs.metrics import get_registry

        registry = get_registry()
        before = registry.snapshot()["counters"].get("planner.optimized", 0)
        optimize_plan(ir.Join(truth_literal(True), scan()))
        counters = registry.snapshot()["counters"]
        assert counters.get("planner.optimized", 0) == before + 1
        assert counters.get("planner.pass.fold-constants", 0) >= 1

    def test_fixture_query_pushdown_is_visible(self):
        """ISSUE acceptance: pushdown + folding visible on Even(t) & t >= 0."""
        from repro.query import Database

        db = Database()
        db.create("Even", temporal=["t"])
        db.relation("Even").add_tuple(["2n"])
        report = db.plan("Even(t) & t >= 0", optimize=True)
        # The naive plan joins against a selected universe ...
        assert any(
            isinstance(n, ir.Literal) and n.token[0] == "universe"
            for n in report.naive.walk()
        )
        # ... the optimized plan turned it into a pushed-down selection
        # sitting directly on the scan.
        selects = [
            n for n in report.plan.walk() if isinstance(n, ir.Select)
        ]
        assert len(selects) == 1
        assert isinstance(selects[0].child, ir.Scan)
        assert report.plan.size() < report.naive.size()
        assert sum(p.rewrites for p in report.passes) >= 3
