"""Unit tests for the relation-expression IR and the native engine."""

import pytest

from repro.core.errors import SchemaError
from repro.core.relations import GeneralizedRelation, Schema
from repro.plan import nodes as ir
from repro.plan.engine import ExecutionContext, NativeEngine
from repro.plan.nodes import (
    empty_literal,
    singleton_literal,
    truth_literal,
    universe_literal,
)

TT = Schema.make(temporal=["t1", "t2"])
TD = Schema.make(temporal=["t"], data=["d"])


def scan(name: str = "R", schema: Schema = TT) -> ir.Scan:
    return ir.Scan(name, schema)


class TestSchemaInference:
    def test_scan_and_select(self):
        node = ir.Select(scan(), "t1 <= t2 + 3")
        assert node.schema == TT

    def test_select_rejects_unknown_attribute(self):
        node = ir.Select(scan(), "t1 <= bogus")
        with pytest.raises(SchemaError):
            node.schema

    def test_select_rejects_data_attribute(self):
        for condition in ("d >= 0", "t <= d + 1"):
            node = ir.Select(scan("S", TD), condition)
            with pytest.raises(SchemaError):
                node.schema

    def test_project_reorders(self):
        node = ir.Project(scan(), ("t2", "t1"))
        assert node.schema.names == ("t2", "t1")

    def test_project_rejects_duplicate_and_unknown_names(self):
        for names in (("t1", "t1"), ("t1", "bogus")):
            with pytest.raises(SchemaError):
                ir.Project(scan(), names).schema

    def test_rename(self):
        node = ir.Rename(scan(), (("t1", "a"), ("t2", "b")))
        assert node.schema.names == ("a", "b")
        assert all(a.temporal for a in node.schema.attributes)

    def test_join_merges(self):
        left = scan("A", Schema.make(temporal=["x", "y"]))
        right = scan("B", Schema.make(temporal=["y", "z"]))
        assert ir.Join(left, right).schema.names == ("x", "y", "z")

    def test_join_rejects_sort_conflict(self):
        left = scan("A", Schema.make(temporal=["x"]))
        right = scan("B", Schema.make(data=["x"]))
        with pytest.raises(SchemaError):
            ir.Join(left, right).schema

    def test_product_rejects_overlap(self):
        with pytest.raises(SchemaError):
            ir.Product(scan("A"), scan("B")).schema

    def test_setop_rejects_mismatch(self):
        with pytest.raises(SchemaError):
            ir.Union(scan("A"), scan("B", TD)).schema

    def test_data_nodes(self):
        assert ir.DataDomain("d").schema.data_names == ("d",)
        assert ir.DataDiag("y", "x").schema.names == ("x", "y")

    def test_unary_passthrough(self):
        base = scan()
        for node in (
            ir.Complement(base),
            ir.Guard(base),
            ir.Shift(base, "t1", 3),
        ):
            assert node.schema == TT


class TestStructure:
    def test_nodes_are_frozen(self):
        node = scan()
        with pytest.raises(AttributeError):
            node.name = "other"

    def test_children_and_walk(self):
        tree = ir.Join(ir.Select(scan("A"), "t1 >= 0"), scan("B", TD))
        assert [n.op for n in tree.walk()] == [
            "join", "select", "scan", "scan",
        ]
        assert tree.size() == 4

    def test_replace_children_arity_checked(self):
        tree = ir.Complement(scan())
        with pytest.raises(SchemaError):
            tree.replace_children((scan(), scan()))

    def test_key_ignores_labels(self):
        plain = ir.Select(scan(), "t1 >= 0")
        labeled = plain.add_label("compare", "t1 >= 0")
        assert plain.key() == labeled.key()
        assert plain != labeled

    def test_add_label_prepends(self):
        node = scan().add_label("inner").add_label("outer")
        assert [op for op, _ in node.labels] == ["outer", "inner"]

    def test_literal_identity_by_token(self):
        assert truth_literal(True) == truth_literal(True)
        assert truth_literal(True) != truth_literal(False)
        assert universe_literal(["t"]) == universe_literal(["t"])

    def test_to_dict_and_render(self):
        tree = ir.Project(
            ir.Select(scan(), "t1 >= 0").add_label("compare", "t1 >= 0"),
            ("t1",),
        )
        payload = tree.to_dict()
        assert payload["op"] == "project"
        assert payload["children"][0]["labels"] == [["compare", "t1 >= 0"]]
        text = str(tree)
        assert "project[t1]" in text and "select[t1 >= 0]" in text

    def test_render_and_to_dict_with_sizes(self):
        select = ir.Select(scan(), "t1 >= 0").add_label("compare", "t1 >= 0")
        tree = ir.Project(select, ("t1",))
        sizes = {id(tree): 2, id(select): 3}
        lines = tree.render(1, sizes)
        assert lines[0].startswith("  project[t1]")
        assert lines[0].endswith("  -> 2 tuple(s)")
        assert lines[1].endswith("← compare: t1 >= 0  -> 3 tuple(s)")
        assert lines[2] == tree.render(1)[2]  # the scan was not sized
        payload = tree.to_dict(sizes)
        assert payload["out_tuples"] == 2
        assert payload["children"][0]["out_tuples"] == 3
        assert "out_tuples" not in payload["children"][0]["children"][0]
        assert "out_tuples" not in str(tree.to_dict())

    def test_literal_constructors(self):
        assert len(truth_literal(True).relation) == 1
        assert len(truth_literal(False).relation) == 0
        assert empty_literal(TT).relation.is_empty()
        single = singleton_literal("d", "v")
        assert len(single.relation) == 1
        assert single.relation.schema.data_names == ("d",)


class TestNativeEngine:
    def test_scan_missing_relation(self):
        from repro.core.errors import EvaluationError

        ctx = ExecutionContext(relations={})
        with pytest.raises(EvaluationError, match="unknown relation"):
            NativeEngine().run(scan("Missing"), ctx)

    def test_memo_computes_shared_subtree_once(self):
        rel = GeneralizedRelation.empty(TT)
        rel.add_tuple(["1", "2"])
        shared = ir.Select(scan(), "t1 <= t2")
        tree = ir.Union(shared, shared)
        seen = []
        ctx = ExecutionContext(
            relations={"R": rel},
            memo={},
            on_result=lambda node, result: seen.append(id(node)),
        )
        out = NativeEngine().run(tree, ctx)
        assert not out.is_empty()
        # The shared select (and the scan below it) ran once, not twice.
        assert seen.count(id(shared)) == 1

    def test_on_pair_hook_fires(self):
        rel = GeneralizedRelation.empty(TT)
        rel.add_tuple(["1", "2"])
        pairs = []
        ctx = ExecutionContext(
            relations={"R": rel},
            on_pair=lambda node, l, r: pairs.append((node.op, l, r)),
        )
        NativeEngine().run(ir.Intersect(scan(), scan()), ctx)
        assert pairs == [("intersect", 1, 1)]

    def test_every_node_spans_while_traced(self):
        from repro.obs import tracing

        rel = GeneralizedRelation.empty(TT)
        rel.add_tuple(["1", "2"])
        tree = ir.Select(scan(), "t1 <= t2").add_label("compare", "t1 <= t2")
        with tracing() as recorder:
            NativeEngine().run(tree, ExecutionContext(relations={"R": rel}))
        # A labeled node opens one query.* span per label; an unlabeled
        # one its plan.<op> span, naive and optimized runs alike.
        root = recorder.root
        assert root.name == "query.compare"
        assert [c.name for c in root.children][0] == "plan.scan"
