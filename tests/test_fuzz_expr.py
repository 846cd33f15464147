"""Tests for fuzz cases over plan-IR expressions and their JSON codec."""

import json

import pytest

from repro.core.errors import ReproValueError, SchemaError
from repro.core.relations import GeneralizedRelation, Schema, relation
from repro.fuzz.case import (
    Case,
    case_from_dict,
    expr_text,
    load_case,
    scan_names,
)
from repro.fuzz.gen import case_seed, generate_case
from repro.plan import nodes as ir

T1 = Schema.make(temporal=["T1"])
T12 = Schema.make(temporal=["T1", "T2"])
T12D = Schema.make(temporal=["T1", "T2"], data=["D1"])


def scan(name, schema=T1):
    return ir.Scan(name, schema)


def case_over(expr, **schemas):
    """A case with an empty relation per named schema."""
    return Case(
        relations={
            name: GeneralizedRelation.empty(schema)
            for name, schema in schemas.items()
        },
        expr=expr,
        low=-4,
        high=4,
        data_domains={"D1": ["a", "b"]},
    )


class TestSchemas:
    """An ill-formed expression makes its case fail validation."""

    def test_leaf(self):
        assert case_over(scan("R"), R=T1).result_schema() == T1
        with pytest.raises(ReproValueError, match="unknown relation"):
            case_over(scan("missing"), R=T1).validate()
        with pytest.raises(ReproValueError, match="expects"):
            case_over(scan("R", T12), R=T1).validate()

    def test_set_ops_require_equal_schemas(self):
        schemas = dict(A=T1, B=T1, C=T12)
        ok = case_over(ir.Union(scan("A"), scan("B")), **schemas)
        ok.validate()
        assert ok.result_schema() == T1
        for cls in (ir.Union, ir.Intersect, ir.Subtract):
            bad = case_over(cls(scan("A"), scan("C", T12)), **schemas)
            with pytest.raises(SchemaError):
                bad.validate()

    def test_join_merges_shared_names(self):
        t23 = Schema.make(temporal=["T2", "T3"])
        case = case_over(ir.Join(scan("A", T12), scan("B", t23)), A=T12, B=t23)
        assert case.result_schema().names == ("T1", "T2", "T3")

    def test_join_rejects_kind_mismatch(self):
        clash = Schema.make(temporal=["D1"])
        case = case_over(
            ir.Join(scan("A", T12D), scan("B", clash)), A=T12D, B=clash
        )
        with pytest.raises(SchemaError):
            case.validate()

    def test_product_requires_disjoint_names(self):
        t2 = Schema.make(temporal=["T2"])
        schemas = dict(A=T1, B=t2, C=T1)
        ok = case_over(ir.Product(scan("A"), scan("B", t2)), **schemas)
        assert ok.result_schema().names == ("T1", "T2")
        with pytest.raises(SchemaError):
            case_over(ir.Product(scan("A"), scan("C")), **schemas).validate()

    def test_select_checks_attribute_names(self):
        a = scan("A", T12D)
        ok = case_over(ir.Select(a, "T1 <= T2 + 3"), A=T12D)
        assert ok.result_schema() == T12D
        for condition in ("T9 <= 0", "T1 <= D1"):
            bad = case_over(ir.Select(a, condition), A=T12D)
            with pytest.raises(SchemaError):
                bad.validate()

    def test_project_subset_and_reorder(self):
        a = scan("A", T12D)
        out = case_over(ir.Project(a, ("D1", "T2")), A=T12D).result_schema()
        assert out.names == ("D1", "T2")
        for names in (("T1", "T1"), ("nope",)):
            with pytest.raises(SchemaError):
                case_over(ir.Project(a, names), A=T12D).validate()

    def test_complement_preserves_schema(self):
        case = case_over(ir.Complement(scan("A", T12)), A=T12)
        assert case.result_schema() == T12


class TestStructure:
    def test_walk_size_leaves(self):
        tree = ir.Union(ir.Project(scan("A"), ("T1",)), scan("B"))
        assert tree.size() == 4
        assert scan_names(tree) == {"A", "B"}
        assert [type(n).__name__ for n in tree.walk()] == [
            "Union", "Project", "Scan", "Scan",
        ]

    def test_with_children_rebuilds_same_op(self):
        tree = ir.Subtract(scan("A"), scan("B"))
        rebuilt = tree.replace_children((scan("X"), scan("Y")))
        assert isinstance(rebuilt, ir.Subtract)
        assert scan_names(rebuilt) == {"X", "Y"}

    def test_distinct_ops_are_unequal(self):
        assert ir.Union(scan("A"), scan("B")) != ir.Intersect(
            scan("A"), scan("B")
        )

    def test_str_is_readable(self):
        tree = ir.Select(ir.Complement(scan("R")), "T1 >= 0")
        assert expr_text(tree) == "select[T1 >= 0](complement(scan[R]))"
        case = case_over(tree, R=T1)
        assert "expr=select[T1 >= 0](complement(scan[R]))" in case.describe()


def all_kinds_case():
    a, b = scan("A"), scan("B")
    c, d = scan("C", Schema.make(temporal=["T2"])), scan("D")
    tree = ir.Union(
        ir.Subtract(
            ir.Project(ir.Select(a, "T1 <= 2"), ("T1",)),
            ir.Complement(b),
        ),
        ir.Intersect(
            b,
            ir.Project(
                ir.Join(a, ir.Product(c, ir.Project(d, ("T1",)))), ("T1",)
            ),
        ),
    )
    return case_over(tree, A=T1, B=T1, C=c.schema, D=T1)


class TestExprRoundTrip:
    def test_round_trip_all_node_kinds(self):
        case = all_kinds_case()
        payload = case.to_dict()
        assert payload["expr"]["right"]["left"] == {"op": "leaf", "name": "B"}
        back = case_from_dict(payload)
        assert back.expr == case.expr
        assert back.dumps() == case.dumps()

    def test_generated_cases_round_trip_byte_identical(self):
        for index in range(200):
            case = generate_case(case_seed(0, index))
            assert case_from_dict(case.to_dict()).dumps() == case.dumps()

    def test_malformed_payloads(self):
        payload = all_kinds_case().to_dict()
        with pytest.raises(ReproValueError, match="unknown expression op"):
            case_from_dict({**payload, "expr": {"op": "frobnicate"}})
        for expr in (
            {"op": "frobnicate"},
            {"op": "union", "left": {"op": "leaf", "name": "A"}},
            {"op": "select", "child": {"op": "leaf", "name": "A"}},
            {"op": "project", "child": {"op": "leaf", "name": "A"}},
            {"op": "complement"},
            {"op": "leaf"},
            "leaf",
            {"name": "A"},
        ):
            with pytest.raises(ReproValueError):
                case_from_dict({**payload, "expr": expr})

    def test_unknown_leaf_name(self):
        payload = all_kinds_case().to_dict()
        expr = {"op": "complement", "child": {"op": "leaf", "name": "Z"}}
        with pytest.raises(ReproValueError, match="unknown relation 'Z'"):
            case_from_dict({**payload, "expr": expr})

    def test_ir_only_nodes_are_rejected(self):
        for tree in (
            ir.Rename(scan("A"), (("T1", "T9"),)),
            ir.Shift(scan("A"), "T1", 2),
            ir.Union(scan("A"), ir.Guard(scan("A"))),
            ir.Join(scan("A"), scan("C", T12), condition="T2 >= T1"),
            ir.truth_literal(True),
        ):
            case = Case(
                relations={"A": GeneralizedRelation.empty(T1)},
                expr=tree,
                low=0,
                high=1,
            )
            with pytest.raises(ReproValueError, match="cannot hold"):
                case.to_dict()
            with pytest.raises(ReproValueError, match="cannot hold"):
                case.validate()


class TestCase:
    def make_case(self):
        r = GeneralizedRelation.empty(T1)
        r.add_tuple(["1 + 3n"], "T1 >= -2")
        return Case(
            relations={"R": r},
            expr=ir.Complement(scan("R")),
            low=-4,
            high=4,
            seed=99,
            note="hand-built",
        )

    def test_validate_and_describe(self):
        case = self.make_case()
        case.validate()
        assert case.result_schema() == T1
        assert case.total_tuples() == 1
        assert "seed=99" in case.describe()

    def test_validate_requires_data_domains(self):
        r = relation(temporal=["T1"], data=["D1"])
        r.add_tuple([2], data=["a"])
        leaf = scan("R", r.schema)
        case = Case(relations={"R": r}, expr=leaf, low=0, high=1)
        with pytest.raises(ReproValueError):
            case.validate()
        ok = Case(
            relations={"R": r},
            expr=leaf,
            low=0,
            high=1,
            data_domains={"D1": ["a", "b"]},
        )
        ok.validate()

    def test_json_round_trip(self, tmp_path):
        case = self.make_case()
        back = case_from_dict(json.loads(case.dumps()))
        assert back.expr == case.expr
        assert back.low == case.low and back.high == case.high
        assert back.seed == 99 and back.note == "hand-built"
        assert back.relations["R"].snapshot(-20, 20) == case.relations[
            "R"
        ].snapshot(-20, 20)

    def test_save_and_load(self, tmp_path):
        case = self.make_case()
        path = case.save(tmp_path / "case.json")
        loaded = load_case(path)
        assert loaded.expr == case.expr
        assert loaded.relations["R"] == case.relations["R"]

    def test_malformed_case_payload(self):
        with pytest.raises(ReproValueError):
            case_from_dict({"format": "other/9"})
        with pytest.raises(ReproValueError):
            case_from_dict({"format": "repro-fuzz-case/1"})
