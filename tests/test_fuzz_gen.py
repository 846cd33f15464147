"""Tests for seeded case generation."""

from dataclasses import replace

from repro.fuzz.case import case_from_dict, scan_names
from repro.fuzz.gen import (
    DEFAULT_PROFILE,
    case_seed,
    generate_case,
)
from repro.plan.nodes import Complement, Join, Product, Project, Select

SEEDS = range(120)


class TestDeterminism:
    def test_same_seed_same_case(self):
        for seed in (0, 7, 1234):
            a = generate_case(seed)
            b = generate_case(seed)
            assert a.to_dict() == b.to_dict()

    def test_round_trip_preserves_generated_cases(self):
        for seed in range(30):
            case = generate_case(seed)
            back = case_from_dict(case.to_dict())
            assert back.expr == case.expr
            assert set(back.relations) == set(case.relations)
            for name in case.relations:
                assert back.relations[name].snapshot(-15, 15) == case.relations[
                    name
                ].snapshot(-15, 15)

    def test_case_seed_derivation(self):
        assert case_seed(0, 5) == 5
        assert case_seed(2, 5) == 2 * 1_000_003 + 5
        # Distinct (base, index) pairs in normal ranges never collide.
        seen = {case_seed(b, i) for b in range(4) for i in range(1000)}
        assert len(seen) == 4000


class TestValidity:
    def test_generated_cases_validate(self):
        for seed in SEEDS:
            case = generate_case(seed)
            case.validate()
            schema = case.result_schema()
            assert schema.temporal_arity <= DEFAULT_PROFILE.max_temporal_arity
            assert scan_names(case.expr) == set(case.relations)

    def test_windows_follow_profile(self):
        profile = replace(DEFAULT_PROFILE, low=-2, high=7)
        case = generate_case(11, profile)
        assert (case.low, case.high) == (-2, 7)

    def test_data_cases_carry_domains(self):
        for seed in SEEDS:
            case = generate_case(seed)
            data_names = {
                n for r in case.relations.values() for n in r.schema.data_names
            }
            for name in data_names:
                assert name in case.data_domains


class TestCoverage:
    """The generator exercises every operation and relation shape."""

    def test_all_op_kinds_appear(self):
        seen = set()
        for seed in range(400):
            for node in generate_case(seed).expr.walk():
                seen.add(type(node).__name__)
        assert {
            "Scan",
            "Union",
            "Intersect",
            "Subtract",
            "Join",
            "Product",
            "Select",
            "Project",
            "Complement",
        } <= seen

    def test_projection_sometimes_drops_and_sometimes_reorders(self):
        drops = reorders = 0
        for seed in range(400):
            case = generate_case(seed)
            for node in case.expr.walk():
                if not isinstance(node, Project):
                    continue
                child_schema = node.child.schema
                if set(node.names) < set(child_schema.names):
                    drops += 1
                elif node.names != child_schema.names:
                    reorders += 1
        assert drops > 0 and reorders > 0

    def test_secondary_schemas_and_data_both_appear(self):
        with_secondary = with_data = 0
        for seed in range(200):
            case = generate_case(seed)
            if "S" in case.relations:
                with_secondary += 1
            if case.data_domains:
                with_data += 1
        assert with_secondary > 0
        assert with_data > 0

    def test_joins_overlap_and_products_are_disjoint(self):
        for seed in range(400):
            case = generate_case(seed)
            for node in case.expr.walk():
                if isinstance(node, Product):
                    s1 = node.left.schema
                    s2 = node.right.schema
                    assert not (set(s1.names) & set(s2.names))
                elif isinstance(node, Join):
                    assert not node.condition
                    node.schema  # must be well-formed

    def test_selects_parse_against_their_child(self):
        for seed in range(400):
            case = generate_case(seed)
            for node in case.expr.walk():
                if isinstance(node, (Select, Complement)):
                    node.schema  # must not raise
