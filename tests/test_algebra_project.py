"""Differential and paper-example tests for projection (Section 3.4)."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import algebra
from repro.core.dbm import DBM
from repro.core.errors import NormalizationLimitError, SchemaError
from repro.core.lrp import LRP
from repro.core.normalize import DEFAULT_MAX_TUPLES
from repro.core.relations import GeneralizedRelation, Schema, relation
from repro.core.tuples import GeneralizedTuple
from repro.obs.metrics import COUNTERS
from repro.perf.config import overrides

from tests.helpers import random_relation

WINDOW = (-9, 9)


class TestFigure2:
    """Figure 2: real-relaxation projection is unsound over Z."""

    def figure2_relation(self):
        r = relation(temporal=["X1", "X2"])
        r.add_tuple(
            ["4n + 3", "8n + 1"], "X1 >= X2 & X1 <= X2 + 5 & X2 >= 2"
        )
        return r

    def test_true_projection(self):
        proj = algebra.project(self.figure2_relation(), ["X1"])
        points = sorted(x for (x,) in proj.snapshot(0, 40))
        assert points == [11, 19, 27, 35]

    def test_spurious_points_excluded(self):
        """3, 7, 15, 23 are in the real projection but not over Z."""
        proj = algebra.project(self.figure2_relation(), ["X1"])
        for spurious in (3, 7, 15, 23):
            assert not proj.contains([spurious])

    def test_real_relaxation_would_include_them(self):
        """Confirm the paper's point: the naive DBM projection (valid
        for free integer/real variables, wrong on lattices) admits the
        spurious points."""
        r = self.figure2_relation()
        (gtuple,) = r.tuples
        naive = gtuple.dbm.project([0])  # drop X2 without normalizing
        for spurious in (3, 7, 15, 23):
            # lattice-compatible with 4n+3, accepted by naive constraints
            assert gtuple.lrps[0].contains(spurious)
            assert naive.satisfied_by([spurious])


class TestProjectBasics:
    def test_reorder_only(self):
        r = relation(temporal=["a", "b"])
        r.add_tuple(["2n", "3n"], "a <= b")
        out = algebra.project(r, ["b", "a"])
        assert out.schema.names == ("b", "a")
        assert out.contains([6, 2])
        assert not out.contains([2, 6])

    def test_drop_unconstrained_column(self):
        r = relation(temporal=["a", "b"])
        r.add_tuple(["2n", "3n"])
        out = algebra.project(r, ["a"])
        assert out.contains([2]) and not out.contains([1])

    def test_drop_data_column(self):
        schema = Schema.make(temporal=["t"], data=["who", "what"])
        r = GeneralizedRelation.empty(schema)
        r.add_tuple(["2n"], data=["r1", "t1"])
        out = algebra.project(r, ["t", "what"])
        assert out.schema.data_names == ("what",)
        assert out.contains([2], ["t1"])

    def test_unknown_attribute(self):
        with pytest.raises(SchemaError):
            algebra.project(relation(temporal=["a"]), ["zzz"])

    def test_duplicate_names(self):
        with pytest.raises(SchemaError):
            algebra.project(relation(temporal=["a"]), ["a", "a"])

    def test_project_to_empty_schema(self):
        r = relation(temporal=["a"])
        r.add_tuple(["2n"])
        out = algebra.project(r, [])
        assert len(out.schema) == 0
        assert not out.is_empty()

    def test_project_empty_relation_to_empty_schema(self):
        out = algebra.project(relation(temporal=["a"]), [])
        assert out.is_empty()


class TestPartialNormalization:
    def test_unconnected_columns_not_split(self):
        """Dropping an unconstrained column must not explode the others."""
        r = relation(temporal=["a", "b", "c"])
        r.add_tuple(["7n", "11n", "13n + 1"], "a <= 3")
        out = algebra.project(r, ["a", "b"])
        # b and c were never connected to each other or to a, so the
        # result is a single tuple with b's lrp untouched.
        assert len(out) == 1
        (t,) = out.tuples
        assert t.lrps[1].period == 11

    def test_cluster_limited_split(self):
        r = relation(temporal=["a", "b", "c"])
        r.add_tuple(["2n", "3n", "5n"], "a <= b")
        out = algebra.project(r, ["b", "c"])
        # cluster = {a, b} with lcm 6: a splits 3-ways, b 2-ways; c never.
        assert all(t.lrps[1].period == 5 for t in out.tuples)


class TestProjectionDifferential:
    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_project_first_of_two(self, seed):
        rng = random.Random(seed)
        r = random_relation(rng, Schema.make(temporal=["X1", "X2"]), 2)
        out = algebra.project(r, ["X1"])
        wide = (-30, 30)
        expected_wide = {a for (a, b) in r.snapshot(*wide)}
        got = {a for (a,) in out.snapshot(*WINDOW)}
        expected = {a for a in expected_wide if WINDOW[0] <= a <= WINDOW[1]}
        # Exactness within the inner window: the wide enumeration covers
        # every preimage whose X2 lies within ±30 of the window; random
        # constraint constants are <= 6 so that margin suffices.
        assert got == expected

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_project_middle_of_three(self, seed):
        rng = random.Random(seed)
        r = random_relation(
            rng, Schema.make(temporal=["X1", "X2", "X3"]), 2
        )
        out = algebra.project(r, ["X1", "X3"])
        wide = (-25, 25)
        inner = (-6, 6)
        expected = {
            (a, c)
            for (a, b, c) in r.snapshot(*wide)
            if inner[0] <= a <= inner[1] and inner[0] <= c <= inner[1]
        }
        got = out.snapshot(*inner)
        assert got == expected

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_every_projected_point_has_integer_preimage(self, seed):
        """Soundness half of Theorem 3.1, checked symbolically."""
        rng = random.Random(seed)
        r = random_relation(rng, Schema.make(temporal=["X1", "X2"]), 2)
        out = algebra.project(r, ["X1"])
        for (x,) in out.snapshot(*WINDOW):
            probe = algebra.select(r, f"X1 = {x}")
            assert not probe.is_empty(), f"{x} has no preimage"


def _reference_project(relation, names):
    """Projection by the full split product, with no residue pruning.

    Every satisfiable tuple is closed from its written constraints; a
    re-ordering keeps the closure's kept rows, and an elimination
    normalizes every combo of the split product, planned against an
    unconstrained closure so no residue test can reject the tuple.
    """
    schema = relation.schema
    attrs = tuple(schema.attribute(name) for name in names)
    keep_t = [schema.temporal_index(a.name) for a in attrs if a.temporal]
    keep_d = [schema.data_index(a.name) for a in attrs if not a.temporal]
    dropped = [i for i in range(schema.temporal_arity) if i not in keep_t]
    out = GeneralizedRelation.empty(Schema(attrs))
    for gtuple in relation:
        data = tuple(gtuple.data[i] for i in keep_d)
        probe = gtuple.dbm.copy()
        if not probe.close():
            continue
        if not dropped:
            lrps = tuple(gtuple.lrps[i] for i in keep_t)
            out.add(GeneralizedTuple(lrps, probe.project(keep_t), data))
            continue
        plan = algebra._project_plan(
            gtuple, keep_t, dropped, DEFAULT_MAX_TUPLES, _open_rows(gtuple)
        )
        for combo in itertools.product(*plan.split.choices):
            projected = algebra._project_combo(gtuple, plan, combo, keep_t)
            if projected is not None:
                out.add(GeneralizedTuple(projected.lrps, projected.dbm, data))
    return out


def _open_rows(gtuple):
    """The closure of the unconstrained system over ``gtuple``'s arity."""
    return DBM(gtuple.temporal_arity)._b


def _exact(relation):
    """Everything that makes two outputs tuple-identical, in order."""
    return [
        (
            t.lrps,
            t.dbm._b,
            t.dbm._closed,
            t.data,
            t.canonical_key(),
        )
        for t in relation
    ]


PRUNE_PERIODS = (6, 8, 12, 24)


def _pruning_relation(rng, arity):
    """Tuples whose lrps often miss their narrow closed windows.

    Periods are drawn from 6/8/12/24 with some singletons; each tuple
    gets unbounded, half-bounded or bounded unary windows, or
    difference constraints only.
    """
    schema = Schema.make(
        temporal=[f"X{i}" for i in range(arity)], data=["d"]
    )
    rel = GeneralizedRelation.empty(schema)
    for _ in range(rng.randint(1, 5)):
        lrps = []
        for _ in range(arity):
            if rng.random() < 0.25:
                lrps.append(LRP.point(rng.randint(-20, 40)))
            else:
                period = rng.choice(PRUNE_PERIODS)
                lrps.append(LRP.make(rng.randrange(period), period))
        dbm = DBM(arity)
        shape = rng.choice(("unbounded", "half", "window", "difference"))
        for i in range(arity):
            low = rng.randint(-10, 30)
            if shape == "window":
                dbm.add_lower(i, low)
                dbm.add_upper(i, low + rng.randint(0, 12))
            elif shape == "half":
                if rng.random() < 0.5:
                    dbm.add_lower(i, low)
                else:
                    dbm.add_upper(i, low)
        if arity > 1:
            for _ in range(rng.randint(0, arity)):
                i, j = rng.sample(range(arity), 2)
                low = rng.randint(-6, 6)
                dbm.add_difference(i, j, low + rng.randint(0, 6))
                dbm.add_difference(j, i, -low)
        rel.add(GeneralizedTuple(tuple(lrps), dbm, (rng.choice("ab"),)))
    return rel


class TestResiduePruning:
    """Residue pruning (Section 3.2.1 against the carried closure)
    leaves projection tuple-identical to the full split product."""

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    @pytest.mark.parametrize("warm", [True, False])
    def test_matches_full_product(self, backend, warm):
        """``warm`` runs the reference first, so projection meets plans
        memoized before any residue test ran on them."""
        rng = random.Random(0x3D4)
        skipped = 0
        for trial in range(400):
            arity = rng.randint(1, 4)
            rel = _pruning_relation(rng, arity)
            names = [n for n in rel.schema.names if rng.random() < 0.5]
            rng.shuffle(names)
            with overrides(kernel=backend):
                if warm:
                    expected = _exact(_reference_project(rel, names))
                before = COUNTERS["perf.prefilter_residue_skip"]
                got = _exact(algebra.project(rel, names))
                skipped += COUNTERS["perf.prefilter_residue_skip"] - before
                if not warm:
                    expected = _exact(_reference_project(rel, names))
                # Memoized plans answer alike.
                assert _exact(algebra.project(rel, names)) == got
            assert got == expected, f"trial {trial}: project({names})"
        assert skipped > 0

    def test_formed_plus_skipped_is_the_split_product(self):
        rng = random.Random(0x5B1)
        rejected = pruned = 0
        for _ in range(300):
            rel = _pruning_relation(rng, rng.randint(2, 4))
            dropped = list(range(1, rel.schema.temporal_arity))
            for gtuple in rel:
                rows = gtuple.closure()
                if rows is None:
                    continue
                product = algebra._project_plan(
                    gtuple, [0], dropped, DEFAULT_MAX_TUPLES, _open_rows(gtuple)
                ).split.size
                before = COUNTERS["perf.prefilter_residue_skip"]
                plan = algebra._project_plan(
                    gtuple, [0], dropped, DEFAULT_MAX_TUPLES, rows
                )
                skipped = COUNTERS["perf.prefilter_residue_skip"] - before
                if plan is None:
                    # Rejected before planning: the whole product.
                    assert skipped == product
                    rejected += 1
                    continue
                assert skipped == 0
                before = COUNTERS["perf.prefilter_residue_skip"]
                formed = plan.split.combos(rows)
                skipped = COUNTERS["perf.prefilter_residue_skip"] - before
                assert len(formed) + skipped == product
                kept = set(formed)
                full = itertools.product(*plan.split.choices)
                assert formed == [c for c in full if c in kept]
                pruned += skipped
        assert rejected and pruned

    def test_empty_tuple_outside_the_cluster_passes_through(self):
        # X1 = 1 with X1 <= 0 is empty, but X1 is not in the cluster of
        # the dropped X2, X3: it passes through unchanged, as before.
        rel = relation(temporal=["X1", "X2", "X3"])
        rel.add_tuple([1, 0, 0], "X1 <= 0")
        for backend in ("numpy", "python"):
            with overrides(kernel=backend):
                out = algebra.project(rel, ["X1"])
                assert _exact(out) == _exact(_reference_project(rel, ["X1"]))
            assert [t.lrps for t in out] == [(LRP.point(1),)]

    def _residue_empty(self):
        # X1 ≡ 1 (mod 6) and X2 ≡ 0 (mod 8) differ by an odd number, so
        # X1 = X2 has no solution; the split product over k = 24 is 12.
        rel = relation(temporal=["X1", "X2"])
        rel.add_tuple(["1 + 6n", "8n"], "X1 = X2")
        return rel

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    def test_residue_empty_tuple_no_longer_hits_the_limit(self, backend):
        rel = self._residue_empty()
        with overrides(kernel=backend):
            before = COUNTERS["perf.normalize_expansion"]
            out = algebra.project(rel, ["X1"], max_tuples=5)
            assert COUNTERS["perf.normalize_expansion"] == before
        assert out.is_empty()

    def test_full_product_still_hits_the_limit(self):
        # X1 - X2 = 1 is odd, as 1 + 6n - 8m is: the residues meet, so
        # the whole split product of 12 must be normalized.
        rel = relation(temporal=["X1", "X2"])
        rel.add_tuple(["1 + 6n", "8n"], "X1 = X2 + 1")
        with pytest.raises(NormalizationLimitError):
            algebra.project(rel, ["X1"], max_tuples=5)
