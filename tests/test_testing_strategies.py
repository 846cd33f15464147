"""Tests for the public hypothesis strategies (and via them, more fuzz)."""

from hypothesis import given, settings

from repro.core import algebra
from repro.core.lrp import LRP
from repro.periodic import PeriodicSet
from repro.testing import (
    dbms,
    generalized_relations,
    generalized_tuples,
    lrps,
    periodic_sets,
)


class TestStrategyShapes:
    @given(lrps())
    def test_lrps_are_canonical(self, lrp):
        assert isinstance(lrp, LRP)
        assert lrp.period >= 0
        if lrp.period > 0:
            assert 0 <= lrp.offset < lrp.period

    @given(lrps(allow_singletons=False))
    def test_no_singletons_option(self, lrp):
        assert lrp.period >= 1

    @given(dbms(arity=3))
    def test_dbms_have_right_size(self, dbm):
        assert dbm.size == 3

    @given(generalized_tuples(temporal_arity=2, data_values=("x",)))
    def test_tuples_have_right_shape(self, gtuple):
        assert gtuple.temporal_arity == 2
        assert gtuple.data == ("x",)

    @given(generalized_relations(temporal_arity=1, max_tuples=2))
    @settings(max_examples=50)
    def test_relations_have_right_schema(self, rel):
        assert rel.schema.temporal_names == ("X1",)
        assert rel.schema.data_arity == 0

    @given(periodic_sets())
    @settings(max_examples=50)
    def test_periodic_sets_valid(self, ps):
        assert isinstance(ps, PeriodicSet)
        ps.between(-5, 5)  # must not raise


class TestStrategiesDriveRealProperties:
    """The strategies are good enough to state real theorems with."""

    @given(
        generalized_relations(temporal_arity=1, max_tuples=2),
        generalized_relations(temporal_arity=1, max_tuples=2),
    )
    @settings(max_examples=60, deadline=None)
    def test_absorption_law(self, a, b):
        """a ∪ (a ∩ b) == a."""
        rebuilt = algebra.union(a, algebra.intersect(a, b))
        assert rebuilt.snapshot(-10, 10) == a.snapshot(-10, 10)

    @given(generalized_relations(temporal_arity=2, max_tuples=2))
    @settings(max_examples=40, deadline=None)
    def test_projection_monotone(self, rel):
        """Π(a) ⊆ Π(a ∪ anything) — via the strategy's own union."""
        doubled = algebra.union(rel, rel)
        left = algebra.project(rel, ["X1"])
        right = algebra.project(doubled, ["X1"])
        assert left.snapshot(-10, 10) == right.snapshot(-10, 10)

    @given(periodic_sets(), periodic_sets())
    @settings(max_examples=50, deadline=None)
    def test_symmetric_difference_disjoint_from_intersection(self, a, b):
        assert (a ^ b).isdisjoint(a & b)


class TestSeededGenerators:
    """The deterministic counterparts draw from the same distributions."""

    def test_seeded_replay_is_exact(self):
        import random

        from repro.testing import seeded_dbm, seeded_lrp, seeded_relation

        a = seeded_relation(random.Random(42), temporal_arity=2)
        b = seeded_relation(random.Random(42), temporal_arity=2)
        assert a == b
        assert seeded_lrp(random.Random(7)) == seeded_lrp(random.Random(7))
        assert seeded_dbm(random.Random(7), 3).canonical_key() == seeded_dbm(
            random.Random(7), 3
        ).canonical_key()

    def test_seeded_dbm_zero_arity_spends_no_draws(self):
        import random

        rng = random.Random(5)
        from repro.testing import seeded_dbm

        seeded_dbm(rng, 0)
        control = random.Random(5)
        assert rng.randint(0, 10**6) == control.randint(0, 10**6)

    def test_difference_constraints_are_generated(self):
        """Regression: the i == j draw used to silently fall through to
        an upper bound, so genuine difference constraints X_i - X_j <= c
        between distinct variables were underrepresented."""
        import random

        from repro.testing import seeded_dbm

        diff_seen = 0
        for seed in range(300):
            dbm = seeded_dbm(random.Random(seed), 2)
            for i, j, _ in dbm.iter_bounds():
                if i >= 0 and j >= 0:
                    diff_seen += 1
        # kind==0 is drawn 1/3 of the time; with up to 4 constraints per
        # dbm over 300 seeds, hundreds of draws happen.  Before the fix
        # roughly half of kind==0 draws (the i==j ones) were lost.
        assert diff_seen > 100

    def test_strategy_and_seeded_share_one_distribution(self):
        """Same draw sequence -> same structure via either family."""
        from repro.testing import _build_relation

        import itertools

        draws = itertools.cycle([2, 3, 1, 0, 1, 4, 2, 0, 1, 1, 3, 5, 0, 2])

        def scripted(lo, hi):
            return max(lo, min(hi, next(draws)))

        rel = _build_relation(scripted, temporal_arity=1)
        assert rel.schema.temporal_names == ("X1",)


def test_importing_the_api_leaves_hypothesis_unloaded():
    """The strategies load hypothesis on first use, not on import: the
    fuzzer imports ``repro.testing``."""
    import subprocess
    import sys

    probe = "import sys, repro.api; print('hypothesis' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
